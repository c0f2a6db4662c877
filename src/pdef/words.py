"""Free-group word arithmetic.

A letter is a nonzero integer: ``+i`` is the i-th generator (1-based),
``-i`` its inverse.  Words are stored freely reduced; all operations
return freely reduced results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


# Miller-Rabin on the first 13 prime bases is exact below psi_13
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality by deterministic Miller-Rabin; ValueError from psi_13 on."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is too large for an exact primality test")
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_letters(letters, n_generators=None):
    for ell in letters:
        if not isinstance(ell, int) or isinstance(ell, bool) or ell == 0:
            raise ValueError(f"bad letter {ell!r}: letters are nonzero integers")
        if n_generators is not None and abs(ell) > n_generators:
            raise ValueError(f"unknown generator index {abs(ell)} (alphabet size {n_generators})")


@dataclass(frozen=True)
class Word:
    """A freely reduced word, as a tuple of signed generator indices."""

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise ValueError(f"not freely reduced: {self.letters}")

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return reduce(self.letters + other.letters)

    def __pow__(self, n: int) -> "Word":
        return word_power(self, n)

    def inverse(self) -> "Word":
        return Word(tuple(-ell for ell in reversed(self.letters)))

    def max_index(self) -> int:
        """Largest generator index appearing (0 for the empty word)."""
        return max((abs(ell) for ell in self.letters), default=0)


EPSILON = Word()


@dataclass(frozen=True)
class RootDecomposition:
    """Maximal-power structure of a word: input = conjugator * root^exponent * conjugator^-1.

    ``root`` is cyclically reduced and primitive.  For the empty word the
    exponent is 0, a marker for "any power works" (see ``nu_p``).
    """

    root: Word
    exponent: int
    conjugator: Word

    def exact_root(self) -> Word:
        """The word u with u^exponent freely equal to the decomposed word."""
        return self.conjugator * self.root * self.conjugator.inverse()


def reduce(letters, n_generators=None) -> Word:
    """Freely reduce a raw letter sequence.

    Raises ValueError on a zero letter, or on an index beyond
    ``n_generators`` when an alphabet size is given.
    """
    letters = tuple(letters)
    _check_letters(letters, n_generators)
    out: list[int] = []
    for ell in letters:
        if out and out[-1] == -ell:
            out.pop()
        else:
            out.append(ell)
    return Word(tuple(out))


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split w = conjugator * core * conjugator^-1 with core cyclically reduced."""
    ls = w.letters
    i, j = 0, len(ls)
    while j - i >= 2 and ls[i] == -ls[j - 1]:
        i += 1
        j -= 1
    return Word(ls[:i]), Word(ls[i:j])


def word_power(w: Word, n: int) -> Word:
    """Reduced n-th power of w (negative n gives inverse powers)."""
    if n == 0 or not w:
        return EPSILON
    if n < 0:
        return word_power(w.inverse(), -n)
    conj, core = cyclic_reduce(w)
    # powers of a cyclically reduced word are plain concatenations
    return reduce(conj.letters + core.letters * n + conj.inverse().letters)


def _period(letters: tuple[int, ...]) -> int:
    """The least p > 0 with letters rotated by p equal to letters: a
    nonempty word is its block of the first p letters, repeated."""
    n = len(letters)
    return next(p for p in range(1, n + 1) if n % p == 0 and letters[p:] + letters[:p] == letters)


def primitive_root(w: Word) -> RootDecomposition:
    """Decompose w as conjugator * root^m * conjugator^-1 with m maximal:
    the root is the cyclic core's least period block."""
    if not w:
        return RootDecomposition(EPSILON, 0, EPSILON)
    conj, core = cyclic_reduce(w)
    p = _period(core.letters)
    return RootDecomposition(Word(core.letters[:p]), len(core) // p, conj)


def nu_p(w: Word, p: int):
    """Largest k such that w is a p^k-th power in the free group.

    Returns math.inf for the empty word (every power of the identity is
    the identity), else the p-adic valuation of the maximal root exponent.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if not w:
        return math.inf
    return _valuation(primitive_root(w).exponent, p)[0]


def _valuation(n: int, p: int) -> tuple[int, int]:
    """(k, n // p**k) for the largest k with p**k dividing n >= 1."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k, n
