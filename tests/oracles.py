"""Independent oracles the tests check the library against.

Everything here is deliberately naive (closure enumeration, cofactor
expansion, exhaustive root search) and shares no code with the package,
apart from ``reference_low_index_normal``: the normal search as it ran
before its prune, the full subgroup search filtered by ``is_normal``.
"""

from __future__ import annotations

import warnings
from itertools import combinations

from pdef import Presentation, Word, is_normal, low_index_subgroups, quotient_by_words, reduce, word_power
from pdef.cosets import canonicalize_rows
from pdef.presentations import (
    MAX_WORD_LENGTH,
    ParseError,
    PresentationWarning,
    TietzeBudgetWarning,
    _tokenize,
)


# ---------------------------------------------------------------------------
# permutation groups (tuples mapping 0-based points)


def perm_compose(a, b):
    """b after a: (a*b)(x) = b(a(x)), matching left-to-right words."""
    return tuple(b[x] for x in a)


def perm_inverse(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def perm_closure(gens):
    """All elements generated by the given permutations."""
    if not gens:
        return set()
    degree = len(gens[0])
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                prod = perm_compose(g, h)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return seen


def word_permutation(w: Word, gen_perms):
    degree = len(gen_perms[0])
    result = tuple(range(degree))
    for ell in w.letters:
        p = gen_perms[abs(ell) - 1]
        if ell < 0:
            p = perm_inverse(p)
        result = perm_compose(result, p)
    return result


def all_subgroups(elements):
    """Brute-force subgroup list of a small permutation group."""
    elements = sorted(elements)
    subgroups = []
    n = len(elements)
    for size in range(1, n + 1):
        if n % size:
            continue
        for subset in combinations(elements, size):
            s = set(subset)
            if all(perm_compose(a, b) in s for a in s for b in s):
                subgroups.append(frozenset(s))
    return subgroups


def quaternion_group():
    """The eight unit quaternions as a multiplication table on symbols."""
    units = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def mul(a, b):
        sign = 1
        if a.startswith("-"):
            sign, a = -sign, a[1:]
        if b.startswith("-"):
            sign, b = -sign, b[1:]
        table = {
            ("1", "1"): "1", ("1", "i"): "i", ("1", "j"): "j", ("1", "k"): "k",
            ("i", "1"): "i", ("j", "1"): "j", ("k", "1"): "k",
            ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
            ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
            ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
        }
        r = table[(a, b)]
        if sign < 0:
            r = r[1:] if r.startswith("-") else "-" + r
        return r

    return units, mul


# ---------------------------------------------------------------------------
# exact linear algebra


def determinant(rows) -> int:
    """Cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * determinant(minor)
    return total


def matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


# ---------------------------------------------------------------------------
# words


def random_reduced_word(rng, n_generators: int, length: int) -> Word:
    letters = []
    for _ in range(length):
        options = [ell for g in range(1, n_generators + 1) for ell in (g, -g)]
        if letters:
            options = [ell for ell in options if ell != -letters[-1]]
        letters.append(rng.choice(options))
    return Word(tuple(letters))


def random_primitive_word(rng, n_generators: int, length: int) -> Word:
    from pdef import primitive_root

    while True:
        w = random_reduced_word(rng, n_generators, length)
        if w and primitive_root(w).exponent == 1:
            return w


def brute_force_nu(w: Word, p: int, k_max: int = 6) -> int:
    """Largest k <= k_max with some v, v^(p^k) = w, searching candidate
    roots among conjugated prefixes of the cyclic core."""
    if not w:
        return k_max
    ls = w.letters
    i, j = 0, len(ls)
    while j - i >= 2 and ls[i] == -ls[j - 1]:
        i += 1
        j -= 1
    conj, core = Word(ls[:i]), Word(ls[i:j])
    best = 0
    for k in range(1, k_max + 1):
        q = p**k
        if len(core) % q:
            continue
        prefix = Word(core.letters[: len(core) // q])
        v = conj * prefix * conj.inverse()
        if word_power(v, q) == w:
            best = k
    return best


# ---------------------------------------------------------------------------
# coset actions from random homomorphisms


def table_from_permutations(n_generators, gen_perms):
    """Canonical coset table of the stabilizer of point 0 in a transitive
    permutation action (None when the action is not transitive)."""
    degree = len(gen_perms[0])
    rows = []
    for i in range(degree):
        row = []
        for g in range(n_generators):
            row.append(gen_perms[g][i] + 1)
            row.append(perm_inverse(gen_perms[g])[i] + 1)
        rows.append(tuple(row))
    # transitivity: everything reachable from point 0
    seen = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for c in frontier:
            for x in rows[c - 1]:
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        frontier = nxt
    if len(seen) != degree:
        return None
    return canonicalize_rows(n_generators, rows)


def random_spanning_transversal(rng, table):
    """Coset representatives from a random spanning tree rooted at coset 1
    (edges picked in shuffled order), as reduced words."""
    n = table.n_cosets
    reps = [None] * n
    reps[0] = Word(())
    remaining = set(range(2, n + 1))
    while remaining:
        edges = []
        for i in range(1, n + 1):
            if reps[i - 1] is None:
                continue
            for col in range(2 * table.n_generators):
                j = table.rows[i - 1][col]
                if reps[j - 1] is None:
                    letter = col // 2 + 1 if col % 2 == 0 else -(col // 2 + 1)
                    edges.append((i, j, letter))
        i, j, letter = edges[rng.randrange(len(edges))]
        reps[j - 1] = reduce(reps[i - 1].letters + (letter,))
        remaining.discard(j)
    return reps


def schreier_words(table, reps):
    """The nontrivial Schreier generators rep_i * g * rep_(i.g)^-1 of the
    transversal reps, freely reduced, in scan order (coset, then generator)."""
    words = []
    for i in range(1, table.n_cosets + 1):
        for g in range(1, table.n_generators + 1):
            j = table.rows[i - 1][2 * (g - 1)]
            s = reduce(reps[i - 1].letters + (g,) + tuple(-ell for ell in reversed(reps[j - 1].letters)))
            if s.letters:
                words.append(s)
    return words


def normal_by_conjugates(table, rng) -> bool:
    """Normality of the subgroup H at coset 1 by definition.  H is
    generated by the Schreier generators rep_i * g * rep_(i.g)^-1 of a
    random spanning transversal, and H is normal exactly when every
    conjugate rep_c * s * rep_c^-1 of every such generator s fixes coset 1."""
    rows = table.rows
    reps = random_spanning_transversal(rng, table)

    def image(c, letters):
        for ell in letters:
            c = rows[c - 1][2 * (abs(ell) - 1) + (1 if ell < 0 else 0)]
        return c

    def inverse(letters):
        return tuple(-ell for ell in reversed(letters))

    for i in range(1, table.n_cosets + 1):
        for g in range(1, table.n_generators + 1):
            j = rows[i - 1][2 * (g - 1)]
            s = reps[i - 1].letters + (g,) + inverse(reps[j - 1].letters)
            for rep in reps:
                if image(1, rep.letters + s + inverse(rep.letters)) != 1:
                    return False
    return True


def brute_force_tables(n_generators, relators, max_index):
    """Canonical tables of every subgroup of index <= max_index: one per
    transitive action on 0..n-1 satisfying the relators, n <= max_index,
    trying every tuple of generator permutations in S_n^n_generators."""
    from itertools import permutations, product

    tables = set()
    for degree in range(1, max_index + 1):
        identity = tuple(range(degree))
        for perms in product(permutations(range(degree)), repeat=n_generators):
            if all(word_permutation(r, perms) == identity for r in relators):
                rows = table_from_permutations(n_generators, perms)
                if rows is not None:
                    tables.add(rows)
    return tables


def reference_low_index_normal(P: Presentation, max_index: int):
    """The normal search without its prune: every subgroup of index <=
    max_index, kept when its complete table is normal.  It runs the same
    search as the code under test, so it checks the prune only; the
    normal tables of ``brute_force_tables`` check the search as well."""
    return [rec for rec in low_index_subgroups(P, max_index) if is_normal(rec.table)]


# ---------------------------------------------------------------------------
# Tietze simplification: the plain greedy loop on Word objects, scoring
# every rotation of every relator and its inverse by substituting into all
# other relators


def _cyclic_key(w: Word):
    """Canonical representative of a relator up to rotation and inversion."""
    core = _cyclic_core(w)
    if not core:
        return ()
    candidates = []
    for ls in (core, tuple(-ell for ell in reversed(core))):
        for k in range(len(ls)):
            candidates.append(ls[k:] + ls[:k])
    return min(candidates)


def _cyclic_core(w: Word) -> tuple[int, ...]:
    ls = w.letters
    i, j = 0, len(ls)
    while j - i >= 2 and ls[i] == -ls[j - 1]:
        i += 1
        j -= 1
    return ls[i:j]


def _substitute(w: Word, gen: int, value: Word) -> Word:
    """Replace generator ``gen`` by ``value`` throughout, then reduce."""
    out: list[int] = []
    vinv = value.inverse().letters
    for ell in w.letters:
        if ell == gen:
            out.extend(value.letters)
        elif ell == -gen:
            out.extend(vinv)
        else:
            out.append(ell)
    return reduce(out)


def _drop_generator(w: Word, gen: int) -> Word:
    """Renumber letters after deleting generator ``gen`` from the alphabet."""
    return Word(tuple(ell - 1 if ell > gen else ell + 1 if ell < -gen else ell for ell in w.letters))


def reference_tietze(P: Presentation, budget: int = 5000) -> Presentation:
    """Greedy presentation simplification: cyclically reduce relators, drop
    empty and rotation/inversion duplicates, and eliminate a generator when
    some relator expresses it as a word in the others.  Each accepted step
    keeps the total relator length from growing; the result presents an
    isomorphic group.  Stops at a fixpoint or after ``budget`` steps (the
    latter emits TietzeBudgetWarning)."""
    if budget <= 0:
        warnings.warn("simplification budget is empty", TietzeBudgetWarning)
        return P
    names = list(P.generator_names)
    relators = [r for r in P.relators]
    steps = 0

    def spend() -> bool:
        nonlocal steps
        steps += 1
        return steps >= budget

    exhausted = False
    changed = True
    while changed and not exhausted:
        changed = False

        # cyclically reduce (a relator and its cyclic core have the same
        # normal closure) and drop empty relators
        for i, r in enumerate(relators):
            core = _cyclic_core(r)
            if core != r.letters:
                relators[i] = Word(core)
                changed = True
                if spend():
                    exhausted = True
                    break
        if exhausted:
            break
        kept = []
        seen_keys = set()
        for r in relators:
            if not r:
                changed = True
                if spend():
                    exhausted = True
                continue
            key = _cyclic_key(r)
            if key in seen_keys:
                changed = True
                if spend():
                    exhausted = True
                continue
            seen_keys.add(key)
            kept.append(r)
        relators = kept
        if exhausted:
            break
        if changed:
            continue

        # generator elimination: find the cheapest relator rotation of the
        # form g * w with g absent from w, substitute w^-1 for g
        total = sum(len(r) for r in relators)
        best = None  # (new_total, gen, relator_index, replacement)
        for ri, r in enumerate(relators):
            ls = r.letters
            n = len(ls)
            for base in (ls, tuple(-ell for ell in reversed(ls))):
                for k in range(n):
                    rot = base[k:] + base[:k]
                    head, tail = rot[0], rot[1:]
                    g = abs(head)
                    if any(abs(ell) == g for ell in tail):
                        continue
                    # head * tail = 1, so head = tail^-1
                    value = Word(tuple(-ell for ell in reversed(tail)))
                    if head < 0:
                        value = value.inverse()
                    new_total = 0
                    for rj, other in enumerate(relators):
                        if rj == ri:
                            continue
                        new_total += len(_substitute(other, g, value))
                    if new_total <= total and (best is None or (new_total, g, ri) < best[:3]):
                        best = (new_total, g, ri, value)
        if best is not None:
            _, g, ri, value = best
            relators = [_substitute(r, g, value) for i, r in enumerate(relators) if i != ri]
            relators = [_drop_generator(r, g) for r in relators]
            del names[g - 1]
            changed = True
            if spend():
                exhausted = True

    if exhausted:
        warnings.warn(f"simplification stopped after {budget} steps", TietzeBudgetWarning)
    return Presentation(tuple(names), tuple(relators))


def reference_free_quotient(H: Presentation, kill_budget: int, budget: int = 5000):
    """(kill set names, free rank) of the first subset, smallest first in
    generator order, whose quotient simplifies to a relator-free
    presentation on >= 2 generators; None when no subset in budget does."""
    n = H.n_generators
    for size in range(0, min(kill_budget, n - 2) + 1):
        for subset in combinations(range(1, n + 1), size):
            Q = reference_tietze(quotient_by_words(H, [Word((g,)) for g in subset]), budget)
            if not Q.relators and Q.n_generators >= 2:
                return [H.generator_names[g - 1] for g in subset], Q.n_generators
    return None


# ---------------------------------------------------------------------------
# the recursive-descent word parser the package used before its explicit
# stack (kept verbatim; Python's recursion limit caps its nesting depth)


class _WordParser:
    """Recursive descent over one relator expression."""

    def __init__(self, tokens, line_no, gen_index):
        self.tokens = tokens
        self.pos = 0
        self.line = line_no
        self.gen_index = gen_index

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of line", self.line, self._end_col())
        self.pos += 1
        return tok

    def _end_col(self):
        return self.tokens[-1][2] + len(self.tokens[-1][1]) if self.tokens else 1

    def expect(self, value):
        tok = self.take()
        if tok[1] != value:
            raise ParseError(f"expected {value!r}, got {tok[1]!r}", self.line, tok[2])
        return tok

    def _check_length(self, length: int, tok) -> None:
        if length > MAX_WORD_LENGTH:
            raise ParseError(f"word longer than {MAX_WORD_LENGTH} letters", self.line, tok[2])

    def parse_word(self) -> list[int]:
        letters = list(self.parse_term())
        while True:
            tok = self.peek()
            if tok is None or tok[1] in (")", ",", "]"):
                return letters
            if tok[1] == "*":
                self.take()
            term = self.parse_term()
            self._check_length(len(letters) + len(term), tok)
            letters.extend(term)

    def parse_term(self) -> list[int]:
        letters = self.parse_atom()
        tok = self.peek()
        if tok is not None and tok[1] == "^":
            self.take()
            itok = self.take()
            if itok[0] != "INT":
                raise ParseError(f"expected an integer exponent, got {itok[1]!r}", self.line, itok[2])
            n = int(itok[1])
            if n == 0:
                warnings.warn(
                    f"line {self.line}: zero exponent yields the empty word",
                    PresentationWarning,
                    stacklevel=6,
                )
                return []
            self._check_length(len(letters) * abs(n), itok)
            if n < 0:
                letters = [-ell for ell in reversed(letters)]
                n = -n
            return letters * n
        return letters

    def parse_atom(self) -> list[int]:
        tok = self.take()
        if tok[0] == "NAME":
            idx = self.gen_index.get(tok[1])
            if idx is None:
                raise ParseError(f"unknown generator {tok[1]!r}", self.line, tok[2])
            return [idx]
        if tok[1] == "(":
            inner = self.parse_word()
            self.expect(")")
            return inner
        if tok[1] == "[":
            a = self.parse_word()
            self.expect(",")
            b = self.parse_word()
            self._check_length(2 * (len(a) + len(b)), self.expect("]"))
            ainv = [-ell for ell in reversed(a)]
            binv = [-ell for ell in reversed(b)]
            return ainv + binv + a + b
        raise ParseError(f"unexpected token {tok[1]!r}", self.line, tok[2])


def reference_parse_word(text: str, generator_names, line_no: int = 1) -> Word:
    """Parse a single word expression with the recursive parser."""
    gen_index = {name: i + 1 for i, name in enumerate(generator_names)}
    tokens = _tokenize(text, line_no)
    if not tokens:
        raise ParseError("empty word expression", line_no, 1)
    parser = _WordParser(tokens, line_no, gen_index)
    letters = parser.parse_word()
    if parser.peek() is not None:
        tok = parser.peek()
        raise ParseError(f"trailing input {tok[1]!r}", line_no, tok[2])
    return reduce(letters)
