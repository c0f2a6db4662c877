"""Finite group presentations: data model, text grammar, deficiency counts,
quotients, and Tietze simplification.

Presentation files are UTF-8 and line oriented; ``#`` starts a comment.

    file      := gens_line rel_line*
    gens_line := "gens:" (name ("," name)*)?
    rel_line  := "rel:" word
    word      := term (("*")? term)*
    term      := atom ("^" int)?
    atom      := name | "(" word ")" | "[" word "," word "]"
    name      := [A-Za-z][A-Za-z0-9_]*        int := "-"? [0-9]+

``[a,b]`` expands to a^-1 b^-1 a b.  The canonical printer emits the same
grammar, with explicit ``*`` and run-length powers.
"""

from __future__ import annotations

import math
import re
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .words import Word, is_prime, nu_p, reduce

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# steps before tietze_simplify stops with TietzeBudgetWarning: on the RS
# presentation of the trivial subgroup of the S6 Coxeter group (2881
# generators) it stops in 0.1 s; the fixpoint takes about two minutes
TIETZE_STEPS = 5000

# longest word, in letters before free reduction, that the parser expands
MAX_WORD_LENGTH = 1_000_000


class ParseError(ValueError):
    """Syntax or semantic error in a presentation file, with position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class PresentationWarning(UserWarning):
    """Suspicious but legal input: zero exponents, empty relators."""


class TietzeBudgetWarning(UserWarning):
    """Simplification stopped after TIETZE_STEPS steps, not at a fixpoint."""


@dataclass(frozen=True)
class Presentation:
    """An ordered generator list plus freely reduced relator words."""

    generator_names: tuple[str, ...]
    relators: tuple[Word, ...] = ()

    def __post_init__(self):
        seen = set()
        for name in self.generator_names:
            if not NAME_RE.fullmatch(name):
                raise ValueError(f"bad generator name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate generator {name!r}")
            seen.add(name)
        n = len(self.generator_names)
        for r in self.relators:
            if r.max_index() > n:
                raise ValueError(f"relator uses generator index {r.max_index()}, alphabet has {n}")

    @property
    def n_generators(self) -> int:
        return len(self.generator_names)

    def generator(self, name: str) -> Word:
        return Word((self.generator_names.index(name) + 1,))


@dataclass(frozen=True)
class DeficiencyReport:
    """Exact p-deficiency of one presentation, with per-relator terms."""

    p: int
    value: Fraction
    per_relator: tuple[tuple[int, object, Fraction], ...]  # (index, nu_p, p^-nu_p)


# ---------------------------------------------------------------------------
# parsing


_TOKEN_RE = re.compile(
    r"""(?P<NAME>[A-Za-z][A-Za-z0-9_]*)
      | (?P<INT>-?[0-9]+)
      | (?P<SYM>[*^()\[\],:])
      | (?P<WS>[ \t]+)
      | (?P<BAD>.)""",
    re.VERBOSE,
)


def _tokenize(text: str, line_no: int):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "WS":
            continue
        if kind == "BAD":
            raise ParseError(f"unexpected character {m.group()!r}", line_no, m.start() + 1)
        tokens.append((kind, m.group(), m.start() + 1))
    return tokens


class _WordParser:
    """Reads one relator expression, keeping the brackets still open on an
    explicit stack, so nesting depth is bounded by memory alone."""

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
        """The letters of word := term (("*")? term)*, which must use up the
        tokens."""
        # one frame per open word: its opening bracket (None for the whole
        # expression), letters so far (None before the first term), the
        # token that began the latest term, and a commutator's first entry
        # once its "," is read
        stack = [[None, None, None, None]]
        while True:
            tok = self.take()
            if tok[1] in ("(", "["):
                stack.append([tok[1], None, None, None])
                continue
            if tok[0] != "NAME":
                raise ParseError(f"unexpected token {tok[1]!r}", self.line, tok[2])
            if tok[1] not in self.gen_index:
                raise ParseError(f"unknown generator {tok[1]!r}", self.line, tok[2])
            atom = [self.gen_index[tok[1]]]
            while True:  # fold the atom into its word; close what ends here
                frame = stack[-1]
                term = self._power(atom)
                if frame[1] is None:
                    frame[1] = term
                else:
                    self._check_length(len(frame[1]) + len(term), frame[2])
                    frame[1].extend(term)
                tok = self.peek()
                if tok is not None and tok[1] not in (")", ",", "]"):
                    if tok[1] == "*":
                        self.take()
                    frame[2] = tok
                    break
                if len(stack) == 1:
                    if tok is not None:
                        raise ParseError(f"trailing input {tok[1]!r}", self.line, tok[2])
                    return frame[1]
                if frame[0] == "(":
                    self.expect(")")
                    atom = frame[1]
                elif frame[0] == "[":
                    self.expect(",")
                    stack[-1] = [",", None, None, frame[1]]
                    break
                else:
                    x, y = frame[3], frame[1]
                    self._check_length(2 * (len(x) + len(y)), self.expect("]"))
                    atom = [-ell for ell in reversed(x)] + [-ell for ell in reversed(y)] + x + y
                stack.pop()

    def _power(self, letters: list[int]) -> list[int]:
        """term := atom ("^" int)?, for the atom already read as letters."""
        tok = self.peek()
        if tok is None or tok[1] != "^":
            return letters
        self.take()
        itok = self.take()
        if itok[0] != "INT":
            raise ParseError(f"expected an integer exponent, got {itok[1]!r}", self.line, itok[2])
        try:
            n = int(itok[1])
        except ValueError:  # past the interpreter's digit limit for int()
            raise ParseError("exponent has too many digits", self.line, itok[2]) from None
        if n == 0:
            warnings.warn(
                f"line {self.line}: zero exponent yields the empty word",
                PresentationWarning,
                stacklevel=4,  # the caller of parse_word or parse_presentation
            )
            return []
        self._check_length(len(letters) * abs(n), itok)
        if n < 0:
            letters = [-ell for ell in reversed(letters)]
            n = -n
        return letters * n


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def parse_word(text: str, generator_names, line_no: int = 1) -> Word:
    """Parse a single word expression over the given generators."""
    gen_index = {name: i + 1 for i, name in enumerate(generator_names)}
    tokens = _tokenize(text, line_no)
    if not tokens:
        raise ParseError("empty word expression", line_no, 1)
    return reduce(_WordParser(tokens, line_no, gen_index).parse_word())


def parse_presentation(text: str) -> Presentation:
    """Parse the line-oriented presentation grammar."""
    lines = []
    for i, raw in enumerate(text.lstrip("﻿").splitlines(), start=1):
        stripped = _strip_comment(raw)
        if stripped.strip():
            lines.append((i, stripped))
    if not lines:
        raise ParseError("no gens: line", 1, 1)

    line_no, gens_line = lines[0]
    tokens = _tokenize(gens_line, line_no)
    if len(tokens) < 2 or tokens[0][1] != "gens" or tokens[1][1] != ":":
        raise ParseError("expected 'gens:' line", line_no, tokens[0][2] if tokens else 1)
    names = []
    rest = tokens[2:]
    expect_name = True
    for kind, value, col in rest:
        if expect_name:
            if kind != "NAME":
                raise ParseError(f"expected generator name, got {value!r}", line_no, col)
            if value in names:
                raise ParseError(f"duplicate generator {value!r}", line_no, col)
            names.append(value)
        else:
            if value != ",":
                raise ParseError(f"expected ',', got {value!r}", line_no, col)
        expect_name = not expect_name
    if expect_name and names:
        raise ParseError("generator list ends badly", line_no, len(gens_line))

    gen_index = {name: i + 1 for i, name in enumerate(names)}
    relators = []
    for line_no, line in lines[1:]:
        tokens = _tokenize(line, line_no)
        if len(tokens) < 2 or tokens[0][1] != "rel" or tokens[1][1] != ":":
            raise ParseError("expected 'rel:' line", line_no, tokens[0][2] if tokens else 1)
        parser = _WordParser(tokens[2:], line_no, gen_index)
        if parser.peek() is None:
            raise ParseError("empty relator expression", line_no, len(line))
        word = reduce(parser.parse_word())
        if not word:
            warnings.warn(f"line {line_no}: relator reduces to the empty word", PresentationWarning, stacklevel=2)
        relators.append(word)
    return Presentation(tuple(names), tuple(relators))


# ---------------------------------------------------------------------------
# printing


def print_word(w: Word, generator_names) -> str:
    """Render a word in the file grammar (runs collapsed into powers).  The
    empty word is g^0 for the first generator g, a ValueError without one."""
    if not w:
        if not generator_names:
            raise ValueError("the empty word cannot be written without a generator")
        return f"{generator_names[0]}^0"
    parts = []
    i = 0
    ls = w.letters
    while i < len(ls):
        j = i
        while j < len(ls) and ls[j] == ls[i]:
            j += 1
        count = j - i
        name = generator_names[abs(ls[i]) - 1]
        exp = count if ls[i] > 0 else -count
        parts.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return "*".join(parts)


def print_presentation(P: Presentation) -> str:
    """Canonical text form; parse_presentation round-trips it."""
    out = ["gens: " + ", ".join(P.generator_names)]
    for r in P.relators:
        out.append("rel: " + print_word(r, P.generator_names))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# deficiency


def p_deficiency(P: Presentation, p: int) -> DeficiencyReport:
    """Exact p-deficiency of this presentation (not a supremum over
    presentations): generators minus the sum of p^-nu_p(r) over relators."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    per = []
    total = Fraction(len(P.generator_names))
    for i, r in enumerate(P.relators):
        nu = nu_p(r, p)
        contrib = Fraction(0) if nu == math.inf else Fraction(1, p**nu)
        per.append((i, nu, contrib))
        total -= contrib
    return DeficiencyReport(p=p, value=total, per_relator=tuple(per))


def deficiency_count(P: Presentation) -> int:
    """Generators minus relators for this presentation."""
    return len(P.generator_names) - len(P.relators)


def quotient_by_words(P: Presentation, extra) -> Presentation:
    """Adjoin words as relators (quotient by their normal closure)."""
    extra = tuple(extra)
    for w in extra:
        if w.max_index() > P.n_generators:
            raise ValueError(f"word uses generator index {w.max_index()}, alphabet has {P.n_generators}")
    return Presentation(P.generator_names, P.relators + extra)


# ---------------------------------------------------------------------------
# Tietze simplification


def _relator_key(r: tuple[int, ...]) -> tuple[int, ...]:
    """Least rotation of a cyclically reduced relator or of its inverse:
    one key per relator up to rotation and inversion."""
    inv = tuple(-ell for ell in reversed(r))
    return min(w[k:] + w[:k] for w in (r, inv) for k in range(len(w)))


def _substituted(r: tuple[int, ...], g: int, value: tuple[int, ...], vinv: tuple[int, ...]) -> tuple[int, ...]:
    """Freely reduced r with g replaced by value and g^-1 by vinv."""
    out: list[int] = []
    for ell in r:
        if ell == g or ell == -g:
            piece = value if ell == g else vinv
            # r and the piece are reduced: cancellation stops at the junction
            i = 0
            while out and i < len(piece) and out[-1] == -piece[i]:
                out.pop()
                i += 1
            out.extend(piece[i:])
        elif out and out[-1] == -ell:
            out.pop()
        else:
            out.append(ell)
    return tuple(out)


def _cheapest_elimination(relators: list[tuple[int, ...]]):
    """Least (new_total, g, ri, value) over the candidate eliminations, or
    None when each would make the total relator length grow.  A candidate
    is a relator ri and a generator g occurring in it exactly once, so
    ri = 1 gives g = value; new_total is the total length after dropping ri
    and replacing g by value in the other relators.  The relators are
    nonempty and cyclically reduced."""
    total = sum(map(len, relators))
    counts = [Counter(map(abs, r)) for r in relators]
    occurs: dict[int, list[int]] = {}  # g -> relators containing g or g^-1
    for j, c in enumerate(counts):
        for g in c:
            occurs.setdefault(g, []).append(j)
    # relators without g are reduced and keep their length
    occ_len = {g: sum(len(relators[j]) for j in js) for g, js in occurs.items()}
    best = None
    # min(total, best new_total): lengths only add, so a candidate whose
    # partial sum passes it can neither be accepted nor win
    limit = total
    for ri, r in enumerate(relators):
        for k, head in enumerate(r):
            g = abs(head)
            if counts[ri][g] != 1:
                continue
            tail = r[k + 1:] + r[:k]  # head * tail is a rotation of ri
            tinv = tuple(-ell for ell in reversed(tail))
            value, vinv = (tail, tinv) if head < 0 else (tinv, tail)
            new_total = total - occ_len[g]
            for j in occurs[g]:
                if j != ri:
                    new_total += len(_substituted(relators[j], g, value, vinv))
                    if new_total > limit:
                        break
            else:
                if new_total <= limit and (best is None or (new_total, g, ri) < best[:3]):
                    best = (new_total, g, ri, value)
                    limit = new_total
    return best


def tietze_simplify(P: Presentation) -> Presentation:
    """Greedy presentation simplification; the result presents an isomorphic
    group.  Each pass first cyclically reduces the relators, then drops empty
    relators and duplicates up to rotation and inversion, one step per
    change; a pass that changed something starts over.  Otherwise it
    eliminates one generator g through a relator ri in which g occurs exactly
    once, choosing the least (new total relator length, g, ri), and only if
    the total does not grow.  A candidate is scored once, from a per-pass
    occurrence index g -> relators containing g: relators without g keep
    their length, and summing the substituted lengths stops as soon as the
    candidate cannot win, so the choice is exact.  Stops at a fixpoint or
    after TIETZE_STEPS steps (the latter emits TietzeBudgetWarning)."""
    # generators keep their input numbers until the end: renumbering is
    # monotone, so it never changes which (new_total, g, ri) is least
    relators = [r.letters for r in P.relators]
    eliminated = set()
    keys: dict[tuple[int, ...], tuple[int, ...]] = {}
    steps = 0

    def spend() -> bool:
        nonlocal steps
        steps += 1
        return steps >= TIETZE_STEPS

    exhausted = False
    changed = True
    while changed and not exhausted:
        changed = False

        # cyclically reduce (a relator and its cyclic core have the same
        # normal closure) and drop empty relators
        for i, r in enumerate(relators):
            a, b = 0, len(r)
            while b - a >= 2 and r[a] == -r[b - 1]:
                a += 1
                b -= 1
            if a:
                relators[i] = r[a:b]
                changed = True
                if spend():
                    exhausted = True
                    break
        if exhausted:
            break
        kept = []
        seen_keys = set()
        for r in relators:
            if r:
                key = keys.get(r)
                if key is None:
                    key = keys[r] = _relator_key(r)
                if key not in seen_keys:
                    seen_keys.add(key)
                    kept.append(r)
                    continue
            changed = True
            if spend():
                exhausted = True
        relators = kept
        if exhausted:
            break
        if changed:
            continue

        best = _cheapest_elimination(relators)
        if best is not None:
            _, g, ri, value = best
            vinv = tuple(-ell for ell in reversed(value))
            relators = [
                _substituted(r, g, value, vinv) if g in r or -g in r else r
                for i, r in enumerate(relators)
                if i != ri
            ]
            eliminated.add(g)
            changed = True
            if spend():
                exhausted = True

    if exhausted:
        warnings.warn(f"simplification stopped after {TIETZE_STEPS} steps", TietzeBudgetWarning)
    survivors = [g for g in range(1, P.n_generators + 1) if g not in eliminated]
    number = {g: i for i, g in enumerate(survivors, start=1)}
    return Presentation(
        tuple(P.generator_names[g - 1] for g in survivors),
        tuple(Word(tuple(number[ell] if ell > 0 else -number[-ell] for ell in r)) for r in relators),
    )
