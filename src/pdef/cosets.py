"""Coset tables: the one enumeration kernel and the table queries.

Tables are canonical: cosets are numbered 1..N in breadth-first discovery
order with coset 1 the subgroup, and columns run g1, g1^-1, ..., gn, gn^-1.

While enumerating, a table is one flat integer list: coset c's row is
``tab[c*ncols:(c+1)*ncols]`` and 0 marks an undefined entry.  ``_scan``
walks a relator cycle through it from both ends; ``todd_coxeter`` and the
low-index search (``lowindex``) both check relators with it.  An
inconsistent closure is a coincidence for the first and a dead branch
for the second.

``todd_coxeter`` is HLT with lookahead, in a fixed order: the subgroup
words at coset 1, then at each live coset every relator followed by a new
coset for each entry still undefined.  When the coset bound is hit, a
lookahead pass scans every relator at every live coset without defining,
and the pass restarts if that freed any cosets.  Coincidences merge
through a union-find forest keeping the smaller coset, the dead cosets
processed first in, first out.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .presentations import Presentation
from .words import Word, cyclic_reduce

DEFAULT_MAX_COSETS = 100000


class TableInvariantError(ValueError):
    pass


def _col(letter: int) -> int:
    return 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)


def _cols(w: Word) -> tuple[int, ...]:
    return tuple(_col(ell) for ell in w.letters)


def _relator_cols(P: Presentation) -> list[tuple[int, ...]]:
    """The columns of each relator's cyclically reduced core, skipping
    relators that reduce to the empty word."""
    return [cols for cols in (_cols(cyclic_reduce(r)[1]) for r in P.relators) if cols]


def _scan(tab: list[int], ncols: int, f: int, b: int, word, i: int, j: int):
    """Scan word[i..j] forward from coset f, then backward from coset b,
    through the defined entries of the flat table; returns (f, i, b, j).

    i > j: the cycle closed, consistently exactly when f == b.
    i == j: one entry is missing, and f.word[i] = b is forced.
    i < j: the gap word[i..j] is longer."""
    while i <= j:
        x = tab[f * ncols + word[i]]
        if not x:
            break
        f = x
        i += 1
    else:
        return f, i, b, j
    while j >= i:
        x = tab[b * ncols + (word[j] ^ 1)]
        if not x:
            break
        b = x
        j -= 1
    return f, i, b, j


@dataclass(frozen=True)
class CosetTable:
    """Action of generators on cosets; rows[i-1][c] is the image of coset i
    under column c."""

    n_generators: int
    rows: tuple[tuple[int, ...], ...]
    subgroup_words: tuple[Word, ...] = ()

    @property
    def n_cosets(self) -> int:
        return len(self.rows)

    def dump(self) -> str:
        head = f"cosets {self.n_cosets} gens {self.n_generators}"
        body = "\n".join(" ".join(str(x) for x in row) for row in self.rows)
        return head + "\n" + body + "\n" if body else head + "\n"


@dataclass(frozen=True)
class Exhausted:
    """Coset bound hit: the index is unknown or larger than the bound."""

    max_cosets: int


def trace(T: CosetTable, start: int, w: Word) -> int:
    """Image coset of ``start`` under the word ``w``."""
    c = start
    for ell in w.letters:
        c = T.rows[c - 1][_col(ell)]
    return c


def permutation_action(T: CosetTable) -> list[tuple[int, ...]]:
    """One permutation per generator: images of cosets 1..N, as tuples."""
    return [tuple(row[2 * g] for row in T.rows) for g in range(T.n_generators)]


def power_survives(T: CosetTable, w: Word, r: int) -> bool:
    """True when the orbit of coset 1 under w has length exactly r, i.e.
    no proper power w^k (0 < k < r) lies in the subgroup while w^r does."""
    c = 1
    length = 0
    while True:
        c = trace(T, c, w)
        length += 1
        if c == 1:
            return length == r
        if length > T.n_cosets:
            raise TableInvariantError("orbit never returns to coset 1")


def is_normal(T: CosetTable) -> bool:
    """True when the subgroup at coset 1 is normal, decided on the table
    alone by ``_normal_so_far``; subgroup words are ignored.  It is given
    the generator columns only: they reach every coset of a finite
    transitive table, and a map commuting with g commutes with g^-1."""
    n = T.n_generators
    return _normal_so_far(list(chain((0,) * 2 * n, *T.rows))[::2], n)


def _normal_so_far(tab: list[int], ncols: int) -> bool:
    """False when no table of a normal subgroup extends the flat table
    (0 = undefined); on a complete table, True exactly when H is normal.

    For each defined coset beta = 1.c, grow the map 1 -> beta along the
    defined entries by one breadth-first pass, requiring (x.d)^phi =
    (x^phi).d wherever both sides are defined.  If H is normal, the map is
    an automorphism of its complete table, so a clash rules out every
    extension.  On a complete table the map is well defined exactly when
    H lies in Stab(beta) = c^-1 H c, which has the same index, so
    H = c^-1 H c; holding for every column, this is normality.  O(N ncols)
    per beta."""
    for beta in set(tab[ncols:2 * ncols]) - {0, 1}:
        phi = [0] * (len(tab) // ncols)
        phi[1] = beta
        queue = [1]
        for x in queue:
            y = phi[x]
            for u, v in zip(tab[x * ncols:(x + 1) * ncols], tab[y * ncols:(y + 1) * ncols]):
                if u and v:
                    if not phi[u]:
                        phi[u] = v
                        queue.append(u)
                    elif phi[u] != v:
                        return False
    return True


def validate_table(P: Presentation, T: CosetTable) -> None:
    """Check every invariant of a complete table; raises TableInvariantError."""
    n, N = T.n_generators, T.n_cosets
    if n != P.n_generators:
        raise TableInvariantError("generator count mismatch")
    for i, row in enumerate(T.rows, start=1):
        if len(row) != 2 * n:
            raise TableInvariantError(f"row {i} has {len(row)} entries")
    # entries in 1..N and inverse consistency make columns c, c^1 mutually inverse permutations
    for i, row in enumerate(T.rows, start=1):
        for c, j in enumerate(row):
            if not 1 <= j <= N:
                raise TableInvariantError(f"entry ({i},{c}) out of range")
            if T.rows[j - 1][c ^ 1] != i:
                raise TableInvariantError(f"inverse consistency fails at ({i},{c})")
    reached = {1}
    frontier = [1]
    for i in frontier:
        for j in T.rows[i - 1]:
            if j not in reached:
                reached.add(j)
                frontier.append(j)
    if len(reached) != N:
        raise TableInvariantError("cosets not all reachable from coset 1")
    for r in P.relators:
        for i in range(1, N + 1):
            if trace(T, i, r) != i:
                raise TableInvariantError(f"relator {r.letters} does not fix coset {i}")
    for s in T.subgroup_words:
        if trace(T, 1, s) != 1:
            raise TableInvariantError(f"subgroup word {s.letters} moves coset 1")


def canonicalize_rows(n_generators: int, rows) -> tuple[tuple[int, ...], ...]:
    """Renumber a complete 1-based table by BFS discovery from coset 1."""
    order = [1]
    new_of = {1: 1}
    for c in order:
        for col in range(2 * n_generators):
            d = rows[c - 1][col]
            if d not in new_of:
                new_of[d] = len(order) + 1
                order.append(d)
    return tuple(
        tuple(new_of[rows[old - 1][col]] for col in range(2 * n_generators)) for old in order
    )


def table_from_rows(n_generators: int, rows) -> CosetTable:
    """Build a table from serialized rows, checking basic shape."""
    rows = tuple(tuple(int(x) for x in row) for row in rows)
    if not rows:
        raise ValueError("a table needs at least one coset")
    N = len(rows)
    for row in rows:
        if len(row) != 2 * n_generators or any(not 1 <= x <= N for x in row):
            raise ValueError("malformed table rows")
    return CosetTable(n_generators, rows)


class _Full(Exception):
    pass


def todd_coxeter(P: Presentation, subgroup_words, max_cosets: int = DEFAULT_MAX_COSETS):
    """Enumerate cosets of the subgroup generated by ``subgroup_words``.

    Returns a complete canonical CosetTable, or Exhausted(max_cosets) when
    the coset bound is hit even after lookahead collapsing.  Deterministic:
    fixed scan order (subgroup words, then relators per coset in order).
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be at least 1")
    subgroup_words = tuple(subgroup_words)
    for w in subgroup_words:
        if w.max_index() > P.n_generators:
            raise ValueError("subgroup word uses an undeclared generator")

    ncols = 2 * P.n_generators
    rel_cols = [(cols, len(cols) - 1) for cols in _relator_cols(P)]
    sub_cols = [_cols(w) for w in subgroup_words]
    tab = [0] * (2 * ncols)
    p = [0, 1]  # union-find parents; a merge keeps the smaller coset
    n_live = 1

    def rep(k: int) -> int:
        root = k
        while p[root] != root:
            root = p[root]
        while p[k] != root:
            p[k], k = root, p[k]
        return root

    def define(alpha: int, col: int) -> None:
        nonlocal n_live
        if n_live >= max_cosets:
            raise _Full
        beta = len(p)
        p.append(beta)
        tab.extend([0] * ncols)
        n_live += 1
        tab[alpha * ncols + col] = beta
        tab[beta * ncols + (col ^ 1)] = alpha

    def merge(a: int, b: int, dead: list[int]) -> None:
        nonlocal n_live
        a, b = rep(a), rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            p[b] = a
            n_live -= 1
            dead.append(b)

    def coincidence(a: int, b: int) -> None:
        dead: list[int] = []
        merge(a, b, dead)
        for gamma in dead:  # grows while it is walked: FIFO
            for col in range(ncols):
                delta = tab[gamma * ncols + col]
                if not delta:
                    continue
                inv = col ^ 1
                tab[delta * ncols + inv] = 0
                mu, nu = rep(gamma), rep(delta)
                if tab[mu * ncols + col]:
                    merge(nu, tab[mu * ncols + col], dead)
                elif tab[nu * ncols + inv]:
                    merge(mu, tab[nu * ncols + inv], dead)
                else:
                    tab[mu * ncols + col] = nu
                    tab[nu * ncols + inv] = mu

    def finish(f: int, i: int, b: int, j: int, cols: tuple[int, ...], fill: bool) -> None:
        """Act on a scan of cols stopped at (f, i, b, j): record a
        deduction, fill a longer gap with new cosets if asked, and process
        an inconsistent closure as a coincidence."""
        while i <= j:
            if i == j:
                tab[f * ncols + cols[i]] = b
                tab[b * ncols + (cols[i] ^ 1)] = f
                return
            if not fill:
                return
            define(f, cols[i])
            f, i, b, j = _scan(tab, ncols, f, b, cols, i, j)
        if f != b:
            coincidence(f, b)

    def scan_relators(alpha: int, fill: bool) -> bool:
        """Scan every relator at alpha; False once alpha has died."""
        for cols, last in rel_cols:
            f, i, b, j = _scan(tab, ncols, alpha, alpha, cols, 0, last)
            if i <= j or f != b:
                finish(f, i, b, j, cols, fill)
                if p[alpha] != alpha:
                    return False
        return True

    def run() -> bool:
        """One HLT pass; False when a definition hit the bound."""
        try:
            for cols in sub_cols:
                alpha = rep(1)
                finish(*_scan(tab, ncols, alpha, alpha, cols, 0, len(cols) - 1), cols, True)
            alpha = 1
            while alpha < len(p):
                if p[alpha] == alpha and scan_relators(alpha, True):
                    for col in range(ncols):
                        if not tab[alpha * ncols + col]:
                            define(alpha, col)
                alpha += 1
            return True
        except _Full:
            return False

    while not run():
        before = n_live
        # lookahead: scan everything without defining, harvesting collapses
        for alpha in range(1, len(p)):
            if p[alpha] == alpha:
                scan_relators(alpha, False)
        if n_live >= before:
            return Exhausted(max_cosets)

    # resolve the union-find and renumber canonically; merges keep the
    # smaller coset, so the subgroup coset 1 is still live
    live = [c for c in range(1, len(p)) if p[c] == c]
    index_of = {c: k for k, c in enumerate(live, start=1)}
    raw = [tuple(index_of[rep(x)] for x in tab[c * ncols:(c + 1) * ncols]) for c in live]
    rows = canonicalize_rows(P.n_generators, raw)
    return CosetTable(P.n_generators, rows, subgroup_words=subgroup_words)
