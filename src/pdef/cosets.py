"""Todd-Coxeter coset enumeration (HLT with lookahead) and coset-table queries.

Tables are canonical: cosets are numbered 1..N in breadth-first discovery
order with coset 1 the subgroup, and columns run g1, g1^-1, ..., gn, gn^-1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .presentations import Presentation
from .words import Word, cyclic_reduce

DEFAULT_MAX_COSETS = 100000


class IncompleteTableError(ValueError):
    pass


class TableInvariantError(ValueError):
    pass


def _col(letter: int) -> int:
    return 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)


def _cols(w: Word) -> tuple[int, ...]:
    return tuple(_col(ell) for ell in w.letters)


@dataclass(frozen=True)
class CosetTable:
    """Action of generators on cosets; rows[i-1][c] is the image of coset i
    under column c (0 marks an undefined entry in a partial table)."""

    n_generators: int
    rows: tuple[tuple[int, ...], ...]
    complete: bool
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
    if not T.complete:
        raise IncompleteTableError("trace requires a complete table")
    c = start
    for ell in w.letters:
        c = T.rows[c - 1][_col(ell)]
    return c


def permutation_action(T: CosetTable) -> list[tuple[int, ...]]:
    """One permutation per generator: images of cosets 1..N, as tuples."""
    if not T.complete:
        raise IncompleteTableError("permutation action requires a complete table")
    return [tuple(row[2 * g] for row in T.rows) for g in range(T.n_generators)]


def power_survives(T: CosetTable, w: Word, r: int) -> bool:
    """True when the orbit of coset 1 under w has length exactly r, i.e.
    no proper power w^k (0 < k < r) lies in the subgroup while w^r does."""
    if not T.complete:
        raise IncompleteTableError("power check requires a complete table")
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
    alone: for each generator g the map 1 -> 1.g extends to a permutation
    of the cosets commuting with the action.  Subgroup words are ignored."""
    if not T.complete:
        raise IncompleteTableError("normality check requires a complete table")
    return _rows_normal(T.rows)


def _rows_normal(rows) -> bool:
    """``is_normal`` on complete 1-based rows, without the table wrapper
    (the low-index search tests every table it finds).

    For each generator g, grow the map 1 -> 1.g along the action by one
    breadth-first pass, requiring (x.c)^phi = (x^phi).c for every column
    c.  The map is well defined exactly when H lies in Stab(1.g) = g^-1 H g,
    which has the same index, so H = g^-1 H g; holding for every generator,
    this is normality.  O(n N) per generator."""
    for col in range(0, len(rows[0]), 2):
        phi = [0] * (len(rows) + 1)
        phi[1] = rows[0][col]
        if phi[1] == 1:
            continue  # g lies in H
        queue = [1]
        for x in queue:
            for u, v in zip(rows[x - 1], rows[phi[x] - 1]):
                if not phi[u]:
                    phi[u] = v
                    queue.append(u)
                elif phi[u] != v:
                    return False
    return True


def validate_table(P: Presentation, T: CosetTable) -> None:
    """Check every invariant of a complete table; raises TableInvariantError."""
    if not T.complete:
        raise TableInvariantError("table not complete")
    n, N = T.n_generators, T.n_cosets
    if n != P.n_generators:
        raise TableInvariantError("generator count mismatch")
    for i, row in enumerate(T.rows, start=1):
        if len(row) != 2 * n:
            raise TableInvariantError(f"row {i} has {len(row)} entries")
        for c, j in enumerate(row):
            if not 1 <= j <= N:
                raise TableInvariantError(f"entry ({i},{c}) out of range")
            if T.rows[j - 1][c ^ 1] != i:
                raise TableInvariantError(f"inverse consistency fails at ({i},{c})")
    for g in range(2 * n):
        col = [row[g] for row in T.rows]
        if sorted(col) != list(range(1, N + 1)):
            raise TableInvariantError(f"column {g} is not a permutation")
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


def table_from_rows(n_generators: int, rows, subgroup_words=()) -> CosetTable:
    """Build a complete table from serialized rows, checking basic shape."""
    rows = tuple(tuple(int(x) for x in row) for row in rows)
    if not rows:
        raise ValueError("a table needs at least one coset")
    table = CosetTable(n_generators, rows, complete=True, subgroup_words=tuple(subgroup_words))
    N = len(rows)
    for row in rows:
        if len(row) != 2 * n_generators or any(not 1 <= x <= N for x in row):
            raise ValueError("malformed table rows")
    return table


class _Full(Exception):
    pass


class _Enumeration:
    """Mutable HLT state: 0-based table with a union-find over cosets."""

    def __init__(self, n_generators: int, max_cosets: int):
        self.ncols = 2 * n_generators
        self.max_cosets = max_cosets
        self.table: list[list[int | None]] = [[None] * self.ncols]
        self.p = [0]
        self.n_live = 1

    def rep(self, k: int) -> int:
        p = self.p
        root = k
        while p[root] != root:
            root = p[root]
        while p[k] != root:
            p[k], k = root, p[k]
        return root

    def define(self, alpha: int, col: int) -> None:
        if self.n_live >= self.max_cosets:
            raise _Full
        beta = len(self.table)
        self.table.append([None] * self.ncols)
        self.p.append(beta)
        self.n_live += 1
        self.table[alpha][col] = beta
        self.table[beta][col ^ 1] = alpha

    def merge(self, a: int, b: int, queue: list[int]) -> None:
        a, b = self.rep(a), self.rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            self.p[b] = a
            self.n_live -= 1
            queue.append(b)

    def coincidence(self, a: int, b: int) -> None:
        queue: list[int] = []
        self.merge(a, b, queue)
        while queue:
            gamma = queue.pop(0)
            for col in range(self.ncols):
                delta = self.table[gamma][col]
                if delta is None:
                    continue
                self.table[delta][col ^ 1] = None
                mu, nu = self.rep(gamma), self.rep(delta)
                if self.table[mu][col] is not None:
                    self.merge(nu, self.table[mu][col], queue)
                elif self.table[nu][col ^ 1] is not None:
                    self.merge(mu, self.table[nu][col ^ 1], queue)
                else:
                    self.table[mu][col] = nu
                    self.table[nu][col ^ 1] = mu

    def scan(self, alpha: int, cols: tuple[int, ...], fill: bool) -> None:
        f, i = alpha, 0
        b, j = alpha, len(cols) - 1
        while True:
            while i <= j and self.table[f][cols[i]] is not None:
                f = self.table[f][cols[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and self.table[b][cols[j] ^ 1] is not None:
                b = self.table[b][cols[j] ^ 1]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                self.table[f][cols[i]] = b
                self.table[b][cols[i] ^ 1] = f
                return
            if not fill:
                return
            self.define(f, cols[i])


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

    rel_cols = [_cols(cyclic_reduce(r)[1]) for r in P.relators]
    rel_cols = [c for c in rel_cols if c]
    sub_cols = [_cols(w) for w in subgroup_words]
    E = _Enumeration(P.n_generators, max_cosets)

    def run() -> bool:
        """One HLT pass; False when a definition hit the bound."""
        try:
            for cols in sub_cols:
                E.scan(E.rep(0), cols, fill=True)
            alpha = 0
            while alpha < len(E.table):
                if E.p[alpha] == alpha:
                    for cols in rel_cols:
                        E.scan(alpha, cols, fill=True)
                        if E.p[alpha] != alpha:
                            break
                    if E.p[alpha] == alpha:
                        for col in range(E.ncols):
                            if E.table[alpha][col] is None:
                                E.define(alpha, col)
                alpha += 1
            return True
        except _Full:
            return False

    while not run():
        before = E.n_live
        # lookahead: scan everything without defining, harvesting collapses
        for alpha in range(len(E.table)):
            if E.p[alpha] == alpha:
                for cols in rel_cols:
                    E.scan(alpha, cols, fill=False)
                    if E.p[alpha] != alpha:
                        break
        if E.n_live >= before:
            return Exhausted(max_cosets)

    # resolve union-find and renumber canonically; merges always keep the
    # smaller representative, so the subgroup coset 0 is still live
    live = [i for i in range(len(E.table)) if E.p[i] == i]
    assert live[0] == 0
    index_of = {c: i + 1 for i, c in enumerate(live)}
    raw = [
        tuple(index_of[E.rep(E.table[c][col])] for col in range(E.ncols)) for c in live
    ]
    rows = canonicalize_rows(P.n_generators, raw)
    return CosetTable(P.n_generators, rows, complete=True, subgroup_words=subgroup_words)
