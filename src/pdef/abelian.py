"""Integer Smith normal form and abelian invariants of a presentation.

All arithmetic is exact (Python integers); pivoting on the smallest
nonzero entry keeps intermediate growth tame at this scale.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .presentations import Presentation


@dataclass(frozen=True)
class IntegerMatrix:
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise ValueError("ragged matrix")

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @staticmethod
    def from_rows(rows) -> "IntegerMatrix":
        return IntegerMatrix(tuple(tuple(int(x) for x in row) for row in rows))


@dataclass(frozen=True)
class AbelianInvariants:
    """Torsion-free rank plus the torsion divisibility chain d1 | d2 | ..."""

    free_rank: int
    torsion: tuple[int, ...]

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "1"


def _exponent_rows(P: Presentation) -> list[dict[int, int]]:
    """Each relator's nonzero exponent sums, as {0-based generator: sum}."""
    rows = [{} for _ in P.relators]
    for row, r in zip(rows, P.relators):
        for ell in r.letters:
            row[abs(ell) - 1] = row.get(abs(ell) - 1, 0) + (1 if ell > 0 else -1)
    return [{c: e for c, e in row.items() if e} for row in rows]


def relator_matrix(P: Presentation) -> IntegerMatrix:
    """Exponent-sum matrix: one row per relator, one column per generator."""
    cols = range(P.n_generators)
    return IntegerMatrix(tuple(tuple(row.get(c, 0) for c in cols) for row in _exponent_rows(P)))


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(M: IntegerMatrix, transforms: bool = False):
    """Diagonalize M over the integers.

    Returns (factors, (U, V)) where factors is the full diagonal
    d1 | d2 | ... | dk >= 0 of length min(rows, cols), and U, V are
    unimodular with U*M*V = diag(factors).  The transform pair is None
    unless requested.
    """
    m, n = M.nrows, M.ncols
    A = [list(row) for row in M.entries]
    U = _identity(m) if transforms else None
    V = _identity(n) if transforms else None

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        if U is not None:
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        if V is not None:
            for row in V:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row dst += c * row src
        Ad, As = A[dst], A[src]
        for j in range(n):
            Ad[j] += c * As[j]
        if U is not None:
            Ud, Us = U[dst], U[src]
            for j in range(m):
                Ud[j] += c * Us[j]

    def add_col(src, dst, c):
        for row in A:
            row[dst] += c * row[src]
        if V is not None:
            for row in V:
                row[dst] += c * row[src]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        if U is not None:
            U[i] = [-x for x in U[i]]

    def smallest_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    k = min(m, n)
    while t < k:
        pos = smallest_pivot(t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        if A[t][t] < 0:
            negate_row(t)
        # clear column and row; restart whenever a remainder shrinks the pivot
        dirty = False
        for i in range(t + 1, m):
            if A[i][t] != 0:
                q = A[i][t] // A[t][t]
                add_row(t, i, -q)
                if A[i][t] != 0:
                    dirty = True
        if dirty:
            continue
        for j in range(t + 1, n):
            if A[t][j] != 0:
                q = A[t][j] // A[t][t]
                add_col(t, j, -q)
                if A[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # enforce the divisibility chain: drag a non-multiple into row t
        culprit = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % A[t][t] != 0:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            add_row(culprit, t, 1)
            continue
        t += 1

    factors = [A[i][i] for i in range(k)]
    if transforms:
        return factors, (IntegerMatrix.from_rows(U), IntegerMatrix.from_rows(V))
    return factors, None


def cokernel_invariants(M: IntegerMatrix, n_columns: int) -> AbelianInvariants:
    """Invariants of Z^n_columns modulo the span of M's rows."""
    factors, _ = smith_normal_form(M)
    rank = sum(1 for d in factors if d != 0)
    torsion = tuple(d for d in factors if d not in (0, 1))
    return AbelianInvariants(free_rank=n_columns - rank, torsion=torsion)


def abelian_invariants(P: Presentation) -> AbelianInvariants:
    """Invariants of the cokernel of the relator exponent-sum matrix.  Each
    entry +-1 solves for its generator, so its row and column leave the
    sparse rows first (Havas, Holt & Rees, 1993); SNF gets the rest."""
    rows = _exponent_rows(P)
    where = defaultdict(set)  # generator -> the rows that use it, or once did
    for i, row in enumerate(rows):
        for c in row:
            where[c].add(i)
    units, progress = 0, True
    while progress:  # a pivot can leave a unit in a row that had none
        progress = False
        for i, row in enumerate(rows):
            c = next((c for c, e in row.items() if e in (1, -1)), None)
            if c is None:
                continue
            rows[i], units, progress = {}, units + 1, True  # row i and column c leave
            for k in where.pop(c):
                if c in rows[k]:  # row k -= (its c-entry / row[c]) * row
                    other, m = rows[k], rows[k][c] * row[c]
                    for col, e in row.items():
                        other[col] = other.get(col, 0) - m * e
                        where[col].add(k)
                    rows[k] = {col: e for col, e in other.items() if e}
    cols = sorted(set().union(*rows))
    M = IntegerMatrix(tuple(tuple(row.get(c, 0) for c in cols) for row in rows if row))
    return cokernel_invariants(M, P.n_generators - units)


def surjects_onto_Z(P: Presentation) -> bool:
    """True when the abelianization has a free summand."""
    return abelian_invariants(P).free_rank >= 1
