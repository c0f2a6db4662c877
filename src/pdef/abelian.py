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


def smith_normal_form(M: IntegerMatrix, transforms: bool = False):
    """Diagonalize M over the integers.

    Returns (factors, (U, V)) where factors is the full diagonal
    d1 | d2 | ... | dk >= 0 of length min(rows, cols), and U, V are
    unimodular with U*M*V = diag(factors).  The transform pair is None
    unless requested: then M is bordered by an identity block on its
    right, which the row operations turn into U, and one below it, which
    the column operations turn into V.  Pivots and tests read M alone; the
    divisibility chain is mended once M is diagonal, not after each pivot.
    """
    m, n = M.nrows, M.ncols
    A = [list(row) for row in M.entries]
    if transforms:
        for i, row in enumerate(A):
            row.extend(1 if j == i else 0 for j in range(m))
        A.extend([1 if j == i else 0 for j in range(n)] for i in range(n))

    def eliminate(t: int, top: int, right: int) -> int:
        """Diagonalize M's block at rows t..top - 1, columns t..right - 1 (the
        rest of those rows and columns is 0); returns t + the block's rank."""
        while True:
            best, size = None, 0  # the smallest nonzero entry left in the block
            for i in range(t, top):
                row = A[i]
                for j in range(t, right):
                    if row[j] and (best is None or abs(row[j]) < size):
                        best, size = (i, j), abs(row[j])
            if best is None:
                return t
            A[t], A[best[0]] = A[best[0]], A[t]
            j = best[1]
            for row in A:
                row[t], row[j] = row[j], row[t]
            pivot = A[t]
            if pivot[t] < 0:
                A[t] = pivot = [-x for x in pivot]
            d = pivot[t]
            # clear column t, then row t; pivot again whenever a remainder is left
            dirty = False
            for row in A[t + 1 : top]:
                if row[t]:
                    q = row[t] // d
                    for j in range(len(row)):
                        row[j] -= q * pivot[j]
                    dirty = dirty or row[t] != 0
            if not dirty:
                for j in range(t + 1, right):
                    if pivot[j]:
                        q = pivot[j] // d
                        for row in A:
                            row[j] -= q * row[t]
                        dirty = dirty or pivot[j] != 0
            if not dirty:
                t += 1

    rank, k = eliminate(0, m, n), min(m, n)
    # M is diagonal: at the first break in d1 | d2 | ..., add row i + 1 to row
    # i and diagonalize the 2 x 2 block it changes; each repair lowers d_i
    while (i := next((i for i in range(rank - 1) if A[i + 1][i + 1] % A[i][i]), None)) is not None:
        A[i] = [x + y for x, y in zip(A[i], A[i + 1])]
        eliminate(i, i + 2, i + 2)

    factors = [A[i][i] for i in range(k)]
    if transforms:
        return factors, (IntegerMatrix.from_rows(row[n:] for row in A[:m]), IntegerMatrix.from_rows(A[m:]))
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
