"""All subgroups of index <= n, by backtracking over partial coset tables.

The search keeps one table, one list per column as in ``cosets`` (0 marks
an undefined entry), an undo trail of the (list, coset) entries it wrote,
and an explicit stack of branch points, so a branch costs the entries it
defines and backtracking erases exactly those; nothing recurses.

Each definition alpha.g = beta is a deduction.  It is checked with
``cosets._scan`` at alpha only, on the cyclic rotations of each relator and
of its inverse that begin with g (``cosets._rotations``).  A scan that
leaves one entry missing defines that entry and pushes it as a further
deduction; a scan that closes inconsistently kills the branch.  Every
relator cycle at every coset is scanned in full once its last entry is
defined, so each complete table is a transitive permutation action
satisfying the relators.

New cosets are only ever introduced at the first undefined entry in
row-major order, so every complete table is already in canonical BFS
numbering; distinct tables are distinct subgroups (not conjugacy classes),
each appearing exactly once.

``_tables_by_index`` is the one search, one pass per index n.  Pass n
fills entries with cosets 1..n only and parks each branch that asks for
coset n + 1: a copy of its columns and its first undefined entry.  Pass
n + 1 copies them back into the same lists, which the rotations hold, and
sets that entry to the new coset before it goes on.  No branch is searched
twice, and each pass yields the complete tables of index n, sorted.  A
pass that parks nothing ends the search, since every table of larger index
extends a parked branch.  A certifying search that stops at its first
witness runs no pass beyond it.

Normality is decided on the table alone.  ``low_index_subgroups`` asks
``cosets.is_normal`` once per complete table.  The normal searches instead
run the same test, ``cosets._normal_so_far``, on the partial table after
every deduction and drop the branch when no normal table can extend it;
every complete table they reach has passed it, so it is normal.  Records
carry no subgroup generators: ``rewriting`` reads what it needs off the
table.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .cosets import CosetTable, _columns, _normal_so_far, _rotations, _rows, _scan, is_normal
from .presentations import Presentation


@dataclass(frozen=True)
class SubgroupRecord:
    table: CosetTable
    index: int
    normal: bool


def subgroup_record(T: CosetTable) -> SubgroupRecord:
    """The record of the subgroup at coset 1 of a complete transitive table."""
    return SubgroupRecord(T, T.n_cosets, is_normal(T))


def _tables_by_index(P: Presentation, max_index: int, normal: bool = False) -> Iterator[tuple[int, list[CosetTable]]]:
    """(n, the complete canonical tables of index n sorted by rows) for
    n = 1, 2, ..., max_index, one pass each; with normal, only tables of
    normal subgroups.  Pass n resumes the branches pass n - 1 parked and
    parks each that asks for coset n + 1; a pass that parks none is the last."""
    if max_index < 1:
        raise ValueError("max_index must be at least 1")
    cols = _columns(P.n_generators)
    ncols = len(cols)
    rots = _rotations(P, cols)
    trail: list[tuple[list[int], int]] = []  # (column list, coset) written in this branch, in order

    def deduce(alpha: int, c: int, beta: int) -> bool:
        """Define alpha.c = beta and every entry it forces; False on a
        contradiction (the caller undoes the trail either way)."""
        pending = []
        while True:
            col, inv = cols[c], cols[c ^ 1]
            col[alpha], inv[beta] = beta, alpha
            trail.extend(((col, alpha), (inv, beta)))
            for fw, bw, word, i, j in rots[c]:
                f, i, b, j = _scan(fw, bw, alpha, alpha, i, j)
                if i == j:  # one gap: f.word[i] = b is forced
                    pending.append((f, word[i], b))
                elif i > j and f != b:
                    return False
            # a forced entry is free when found, but an earlier one may
            # have taken it since: the same entry is skipped, a clash fails
            while pending:
                alpha, c, beta = pending.pop()
                x = cols[c][alpha]
                if not x and not cols[c ^ 1][beta]:
                    break
                if x != beta:
                    return False
            else:
                return True

    # parked: (the columns as tuples, each with a 0 for the next coset, which
    # the garbage collector stops tracking, so a large parked set costs it
    # nothing; the row-major position alpha * ncols + c of the first gap)
    parked = [(tuple((0, 0) for _ in cols), ncols)]
    for n in range(1, max_index + 1):
        end = (n + 1) * ncols
        branches, parked = parked, []
        rows = []
        while branches:  # popped, so a resumed branch's table is freed with it
            saved, pos = branches.pop()
            for col, old in zip(cols, saved):
                col[:] = old
            trail.clear()
            if n > 1 and not (deduce(*divmod(pos, ncols), n) and (not normal or _normal_so_far(cols))):
                continue
            frames: list[list[int]] = []  # [trail length, position, next candidate]
            while True:
                while pos < end and cols[pos % ncols][pos // ncols]:
                    pos += 1
                if pos == end:
                    rows.append(tuple(_rows(cols, range(n + 1))))  # no coset is dead
                else:
                    frames.append([len(trail), pos, 1])
                    if n < max_index:
                        parked.append((tuple((*col, 0) for col in cols), pos))
                while frames:
                    mark, pos, beta = frame = frames[-1]
                    for col, k in trail[mark:]:
                        col[k] = 0
                    del trail[mark:]
                    alpha, c = divmod(pos, ncols)
                    while beta <= n and cols[c ^ 1][beta]:
                        beta += 1
                    if beta > n:
                        frames.pop()
                        continue
                    frame[2] = beta + 1
                    if deduce(alpha, c, beta) and (not normal or _normal_so_far(cols)):
                        break
                else:
                    break
        yield n, [CosetTable(P.n_generators, r) for r in sorted(rows)]
        if not parked:
            return


def _normal_by_index(P: Presentation, max_index: int, p: int | None = None) -> Iterator[SubgroupRecord]:
    """low_index_normal(P, max_index), or its p-power indices, lazily: a
    caller that stops early runs only the passes up to its last index."""
    powers = [1]
    while p and powers[-1] * p <= max_index:
        powers.append(powers[-1] * p)
    # with p, no pass beyond the largest power of p that is <= max_index
    for n, tables in _tables_by_index(P, min(max_index, powers[-1]) if p else max_index, normal=True):
        if not p or n in powers:
            yield from (SubgroupRecord(T, n, True) for T in tables)


def low_index_subgroups(P: Presentation, max_index: int) -> list[SubgroupRecord]:
    """Every subgroup of index <= max_index (the whole group included),
    as canonical coset tables sorted by (index, flattened table)."""
    return [subgroup_record(T) for _, tables in _tables_by_index(P, max_index) for T in tables]


def low_index_normal(P: Presentation, max_index: int) -> list[SubgroupRecord]:
    """The normal subgroups among low_index_subgroups, same order."""
    return list(_normal_by_index(P, max_index))
