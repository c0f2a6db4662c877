"""All subgroups of index <= n, by backtracking over partial coset tables.

The search keeps one flat table in the layout of ``cosets`` (0 marks an
undefined entry), an undo trail of the entries it wrote, and an explicit
stack of branch points, so a branch costs the entries it defines and
backtracking erases exactly those; no table is copied and nothing recurses.

Each definition alpha.g = beta is a deduction.  It is checked with
``cosets._scan`` at alpha only, on the cyclic rotations of each relator and
of its inverse that begin with g (precomputed per column).  A scan that
leaves one entry missing defines that entry and pushes it as a further
deduction; a scan that closes inconsistently kills the branch.  Every
relator cycle at every coset is scanned in full once its last entry is
defined, so each complete table is a transitive permutation action
satisfying the relators.

New cosets are only ever introduced at the first undefined entry in scan
order, so every complete table the search emits is already in canonical
BFS numbering; distinct tables are distinct subgroups (not conjugacy
classes), each appearing exactly once.

Normality is decided on the table alone.  ``low_index_subgroups`` asks
``cosets.is_normal`` once per complete table.  The normal searches
(``low_index_normal``, ``_normal_by_index``) instead run the same test,
``cosets._normal_so_far``, on the partial table after every deduction and
drop the branch when no normal table can extend it; every complete table
they reach has passed it, so it is normal.  Records carry no subgroup
generators, which ``rewriting.schreier_generators`` builds from the table
when needed.

``_normal_by_index`` yields the normal subgroups one index at a time, so a
certifying search stops at its first witness, or once no normal subgroup of
larger index exists.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .cosets import CosetTable, _normal_so_far, _relator_cols, _scan, is_normal
from .presentations import Presentation


@dataclass(frozen=True)
class SubgroupRecord:
    table: CosetTable
    index: int
    normal: bool


def subgroup_record(T: CosetTable) -> SubgroupRecord:
    """The record of the subgroup at coset 1 of a complete transitive table."""
    return SubgroupRecord(T, T.n_cosets, is_normal(T))


def _rotations(P: Presentation, ncols: int) -> list[list[tuple[tuple[int, ...], int, int]]]:
    """Per column c, the cyclic rotations of each relator and its inverse
    that begin with c, as (doubled columns, first, last): the rotation is
    doubled[first:last + 1].  A relator u^m has only len(u) distinct
    rotations, so long powers cost no more than their root."""
    rots: list[list[tuple[tuple[int, ...], int, int]]] = [[] for _ in range(ncols)]
    for cols in _relator_cols(P):
        period = next(k for k in range(1, len(cols) + 1) if cols[k:] + cols[:k] == cols)
        for w in (cols, tuple(c ^ 1 for c in reversed(cols))):
            doubled = w + w
            for k in range(period):
                rots[w[k]].append((doubled, k, k + len(w) - 1))
    return rots


def _complete_tables(
    P: Presentation, max_index: int, capped: list[int] | None = None, normal: bool = False
) -> Iterator[CosetTable]:
    """Every complete canonical table of index <= max_index, in search
    order, each yielded as soon as it is found; with normal, only those of
    normal subgroups.  capped[0], if given, counts the branches cut for
    asking for coset max_index + 1."""
    if max_index < 1:
        raise ValueError("max_index must be at least 1")
    ncols = 2 * P.n_generators
    rots = _rotations(P, ncols)
    # rows are added as cosets first appear, so a huge max_index
    # allocates nothing up front
    tab = [0] * (2 * ncols)
    trail: list[int] = []  # flat positions written since the root, in order

    def deduce(alpha: int, col: int, beta: int) -> bool:
        """Define alpha.col = beta and every entry it forces; False on a
        contradiction (the caller undoes the trail either way)."""
        pending = []
        while True:
            k, m = alpha * ncols + col, beta * ncols + (col ^ 1)
            tab[k] = beta
            tab[m] = alpha
            trail.append(k)
            trail.append(m)
            for word, i, j in rots[col]:
                f, i, b, j = _scan(tab, ncols, alpha, alpha, word, i, j)
                if i == j:  # one gap: f.word[i] = b is forced
                    pending.append((f, word[i], b))
                elif i > j and f != b:
                    return False
            # a forced entry is free when found, but an earlier one may
            # have taken it since: the same entry is skipped, a clash fails
            while pending:
                alpha, col, beta = pending.pop()
                x = tab[alpha * ncols + col]
                if not x and not tab[beta * ncols + (col ^ 1)]:
                    break
                if x != beta:
                    return False
            else:
                return True

    frames: list[list[int]] = []  # [trail length, cosets, alpha, column, next candidate]
    n = 1
    pos = ncols  # every entry before pos is defined
    while True:
        end = (n + 1) * ncols
        while pos < end and tab[pos]:
            pos += 1
        if pos == end:
            rows = tuple(tuple(tab[c * ncols:(c + 1) * ncols]) for c in range(1, n + 1))
            yield CosetTable(P.n_generators, rows)
        else:
            alpha, col = divmod(pos, ncols)
            frames.append([len(trail), n, alpha, col, 1])
        while frames:
            frame = frames[-1]
            mark, n, alpha, col, beta = frame
            for k in trail[mark:]:
                tab[k] = 0
            del trail[mark:]
            inv = col ^ 1
            while beta <= n and tab[beta * ncols + inv]:
                beta += 1
            if beta > n + 1 or beta > max_index:
                if capped is not None and beta == n + 1:
                    capped[0] += 1
                frames.pop()
                continue
            frame[4] = beta + 1
            if beta > n:
                n = beta
                if len(tab) == n * ncols:
                    tab.extend([0] * ncols)
            if deduce(alpha, col, beta) and (not normal or _normal_so_far(tab, ncols)):
                pos = alpha * ncols + col
                break
        else:
            break


def _canonical_order(T: CosetTable):
    """(index, flattened table): rows have equal length, so comparing the
    rows tuple compares the flattened table."""
    return T.n_cosets, T.rows


def _normal_by_index(P: Presentation, max_index: int, p: int | None = None) -> Iterator[SubgroupRecord]:
    """low_index_normal(P, max_index), or its p-power indices, lazily: index
    n is one search at bound n, its index-n tables sorted.  Stops after a
    search that cut no branch: the prune never cuts a prefix of a normal
    table, so no normal subgroup of larger index exists."""
    if max_index < 1:
        raise ValueError("max_index must be at least 1")
    n = 1
    while n <= max_index:
        capped = [0]
        tables = [T for T in _complete_tables(P, n, capped, normal=True) if T.n_cosets == n]
        yield from (SubgroupRecord(T, n, True) for T in sorted(tables, key=_canonical_order))
        if not capped[0]:
            return
        n = n * p if p else n + 1


def low_index_subgroups(P: Presentation, max_index: int) -> list[SubgroupRecord]:
    """Every subgroup of index <= max_index (the whole group included),
    as canonical coset tables sorted by (index, flattened table)."""
    return [subgroup_record(T) for T in sorted(_complete_tables(P, max_index), key=_canonical_order)]


def low_index_normal(P: Presentation, max_index: int) -> list[SubgroupRecord]:
    """The normal subgroups among low_index_subgroups, same order."""
    normal = _complete_tables(P, max_index, normal=True)
    return [SubgroupRecord(T, T.n_cosets, True) for T in sorted(normal, key=_canonical_order)]
