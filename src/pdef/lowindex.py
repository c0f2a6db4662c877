"""All subgroups of index <= n, by backtracking over partial coset tables.

The search keeps one flat table (0 marks an undefined entry), an undo
trail of the entries it wrote, and an explicit stack of branch points, so
a branch costs the entries it defines and backtracking erases exactly
those; no table is copied and nothing recurses.

Each definition alpha.g = beta is a deduction.  It is checked by scanning,
at alpha only, the cyclic rotations of each relator and of its inverse
that begin with g (precomputed per column).  A scan that closes with one
entry missing defines that entry and pushes it as a further deduction; a
scan that closes inconsistently kills the branch.  Every relator cycle at
every coset is scanned in full once its last entry is defined, so each
complete table is a transitive permutation action satisfying the
relators.

New cosets are only ever introduced at the first undefined entry in scan
order, so every complete table the search emits is already in canonical
BFS numbering; distinct tables are distinct subgroups (not conjugacy
classes), each appearing exactly once.

Normality is decided on the table alone (the test behind
``cosets.is_normal``), and Schreier generators are built only for the
records returned: all of them for ``low_index_subgroups``, the normal ones
for ``low_index_normal``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .cosets import CosetTable, _col, _rows_normal, is_normal
from .presentations import Presentation
from .rewriting import schreier_generators
from .words import Word, cyclic_reduce, primitive_root


@dataclass(frozen=True)
class SubgroupRecord:
    table: CosetTable
    index: int
    normal: bool
    schreier_generators: tuple[Word, ...]


def subgroup_record(T: CosetTable) -> SubgroupRecord:
    """The record of the subgroup at coset 1 of a complete transitive
    table: its Schreier generators become the table's subgroup words."""
    gens = tuple(w for _, w in schreier_generators(T))
    table = CosetTable(T.n_generators, T.rows, complete=True, subgroup_words=gens)
    return SubgroupRecord(table, table.n_cosets, is_normal(table), gens)


def _rotations(P: Presentation, ncols: int) -> list[list[tuple[tuple[int, ...], int, int]]]:
    """Per column c, the cyclic rotations of each relator and its inverse
    that begin with c, as (doubled columns, first, last): the rotation is
    doubled[first:last + 1].  A relator u^m has only len(u) distinct
    rotations, so long powers cost no more than their root."""
    rots: list[list[tuple[tuple[int, ...], int, int]]] = [[] for _ in range(ncols)]
    for r in P.relators:
        core = cyclic_reduce(r)[1]
        if not core:
            continue
        period = len(primitive_root(core).root)
        for w in (core, core.inverse()):
            cols = tuple(_col(ell) for ell in w.letters)
            doubled = cols + cols
            for k in range(period):
                rots[cols[k]].append((doubled, k, k + len(cols) - 1))
    return rots


def _complete_tables(P: Presentation, max_index: int) -> Iterator[CosetTable]:
    """Every complete canonical table of index <= max_index, in search
    order, each yielded as soon as it is found."""
    if max_index < 1:
        raise ValueError("max_index must be at least 1")
    ncols = 2 * P.n_generators
    rots = _rotations(P, ncols)
    # coset c's row is tab[c*ncols:(c+1)*ncols]; rows are added as cosets
    # first appear, so a huge max_index allocates nothing up front
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
                f = alpha
                while i <= j:
                    x = tab[f * ncols + word[i]]
                    if not x:
                        break
                    f = x
                    i += 1
                else:
                    if f != alpha:
                        return False
                    continue
                b = alpha
                while j >= i:
                    x = tab[b * ncols + (word[j] ^ 1)]
                    if not x:
                        break
                    b = x
                    j -= 1
                if j < i:
                    return False
                if j == i:  # one gap: f.word[i] = b is forced
                    pending.append((f, word[i], b))
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
            yield CosetTable(P.n_generators, rows, complete=True)
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
                frames.pop()
                continue
            frame[4] = beta + 1
            if beta > n:
                n = beta
                if len(tab) == n * ncols:
                    tab.extend([0] * ncols)
            if deduce(alpha, col, beta):
                pos = alpha * ncols + col
                break
        else:
            break


def _canonical_order(T: CosetTable):
    """(index, flattened table): rows have equal length, so comparing the
    rows tuple compares the flattened table."""
    return T.n_cosets, T.rows


def low_index_subgroups(P: Presentation, max_index: int) -> list[SubgroupRecord]:
    """Every subgroup of index <= max_index (the whole group included),
    as canonical coset tables sorted by (index, flattened table)."""
    return [subgroup_record(T) for T in sorted(_complete_tables(P, max_index), key=_canonical_order)]


def low_index_normal(P: Presentation, max_index: int) -> list[SubgroupRecord]:
    """The normal subgroups among low_index_subgroups, same order."""
    normal = (T for T in _complete_tables(P, max_index) if _rows_normal(T.rows))
    return [subgroup_record(T) for T in sorted(normal, key=_canonical_order)]
