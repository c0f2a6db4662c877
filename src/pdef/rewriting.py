"""Reidemeister-Schreier: presentations of finite-index subgroups from
coset tables.  One Schreier-label table carries it: label[c-1][col] is +i
on the entry crossing the i-th nontrivial Schreier generator (scan order),
-i on its inverse entry and 0 on the tree edges of the Schreier transversal,
which the transversal names (Magnus, Karrass & Solitar 1966, section 2.3)."""

from __future__ import annotations

import string
from typing import TYPE_CHECKING

from .cosets import CosetTable, _col
from .presentations import Presentation, tietze_simplify
from .words import EPSILON, Word, reduce

if TYPE_CHECKING:  # pragma: no cover
    from .lowindex import SubgroupRecord


def schreier_transversal(T: CosetTable) -> list[Word]:
    """BFS coset representatives; entry i-1 represents coset i, coset 1
    gets the empty word, and the set is prefix closed."""
    reps: list[Word | None] = [None] * T.n_cosets
    reps[0] = EPSILON
    order = [1]
    for c in order:
        for col in range(2 * T.n_generators):
            d = T.rows[c - 1][col]
            if reps[d - 1] is None:
                letter = col // 2 + 1 if col % 2 == 0 else -(col // 2 + 1)
                reps[d - 1] = Word(reps[c - 1].letters + (letter,))
                order.append(d)
    return reps  # complete tables are transitive, so no None survives


def _labels(T: CosetTable, reps: list[Word]) -> tuple[list[list[int]], int]:
    """The Schreier-label table for the Schreier transversal reps, and the
    number k of nontrivial Schreier generators: N*n - (N-1) of them.  Each
    rep_d (d >= 2) is rep_(d.x^-1) x, so (d.x^-1, x) and (d, x^-1) are tree
    edges; ValueError for reps that are not such a transversal."""
    n, rows = T.n_generators, T.rows
    if len(reps) != len(rows) or reps[0].letters:
        raise ValueError("a Schreier transversal has one rep per coset, and rep_1 is empty")
    label: list[list[int | None]] = [[None] * (2 * n) for _ in rows]  # None until labelled
    for d, rep in enumerate(reps[1:], start=2):
        x = rep.letters[-1] if rep.letters else 0
        e = rows[d - 1][_col(-x)] if 0 < abs(x) <= n else None  # d.x^-1
        if e is None or reps[e - 1].letters + (x,) != rep.letters:
            raise ValueError(f"rep_{d} is not rep_(d.x^-1) followed by its last letter x")
        label[d - 1][_col(-x)] = label[e - 1][_col(x)] = 0
    free = [(c, col) for c in range(1, len(rows) + 1) for col in range(0, 2 * n, 2) if label[c - 1][col] is None]
    for k, (c, col) in enumerate(free, start=1):
        label[c - 1][col], label[rows[c - 1][col] - 1][col + 1] = k, -k
    return label, len(free)


def schreier_generators(T: CosetTable) -> list[tuple[tuple[int, int], Word]]:
    """Nontrivial Schreier generators rep_i * g * rep_{i.g}^-1 of the BFS
    transversal, keyed by (coset, generator) and listed in scan order."""
    reps = schreier_transversal(T)
    label, _ = _labels(T, reps)
    return [((i, g), reduce(reps[i - 1].letters + (g,) + reps[T.rows[i - 1][_col(g)] - 1].inverse().letters))
            for i in range(1, T.n_cosets + 1) for g in range(1, T.n_generators + 1) if label[i - 1][_col(g)] > 0]


def _subgroup_gen_names(count: int) -> tuple[str, ...]:
    if count <= 26:
        return tuple(string.ascii_lowercase[:count])
    return tuple(f"s{i + 1}" for i in range(count))


def reidemeister_schreier(P: Presentation, T: CosetTable, transversal=None) -> Presentation:
    """Rewrite P's relators through the coset table: the result presents the
    subgroup at coset 1, on the nontrivial Schreier generators, with one
    rewritten relator per (relator, coset) pair — N(n-1)+1 generators and
    N*m relators, kept verbatim (no simplification here).  A transversal
    given in place of the BFS one must be a Schreier one, or ValueError."""
    label, k = _labels(T, transversal if transversal is not None else schreier_transversal(T))
    relators = []
    for r in P.relators:
        cols = [_col(x) for x in r.letters]
        for start in range(1, T.n_cosets + 1):
            out, c = [], start
            for col in cols:
                if label[c - 1][col]:
                    out.append(label[c - 1][col])
                c = T.rows[c - 1][col]
            relators.append(reduce(out))
    return Presentation(_subgroup_gen_names(k), tuple(relators))


def subgroup_presentation(P: Presentation, rec: "SubgroupRecord") -> Presentation:
    """Rewritten then simplified presentation of a recorded subgroup."""
    return tietze_simplify(reidemeister_schreier(P, rec.table))
