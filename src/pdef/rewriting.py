"""Reidemeister-Schreier: presentations of finite-index subgroups from
coset tables, via a prefix-closed Schreier transversal."""

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


def schreier_generators(T: CosetTable, reps=None) -> list[tuple[tuple[int, int], Word]]:
    """Nontrivial Schreier generators rep_i * g * rep_{i.g}^-1, keyed by
    (coset, generator) and listed in scan order.  Exactly
    N*n - (N-1) of them for an index-N table over n generators."""
    if reps is None:
        reps = schreier_transversal(T)
    out = []
    for i in range(1, T.n_cosets + 1):
        for g in range(1, T.n_generators + 1):
            j = T.rows[i - 1][_col(g)]
            u = reduce(reps[i - 1].letters + (g,) + reps[j - 1].inverse().letters)
            if u:
                out.append(((i, g), u))
    return out


def _subgroup_gen_names(count: int) -> tuple[str, ...]:
    if count <= 26:
        return tuple(string.ascii_lowercase[:count])
    return tuple(f"s{i + 1}" for i in range(count))


def reidemeister_schreier(P: Presentation, T: CosetTable, transversal=None) -> Presentation:
    """Rewrite P's relators through the coset table: the result presents the
    subgroup at coset 1, on the nontrivial Schreier generators, with one
    rewritten relator per (relator, coset) pair — N(n-1)+1 generators and
    N*m relators, kept verbatim (no simplification here)."""
    reps = transversal if transversal is not None else schreier_transversal(T)
    gens = schreier_generators(T, reps)
    index_of = {pair: k + 1 for k, (pair, _) in enumerate(gens)}
    names = _subgroup_gen_names(len(gens))

    def rewrite(relator: Word, start: int) -> Word:
        out = []
        c = start
        for ell in relator.letters:
            if ell > 0:
                k = index_of.get((c, ell))
                if k is not None:
                    out.append(k)
                c = T.rows[c - 1][_col(ell)]
            else:
                d = T.rows[c - 1][_col(ell)]
                k = index_of.get((d, -ell))
                if k is not None:
                    out.append(-k)
                c = d
        return reduce(out)

    new_relators = [
        rewrite(r, i) for r in P.relators for i in range(1, T.n_cosets + 1)
    ]
    return Presentation(names, tuple(new_relators))


def subgroup_presentation(P: Presentation, rec: "SubgroupRecord") -> Presentation:
    """Rewritten then simplified presentation of a recorded subgroup."""
    return tietze_simplify(reidemeister_schreier(P, rec.table))
