"""Randomized cross-checks tying the layers together on seeded corpora."""

import random

from pdef import (
    Presentation,
    Word,
    abelian_invariants,
    certify_p_large_by_deficiency,
    low_index_subgroups,
    p_deficiency,
    reidemeister_schreier,
    schreier_transversal,
    todd_coxeter,
    trace,
    validate_table,
    word_power,
)
from oracles import random_primitive_word, random_reduced_word, schreier_words


def random_presentation(rng):
    n = rng.choice((1, 2, 3))
    names = tuple("xyz"[:n])
    rels = []
    for _ in range(rng.randrange(0, 3)):
        w = random_reduced_word(rng, n, rng.randrange(1, 5))
        rels.append(word_power(w, rng.randrange(1, 4)))
    return Presentation(names, tuple(r for r in rels if r))


def search_depth(P):
    # relator-free rank-3 inputs have thousands of index-4 subgroups;
    # keep the audit quick without losing coverage
    return 3 if P.n_generators >= 3 else 4


def test_normality_against_conjugation_oracle():
    # H is normal iff every conjugate g s g^-1 of a subgroup generator s
    # stays in H, i.e. still fixes coset 1
    rng = random.Random(83)
    for _ in range(40):
        P = random_presentation(rng)
        for rec in low_index_subgroups(P, search_depth(P)):
            conj_inside = True
            for g in range(1, P.n_generators + 1):
                for s in schreier_words(rec.table, schreier_transversal(rec.table)):
                    for sign in (g, -g):
                        w = Word((sign,)) * s * Word((-sign,))
                        if trace(rec.table, 1, w) != 1:
                            conj_inside = False
            assert rec.normal == conj_inside


def test_subgroup_stack_consistency():
    rng = random.Random(89)
    for _ in range(25):
        P = random_presentation(rng)
        for rec in low_index_subgroups(P, search_depth(P)):
            validate_table(P, rec.table)
            T = todd_coxeter(P, schreier_words(rec.table, schreier_transversal(rec.table)))
            assert T.rows == rec.table.rows
            H = reidemeister_schreier(P, rec.table)
            assert H.n_generators == rec.index * (P.n_generators - 1) + 1
            assert len(H.relators) == rec.index * len(P.relators)
            # finite abelianization data is consistent: the subgroup's
            # abelianization maps onto nothing larger than index allows
            inv = abelian_invariants(H)
            assert inv.free_rank + len(inv.torsion) <= H.n_generators


def test_deficiency_certificate_threshold_randomized():
    rng = random.Random(97)
    for _ in range(60):
        n = rng.choice((2, 3))
        names = tuple("xyz"[:n])
        rels = tuple(
            word_power(random_primitive_word(rng, n, rng.randrange(1, 4)), rng.randrange(1, 5))
            for _ in range(rng.randrange(0, 4))
        )
        P = Presentation(names, rels)
        for p in (2, 3):
            cert = certify_p_large_by_deficiency(P, p)
            exceeds = p_deficiency(P, p).value > 1
            assert (cert.kind == "PLargeByDeficiency") == exceeds
