import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdef import (
    EPSILON,
    Presentation,
    Word,
    abelian_invariants,
    low_index_normal,
    low_index_subgroups,
    parse_presentation,
    parse_word,
    reduce,
    reidemeister_schreier,
    schreier_transversal,
    subgroup_presentation,
    tietze_simplify,
    todd_coxeter,
    trace,
    word_power,
)
from pdef.rewriting import schreier_generators
from oracles import random_spanning_transversal, schreier_words


def test_dinf_transversal(dinf):
    T = todd_coxeter(dinf, [parse_word("x1*x2", dinf.generator_names)])
    reps = schreier_transversal(T)
    assert [r.letters for r in reps] == [(), (1,)]


def test_transversal_is_prefix_closed_and_correct(finite_corpus):
    for P in finite_corpus:
        for rec in low_index_subgroups(P, 4):
            reps = schreier_transversal(rec.table)
            words = {r.letters for r in reps}
            for r in reps:
                for cut in range(len(r.letters)):
                    assert r.letters[:cut] in words
            for i, r in enumerate(reps, start=1):
                assert trace(rec.table, 1, r) == i


def test_rejects_a_transversal_that_is_not_schreier():
    # S3 = <a, b | a^2, b^3, (ab)^2> over the trivial subgroup.  Its BFS
    # transversal presents the trivial group; read as if they were Schreier
    # transversals, the longest rep times b^3 would present Z and an empty
    # rep_2 would present Z^3
    S3 = parse_presentation("gens: a, b\nrel: a^2\nrel: b^3\nrel: (a*b)^2\n")
    T = todd_coxeter(S3, [])
    reps = schreier_transversal(T)
    assert str(abelian_invariants(reidemeister_schreier(S3, T, transversal=reps))) == "1"
    longest = max(range(len(reps)), key=lambda i: len(reps[i]))
    bad = [  # the two above, too few reps, a nonempty rep_1, a letter past the generators
        reps[:longest] + [reps[longest] * Word((2, 2, 2))] + reps[longest + 1 :],
        reps[:1] + [EPSILON] + reps[2:],
        reps[:-1],
        [Word((2, 2, 2))] + reps[1:],
        reps[:-1] + [reps[-1] * Word((3,))],
    ]
    for transversal in bad:
        with pytest.raises(ValueError, match="Schreier transversal|rep_"):
            reidemeister_schreier(S3, T, transversal=transversal)


def test_s3_trivial_subgroup_transversal(s3_pres):
    T = todd_coxeter(s3_pres, [])
    reps = schreier_transversal(T)
    assert len(reps) == 6
    assert reps[0].letters == ()


def test_dinf_rewriting(dinf):
    T = todd_coxeter(dinf, [parse_word("x1*x2", dinf.generator_names)])
    H = reidemeister_schreier(dinf, T)
    assert H.n_generators == 3 and len(H.relators) == 4
    S = tietze_simplify(H)
    assert S.n_generators == 1 and S.relators == ()


def test_triangle_power_subgroup_rewriting(triangle_power_pres):
    P = triangle_power_pres
    ranks = []
    for rec in low_index_normal(P, 3):
        if rec.index != 3:
            continue
        H = reidemeister_schreier(P, rec.table)
        assert H.n_generators == 7  # N(n-1)+1
        assert len(H.relators) == 18  # N*m
        ranks.append(abelian_invariants(H).free_rank)
    assert 4 in ranks  # some index-3 subgroup abelianizes to Z^4
    assert all(0 <= r <= 4 for r in ranks)


def test_rank4_subgroup_matches_direct_presentation(triangle_power_pres, rank4_pres):
    want = abelian_invariants(rank4_pres)
    assert want.free_rank == 4 and want.torsion == ()
    found = []
    for rec in low_index_normal(triangle_power_pres, 3):
        if rec.index != 3:
            continue
        inv = abelian_invariants(subgroup_presentation(triangle_power_pres, rec))
        if inv == want:
            found.append(rec)
    assert found


def test_index_one_record(triangle_power_pres):
    rec = low_index_subgroups(triangle_power_pres, 1)[0]
    H = reidemeister_schreier(triangle_power_pres, rec.table)
    assert H.n_generators == 3 and len(H.relators) == 6
    assert abelian_invariants(H) == abelian_invariants(triangle_power_pres)


def test_counts_over_corpus(finite_corpus):
    for P in finite_corpus:
        n, m = P.n_generators, len(P.relators)
        for rec in low_index_subgroups(P, 6):
            H = reidemeister_schreier(P, rec.table)
            N = rec.index
            assert H.n_generators == N * (n - 1) + 1
            assert len(H.relators) == N * m


def test_invariants_independent_of_transversal(finite_corpus):
    rng = random.Random(31)
    for P in finite_corpus[:5]:
        for rec in low_index_subgroups(P, 4):
            base = abelian_invariants(reidemeister_schreier(P, rec.table))
            for _ in range(2):
                reps = random_spanning_transversal(rng, rec.table)
                alt = reidemeister_schreier(P, rec.table, transversal=reps)
                assert abelian_invariants(alt) == base


def test_dinf_translation_family_rank_one(dinf):
    # the subgroup generated by (x1 x2)^k has index 2k and abelianizes to Z
    t = parse_word("x1*x2", dinf.generator_names)
    for k in (1, 2, 3):
        T = todd_coxeter(dinf, [word_power(t, k)])
        assert T.n_cosets == 2 * k
        H = reidemeister_schreier(dinf, T)
        inv = abelian_invariants(H)
        assert inv.free_rank == 1 and inv.torsion == ()


def test_rewritten_invariants_need_no_tietze(finite_corpus, dinf, triangle_power_pres):
    # the rank certificates read H_1 off the raw rewritten presentation;
    # Tietze-simplifying it first is the reference
    for P, max_index in [(P, 6) for P in finite_corpus] + [(dinf, 6), (triangle_power_pres, 3)]:
        for rec in low_index_normal(P, max_index):
            raw = abelian_invariants(reidemeister_schreier(P, rec.table))
            assert raw == abelian_invariants(subgroup_presentation(P, rec))


def _assert_rewrites_by_conjugation(P, T, reps, words):
    # RS's defining property: at relator r and coset c, putting each
    # generator's Schreier word back in gives rep_c * r * rep_c^-1
    H = reidemeister_schreier(P, T, transversal=reps)
    assert H.n_generators == len(words)
    rewritten = iter(H.relators)
    for r in P.relators:
        for c in range(1, T.n_cosets + 1):
            back = []
            for k in next(rewritten).letters:
                back += words[k - 1].letters if k > 0 else words[-k - 1].inverse().letters
            rep = reps[c - 1]
            assert reduce(back) == reduce(rep.letters + r.letters + rep.inverse().letters)


def _assert_rewriting_property(P, T, rng, n_random):
    reps = schreier_transversal(T)
    words = schreier_words(T, reps)
    assert [w for _, w in schreier_generators(T)] == words  # generator k is the k-th pair
    _assert_rewrites_by_conjugation(P, T, reps, words)
    for _ in range(n_random):
        reps = random_spanning_transversal(rng, T)
        _assert_rewrites_by_conjugation(P, T, reps, schreier_words(T, reps))


def test_rewritten_relators_are_conjugated_relators(finite_corpus):
    rng = random.Random(43)
    for P in finite_corpus:
        for rec in low_index_subgroups(P, 4):
            _assert_rewriting_property(P, rec.table, rng, 3)


@st.composite
def _small_presentations(draw):
    n = draw(st.integers(1, 2))
    letters = [g for k in range(1, n + 1) for g in (k, -k)]
    relators = draw(st.lists(st.lists(st.sampled_from(letters), min_size=1, max_size=6).map(reduce), max_size=3))
    return Presentation(tuple(f"x{k}" for k in range(n)), tuple(relators))


@settings(max_examples=60, deadline=None)
@given(_small_presentations(), st.randoms(use_true_random=False))
def test_rewriting_property_on_random_presentations(P, rng):
    for rec in low_index_subgroups(P, 4):
        _assert_rewriting_property(P, rec.table, rng, 1)
