import random
import time
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from pdef import (
    Presentation,
    abelian_invariants,
    is_normal,
    low_index_normal,
    low_index_subgroups,
    parse_presentation,
    reduce,
    todd_coxeter,
    validate_table,
)
from pdef.cosets import canonicalize_rows, table_from_rows
from pdef.rewriting import schreier_generators
from oracles import (
    all_subgroups,
    brute_force_tables,
    normal_by_conjugates,
    perm_closure,
    table_from_permutations,
    word_permutation,
)


def test_infinite_cyclic():
    Z = parse_presentation("gens: x")
    recs = low_index_subgroups(Z, 3)
    assert [r.index for r in recs] == [1, 2, 3]
    assert all(r.normal for r in recs)


def test_dinf_counts(dinf):
    recs = low_index_subgroups(dinf, 2)
    assert [r.index for r in recs] == [1, 2, 2, 2]
    # oracle: index-2 subgroups are kernels of the three surjections onto
    # Z/2 read off the abelianization (Z/2)^2
    inv = abelian_invariants(dinf)
    assert inv.free_rank == 0 and inv.torsion == (2, 2)
    homs = [
        (a, b)
        for a in (0, 1)
        for b in (0, 1)
        if (a, b) != (0, 0)
    ]
    assert len(homs) == 3
    assert low_index_normal(dinf, 2) == recs


def test_s3_subgroup_lattice(s3_pres):
    recs = low_index_subgroups(s3_pres, 3)
    # oracle: brute-force the subgroup lattice of S3 in its faithful action
    group = perm_closure([(1, 0, 2), (0, 2, 1)])
    subs = all_subgroups(group)
    expected = sorted(6 // len(s) for s in subs if 6 // len(s) <= 3)
    assert sorted(r.index for r in recs) == expected  # 1, 2, 3, 3, 3
    assert [r.index for r in recs] == [1, 2, 3, 3, 3]
    assert [r.normal for r in recs] == [True, True, False, False, False]


def test_triangle_power_normal_count(triangle_power_pres):
    recs = low_index_normal(triangle_power_pres, 3)
    assert len(recs) == 14
    assert [r.index for r in recs].count(1) == 1
    assert [r.index for r in recs].count(2) == 0
    assert [r.index for r in recs].count(3) == 13


def test_every_table_valid_and_distinct(finite_corpus):
    for P in finite_corpus:
        recs = low_index_subgroups(P, 4)
        seen = set()
        for rec in recs:
            validate_table(P, rec.table)
            assert rec.index == rec.table.n_cosets
            assert rec.table.rows not in seen
            seen.add(rec.table.rows)
            assert canonicalize_rows(P.n_generators, rec.table.rows) == rec.table.rows
            assert rec.table.subgroup_words == ()


def test_prime_index_normal_count_matches_abelianization(finite_corpus, dinf, triangle_power_pres):
    for P in list(finite_corpus) + [dinf, triangle_power_pres]:
        inv = abelian_invariants(P)
        for p in (2, 3):
            s = inv.free_rank + sum(1 for d in inv.torsion if d % p == 0)
            expected = (p**s - 1) // (p - 1)
            got = sum(1 for rec in low_index_normal(P, p) if rec.index == p)
            assert got == expected, (P.generator_names, p, got, expected)


def test_randomized_homomorphism_search_finds_nothing_new(finite_corpus):
    rng = random.Random(23)
    for P in finite_corpus:
        max_index = 4
        known = {rec.table.rows for rec in low_index_subgroups(P, max_index)}
        n = P.n_generators
        for _ in range(300):
            degree = rng.randrange(1, max_index + 1)
            perms = []
            for _ in range(n):
                points = list(range(degree))
                rng.shuffle(points)
                perms.append(tuple(points))
            # accept only actions satisfying every relator
            ok = True
            for r in P.relators:
                if word_permutation(r, perms) != tuple(range(degree)):
                    ok = False
                    break
            if not ok:
                continue
            rows = table_from_permutations(n, perms)
            if rows is None:
                continue  # not transitive
            assert rows in known


def test_free_group_counts_match_hall_recursion():
    # t_n = n*(n!)^(r-1) - sum_{k<n} ((n-k)!)^(r-1) * t_k counts the
    # index-n subgroups of a free group of rank r
    from math import factorial

    def hall(r, upto):
        t = {}
        for n in range(1, upto + 1):
            s = n * factorial(n) ** (r - 1)
            for k in range(1, n):
                s -= factorial(n - k) ** (r - 1) * t[k]
            t[n] = s
        return t

    for r, upto in ((2, 4), (3, 3)):
        P = parse_presentation("gens: " + ", ".join(f"x{i}" for i in range(r)))
        got = {}
        for rec in low_index_subgroups(P, upto):
            got[rec.index] = got.get(rec.index, 0) + 1
        assert got == hall(r, upto)


def test_records_roundtrip_through_todd_coxeter(finite_corpus):
    # enumerating the subgroup generated by a record's Schreier generators
    # must rebuild the identical canonical table
    for P in finite_corpus[:4]:
        for rec in low_index_subgroups(P, 4):
            T = todd_coxeter(P, [w for _, w in schreier_generators(rec.table)])
            assert T.rows == rec.table.rows


def test_order_is_deterministic(triangle_power_pres):
    a = low_index_subgroups(triangle_power_pres, 3)
    b = low_index_subgroups(triangle_power_pres, 3)
    assert a == b
    keys = [(r.index, tuple(x for row in r.table.rows for x in row)) for r in a]
    assert keys == sorted(keys)


def test_table_normality_matches_conjugate_oracle(finite_corpus, dinf):
    rng = random.Random(5)
    z2_z3 = parse_presentation("gens: a, b\nrel: a^2\nrel: b^3")
    f2 = parse_presentation("gens: a, b")
    cases = [(P, 8) for P in finite_corpus] + [(dinf, 8), (z2_z3, 8), (f2, 5)]
    for P, max_index in cases:
        recs = low_index_subgroups(P, max_index)
        for rec in recs:
            assert is_normal(rec.table) == rec.normal == normal_by_conjugates(rec.table, rng)
        assert low_index_normal(P, max_index) == [rec for rec in recs if rec.normal]


def test_free_group_normal_counts():
    # index-n normal subgroups of F2 are kernels of 2-generated groups of
    # order n, counted by epimorphisms / |Aut|: 1, 3, 4, 7, 6, 15
    F2 = parse_presentation("gens: a, b")
    counts = Counter(rec.index for rec in low_index_normal(F2, 6))
    assert [counts[n] for n in range(1, 7)] == [1, 3, 4, 7, 6, 15]


def test_records_build_no_generators():
    # one subgroup per index; a record is its table, so 400 of them cost
    # little more than the search (generators for all 400 used to take 5 s)
    P = parse_presentation("gens: a")
    start = time.perf_counter()
    recs = low_index_subgroups(P, 400)
    assert time.perf_counter() - start < 1
    assert [rec.index for rec in recs] == list(range(1, 401))


def test_deep_search_is_iterative():
    # the search path is 1200 cosets deep; one subgroup per divisor of 1200
    P = parse_presentation("gens: a\nrel: a^1200")
    start = time.perf_counter()
    recs = low_index_subgroups(P, 1200)
    assert time.perf_counter() - start < 20
    assert [rec.index for rec in recs] == [d for d in range(1, 1201) if 1200 % d == 0]
    assert len(recs) == 30 and all(rec.normal for rec in recs)


_relators = st.lists(
    st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=5).map(reduce),
    max_size=3,
)


@settings(max_examples=40, deadline=None)
@given(_relators)
def test_search_matches_brute_force(relators):
    P = Presentation(("a", "b"), tuple(relators))
    got = {rec.table.rows for rec in low_index_subgroups(P, 4)}
    assert got == brute_force_tables(2, P.relators, 4)


@settings(max_examples=40, deadline=None)
@given(_relators)
def test_todd_coxeter_rebuilds_brute_force_tables(relators):
    # HLT checked against brute force, not against the low-index search:
    # the Schreier generators of each transitive action of index <= 4
    # enumerate back to that same canonical table
    P = Presentation(("a", "b"), tuple(relators))
    for rows in brute_force_tables(2, P.relators, 4):
        T = table_from_rows(2, rows)
        assert todd_coxeter(P, [w for _, w in schreier_generators(T)]).rows == rows
