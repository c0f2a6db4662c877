from math import factorial

from pdef import (
    CosetTable,
    Exhausted,
    Word,
    is_normal,
    low_index_normal,
    low_index_subgroups,
    parse_presentation,
    parse_word,
    permutation_action,
    power_survives,
    todd_coxeter,
    trace,
    validate_table,
)
from pdef.cosets import canonicalize_rows, table_from_rows
from oracles import perm_closure, perm_compose, quaternion_group, table_from_permutations, word_permutation


def _enumerate(P, words=(), **kw):
    T = todd_coxeter(P, list(words), **kw)
    assert isinstance(T, CosetTable)
    validate_table(P, T)
    return T


def test_s3_enumeration(s3_pres):
    T = _enumerate(s3_pres)
    # oracle: the group generated by the transpositions (1 2) and (2 3)
    order = len(perm_closure([(1, 0, 2), (0, 2, 1)]))
    assert order == 6
    assert T.n_cosets == order
    perms = permutation_action(T)
    assert len(perm_closure([tuple(x - 1 for x in p) for p in perms])) == 6


def test_dinf_translation_subgroup(dinf):
    w = parse_word("x1*x2", dinf.generator_names)
    T = _enumerate(dinf, [w])
    assert T.n_cosets == 2
    assert permutation_action(T) == [(2, 1), (2, 1)]
    assert trace(T, 1, parse_word("x1", dinf.generator_names)) == 2
    assert trace(T, 1, Word(())) == 1
    assert trace(T, 1, w) == 1


def test_whole_group_subgroup(triangle_power_pres):
    gens = [Word((i,)) for i in (1, 2, 3)]
    T = _enumerate(triangle_power_pres, gens)
    assert T.n_cosets == 1
    assert permutation_action(T) == [(1,), (1,), (1,)]


def test_cyclic_three():
    P = parse_presentation("gens: a\nrel: a^3")
    assert _enumerate(P).n_cosets == 3


def test_quaternion_order_eight(q8_pres):
    T = _enumerate(q8_pres)
    units, mul = quaternion_group()
    # oracle: i and j satisfy the relators and generate all 8 units
    generated = {"1"}
    frontier = ["1"]
    while frontier:
        nxt = []
        for u in frontier:
            for g in ("i", "j"):
                v = mul(u, g)
                if v not in generated:
                    generated.add(v)
                    nxt.append(v)
        frontier = nxt
    assert len(generated) == 8
    assert T.n_cosets == 8


def test_power_survives(dinf):
    w = parse_word("x1*x2", dinf.generator_names)
    T = _enumerate(dinf, [w])
    assert power_survives(T, parse_word("x1", dinf.generator_names), 2)
    assert power_survives(T, Word(()), 1)
    assert not power_survives(T, w, 2)


def test_is_normal(dinf, s3_pres):
    w = parse_word("x1*x2", dinf.generator_names)
    assert is_normal(_enumerate(dinf, [w]))
    assert is_normal(_enumerate(s3_pres, [Word((1,)), Word((2,))]))
    # <a> has index 3 in S3 and is not normal
    Ta = _enumerate(s3_pres, [Word((1,))])
    assert Ta.n_cosets == 3
    assert not is_normal(Ta)


def test_is_normal_needs_no_subgroup_words(s3_pres, dinf):
    # rows read back from JSON carry no subgroup words; normality must
    # still be decided, not default to True
    Ta = _enumerate(s3_pres, [Word((1,))])
    assert not is_normal(table_from_rows(2, Ta.rows))
    Tab = _enumerate(dinf, [parse_word("x1*x2", dinf.generator_names)])
    assert is_normal(table_from_rows(2, Tab.rows))


def test_exhaustion_is_a_result():
    F2 = parse_presentation("gens: x, y")
    out = todd_coxeter(F2, [], max_cosets=25)
    assert out == Exhausted(25)


def test_collapsing_trivial_group_completes_at_700_not_at_120():
    # a trivial group whose enumeration defines hundreds of cosets before
    # they collapse to one: the bound counts live cosets, and Felsch peaks
    # at 588 of them here
    P = parse_presentation(
        "gens: r, s, t\nrel: t^-1*r*t*r^-2\nrel: r^-1*s*r*s^-2\nrel: s^-1*t*s*t^-2"
    )
    T = todd_coxeter(P, [], max_cosets=700)
    assert not isinstance(T, Exhausted)
    assert T.n_cosets == 1
    validate_table(P, T)
    assert isinstance(todd_coxeter(P, [], max_cosets=120), Exhausted)


def test_coset_bound_is_pinned(finite_corpus):
    # the enumeration runs in a fixed order, so whether <a> is enumerated
    # within m cosets is part of the output; these literals are the
    # results of Felsch enumeration (None: Exhausted)
    grid = [
        [3, 3, 3, 3],
        [None, None, None, None],  # D-inf: <x1> has infinite index
        [2, 2, 2, 2],
        [1, 1, 1, 1],
        [1, 1, 1, 1],
        [3, 3, 3, 3],
        [2, 2, 2, 2],
        [2, 2, 2, 2],
    ]
    smallest = [3, None, 2, 1, 1, 3, 2, 2]  # least bound that completes
    for P, row, least in zip(finite_corpus, grid, smallest, strict=True):
        a = [Word((1,))]
        got = [todd_coxeter(P, a, max_cosets=m) for m in (5, 10, 20, 50)]
        assert [None if isinstance(T, Exhausted) else T.n_cosets for T in got] == row
        if least is not None:
            assert not isinstance(todd_coxeter(P, a, max_cosets=least), Exhausted)
            if least > 1:
                assert isinstance(todd_coxeter(P, a, max_cosets=least - 1), Exhausted)


def _coxeter_sn(n, inverted=False):
    """The Coxeter presentation of S_n on n - 1 adjacent transpositions;
    inverted writes every relator with inverse letters (s1^-1*s1^-1,
    (s1^-1*s2^-1)^3)."""
    s = [f"s{i}^-1" if inverted else f"s{i}" for i in range(1, n)]
    rels = [f"{x}*{x}" if inverted else f"{x}^2" for x in s]
    rels += [f"({s[i]}*{s[j]})^{3 if j == i + 1 else 2}" for i in range(n - 1) for j in range(i + 1, n - 1)]
    gens = ", ".join(f"s{i}" for i in range(1, n))
    return parse_presentation(f"gens: {gens}\n" + "".join(f"rel: {r}\n" for r in rels))


def test_symmetric_coxeter_needs_exactly_its_order():
    # with one column per involution, Felsch never holds more live cosets
    # than |S_n| on the Coxeter presentation
    for n in (4, 5, 6):
        for inverted in (False, True):
            P = _coxeter_sn(n, inverted)
            T = todd_coxeter(P, [], max_cosets=factorial(n))
            assert isinstance(T, CosetTable) and T.n_cosets == factorial(n)
            validate_table(P, T)
            assert todd_coxeter(P, [], max_cosets=factorial(n) - 1) == Exhausted(factorial(n) - 1)


def test_triangle_commutator_7_has_order_1092():
    # <a, b | a^2, b^3, (ab)^7, [a,b]^7> is PSL(2, 13)
    P = parse_presentation("gens: a, b\nrel: a^2\nrel: b^3\nrel: (a*b)^7\nrel: [a,b]^7")
    assert _enumerate(P).n_cosets == 1092


# M11 on its ATLAS standard generators, and a copy with b read as b^-1 and
# each relator rotated
M11_TEXT = (
    "gens: a, b\nrel: a^2\nrel: b^4\nrel: (a*b)^11\nrel: (a*b^2)^6\n"
    "rel: a*b*a*b*a*b^-1*a*b*a*b^2*a*b^-1*a*b*a*b^-1*a*b^-1\n"
)
M11_INVERSE_ROTATED_TEXT = (
    "gens: a, b\nrel: a^2\nrel: b^-4\nrel: (b^-1*a)^11\nrel: (b^-1*a*b^-1)^6\n"
    "rel: b*a*b^-1*a*b^-2*a*b*a*b^-1*a*b*a*b*a*b^-1*a*b^-1*a\n"
)


def test_m11_has_order_7920():
    for text in (M11_TEXT, M11_INVERSE_ROTATED_TEXT):
        assert _enumerate(parse_presentation(text)).n_cosets == 7920


def test_zero_generators():
    # the trivial group: one coset, no columns
    P = parse_presentation("gens:\n")
    T = _enumerate(P)
    assert T.rows == ((),) and is_normal(T)
    assert [(r.index, r.table.rows, r.normal) for r in low_index_subgroups(P, 3)] == [(1, ((),), True)]
    assert [r.index for r in low_index_normal(P, 3)] == [1]


def _coset_action_rows(gen_perms, sub_perms):
    """Canonical table of the right action on the cosets Hg of
    H = <sub_perms>, built from the permutations alone."""
    H = perm_closure(sub_perms) or {tuple(range(len(gen_perms[0])))}
    cosets = [frozenset(H)]
    index = {cosets[0]: 0}
    for coset in cosets:
        for x in gen_perms:
            image = frozenset(perm_compose(g, x) for g in coset)
            if image not in index:
                index[image] = len(cosets)
                cosets.append(image)
    action = [tuple(index[frozenset(perm_compose(g, x) for g in coset)] for coset in cosets) for x in gen_perms]
    return table_from_permutations(len(gen_perms), action)


def test_involution_column_with_inverse_letters():
    # S4 on (0 1), (1 2), (2 3): a and b are involutions by relators
    # written with inverse letters only, and subgroup words use inverses
    gen_perms = [(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)]
    P = parse_presentation(
        "gens: a, b, c\nrel: a^-2\nrel: b^-1*b^-1\nrel: c^2\n"
        "rel: (a*b)^3\nrel: (b^-1*c)^3\nrel: (a^-1*c^-1)^2\n"
    )
    cases = ["", "a^-1", "b^-1*a^-1*b", "a^-1*b^-1", "a^-1*c^-1", "b^-1*c^-1;a^-1", "c^-1*b^-1*a^-1"]
    for text in cases:
        words = [parse_word(w, P.generator_names) for w in text.split(";") if w]
        T = _enumerate(P, words)
        sub_perms = [word_permutation(w, gen_perms) for w in words]
        assert T.n_cosets == 24 // max(1, len(perm_closure(sub_perms)))
        assert T.rows == _coset_action_rows(gen_perms, sub_perms)


def test_index_divides_group_order(finite_corpus):
    for P in finite_corpus:
        T = todd_coxeter(P, [])
        if isinstance(T, Exhausted):
            continue
        validate_table(P, T)
        order = T.n_cosets
        for g in range(1, P.n_generators + 1):
            Tg = todd_coxeter(P, [Word((g,))])
            validate_table(P, Tg)
            assert order % Tg.n_cosets == 0


def test_tables_are_canonical_and_deterministic(finite_corpus):
    for P in finite_corpus:
        a = todd_coxeter(P, [Word((1,))], max_cosets=500)
        b = todd_coxeter(P, [Word((1,))], max_cosets=500)
        assert a == b
        if not isinstance(a, Exhausted):
            assert canonicalize_rows(P.n_generators, a.rows) == a.rows


def test_enumeration_matches_permutation_oracle(s3_pres):
    # index of <a> in S3 equals |S3| / |<(1 2)>| in the faithful action
    T = todd_coxeter(s3_pres, [Word((1,))])
    gen_perms = [(1, 0, 2), (0, 2, 1)]
    group = perm_closure(gen_perms)
    subgroup = perm_closure([word_permutation(Word((1,)), gen_perms)])
    assert T.n_cosets == len(group) // len(subgroup)


def test_trace_agrees_with_permutation_action(s3_pres):
    T = _enumerate(s3_pres)
    perms = permutation_action(T)
    rng_words = [Word((1,)), Word((2,)), Word((1, 2)), Word((2, 1, 2)), Word((1, 2, 1, 2))]
    for w in rng_words:
        for start in range(1, T.n_cosets + 1):
            img = start
            for ell in w.letters:
                p = perms[abs(ell) - 1]
                if ell > 0:
                    img = p[img - 1]
                else:
                    img = p.index(img) + 1
            assert trace(T, start, w) == img


def test_dump_format(dinf):
    w = parse_word("x1*x2", dinf.generator_names)
    T = todd_coxeter(dinf, [w])
    assert T.dump() == "cosets 2 gens 2\n2 2 2 2\n1 1 1 1\n"
