import random
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdef import (
    ParseError,
    Presentation,
    Word,
    abelian_invariants,
    deficiency_count,
    low_index_normal,
    p_deficiency,
    parse_presentation,
    parse_word,
    print_presentation,
    quotient_by_words,
    tietze_simplify,
)
from pdef import presentations
from pdef.presentations import (
    MAX_WORD_LENGTH,
    PresentationWarning,
    TietzeBudgetWarning,
    print_word,
)
from conftest import P_TEXT, RANK4_TEXT
import oracles
from oracles import random_reduced_word, reference_parse_word


def test_parse_commutator():
    P = parse_presentation("gens: x, y\nrel: [x,y]")
    assert P.generator_names == ("x", "y")
    assert P.relators == (Word((-1, -2, 1, 2)),)


def test_parse_triangle_power_presentation():
    P = parse_presentation(P_TEXT)
    assert P.n_generators == 3
    assert len(P.relators) == 6
    assert sorted(len(r) for r in P.relators) == [3, 3, 3, 6, 6, 6]


def test_parse_negative_power():
    P = parse_presentation("gens: a\nrel: a^-2")
    assert P.relators == (Word((-1, -1)),)


def test_parse_misc_grammar():
    P = parse_presentation(
        "# comment line\n"
        "gens: a, b_2\n"
        "rel: a b_2 a  # implicit *\n"
        "rel: (a*b_2)^2\n"
        "rel: [[a,b_2],a]\n"
    )
    assert len(P.relators) == 3
    assert P.relators[0] == Word((1, 2, 1))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_presentation("gens: a, a")
    assert e.value.line == 1 and e.value.column == 10

    with pytest.raises(ParseError) as e:
        parse_presentation("gens: a\nrel: b")
    assert e.value.line == 2 and e.value.column == 6

    with pytest.raises(ParseError) as e:
        parse_presentation("gens: a\nrel: (a")
    assert e.value.line == 2

    with pytest.raises(ParseError):
        parse_presentation("rel: a")

    with pytest.raises(ParseError):
        parse_word("", ("a",))


def test_parse_tolerates_bom_and_crlf():
    P = parse_presentation("﻿gens: a, b\r\nrel: a*b\r\n")
    assert P.generator_names == ("a", "b")
    assert P.relators == (Word((1, 2)),)


def test_parser_warnings():
    # each warning names the caller of the parser, not a line inside it
    for parse in (
        lambda: parse_presentation("gens: a\nrel: a^0"),
        lambda: parse_word("a^0", ["a"]),
        lambda: parse_presentation("gens: a\nrel: a*a^-1"),
    ):
        with pytest.warns(PresentationWarning) as caught:
            parse()
        assert all(w.filename == __file__ for w in caught)


def test_print_parse_roundtrip():
    texts = [
        P_TEXT,
        RANK4_TEXT,
        "gens: a\nrel: a^-2\n",
        "gens: a, b\nrel: a^3*b^-2*a\n",
    ]
    for text in texts:
        P = parse_presentation(text)
        assert parse_presentation(print_presentation(P)) == P
    trivial = Presentation((), ())
    assert print_presentation(trivial) == "gens: \n"
    assert parse_presentation(print_presentation(trivial)) == trivial
    # the empty relator prints as g^0, which needs a generator
    P = Presentation(("x",), (Word(()),))
    with pytest.warns(PresentationWarning):
        assert parse_presentation(print_presentation(P)) == P
    with pytest.raises(ValueError):
        print_presentation(Presentation((), (Word(()),)))


@st.composite
def word_texts(draw):
    """Word expressions nested up to 50 deep, with zero and large exponents;
    half of them get one character deleted or inserted."""
    atoms = st.sampled_from(["a", "b"])
    factors = st.sampled_from(["a", "b", "a^40", "(b*a)^-300"])
    exponents = st.sampled_from(["2", "-1", "0", "-3", "3", "-2", "40"])
    text = draw(atoms)
    for _ in range(draw(st.integers(0, 50))):
        kind = draw(st.sampled_from(["paren", "commutator", "power", "product"]))
        if kind == "paren":
            text = f"({text})"
        elif kind == "commutator":
            other = draw(factors)
            text = f"[{text}, {other}]" if draw(st.booleans()) else f"[{other},{text}]"
        elif kind == "power":
            text = draw(st.sampled_from(["({})^{}", "{}^{}"])).format(text, draw(exponents))
        else:
            text = draw(st.sampled_from(["{}*{}", "{} {}", "{} ({})"])).format(text, draw(factors))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + draw(st.sampled_from(list("()[],*^ ac1-$"))) + text[i:]
    return text


def _parse_outcome(parse, text):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(text, ("a", "b"))
        except ParseError as e:
            result = str(e)
    return result, [str(w.message) for w in caught]


@settings(max_examples=200, deadline=None)
@given(word_texts())
def test_parser_matches_recursive_reference(text):
    # a small length cap, so that both parsers also reach it often and cheaply
    with mock.patch.object(presentations, "MAX_WORD_LENGTH", 1000), \
            mock.patch.object(oracles, "MAX_WORD_LENGTH", 1000):
        assert _parse_outcome(parse_word, text) == _parse_outcome(reference_parse_word, text)


def test_print_word_collapses_runs():
    assert print_word(Word((1, 1, 1, -2, -2)), ("x", "y")) == "x^3*y^-2"


def test_p_deficiency_values(dinf, triangle_power_pres):
    assert p_deficiency(dinf, 2).value == 1
    assert p_deficiency(triangle_power_pres, 3).value == 1

    gens = ", ".join(f"x{i}" for i in range(1, 10))
    rels = [
        f"rel: [[x{i},x{j}],x{j}]" for i in range(1, 10) for j in range(1, 10) if i != j
    ]
    rels += [f"rel: x{i}^7" for i in range(1, 10)]
    E = parse_presentation("gens: " + gens + "\n" + "\n".join(rels))
    assert p_deficiency(E, 7).value == Fraction(-450, 7)


def test_p_deficiency_rejects_composite(dinf):
    with pytest.raises(ValueError):
        p_deficiency(dinf, 6)


def test_p_deficiency_invariances(triangle_power_pres):
    P = triangle_power_pres
    base = p_deficiency(P, 3).value
    rng = random.Random(3)
    rels = list(P.relators)
    rng.shuffle(rels)
    assert p_deficiency(Presentation(P.generator_names, tuple(rels)), 3).value == base

    # rotating or inverting a (cyclically reduced) relator changes nothing
    rotated = list(P.relators)
    r = rotated[3].letters
    rotated[3] = Word(r[2:] + r[:2])
    assert p_deficiency(Presentation(P.generator_names, tuple(rotated)), 3).value == base
    inverted = list(P.relators)
    inverted[0] = inverted[0].inverse()
    assert p_deficiency(Presentation(P.generator_names, tuple(inverted)), 3).value == base


def test_added_relator_subtracts_exactly():
    rng = random.Random(5)
    P = parse_presentation("gens: a, b\nrel: a^2\n")
    for p in (2, 3):
        for _ in range(20):
            w = random_reduced_word(rng, 2, rng.randrange(1, 8))
            old = p_deficiency(P, p)
            new = p_deficiency(quotient_by_words(P, [w]), p)
            from pdef import nu_p

            assert new.value == old.value - Fraction(1, p ** nu_p(w, p))


def test_deficiency_count(triangle_power_pres):
    assert deficiency_count(parse_presentation("gens: a, t\nrel: t*a*t^-1*a^-2")) == 1
    assert deficiency_count(triangle_power_pres) == -3
    assert deficiency_count(parse_presentation("gens: x, y")) == 2


def test_quotient_by_words(rank4_pres, triangle_power_pres):
    Q = quotient_by_words(rank4_pres, [Word((3,)), Word((4,))])
    assert Q.generator_names == rank4_pres.generator_names
    assert Q.relators == rank4_pres.relators + (Word((3,)), Word((4,)))

    assert quotient_by_words(triangle_power_pres, []) == triangle_power_pres

    X = parse_presentation("gens: x")
    assert quotient_by_words(X, [Word((1, 1))]).relators == (Word((1, 1)),)

    with pytest.raises(ValueError):
        quotient_by_words(X, [Word((2,))])


def test_word_length_cap_checked_before_expanding():
    tracemalloc.start()
    try:
        for text in ("x^300000000", "(x^1000)^-1001", "x^600000*x^600000", "[x^300000, x^300000]"):
            with pytest.raises(ParseError, match="longer than"):
                parse_presentation("gens: x\nrel: " + text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20  # the longest word built stays under the cap
    P = parse_presentation("gens: x\nrel: (x^1000)^1000")
    assert len(P.relators[0]) == MAX_WORD_LENGTH


def test_tietze_examples(rank4_pres):
    killed = quotient_by_words(rank4_pres, [Word((3,)), Word((4,))])
    S = tietze_simplify(killed)
    assert S.n_generators == 2 and S.relators == ()

    S = tietze_simplify(parse_presentation("gens: x, y\nrel: y"))
    assert S.generator_names == ("x",) and S.relators == ()

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PresentationWarning)
        P = parse_presentation("gens: x\nrel: x*x^-1")
    S = tietze_simplify(P)
    assert S.generator_names == ("x",) and S.relators == ()


def test_tietze_total_length_never_grows(finite_corpus):
    for P in finite_corpus:
        S = tietze_simplify(P)
        assert sum(len(r) for r in S.relators) <= sum(len(r) for r in P.relators)


def test_tietze_budget_warning():
    P = parse_presentation("gens: x, y\nrel: y\nrel: y*x\n")
    with mock.patch.object(presentations, "TIETZE_STEPS", 1), pytest.warns(TietzeBudgetWarning):
        tietze_simplify(P)


def test_tietze_preserves_invariants(finite_corpus):
    for P in finite_corpus:
        S = tietze_simplify(P)
        assert abelian_invariants(S) == abelian_invariants(P)

        def counts(Q):
            out = {}
            for rec in low_index_normal(Q, 3):
                out[rec.index] = out.get(rec.index, 0) + 1
            return out

        assert counts(S) == counts(P)


def test_tietze_deterministic(triangle_power_pres, rank4_pres):
    for P in (triangle_power_pres, rank4_pres):
        assert tietze_simplify(P) == tietze_simplify(P)
