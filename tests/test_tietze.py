"""The Tietze engine and the kill-set search against the plain reference
loops in ``oracles``: same presentations, same warnings, same kill sets."""

import time
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdef import (
    Presentation,
    certify_free_quotient,
    parse_presentation,
    presentations as presentations_module,
    print_presentation,
    reduce,
    reidemeister_schreier,
    tietze_simplify,
    todd_coxeter,
)
from pdef.presentations import TietzeBudgetWarning
from oracles import reference_free_quotient, reference_tietze

BUDGETS = (1, 2, 3, 5, 10**9)


@st.composite
def presentations(draw):
    n = draw(st.integers(1, 4))
    letters = st.sampled_from([ell for g in range(1, n + 1) for ell in (g, -g)])
    words = st.lists(st.lists(letters, max_size=8).map(reduce), max_size=5)
    return Presentation(("a", "b", "c", "d")[:n], tuple(draw(words)))


@st.composite
def killable(draw):
    """<a, b, c, d | products of conjugates of c^+-1, d^+-1>: killing c and d
    frees a and b, and smaller kill sets sometimes do too."""
    letters = st.sampled_from([1, -1, 2, -2, 3, -3, 4, -4])
    conjugate = st.tuples(st.lists(letters, max_size=3), st.sampled_from([3, -3, 4, -4]))
    relators = []
    for factors in draw(st.lists(st.lists(conjugate, min_size=1, max_size=3), min_size=1, max_size=4)):
        word = []
        for u, ell in factors:
            word += u + [ell] + [-x for x in reversed(u)]
        relators.append(reduce(word))
    return Presentation(("a", "b", "c", "d"), tuple(relators))


def _run(simplify, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        Q = simplify(*args)
    return Q, [(w.category, str(w.message)) for w in caught]


@settings(max_examples=300, deadline=None)
@given(presentations(), st.sampled_from(BUDGETS))
def test_engine_matches_reference(P, budget):
    with mock.patch.object(presentations_module, "TIETZE_STEPS", budget):
        engine = _run(tietze_simplify, P)
    assert engine == _run(reference_tietze, P, budget)


@settings(max_examples=150, deadline=None)
@given(st.one_of(presentations(), killable()), st.integers(0, 3), st.sampled_from(BUDGETS))
def test_kill_set_prune_matches_reference(H, kill_budget, budget):
    with warnings.catch_warnings(), mock.patch.object(presentations_module, "TIETZE_STEPS", budget):
        warnings.simplefilter("ignore")
        cert = certify_free_quotient(H, kill_budget)
        expected = reference_free_quotient(H, kill_budget, budget)
    if expected is None:
        assert cert.kind == "Inconclusive"
    else:
        kill_set, rank = expected
        assert cert.kind == "FreeQuotientWitness" and cert.verified
        assert cert.witness["kill_set"] == kill_set
        assert cert.witness["abelian_invariants"] == {"rank": rank, "torsion": []}


# the reference loop's output on the Klein-quartic subgroup (about 30 s there)
KLEIN_QUARTIC_SIMPLIFIED = (
    "gens: s161, s163, s165, s166, s167, s169\n"
    "rel: s165*s161^-1*s163*s167^-1*s169*s165^-1*s166*s169^-1*s166^-1*s167*s161*s163^-1\n"
)


def test_klein_quartic_subgroup_is_pinned():
    # the kernel of the (2,3,7) triangle group onto PSL(2,7): the Cayley
    # table of PSL(2,7) is a coset table of the triangle group
    triangle = parse_presentation("gens: a, b\nrel: a^2\nrel: b^3\nrel: (a*b)^7\n")
    psl27 = parse_presentation("gens: a, b\nrel: a^2\nrel: b^3\nrel: (a*b)^7\nrel: [a,b]^4\n")
    H = reidemeister_schreier(triangle, todd_coxeter(psl27, []))
    assert (H.n_generators, len(H.relators)) == (169, 504)
    start = time.perf_counter()
    S = tietze_simplify(H)
    assert time.perf_counter() - start < 2
    assert print_presentation(S) == KLEIN_QUARTIC_SIMPLIFIED


def test_step_limit_stops_a_long_simplification():
    # the trivial subgroup of the S6 Coxeter group: 720 cosets, so RS gives
    # 720 * 4 + 1 generators and 720 * 15 relators; Tietze runs about two
    # minutes to its fixpoint, and the step limit stops it well inside 2 s
    rels = [f"s{i}^2" for i in range(1, 6)]
    rels += [f"(s{i}*s{j})^{3 if j == i + 1 else 2}" for i in range(1, 6) for j in range(i + 1, 6)]
    S6 = parse_presentation("gens: s1, s2, s3, s4, s5\n" + "".join(f"rel: {r}\n" for r in rels))
    H = reidemeister_schreier(S6, todd_coxeter(S6, []))
    assert (H.n_generators, len(H.relators)) == (2881, 10800)
    start = time.perf_counter()
    with pytest.warns(TietzeBudgetWarning, match="stopped after 5000 steps"):
        S = tietze_simplify(H)
    assert time.perf_counter() - start < 2
    assert (S.n_generators, len(S.relators), sum(map(len, S.relators))) == (2881, 4920, 14405)
