import copy
import functools
import json
import math
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdef import (
    Certificate,
    ParseError,
    Presentation,
    Word,
    abelian_invariants,
    allcock_rank_bound,
    certify_free_quotient,
    certify_p_large_by_deficiency,
    certify_p_large_witness,
    find_z_surjection,
    low_index_normal,
    p_deficiency,
    parse_presentation,
    power_quotient_largeness,
    print_presentation,
    reidemeister_schreier,
    subgroup_presentation,
    subgroup_record,
    tietze_simplify,
    todd_coxeter,
    verify,
)
from pdef.certificates import (
    ALLCOCK_BOUND,
    CITATIONS,
    FREE_QUOTIENT_WITNESS,
    INCONCLUSIVE,
    P_LARGE_BY_DEFICIENCY,
    P_LARGE_WITNESS,
    POWER_QUOTIENT_LARGE,
    Z_SURJECTION_WITNESS,
    MalformedCertificate,
    _inv_payload,
    _prime_powers,
    _issue,
    _table_payload,
    from_json,
    to_json,
    to_json_dict,
    validate_certificate_dict,
)
from pdef.presentations import print_word
from pdef.words import _valuation
from conftest import DINF_TEXT, P_TEXT, RANK4_TEXT, S3_TEXT
from oracles import random_primitive_word, reference_free_quotient


def test_p_large_by_deficiency():
    P = parse_presentation("gens: x, y\nrel: x^2")
    cert = certify_p_large_by_deficiency(P, 2)
    assert cert.kind == P_LARGE_BY_DEFICIENCY
    assert cert.witness["bound"] == "3/2"
    assert {c.claim for c in cert.conclusions} == {
        "p-large",
        "large",
        "not torsion",
        "no property (T)",
    }
    assert cert.verified and verify(cert)


def test_p_large_by_deficiency_threshold(triangle_power_pres):
    cert = certify_p_large_by_deficiency(triangle_power_pres, 3)
    assert cert.kind == INCONCLUSIVE  # def_3 is exactly 1
    assert cert.witness["bound"] == "1"

    free2 = parse_presentation("gens: x, y")
    for p in (2, 3, 5):
        assert certify_p_large_by_deficiency(free2, p).kind == P_LARGE_BY_DEFICIENCY


def test_certificate_text_without_generators_must_parse():
    # the empty relator has no generator to be written with (g^0), so no
    # certificate may store a presentation text that the parser rejects
    with pytest.raises(ValueError):
        certify_p_large_by_deficiency(Presentation((), (Word(()),)), 2)
    trivial = certify_p_large_by_deficiency(Presentation((), ()), 2)
    assert trivial.kind == INCONCLUSIVE and parse_presentation(trivial.presentation) == Presentation((), ())


def test_allcock_examples(dinf):
    recs = [r for r in low_index_normal(dinf, 2) if r.index == 2]
    kinds = {}
    for rec in recs:
        cert = allcock_rank_bound(dinf, rec)
        kinds.setdefault(cert.kind, []).append(cert)
    assert len(kinds[ALLCOCK_BOUND]) == 1  # only the translation subgroup
    cert = kinds[ALLCOCK_BOUND][0]
    assert cert.witness["bound"] == "1"
    assert cert.witness["abelian_invariants"] == {"rank": 1, "torsion": []}
    assert verify(cert)
    assert len(kinds[INCONCLUSIVE]) == 2
    for cert in kinds[INCONCLUSIVE]:  # the shape allcock writes, read back from JSON
        assert sorted(cert.witness) == ["index", "table"] and verify(from_json(to_json(cert)))

    G = parse_presentation("gens: x, y\nrel: x^3")
    hits = 0
    for rec in low_index_normal(G, 3):
        if rec.index != 3:
            continue
        cert = allcock_rank_bound(G, rec)
        if cert.kind == ALLCOCK_BOUND:
            hits += 1
            assert cert.witness["bound"] == "3"
            assert cert.witness["abelian_invariants"]["rank"] == 3
    assert hits == 3  # the kernel containing x fails the hypothesis

    W = parse_presentation("gens: x, y\nrel: x^2")
    whole = low_index_normal(W, 1)[0]
    assert allcock_rank_bound(W, whole).kind == INCONCLUSIVE


def test_allcock_requires_normal(s3_pres):
    rec = next(r for r in __import__("pdef").low_index_subgroups(s3_pres, 3) if not r.normal)
    with pytest.raises(ValueError):
        allcock_rank_bound(s3_pres, rec)


def test_allcock_bound_never_beats_measured(finite_corpus, dinf):
    for P in list(finite_corpus) + [dinf]:
        for rec in low_index_normal(P, 6):
            cert = allcock_rank_bound(P, rec)
            if cert.kind != ALLCOCK_BOUND:
                continue
            bound = Fraction(cert.witness["bound"])
            assert cert.witness["abelian_invariants"]["rank"] >= math.ceil(bound)


def test_allcock_specialization_at_deficiency_one(dinf):
    # whenever def_p is exactly 1 and the hypothesis holds, the bound is 1
    rng = random.Random(43)
    presentations = [(dinf, 2)]
    for _ in range(4):
        u = random_primitive_word(rng, 2, rng.randrange(1, 5))
        v = random_primitive_word(rng, 2, rng.randrange(1, 5))
        from pdef import Presentation, word_power

        P = Presentation(("x", "y"), (word_power(u, 2), word_power(v, 2)))
        presentations.append((P, 2))
    for P, p in presentations:
        if p_deficiency(P, p).value != 1:
            continue
        for rec in low_index_normal(P, 4):
            cert = allcock_rank_bound(P, rec)
            if cert.kind == ALLCOCK_BOUND:
                assert Fraction(cert.witness["bound"]) == 1


def test_find_z_surjection(dinf, triangle_power_pres):
    cert = find_z_surjection(dinf, 2)
    assert cert.kind == Z_SURJECTION_WITNESS
    assert cert.witness["index"] == 2
    assert cert.witness["abelian_invariants"]["rank"] == 1
    assert verify(cert)

    cert = find_z_surjection(triangle_power_pres, 3)
    assert cert.kind == Z_SURJECTION_WITNESS
    assert cert.witness["index"] == 3
    assert cert.witness["abelian_invariants"]["rank"] >= 1
    assert verify(cert)

    finite = parse_presentation("gens: x\nrel: x^2")
    cert = find_z_surjection(finite, 4)
    assert cert.kind == INCONCLUSIVE
    assert cert.parameters["examined_indices"] == [1, 2]


def test_verify_checks_the_shape_of_an_in_memory_certificate():
    # the same witness fields pdef verify rejects in the JSON
    cert = find_z_surjection(parse_presentation("gens: x\nrel: x^2"), 4)
    assert verify(cert)
    cert.witness["kill_set"] = []
    with pytest.raises(MalformedCertificate):
        from_json(to_json(cert))
    with pytest.raises(MalformedCertificate):
        verify(cert)


def test_klein_quartic_rank_bound_is_fast():
    # the kernel of the (2,3,7) triangle group onto PSL(2,7): 169 Schreier
    # generators and 504 relators, read exactly without Tietze
    triangle = parse_presentation("gens: a, b\nrel: a^2\nrel: b^3\nrel: (a*b)^7\n")
    psl27 = parse_presentation("gens: a, b\nrel: a^2\nrel: b^3\nrel: (a*b)^7\nrel: [a,b]^4\n")
    rec = subgroup_record(todd_coxeter(psl27, []))
    start = time.perf_counter()
    cert = allcock_rank_bound(triangle, rec)
    assert verify(from_json(to_json(cert)))
    assert time.perf_counter() - start < 0.3
    assert cert.kind == ALLCOCK_BOUND and cert.witness["index"] == 168
    assert cert.witness["bound"] == "5"
    assert cert.witness["abelian_invariants"] == {"rank": 6, "torsion": []}
    assert "tietze_budget" not in cert.parameters


def test_rank_certificates_with_a_tietze_budget_still_verify(dinf, rank4_pres, triangle_power_pres):
    # certificates issued while the Tietze step budget was a parameter
    # carry it; verify never reads it
    rec = next(r for r in low_index_normal(dinf, 2) if allcock_rank_bound(dinf, r).kind == ALLCOCK_BOUND)
    issued = (
        allcock_rank_bound(dinf, rec),
        find_z_surjection(dinf, 2),
        certify_p_large_witness(triangle_power_pres, 3, 3, 3),
        certify_free_quotient(rank4_pres, 3),
    )
    assert [c.kind for c in issued] == [ALLCOCK_BOUND, Z_SURJECTION_WITNESS, P_LARGE_WITNESS, FREE_QUOTIENT_WITNESS]
    for cert in issued:
        for budget in (5000, 0):
            d = to_json_dict(cert)
            d["parameters"] = {**d["parameters"], "tietze_budget": budget}
            assert verify(from_json(json.dumps(d)))


def test_negative_kill_budget_is_rejected(rank4_pres, triangle_power_pres):
    with pytest.raises(ValueError, match="kill_budget must be at least 0"):
        certify_free_quotient(rank4_pres, -1)
    with pytest.raises(ValueError, match="kill_budget must be at least 0"):
        certify_p_large_witness(triangle_power_pres, 3, 3, -1)


def test_certify_free_quotient(rank4_pres):
    cert = certify_free_quotient(rank4_pres, 3)
    assert cert.kind == FREE_QUOTIENT_WITNESS
    assert len(cert.witness["kill_set"]) == 2
    assert cert.witness["abelian_invariants"] == {"rank": 2, "torsion": []}
    assert verify(cert)
    # a rank-2 free quotient forces free rank >= 2 downstairs
    assert abelian_invariants(rank4_pres).free_rank >= 2

    # the documented kill set {c, d} also works
    from pdef import quotient_by_words, tietze_simplify

    Q = tietze_simplify(
        quotient_by_words(rank4_pres, [rank4_pres.generator("c"), rank4_pres.generator("d")])
    )
    assert Q.n_generators == 2 and Q.relators == ()

    free2 = parse_presentation("gens: a, b")
    cert = certify_free_quotient(free2, 3)
    assert cert.kind == FREE_QUOTIENT_WITNESS and cert.witness["kill_set"] == []

    z2 = parse_presentation("gens: x\nrel: x^2")
    assert certify_free_quotient(z2, 3).kind == INCONCLUSIVE


def test_certify_p_large_witness(triangle_power_pres, dinf):
    cert = certify_p_large_witness(triangle_power_pres, 3, 3, 3)
    assert cert.kind == P_LARGE_WITNESS
    assert cert.witness["index"] == 3
    assert len(cert.witness["kill_set"]) == 2
    assert cert.witness["abelian_invariants"]["rank"] == 2
    assert verify(cert)

    free2 = parse_presentation("gens: a, b")
    cert = certify_p_large_witness(free2, 2, 2, 2)
    assert cert.kind == P_LARGE_WITNESS and cert.witness["index"] == 1

    cert = certify_p_large_witness(dinf, 2, 4, 3)
    assert cert.kind == INCONCLUSIVE

    with pytest.raises(ValueError):
        certify_p_large_witness(free2, 6, 2, 2)


def test_power_quotient_largeness():
    cert = power_quotient_largeness(2, 3, 8)
    assert cert.kind == POWER_QUOTIENT_LARGE
    assert cert.parameters["p"] == 2
    assert cert.witness["bound"] == "13/8"
    assert verify(cert)

    assert power_quotient_largeness(2, 2, 2).kind == INCONCLUSIVE

    cert = power_quotient_largeness(3, 1, 2)
    assert cert.kind == POWER_QUOTIENT_LARGE and cert.parameters["p"] == 2

    with pytest.raises(ValueError):
        power_quotient_largeness(2, 1, 0)


def _factor_by_every_divisor(q):
    """(p, l_p) by trial division by every integer from 2 up."""
    out, d = [], 2
    while q > 1:
        if q % d == 0:
            out.append((d, _valuation(q, d)[0]))
            q = _valuation(q, d)[1]
        d += 1
    return out


def test_prime_powers_match_trial_division_by_every_divisor():
    # odd steps after 2 skip no prime: q up to 3000, and powers of 2 alone,
    # times 3, times the prime 1009 (left over past the square root) and
    # times 9 * 1013^2 (a prime square past the trial bound: Pollard's rho)
    qs = list(range(1, 3001))
    qs += [2**k * m for k in range(1, 41) for m in (1, 3, 1009, 9 * 1013**2)]
    for q in qs:
        assert list(_prime_powers(q)) == _factor_by_every_divisor(q), q


def test_huge_primes_are_bounded():
    # trial division now stops at the square root of the cofactor, and
    # primality is Miller-Rabin: each call used to run for minutes or hang
    start = time.perf_counter()
    for q, p in ((10000000019, 10000000019), (6 * 10000000019, 10000000019), (8 * 10000000019, 2)):
        cert = power_quotient_largeness(2, 5, q)
        assert cert.kind == POWER_QUOTIENT_LARGE and cert.parameters["p"] == p
        assert verify(from_json(to_json(cert)))
    by_deficiency = certify_p_large_by_deficiency(parse_presentation("gens: x, y\nrel: x^2"), 2)
    for cert in (power_quotient_largeness(2, 3, 8), by_deficiency):
        d = json.loads(to_json(cert))
        d["parameters"]["p"] = 1000000000000000003
        assert not verify(from_json(json.dumps(d)))
        d["parameters"]["p"] = 10**25
        with pytest.raises(MalformedCertificate):
            verify(from_json(json.dumps(d)))
    assert time.perf_counter() - start < 2


def test_power_quotient_fires_at_smallest_qualifying_prime():
    # q built from known prime powers, including primes past the trial
    # bound, composite cofactors that only Pollard's rho splits, and
    # cofactors past psi_13, which trial division shrinks first
    rng = random.Random(61)
    primes = [2, 3, 5, 7, 997, 1009, 1013, 65537, 1000000007, 1000000009]
    for _ in range(200):
        chosen = sorted(rng.sample(primes, rng.randint(1, 3)))
        powers = {p: rng.randint(1, 3 if p < 10**6 else 1) for p in chosen}
        q = math.prod(p**e for p, e in powers.items())
        r, k = rng.randint(2, 4), rng.choice([0, 5, 100, 10**7, 10**12])
        expected = next((p for p in chosen if Fraction(p ** powers[p]) > Fraction(k, r - 1)), None)
        cert = power_quotient_largeness(r, k, q)
        if expected is None:
            assert cert.kind == INCONCLUSIVE
        else:
            assert cert.kind == POWER_QUOTIENT_LARGE and cert.parameters["p"] == expected
    m89 = 2**89 - 1  # a prime past psi_13
    big = 4000000000000000000013  # a prime below psi_13
    cases = (
        (2, 5, 1009**9, 1009),
        (2, 5, 1013 * m89, 1013),
        (2, 5, 1013 * big, 1013),
        (2, 10**7, 1009**2 * 1013 * 1000000007 * 1000000009, 1000000007),
        (2, 10**40, 10**30 + 1, None),
    )
    start = time.perf_counter()
    for r, k, q, expected in cases:
        cert = power_quotient_largeness(r, k, q)
        if expected is None:
            assert cert.kind == INCONCLUSIVE
        else:
            assert cert.kind == POWER_QUOTIENT_LARGE and cert.parameters["p"] == expected
    assert time.perf_counter() - start < 2


def test_power_quotient_agrees_with_deficiency():
    rng = random.Random(47)
    from pdef import Presentation, word_power

    for _ in range(25):
        r = rng.choice((2, 3))
        k = rng.randrange(0, 5)
        q = rng.randrange(2, 13)
        words = [random_primitive_word(rng, r, rng.randrange(1, 4)) for _ in range(k)]
        names = tuple(f"x{i}" for i in range(1, r + 1))
        P = Presentation(names, tuple(word_power(w, q) for w in words))
        cert = power_quotient_largeness(r, k, q)
        fired = cert.kind == POWER_QUOTIENT_LARGE
        primes = [p for p in (2, 3, 5, 7, 11) if q % p == 0]
        exceeds = any(p_deficiency(P, p).value > 1 for p in primes)
        assert fired == exceeds
        if fired:
            p = cert.parameters["p"]
            assert p_deficiency(P, p).value == Fraction(cert.witness["bound"])


def test_witness_subgroups_have_rank_at_least_two(triangle_power_pres):
    cert = certify_p_large_witness(triangle_power_pres, 3, 3, 3)
    rec = next(
        r
        for r in low_index_normal(triangle_power_pres, 3)
        if [list(row) for row in r.table.rows] == cert.witness["table"]
    )
    H = subgroup_presentation(triangle_power_pres, rec)
    assert abelian_invariants(H).free_rank >= 2


def test_json_roundtrip_and_verify(rank4_pres, dinf):
    certs = [
        certify_free_quotient(rank4_pres, 3),
        find_z_surjection(dinf, 2),
        power_quotient_largeness(2, 3, 8),
        certify_p_large_by_deficiency(parse_presentation("gens: x, y\nrel: x^2"), 2),
    ]
    for cert in certs:
        text = to_json(cert)
        back = from_json(text)
        assert back.kind == cert.kind
        assert verify(back)
        assert to_json(back) == text


def test_schema_rejects_unknown_fields(dinf):
    d = to_json_dict(find_z_surjection(dinf, 2))
    validate_certificate_dict(d)

    bad = dict(d)
    bad["extra"] = 1
    with pytest.raises(MalformedCertificate):
        validate_certificate_dict(bad)

    bad = json.loads(json.dumps(d))
    bad["witness"]["surprise"] = 1
    with pytest.raises(MalformedCertificate):
        validate_certificate_dict(bad)

    bad = json.loads(json.dumps(d))
    bad["kind"] = "SomethingElse"
    with pytest.raises(MalformedCertificate):
        validate_certificate_dict(bad)

    bad = json.loads(json.dumps(d))
    del bad["conclusions"]
    with pytest.raises(MalformedCertificate):
        validate_certificate_dict(bad)


def test_tampered_certificates_fail(dinf, rank4_pres):
    cert = find_z_surjection(dinf, 2)
    d = json.loads(to_json(cert))
    d["witness"]["abelian_invariants"]["rank"] = 5
    assert not verify(from_json(json.dumps(d)))

    cert = certify_free_quotient(rank4_pres, 3)
    d = json.loads(to_json(cert))
    d["witness"]["kill_set"] = []
    tampered = from_json(json.dumps(d))
    # removing the kill set must only pass if the group were already free
    assert not verify(tampered)

    cert = power_quotient_largeness(2, 3, 8)
    d = json.loads(to_json(cert))
    d["witness"]["bound"] = "7/8"
    assert not verify(from_json(json.dumps(d)))


def test_p_large_witness_needs_a_prime_p(triangle_power_pres):
    d = json.loads(to_json(certify_p_large_witness(triangle_power_pres, 3, 3, 3)))
    for p in (1, -1, 0, 4, 9):
        d["parameters"]["p"] = p
        start = time.perf_counter()
        assert not verify(from_json(json.dumps(d)))
        assert time.perf_counter() - start < 1


def test_intransitive_table_fails_verify(dinf):
    # two fixed points satisfy every relator, but coset 2 is unreachable
    # from coset 1, so this is no coset table
    d = json.loads(to_json(find_z_surjection(dinf, 2)))
    d["witness"]["table"] = [[1, 1, 1, 1], [2, 2, 2, 2]]
    assert not verify(from_json(json.dumps(d)))


def test_mutation_fuzz(dinf, rank4_pres, triangle_power_pres):
    rng = random.Random(53)
    base_certs = [
        find_z_surjection(dinf, 2),
        certify_free_quotient(rank4_pres, 3),
        power_quotient_largeness(2, 3, 8),
        certify_p_large_by_deficiency(parse_presentation("gens: x, y\nrel: x^2"), 2),
        certify_p_large_witness(triangle_power_pres, 3, 3, 3),
    ]
    rejected = 0
    total = 100
    for _ in range(total):
        cert = rng.choice(base_certs)
        d = json.loads(to_json(cert))
        mutation = rng.randrange(4)
        if mutation == 0:
            d[rng.choice("abcdefgh")] = 1  # unknown top-level field
        elif mutation == 1 and d.get("witness"):
            key = rng.choice(sorted(d["witness"]))
            value = d["witness"][key]
            if isinstance(value, str):
                d["witness"][key] = value + "1"
            elif isinstance(value, int):
                d["witness"][key] = value + rng.randrange(1, 4)
            elif isinstance(value, list):
                d["witness"][key] = value + [1] if key != "kill_set" else ["zz"]
            elif isinstance(value, dict):
                d["witness"][key] = {"rank": 99, "torsion": []}
        elif mutation == 2:
            d["kind"] = rng.choice(["Bogus", "", "inconclusive"])
        else:
            d["conclusions"] = [{"claim": "anything", "by": "Thm 9.9"}]
        try:
            mutated = from_json(json.dumps(d))
        except MalformedCertificate:
            rejected += 1
            continue
        try:
            if not verify(mutated):
                rejected += 1
        except MalformedCertificate:
            rejected += 1
    assert rejected == total


@functools.cache
def _issued() -> tuple[dict, ...]:
    """One issued certificate of each kind, as JSON objects."""
    dinf, rank4, P = (parse_presentation(t) for t in (DINF_TEXT, RANK4_TEXT, P_TEXT))
    rec = next(r for r in low_index_normal(dinf, 2) if allcock_rank_bound(dinf, r).kind == ALLCOCK_BOUND)
    certs = (
        certify_p_large_by_deficiency(parse_presentation("gens: x, y\nrel: x^2"), 2),
        allcock_rank_bound(dinf, rec),
        find_z_surjection(dinf, 2),
        certify_free_quotient(rank4, 3),
        certify_p_large_witness(P, 3, 3, 3),
        power_quotient_largeness(2, 3, 8),
        find_z_surjection(parse_presentation("gens: x\nrel: x^2"), 4),
    )
    return tuple(to_json_dict(c) for c in certs)


# the conclusions of _issued(), in order, pinned byte for byte
_PINNED_CONCLUSIONS = (
    [
        {"claim": "p-large", "by": "Thm 1.2"},
        {"claim": "large", "by": "Thm 1.2"},
        {"claim": "not torsion", "by": "Cor 2.1"},
        {"claim": "no property (T)", "by": "Cor 2.2"},
    ],
    [{"claim": "subgroup abelianization rank >= 1", "by": "Thm 1.1"}],
    [{"claim": "no property (T)", "by": "Cor 2.2"}],
    [{"claim": "free quotient of rank 2", "by": "definition"}, {"claim": "large", "by": "definition"}],
    [
        {"claim": "p-large", "by": "definition"},
        {"claim": "large", "by": "definition"},
        {"claim": "not torsion", "by": "Cor 2.1"},
    ],
    [
        {"claim": "quotient of a rank-2 free group by 3 normal 8-th powers is p-large", "by": "Cor 2.5"},
        {"claim": "large", "by": "Cor 2.5"},
    ],
    [],
)


def test_issued_conclusions_are_pinned():
    issued = _issued()
    assert [d["kind"] for d in issued] == [
        P_LARGE_BY_DEFICIENCY,
        ALLCOCK_BOUND,
        Z_SURJECTION_WITNESS,
        FREE_QUOTIENT_WITNESS,
        P_LARGE_WITNESS,
        POWER_QUOTIENT_LARGE,
        INCONCLUSIVE,
    ]
    assert tuple(d["conclusions"] for d in issued) == _PINNED_CONCLUSIONS


def test_dinf_z_surjection_cannot_claim_largeness():
    # D_inf is virtually Z, so not large: its witness supports no such claim
    d = copy.deepcopy(_issued()[2])
    assert verify(from_json(json.dumps(d)))
    d["conclusions"] = [{"claim": "p-large", "by": "Thm 1.2"}, {"claim": "large", "by": "definition"}]
    assert not verify(from_json(json.dumps(d)))


def test_inconclusive_claims_nothing():
    d = {"kind": "Inconclusive", "conclusions": [], "parameters": {}, "witness": {}, "verified": True}
    assert verify(from_json(json.dumps(d)))
    d["conclusions"] = [{"claim": "large", "by": "Thm 1.2"}]
    assert not verify(from_json(json.dumps(d)))


def test_from_json_rejects_every_unreadable_text():
    huge = json.dumps(_issued()[6]).replace('"max_index": 4', '"max_index": ' + "7" * 5000)
    assert huge != json.dumps(_issued()[6])
    for text in (huge, "[1," * 100000 + "]" * 100000, "not json", ""):
        with pytest.raises(MalformedCertificate, match="not JSON"):
            from_json(text)


def _locations(node, path=()):
    """The path of every value inside a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _locations(value, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _nested(text: str, depth: int) -> str:
    """The presentation with each relator wrapped in depth parentheses."""
    return "".join(
        "rel: " + "(" * depth + line[5:] + ")" * depth + "\n" if line.startswith("rel: ") else line + "\n"
        for line in text.splitlines()
    )


def _mutate_conclusions(draw, conclusions: list) -> None:
    """Add a well-formed conclusion, or drop one, retag its citation or edit
    its claim."""
    op = draw(st.sampled_from(["add", "drop", "retag", "edit"] if conclusions else ["add"]))
    if op == "add":
        pool = sorted({(c["claim"], c["by"]) for claims in _PINNED_CONCLUSIONS for c in claims})
        claim, by = draw(st.sampled_from(pool))
        conclusions.insert(draw(st.integers(0, len(conclusions))), {"claim": claim, "by": by})
        return
    i = draw(st.integers(0, len(conclusions) - 1))
    if op == "drop":
        del conclusions[i]
    elif op == "retag":
        conclusions[i]["by"] = draw(st.sampled_from([t for t in CITATIONS if t != conclusions[i]["by"]]))
    else:
        claim = conclusions[i]["claim"]
        edits = [claim + " ", claim.replace("1", "2"), claim.replace("2", "3"), "large", "p-large", ""]
        conclusions[i]["claim"] = draw(st.sampled_from([e for e in edits if e != claim]))


@st.composite
def mutated_certificates(draw):
    """(how, d): an issued certificate with a key deleted, a value retyped,
    an int made huge or negative, its relators nested 400 deep, or one
    conclusion added, dropped, retagged or edited."""
    d = copy.deepcopy(draw(st.sampled_from(range(7)).map(lambda i: _issued()[i])))
    how = draw(st.sampled_from(["delete", "retype", "int", "nest", "conclusion"]))
    if how == "conclusion":
        _mutate_conclusions(draw, d["conclusions"])
        return how, d
    if how == "nest":
        d["presentation"] = _nested(d.get("presentation", "gens: x\nrel: x^2\n"), 400)
        return how, d
    paths = list(_locations(d))
    if how == "delete":
        paths = [p for p in paths if isinstance(_at(d, p[:-1]), dict)]
    if how == "int":
        paths = [p for p in paths if type(_at(d, p)) is int]
    path = draw(st.sampled_from(paths))
    old = _at(d, path)
    if how == "delete":
        del _at(d, path[:-1])[path[-1]]
    elif how == "retype":
        pool = ["x", 3, 2.5, None, True, [], [3], {}, {"rank": 3}]
        _at(d, path[:-1])[path[-1]] = draw(st.sampled_from([v for v in pool if type(v) is not type(old)]))
    else:
        _at(d, path[:-1])[path[-1]] = draw(st.sampled_from([-1, -(10**30), 10**30, 2**64 + 1]))
    return how, d


@settings(max_examples=300, deadline=None)
@given(mutated_certificates())
def test_verify_fuzz(mutation):
    how, d = mutation
    try:
        result = verify(from_json(json.dumps(d)))
    except (MalformedCertificate, ParseError):
        assert how != "nest"
        return
    assert isinstance(result, bool)
    if how == "nest":
        assert result  # the same relators, only nested
    if how == "conclusion":
        assert not result  # a claim the payload does not determine


# ---------------------------------------------------------------------------
# the certifying searches stop at the first witness


def _eager_find_z_surjection(P, max_index):
    """The search over the whole sorted list of normal subgroups."""
    text = print_presentation(P)
    params = {"max_index": max_index}
    examined = []
    for rec in low_index_normal(P, max_index):
        inv = abelian_invariants(reidemeister_schreier(P, rec.table))
        examined.append(rec.index)
        if inv.free_rank >= 1:
            witness = {"index": rec.index, "table": _table_payload(rec.table), "abelian_invariants": _inv_payload(inv)}
            return _issue(Z_SURJECTION_WITNESS, text, params, witness)
    reason = "no normal subgroup in range surjects onto Z"
    return _issue(INCONCLUSIVE, text, {**params, "reason": reason, "examined_indices": examined}, {})


def _eager_p_large_witness(P, p, max_index, kill_budget):
    """The search over the whole sorted list, skipping non-p-power indices,
    with every kill set of every subgroup tried by the reference loop."""
    text = print_presentation(P)
    params = {"p": p, "max_index": max_index, "kill_budget": kill_budget}
    for rec in low_index_normal(P, max_index):
        if _valuation(rec.index, p)[1] != 1:
            continue
        found = reference_free_quotient(subgroup_presentation(P, rec), kill_budget)
        if found is not None:
            kill_set, rank = found
            witness = {
                "index": rec.index,
                "table": _table_payload(rec.table),
                "kill_set": kill_set,
                "abelian_invariants": {"rank": rank, "torsion": []},
            }
            return _issue(P_LARGE_WITNESS, text, params, witness)
    reason = "no p-power-index normal subgroup in range yielded a free quotient"
    return _issue(INCONCLUSIVE, text, {**params, "reason": reason}, {})


def _assert_same_as_eager(P, max_index, primes=(2, 3)):
    assert to_json(find_z_surjection(P, max_index)) == to_json(_eager_find_z_surjection(P, max_index))
    for p in primes:
        lazy = certify_p_large_witness(P, p, max_index, 2)
        assert to_json(lazy) == to_json(_eager_p_large_witness(P, p, max_index, 2))


def test_lazy_searches_match_the_eager_search_on_the_corpus(finite_corpus, dinf, triangle_power_pres, rank4_pres):
    for P in finite_corpus:
        for max_index in (1, 2, 5, 8):
            _assert_same_as_eager(P, max_index)
    for P, max_index in ((dinf, 4), (triangle_power_pres, 3), (rank4_pres, 3)):
        _assert_same_as_eager(P, max_index)


def test_lazy_searches_match_the_eager_search_on_benchmark_groups():
    z2_z3 = parse_presentation("gens: a, b\nrel: a^2\nrel: b^3\n")
    for max_index in (8, 10):
        _assert_same_as_eager(z2_z3, max_index, primes=(2,))
    for l, m, n in ((2, 3, 8), (3, 3, 4), (2, 4, 5)):
        P = parse_presentation(f"gens: a, b\nrel: a^{l}\nrel: b^{m}\nrel: (a*b)^{n}\n")
        lazy = find_z_surjection(P, 8)
        assert lazy.kind == INCONCLUSIVE
        assert to_json(lazy) == to_json(_eager_find_z_surjection(P, 8))


def test_lazy_searches_match_the_eager_search_on_random_presentations():
    # three generators reach subgroups whose abelianization has free rank
    # >= 2 and torsion: they pass the abelianization gate, then fail
    rng = random.Random(71)
    for names, cases, length, max_index in ((("a", "b"), 40, 4, 5), (("a", "b", "c"), 25, 3, 4)):
        for _ in range(cases):
            relators = []
            for _ in range(rng.randint(1, 3)):
                root = print_word(random_primitive_word(rng, len(names), rng.randint(1, length)), names)
                relators.append(f"rel: ({root})^{rng.randint(1, 4)}\n")
            P = parse_presentation(f"gens: {', '.join(names)}\n" + "".join(relators))
            _assert_same_as_eager(P, rng.randint(1, max_index))


def test_p_large_search_skips_tietze_on_subgroups_of_free_rank_below_two(triangle_power_pres):
    # one entry per candidate subgroup: [its free rank, Tietze calls on it]
    candidates = []

    def rewrite(P, T):
        H = reidemeister_schreier(P, T)
        candidates.append([abelian_invariants(H).free_rank, 0])
        return H

    def simplify(H):
        candidates[-1][1] += 1
        return tietze_simplify(H)

    with mock.patch("pdef.certificates.reidemeister_schreier", rewrite), \
            mock.patch("pdef.certificates.tietze_simplify", simplify):
        cert = certify_p_large_witness(triangle_power_pres, 3, 27, 3)
    assert cert.kind == P_LARGE_WITNESS and cert.witness["index"] == 3
    assert [rank for rank, _ in candidates] == [0, 0, 0, 2, 0, 0, 2, 0, 2, 4]
    assert all(calls == 0 for rank, calls in candidates if rank < 2)
    assert all(calls > 0 for rank, calls in candidates if rank >= 2)


def test_the_search_stops_when_no_larger_subgroup_exists():
    # S3 has normal subgroups of index 1, 2 and 6 only; without the stop
    # rule the search would run one pass per index up to max_index
    P = parse_presentation("gens: a, b\nrel: a^2\nrel: b^3\nrel: (a*b)^2\n")
    start = time.perf_counter()
    cert = find_z_surjection(P, 100000)
    assert time.perf_counter() - start < 1
    assert cert.kind == INCONCLUSIVE and cert.parameters["examined_indices"] == [1, 2, 6]
    assert certify_p_large_witness(P, 2, 100000, 2).kind == INCONCLUSIVE


def test_a_witness_below_max_index_costs_nothing_above_it():
    z3_z3_z3 = parse_presentation("gens: x, y, z\nrel: x^3\nrel: y^3\nrel: z^3\n")
    start = time.perf_counter()
    cert = certify_p_large_witness(z3_z3_z3, 3, 9, 3)
    assert time.perf_counter() - start < 1
    assert cert.kind == P_LARGE_WITNESS and cert.witness["index"] == 3 and verify(cert)

    genus2 = parse_presentation("gens: a1, b1, a2, b2\nrel: [a1,b1]*[a2,b2]\n")
    start = time.perf_counter()
    cert = find_z_surjection(genus2, 5)
    assert time.perf_counter() - start < 1
    assert cert.kind == Z_SURJECTION_WITNESS and cert.witness["index"] == 1 and verify(cert)


@pytest.mark.parametrize("where", ["rank", "torsion", "table"])
def test_schema_rejects_a_boolean_for_an_integer(dinf, where):
    d = to_json_dict(find_z_surjection(dinf, 2))
    if where == "rank":
        d["witness"]["abelian_invariants"]["rank"] = True
    elif where == "torsion":
        d["witness"]["abelian_invariants"]["torsion"] = [True]
    else:
        row = next(row for row in d["witness"]["table"] if 1 in row)
        row[row.index(1)] = True
    with pytest.raises(MalformedCertificate):
        validate_certificate_dict(d)


# ---------------------------------------------------------------------------
# parameters are exact, and each certify call issues one certificate


_Z2_4 = "gens: a, b, c, d\nrel: a^2\nrel: b^2\nrel: c^2\nrel: d^2\n"

# parameters no issuer writes: a float, JSON's Infinity, an extra key, a
# boolean, a list that is not of integers, another rank formula
_BAD_PARAMETERS = [
    ("z", {"max_index": 2.5}),
    ("z", {"max_index": float("inf")}),
    ("z", {"extra": "x"}),
    ("z", {"max_index": True}),
    ("p-large", {"p": 3.0}),
    ("p-large", {"kill_budget": 3.5}),
    ("z-inconclusive", {"examined_indices": [1, 2.0]}),
    ("allcock", {"bound_formula": "1 + N*(n - 1)"}),
]


@functools.cache
def _parameter_cases() -> dict:
    dinf, P = parse_presentation(DINF_TEXT), parse_presentation(P_TEXT)
    rec = next(r for r in low_index_normal(dinf, 2) if allcock_rank_bound(dinf, r).kind == ALLCOCK_BOUND)
    return {
        "z": find_z_surjection(dinf, 4),
        "p-large": certify_p_large_witness(P, 3, 3, 3),
        "z-inconclusive": find_z_surjection(parse_presentation(S3_TEXT), 2),
        "allcock": allcock_rank_bound(dinf, rec),
    }


@pytest.mark.parametrize("case, change", _BAD_PARAMETERS, ids=[f"{case}-{change}" for case, change in _BAD_PARAMETERS])
def test_parameters_no_issuer_writes_are_malformed(case, change):
    cert = _parameter_cases()[case]
    assert verify(from_json(to_json(cert)))
    d = to_json_dict(cert)
    d = {**d, "parameters": {**d["parameters"], **change}}
    with pytest.raises(MalformedCertificate):
        from_json(json.dumps(d))
    with pytest.raises(MalformedCertificate):
        verify(Certificate(d["kind"], d["presentation"], d["parameters"], d["witness"], cert.conclusions))


def test_each_inconclusive_target_has_its_own_shape():
    # an Inconclusive's parameters name the target that gave up, and with
    # them the witness fields it carries
    cert = _parameter_cases()["z-inconclusive"]
    assert cert.kind == INCONCLUSIVE and cert.parameters["examined_indices"] == [1, 2]
    d = to_json_dict(cert)
    d["witness"] = {"bound": "1"}
    with pytest.raises(MalformedCertificate):
        from_json(json.dumps(d))
    del d["parameters"]["examined_indices"]
    with pytest.raises(MalformedCertificate):
        from_json(json.dumps(d))


@pytest.mark.parametrize(
    "text, certify, kind",
    [
        (P_TEXT, lambda G: certify_p_large_witness(G, 3, 3, 3), P_LARGE_WITNESS),
        (_Z2_4, lambda G: certify_p_large_witness(G, 2, 1, 3), INCONCLUSIVE),
        (RANK4_TEXT, lambda G: certify_free_quotient(G, 3), FREE_QUOTIENT_WITNESS),
        (P_TEXT, lambda G: certify_free_quotient(G, 3), INCONCLUSIVE),
    ],
    ids=["p-large", "p-large-inconclusive", "free-quotient", "free-quotient-inconclusive"],
)
def test_each_certify_call_issues_one_certificate(monkeypatch, text, certify, kind):
    # the candidate subgroups of a p-large search are searched for a kill
    # set, not certified one by one; the one certificate self-verifies
    import pdef.certificates as certificates

    issued = []
    monkeypatch.setattr(certificates, "_issue", lambda *args: issued.append(args[0]) or _issue(*args))
    cert = certify(parse_presentation(text))
    assert cert.kind == kind and cert.verified
    assert issued == [kind]
