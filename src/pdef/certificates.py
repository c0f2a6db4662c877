"""Largeness and rank-bound certificates.

Every certificate is a self-contained record: kind, echo of the inputs,
witness payload, and cited conclusions.  ``verify`` recomputes each claim
from the payload alone, so a certificate read back from JSON can be
checked without trusting the issuing run.  The conclusions are determined
by kind, parameters and witness: ``verify`` rejects any other list, and an
Inconclusive certificate claims nothing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .abelian import IntegerMatrix, abelian_invariants, cokernel_invariants, relator_matrix
from .cosets import (
    CosetTable,
    TableInvariantError,
    power_survives,
    table_from_rows,
    validate_table,
)
from .lowindex import SubgroupRecord, _normal_by_index, subgroup_record
from .presentations import (
    ParseError,
    Presentation,
    p_deficiency,
    parse_presentation,
    print_presentation,
    quotient_by_words,
    tietze_simplify,
)
from .rewriting import reidemeister_schreier, subgroup_presentation
from .words import _MR_LIMIT, Word, _valuation, is_prime, primitive_root

P_LARGE_BY_DEFICIENCY = "PLargeByDeficiency"
ALLCOCK_BOUND = "AllcockBound"
Z_SURJECTION_WITNESS = "ZSurjectionWitness"
FREE_QUOTIENT_WITNESS = "FreeQuotientWitness"
P_LARGE_WITNESS = "PLargeWitness"
POWER_QUOTIENT_LARGE = "PowerQuotientLarge"
INCONCLUSIVE = "Inconclusive"

KINDS = (
    P_LARGE_BY_DEFICIENCY,
    ALLCOCK_BOUND,
    Z_SURJECTION_WITNESS,
    FREE_QUOTIENT_WITNESS,
    P_LARGE_WITNESS,
    POWER_QUOTIENT_LARGE,
    INCONCLUSIVE,
)

# citation tags allowed in conclusions; "definition" marks claims the
# witness itself establishes directly
CITATIONS = ("Thm 1.1", "Thm 1.2", "Thm 1.3", "Cor 2.1", "Cor 2.2", "Cor 2.5", "definition")

RANK_BOUND_FORMULA = "1 + N*(n - 1 - sum(1/r_j))"


class Conclusion(NamedTuple):
    claim: str
    by: str


@dataclass
class Certificate:
    kind: str
    presentation: str | None
    parameters: dict
    witness: dict
    conclusions: list[Conclusion]
    verified: bool = False


class MalformedCertificate(ValueError):
    pass


# ---------------------------------------------------------------------------
# JSON schema


# (kind, parameter keys) -> witness keys: each target's witness and Inconclusive shapes
_SHAPES = {(kind, frozenset(params.split())): set(witness.split()) for kind, params, witness in (
    (P_LARGE_BY_DEFICIENCY, "p", "bound"),
    (INCONCLUSIVE, "p reason", "bound"),
    (ALLCOCK_BOUND, "bound_formula", "index table abelian_invariants bound"),
    (INCONCLUSIVE, "bound_formula reason failing_relator", "index table"),
    (Z_SURJECTION_WITNESS, "max_index", "index table abelian_invariants"),
    (INCONCLUSIVE, "max_index reason examined_indices", ""),
    (FREE_QUOTIENT_WITNESS, "kill_budget", "kill_set abelian_invariants"),
    (INCONCLUSIVE, "kill_budget reason", ""),
    (P_LARGE_WITNESS, "p max_index kill_budget", "index table kill_set abelian_invariants"),
    (INCONCLUSIVE, "p max_index kill_budget reason", ""),
    (POWER_QUOTIENT_LARGE, "rank num_powers exponent p", "bound"),
    (INCONCLUSIVE, "rank num_powers exponent reason", ""),
    (INCONCLUSIVE, "", ""),  # it claims nothing, so it needs no parameters
)}


def _ints(v) -> bool:  # type(x) is int: a JSON boolean is an int to isinstance
    return isinstance(v, list) and all(type(x) is int for x in v)


def _invariants(v) -> bool:
    return isinstance(v, dict) and set(v) == {"rank", "torsion"} and type(v["rank"]) is int and _ints(v["torsion"])


# what each parameter and witness field must be, and its check; any field not
# named here is an int, as is tietze_budget, which old certificates carry
_INT = ("be an integer", lambda v: type(v) is int)
_FIELD_CHECKS = {
    "reason": ("be a string", lambda v: isinstance(v, str)),
    "bound_formula": (f"be {RANK_BOUND_FORMULA!r}", lambda v: v == RANK_BOUND_FORMULA),
    "examined_indices": ("be a list of integers", _ints),
    "table": ("be a list of integer rows", lambda v: isinstance(v, list) and all(map(_ints, v))),
    "kill_set": ("be a list of names", lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v)),
    "abelian_invariants": ("hold integers as {rank, torsion}", _invariants),
    "bound": ("be a string", lambda v: isinstance(v, str)),
}


def validate_certificate_dict(d: dict) -> None:
    """Schema check for a serialized certificate: unknown fields are rejected,
    the parameters are exactly those an issuer of the kind writes, with their
    types, and the witness carries exactly the fields of that shape."""
    if not isinstance(d, dict):
        raise MalformedCertificate("certificate must be a JSON object")
    allowed = {"kind", "presentation", "parameters", "witness", "conclusions", "verified"}
    unknown = set(d) - allowed
    if unknown:
        raise MalformedCertificate(f"unknown fields {sorted(unknown)}")
    for key in ("kind", "parameters", "conclusions", "verified"):
        if key not in d:
            raise MalformedCertificate(f"missing field {key!r}")
    if d["kind"] not in KINDS:
        raise MalformedCertificate(f"unknown kind {d['kind']!r}")
    if "presentation" in d and not isinstance(d["presentation"], str):
        raise MalformedCertificate("presentation must be a string")
    if "presentation" not in d and d["kind"] not in (POWER_QUOTIENT_LARGE, INCONCLUSIVE):
        raise MalformedCertificate(f"kind {d['kind']} requires a presentation")
    if not isinstance(d["parameters"], dict):
        raise MalformedCertificate("parameters must be an object")
    if not isinstance(d["verified"], bool):
        raise MalformedCertificate("verified must be a boolean")
    if not isinstance(d["conclusions"], list):
        raise MalformedCertificate("conclusions must be a list")
    for c in d["conclusions"]:
        if not isinstance(c, dict) or set(c) != {"claim", "by"}:
            raise MalformedCertificate("each conclusion is {claim, by}")
        if not isinstance(c["claim"], str) or c["by"] not in CITATIONS:
            raise MalformedCertificate(f"bad conclusion {c!r}")
    witness = d.get("witness", {})
    if not isinstance(witness, dict):
        raise MalformedCertificate("witness must be an object")
    shape = (d["kind"], frozenset(d["parameters"]) - {"tietze_budget"})
    if shape not in _SHAPES:
        raise MalformedCertificate(f"no {d['kind']} certificate has the parameters {sorted(d['parameters'])}")
    if set(witness) != _SHAPES[shape]:
        raise MalformedCertificate(f"this {d['kind']} carries the witness fields {sorted(_SHAPES[shape])}")
    for part, fields in (("parameters", d["parameters"]), ("witness", witness)):
        for key, value in fields.items():
            what, check = _FIELD_CHECKS.get(key, _INT)
            if not check(value):
                raise MalformedCertificate(f"{part}.{key} must {what}")


def to_json_dict(c: Certificate) -> dict:
    d = {
        "kind": c.kind,
        "parameters": c.parameters,
        "witness": c.witness,
        "conclusions": [{"claim": x.claim, "by": x.by} for x in c.conclusions],
        "verified": c.verified,
    }
    if c.presentation is not None:
        d["presentation"] = c.presentation
    return d


def to_json(c: Certificate) -> str:
    return json.dumps(to_json_dict(c), indent=2, sort_keys=True) + "\n"


def from_json_dict(d: dict) -> Certificate:
    validate_certificate_dict(d)
    return Certificate(
        kind=d["kind"],
        presentation=d.get("presentation"),
        parameters=dict(d["parameters"]),
        witness=dict(d.get("witness", {})),
        conclusions=[Conclusion(x["claim"], x["by"]) for x in d["conclusions"]],
        verified=d["verified"],
    )


def from_json(text: str) -> Certificate:
    try:
        d = json.loads(text)
    except (ValueError, RecursionError) as e:  # also an int past the digit limit, or nesting too deep
        raise MalformedCertificate(f"not JSON: {e}") from e
    return from_json_dict(d)


# ---------------------------------------------------------------------------
# helpers


def _inv_payload(inv) -> dict:
    return {"rank": inv.free_rank, "torsion": list(inv.torsion)}


def _table_payload(T: CosetTable) -> list[list[int]]:
    return [list(row) for row in T.rows]


def _conclusions(kind: str, parameters: dict, witness: dict) -> list[Conclusion]:
    """The cited claims of a certificate, rebuilt from its payload: issuers
    store this list and verify requires it.  An Inconclusive claims nothing."""
    if kind == P_LARGE_BY_DEFICIENCY:
        claims = [
            ("p-large", "Thm 1.2"),
            ("large", "Thm 1.2"),
            ("not torsion", "Cor 2.1"),
            ("no property (T)", "Cor 2.2"),
        ]
    elif kind == ALLCOCK_BOUND:
        claims = [(f"subgroup abelianization rank >= {witness['bound']}", "Thm 1.1")]
    elif kind == Z_SURJECTION_WITNESS:
        claims = [("no property (T)", "Cor 2.2")]
    elif kind == FREE_QUOTIENT_WITNESS:
        rank = witness["abelian_invariants"]["rank"]
        claims = [(f"free quotient of rank {rank}", "definition"), ("large", "definition")]
    elif kind == P_LARGE_WITNESS:
        claims = [("p-large", "definition"), ("large", "definition"), ("not torsion", "Cor 2.1")]
    elif kind == POWER_QUOTIENT_LARGE:
        r, k, q = (parameters[x] for x in ("rank", "num_powers", "exponent"))
        quotient = f"quotient of a rank-{r} free group by {k} normal {q}-th powers is p-large"
        claims = [(quotient, "Cor 2.5"), ("large", "Cor 2.5")]
    else:  # Inconclusive, or a kind that verify rejects
        claims = []
    return [Conclusion(claim, by) for claim, by in claims]


def _issue(kind: str, presentation: str | None, parameters: dict, witness: dict) -> Certificate:
    """The certificate of this payload with its conclusions, self-verified."""
    cert = Certificate(kind, presentation, parameters, witness, _conclusions(kind, parameters, witness))
    cert.verified = verify(cert)
    if not cert.verified:
        raise AssertionError(f"issued {kind} certificate failed self-verification")
    return cert


def _allcock_bound(P: Presentation, T: CosetTable) -> tuple[Fraction | None, int | None]:
    """(1 + N(n - 1 - sum 1/r_j), None) when the table keeps every relator
    root u_j of u_j^r_j (r_j maximal) alive to its full order r_j, else
    (None, j) for the first relator j whose root dies early."""
    root_sum = Fraction(0)
    for j, r in enumerate(P.relators):
        if not r:
            continue  # empty relators impose nothing
        dec = primitive_root(r)
        if not power_survives(T, dec.exact_root(), dec.exponent):
            return None, j
        root_sum += Fraction(1, dec.exponent)
    return 1 + T.n_cosets * (P.n_generators - 1 - root_sum), None


def _measured_rank(P: Presentation, rec: SubgroupRecord, c: Certificate) -> int | None:
    """Free rank of the rewritten subgroup's abelianization, or None unless
    its invariants equal the certificate's stored {rank, torsion}."""
    inv = abelian_invariants(reidemeister_schreier(P, rec.table))
    stored = c.witness["abelian_invariants"]
    if inv.free_rank == stored["rank"] and list(inv.torsion) == stored["torsion"]:
        return inv.free_rank
    return None


def _free_rank(H: Presentation, kill) -> int | None:
    """Rank of the free group that H modulo the words kill Tietze-simplifies
    to, or None unless that is relator-free on at least two generators."""
    Q = tietze_simplify(quotient_by_words(H, kill))
    return Q.n_generators if not Q.relators and Q.n_generators >= 2 else None


# ---------------------------------------------------------------------------
# certifying operations


def certify_p_large_by_deficiency(P: Presentation, p: int) -> Certificate:
    """Issue a p-largeness certificate when the presentation's p-deficiency
    exceeds one (exact rational comparison); otherwise Inconclusive."""
    report = p_deficiency(P, p)
    text = print_presentation(P)
    witness = {"bound": str(report.value)}
    if report.value > 1:
        return _issue(P_LARGE_BY_DEFICIENCY, text, {"p": p}, witness)
    return _issue(INCONCLUSIVE, text, {"p": p, "reason": "this presentation has p-deficiency <= 1"}, witness)


def allcock_rank_bound(P: Presentation, rec: SubgroupRecord) -> Certificate:
    """Lower bound for the abelianization rank of a normal finite-index
    subgroup, from the maximal-power decomposition of the relators.

    Each relator is written as u^r with r maximal; the hypothesis is that
    no proper power u^k (0 < k < r) lies in the subgroup, checked on the
    coset table.  The bound is 1 + N(n - 1 - sum 1/r_j); the certificate
    also carries the measured invariants of the rewritten subgroup."""
    if not rec.normal:
        raise ValueError("the rank bound needs a normal subgroup record")
    T = rec.table
    N = rec.index
    text = print_presentation(P)
    params = {"bound_formula": RANK_BOUND_FORMULA}
    bound, failing = _allcock_bound(P, T)
    if bound is None:
        reason = "hypothesis fails: a proper power of a relator root lies in the subgroup"
        params = {**params, "reason": reason, "failing_relator": failing}
        return _issue(INCONCLUSIVE, text, params, {"index": N, "table": _table_payload(T)})
    inv = abelian_invariants(reidemeister_schreier(P, T))
    witness = {
        "index": N,
        "table": _table_payload(T),
        "abelian_invariants": _inv_payload(inv),
        "bound": str(bound),
    }
    return _issue(ALLCOCK_BOUND, text, params, witness)


def find_z_surjection(P: Presentation, max_index: int) -> Certificate:
    """The first normal subgroup of index <= max_index, in canonical order, whose abelianization
    has positive free rank; searched index by index, to the bound or until no larger index exists."""
    text = print_presentation(P)
    params = {"max_index": max_index}
    examined = []
    for rec in _normal_by_index(P, max_index):
        inv = abelian_invariants(reidemeister_schreier(P, rec.table))
        examined.append(rec.index)
        if inv.free_rank >= 1:
            witness = {
                "index": rec.index,
                "table": _table_payload(rec.table),
                "abelian_invariants": _inv_payload(inv),
            }
            return _issue(Z_SURJECTION_WITNESS, text, params, witness)
    reason = "no normal subgroup in range surjects onto Z"
    return _issue(INCONCLUSIVE, text, {**params, "reason": reason, "examined_indices": examined}, {})


def _free_quotient(H: Presentation, kill_budget: int) -> dict | None:
    """The FreeQuotientWitness payload of the first kill set that frees H,
    or None.  Kill-set subsets are tried smallest first, in generator order,
    at most kill_budget generators at a time.  Sound but incomplete.

    A subset is simplified only when the quotient's abelianization (H's
    exponent-sum matrix without the subset's columns) is free abelian of
    rank >= 2.  Tietze moves keep the group, also when the step limit
    stops them, and a relator-free presentation on k generators abelianizes
    to Z^k, so the skipped subsets could never succeed: the first kill set
    found is the same as without the check."""
    if kill_budget < 0:
        raise ValueError("kill_budget must be at least 0")
    n = H.n_generators
    exponent_sums = relator_matrix(H).entries
    for size in range(0, min(kill_budget, n - 2) + 1):
        for subset in combinations(range(1, n + 1), size):
            keep = [g - 1 for g in range(1, n + 1) if g not in subset]
            inv = cokernel_invariants(
                IntegerMatrix(tuple(tuple(row[c] for c in keep) for row in exponent_sums)), len(keep)
            )
            if inv.torsion or inv.free_rank < 2:
                continue
            rank = _free_rank(H, [Word((g,)) for g in subset])
            if rank is not None:
                kill_set = [H.generator_names[g - 1] for g in subset]
                return {"kill_set": kill_set, "abelian_invariants": {"rank": rank, "torsion": []}}
    return None


def certify_free_quotient(H: Presentation, kill_budget: int) -> Certificate:
    """A FreeQuotientWitness for the kill set ``_free_quotient`` finds, else Inconclusive."""
    text = print_presentation(H)
    params = {"kill_budget": kill_budget}
    if (witness := _free_quotient(H, kill_budget)) is None:
        return _issue(INCONCLUSIVE, text, {**params, "reason": "no kill set in budget frees the presentation"}, {})
    return _issue(FREE_QUOTIENT_WITNESS, text, params, witness)


def certify_p_large_witness(P: Presentation, p: int, max_index: int, kill_budget: int) -> Certificate:
    """p-largeness exhibited: the first normal subgroup of index 1, p, p^2, ... <= max_index, in
    canonical order, with a free quotient of rank >= 2; the search ends early once no larger index exists."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    text = print_presentation(P)
    params = {"p": p, "max_index": max_index, "kill_budget": kill_budget}
    for rec in _normal_by_index(P, max_index, p):
        if (found := _free_quotient(subgroup_presentation(P, rec), kill_budget)) is not None:
            witness = {"index": rec.index, "table": _table_payload(rec.table), **found}
            return _issue(P_LARGE_WITNESS, text, params, witness)
    reason = "no p-power-index normal subgroup in range yielded a free quotient"
    return _issue(INCONCLUSIVE, text, {**params, "reason": reason}, {})


_TRIAL_LIMIT = 1000
_TRIAL_STEPS = 10**6  # the last trial divisor; past it a cofactor >= psi_13 is an error


def _pollard_rho(n: int) -> int:
    """A proper factor of the composite n: Pollard's rho with Floyd cycle
    finding, deterministic (start 2, increments c = 1, 2, ... until one
    splits n)."""
    c = 0
    while True:
        c += 1
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
        if d != n:
            return d


def _split(n: int) -> list[int]:
    """Prime factors of 1 < n < psi_13, with multiplicity, unsorted."""
    if is_prime(n):
        return [n]
    d = _pollard_rho(n)
    return _split(d) + _split(n // d)


def _prime_powers(q: int):
    """(p, l_p) for each prime p | q in ascending order, p^(l_p) exactly
    dividing q.  Trial division runs up to _TRIAL_LIMIT, and on while what
    is left is at least psi_13 (where is_prime is not exact); it stops at
    the square root of what is left, which is then prime.  A cofactor below
    psi_13 past the trial bound is split by Pollard's rho: its prime
    factors all exceed the divisors tried.  One still at least psi_13 past
    _TRIAL_STEPS raises ValueError.  After 2 only odd divisors are tried."""
    rest, p = q, 2
    while rest > 1:
        if p * p > rest:
            p = rest  # no factor up to its square root: what is left is prime
        elif p > _TRIAL_LIMIT and rest < _MR_LIMIT:
            factors = _split(rest)
            for f in sorted(set(factors)):
                yield f, factors.count(f)
            return
        elif p > _TRIAL_STEPS:
            raise ValueError(f"q has a cofactor >= {_MR_LIMIT} with no prime factor up to {_TRIAL_STEPS}")
        if rest % p == 0:
            lp, rest = _valuation(rest, p)
            yield p, lp
        p += 1 if p == 2 else 2


def power_quotient_largeness(r: int, k: int, q: int) -> Certificate:
    """Largeness of a rank-r free group modulo k normal q-th powers:
    fires for the smallest prime p | q with p^(l_p) > k/(r-1), where
    p^(l_p) is the exact power of p in q."""
    if q == 0:
        raise ValueError("q must be nonzero")
    if r < 2 or k < 0 or q < 1:
        raise ValueError("need rank >= 2, k >= 0, q >= 1")
    params = {"rank": r, "num_powers": k, "exponent": q}
    for p, lp in _prime_powers(q):
        if Fraction(p**lp) > Fraction(k, r - 1):
            bound = r - Fraction(k, p**lp)
            return _issue(POWER_QUOTIENT_LARGE, None, {**params, "p": p}, {"bound": str(bound)})
    return _issue(INCONCLUSIVE, None, {**params, "reason": "no prime power in q beats k/(r-1)"}, {})


# ---------------------------------------------------------------------------
# verification


def _normal_record(P: Presentation, witness: dict) -> SubgroupRecord | None:
    """The record of the witness table, or None unless the table is valid
    for P, its subgroup is normal and its index matches the witness."""
    try:
        T = table_from_rows(P.n_generators, witness["table"])
    except (KeyError, ValueError, TypeError) as e:
        raise MalformedCertificate(f"bad table payload: {e}") from e
    try:
        validate_table(P, T)
    except TableInvariantError:
        return None
    rec = subgroup_record(T)
    if not rec.normal or witness["index"] != rec.index:
        return None
    return rec


def verify(c: Certificate) -> bool:
    """Recompute every claim in the certificate from its payload alone; the
    conclusions must be exactly those the payload determines.  The shape is
    checked first, as ``from_json`` checks it."""
    validate_certificate_dict(to_json_dict(c))
    try:
        if c.conclusions != _conclusions(c.kind, c.parameters, c.witness):
            return False
        if c.kind == INCONCLUSIVE:
            return True
        if c.kind == P_LARGE_BY_DEFICIENCY:
            P = parse_presentation(c.presentation)
            report = p_deficiency(P, c.parameters["p"])
            return str(report.value) == c.witness["bound"] and report.value > 1
        if c.kind == POWER_QUOTIENT_LARGE:
            r, k, q = (c.parameters[x] for x in ("rank", "num_powers", "exponent"))
            p = c.parameters["p"]
            if r < 2 or k < 0 or q < 1 or not is_prime(p) or q % p != 0:
                return False
            lp, _ = _valuation(q, p)
            if not Fraction(p**lp) > Fraction(k, r - 1):
                return False
            return str(r - Fraction(k, p**lp)) == c.witness["bound"]
        if c.kind == ALLCOCK_BOUND:
            P = parse_presentation(c.presentation)
            rec = _normal_record(P, c.witness)
            if rec is None:
                return False
            bound, _ = _allcock_bound(P, rec.table)
            if bound is None or str(bound) != c.witness["bound"]:
                return False
            rank = _measured_rank(P, rec, c)
            return rank is not None and rank >= math.ceil(bound)
        if c.kind == Z_SURJECTION_WITNESS:
            P = parse_presentation(c.presentation)
            rec = _normal_record(P, c.witness)
            if rec is None or rec.index > c.parameters["max_index"]:
                return False
            rank = _measured_rank(P, rec, c)
            return rank is not None and rank >= 1
        if c.kind == FREE_QUOTIENT_WITNESS:
            H = parse_presentation(c.presentation)
            return _check_free_quotient(H, c)
        if c.kind == P_LARGE_WITNESS:
            P = parse_presentation(c.presentation)
            p = c.parameters["p"]
            rec = _normal_record(P, c.witness)
            if rec is None or rec.index > c.parameters["max_index"] or not is_prime(p):
                return False
            if _valuation(rec.index, p)[1] != 1:
                return False
            return _check_free_quotient(subgroup_presentation(P, rec), c)
        raise MalformedCertificate(f"unknown kind {c.kind!r}")
    except (MalformedCertificate, ParseError):
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise MalformedCertificate(f"payload missing or mistyped: {e}") from e


def _check_free_quotient(H: Presentation, c: Certificate) -> bool:
    names = c.witness["kill_set"]
    if len(names) > c.parameters["kill_budget"] or any(name not in H.generator_names for name in names):
        return False
    rank = _free_rank(H, [H.generator(name) for name in names])
    stored = c.witness["abelian_invariants"]
    return rank is not None and rank == stored["rank"] and stored["torsion"] == []
