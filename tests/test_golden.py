"""The frozen CLI corpus (see tests/golden.py): every stored call gives
the same stdout and exit code, re-issuing every certificate gives the
same bytes, and ``pdef verify`` accepts every stored certificate, but
not with a witness field of another kind or a budget below its witness."""

import json

import pytest

from golden import DATA, is_certificate, run
from pdef.certificates import KINDS

CASES = json.loads(DATA.read_text(encoding="utf-8"))["cases"]


def test_corpus_covers_every_kind():
    kinds = {json.loads(c["stdout"])["kind"] for c in CASES if is_certificate(c)}
    assert kinds == set(KINDS)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c["name"])
def test_cli_output_is_frozen(case):
    assert run(case["argv"], case["input"]) == (case["exit"], case["stdout"])


@pytest.mark.parametrize("case", [c for c in CASES if is_certificate(c)], ids=lambda c: c["name"])
def test_stored_certificate_verifies(case):
    assert run(["verify", "{input}"], case["stdout"]) == (0, "verified: true\n")


def _golden(kind):
    return [json.loads(c["stdout"]) for c in CASES if is_certificate(c) and json.loads(c["stdout"])["kind"] == kind]


_FOREIGN = {
    "index": 2,
    "table": [[1, 1]],
    "kill_set": ["zz"],
    "abelian_invariants": {"rank": 1, "torsion": []},
    "bound": "1000",
}


@pytest.mark.parametrize("kind", KINDS)
def test_witness_field_of_another_kind_is_malformed(kind):
    # every stored one: an Inconclusive has the shape of the target that issued it
    for d in _golden(kind):
        foreign = [key for key in _FOREIGN if key not in d["witness"]]
        assert foreign
        for key in foreign:
            bad = json.loads(json.dumps(d))
            bad["witness"][key] = _FOREIGN[key]
            assert run(["verify", "{input}"], json.dumps(bad)) == (2, "")


@pytest.mark.parametrize(
    "kind, budget",
    [("ZSurjectionWitness", "max_index"), ("PLargeWitness", "max_index"),
     ("FreeQuotientWitness", "kill_budget"), ("PLargeWitness", "kill_budget")],
)
def test_witness_past_its_echoed_budget_fails(kind, budget):
    # one below what the witness uses: its index, or its kill set's size
    for d in _golden(kind):
        used = d["witness"]["index"] if budget == "max_index" else len(d["witness"]["kill_set"])
        bad = json.loads(json.dumps(d))
        bad["parameters"][budget] = used - 1
        assert run(["verify", "{input}"], json.dumps(bad)) == (1, "verified: false\n")
