"""The frozen CLI corpus (see tests/golden.py): every stored call gives
the same stdout and exit code, re-issuing every certificate gives the
same bytes, and ``pdef verify`` accepts every stored certificate."""

import json

import pytest

from golden import DATA, is_certificate, run

CASES = json.loads(DATA.read_text(encoding="utf-8"))["cases"]


def test_corpus_covers_every_kind():
    from pdef.certificates import KINDS

    kinds = {json.loads(c["stdout"])["kind"] for c in CASES if is_certificate(c)}
    assert kinds == set(KINDS)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c["name"])
def test_cli_output_is_frozen(case):
    assert run(case["argv"], case["input"]) == (case["exit"], case["stdout"])


@pytest.mark.parametrize("case", [c for c in CASES if is_certificate(c)], ids=lambda c: c["name"])
def test_stored_certificate_verifies(case):
    assert run(["verify", "{input}"], case["stdout"]) == (0, "verified: true\n")
