import argparse
import importlib
import inspect
import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pdef.certificates import validate_certificate_dict
from pdef.cli import build_parser, main
from conftest import DINF_TEXT, P_TEXT, RANK4_TEXT, S3_TEXT


@pytest.fixture
def p_file(tmp_path):
    f = tmp_path / "P.grp"
    f.write_text(P_TEXT)
    return str(f)


@pytest.fixture
def dinf_file(tmp_path):
    f = tmp_path / "D.grp"
    f.write_text(DINF_TEXT)
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_def_command(capsys, p_file):
    code, out, _ = run(capsys, "def", "-p", "3", p_file)
    assert code == 0
    assert out.splitlines()[0] == "def_3 = 1"
    assert len(out.splitlines()) == 7  # header + one line per relator


def test_def_requires_prime(capsys, p_file):
    code, _, err = run(capsys, "def", p_file)
    assert code == 2 and "required" in err
    code, _, err = run(capsys, "def", "-p", "4", p_file)
    assert code == 2 and "prime" in err


def test_deficiency_command(capsys, p_file):
    code, out, _ = run(capsys, "deficiency", p_file)
    assert code == 0 and out.strip() == "deficiency = -3"


def test_lowindex_command(capsys, p_file):
    code, out, _ = run(capsys, "lowindex", "--normal", "--max-index", "3", p_file)
    assert code == 0
    assert out.splitlines()[0] == "14 records"

    code, out, _ = run(capsys, "lowindex", "--normal", "--max-index", "3", "--json", p_file)
    assert code == 0
    records = json.loads(out)
    assert len(records) == 14
    assert all(rec["normal"] for rec in records)


def test_abelianize_command(capsys, p_file):
    code, out, _ = run(capsys, "abelianize", p_file)
    assert code == 0 and out.strip() == "Z/3 x Z/3 x Z/3"


def test_simplify_command(capsys, tmp_path):
    f = tmp_path / "H.grp"
    f.write_text(RANK4_TEXT + "rel: c\nrel: d\n")
    code, out, _ = run(capsys, "simplify", str(f))
    assert code == 0
    assert out.splitlines()[0] == "gens: a, b"
    assert len(out.splitlines()) == 1


def test_rewrite_and_dump_table(capsys, dinf_file):
    code, out, _ = run(capsys, "rewrite", "--subgroup-gens", "x1*x2", dinf_file)
    assert code == 0
    assert out.splitlines()[0] == "gens: a, b, c"

    code, out, _ = run(capsys, "dump-table", "--subgroup-gens", "x1*x2", dinf_file)
    assert code == 0
    assert out == "cosets 2 gens 2\n2 2 2 2\n1 1 1 1\n"


def test_certify_p_large_json(capsys, p_file, tmp_path):
    code, out, _ = run(
        capsys, "certify", "p-large", "-p", "3", "--max-index", "3", "--kill-budget", "3",
        "--json", p_file,
    )
    assert code == 0
    cert = json.loads(out)
    validate_certificate_dict(cert)
    assert cert["kind"] == "PLargeWitness"
    assert cert["verified"] is True

    path = tmp_path / "cert.json"
    path.write_text(out)
    code, out2, _ = run(capsys, "verify", str(path))
    assert code == 0 and out2.strip() == "verified: true"

    # tampering flips the verdict
    cert["witness"]["abelian_invariants"]["rank"] = 9
    path.write_text(json.dumps(cert))
    code, out3, _ = run(capsys, "verify", str(path))
    assert code == 1 and out3.strip() == "verified: false"


def test_certify_inconclusive_exit_code(capsys, p_file):
    code, out, _ = run(capsys, "certify", "p-large-def", "-p", "3", p_file)
    assert code == 1
    assert "Inconclusive" in out


def test_certify_allcock(capsys, dinf_file):
    code, out, _ = run(
        capsys, "certify", "allcock", "--subgroup-gens", "x1*x2", "--json", dinf_file
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["kind"] == "AllcockBound" and cert["witness"]["bound"] == "1"


def test_certify_z_surjection(capsys, dinf_file):
    code, out, _ = run(capsys, "certify", "z-surjection", "--max-index", "2", "--json", dinf_file)
    assert code == 0
    cert = json.loads(out)
    assert cert["kind"] == "ZSurjectionWitness"
    assert cert["witness"]["index"] == 2
    assert cert["witness"]["abelian_invariants"]["rank"] == 1


def test_certify_power_quotient(capsys):
    code, out, _ = run(capsys, "certify", "power-quotient", "2", "3", "8", "--json")
    assert code == 0
    assert json.loads(out)["kind"] == "PowerQuotientLarge"

    code, _, _ = run(capsys, "certify", "power-quotient", "2", "2", "2")
    assert code == 1


def test_huge_integers_are_bounded(capsys, p_file):
    start = time.perf_counter()
    code, out, _ = run(capsys, "certify", "power-quotient", "2", "5", "10000000019")
    assert code == 0 and "  p: 10000000019" in out
    code, _, err = run(capsys, "def", "-p", str(10**25), p_file)
    assert code == 2 and "too large" in err
    assert time.perf_counter() - start < 5


def test_two_large_prime_factors_are_bounded(capsys):
    # q = (10^9 + 7)(10^9 + 9): trial division alone would take ~10^9 steps
    start = time.perf_counter()
    code, out, _ = run(capsys, "certify", "power-quotient", "2", "5", "1000000016000000063")
    assert time.perf_counter() - start < 1
    assert code == 0 and "  p: 1000000007" in out and "verified: true" in out
    # q = 61 * 101 * 3541 * 9901 * 27961 * 4188901 * 39526741 is past
    # psi_13 until 27961 is divided out; no prime fires
    start = time.perf_counter()
    code, out, _ = run(capsys, "certify", "power-quotient", "2", str(10**40), str(10**30 + 1))
    assert time.perf_counter() - start < 1
    assert code == 1 and "Inconclusive" in out


# two primes whose product is past psi_13: trial division alone would take
# about 2 * 10^12 steps
PAST_PSI13 = 2000000000003 * 2000000001001


def test_trial_division_past_psi13_is_capped(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "certify", "power-quotient", "2", str(10**13), str(PAST_PSI13))
    assert time.perf_counter() - start < 2
    assert code == 2 and out == "" and "no prime factor up to 1000000" in err


def test_a_small_factor_answers_before_the_trial_cap(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "certify", "power-quotient", "2", "1", str(1009 * PAST_PSI13))
    assert time.perf_counter() - start < 2
    assert code == 0 and "  p: 1009" in out and "verified: true" in out


def test_hostile_words_are_reported_errors(capsys, tmp_path, monkeypatch):
    # 5000 nested parentheses are legal and parse to x: <x | x> is trivial
    f = tmp_path / "nested.grp"
    f.write_text("gens: x\nrel: " + "(" * 5000 + "x" + ")" * 5000 + "\n")
    code, out, err = run(capsys, "simplify", str(f))
    assert code == 0 and out == "gens: \n"

    f.write_text("gens: x\nrel: x^300000000\n")
    code, out, err = run(capsys, "simplify", str(f))
    assert code == 2 and out == "" and "longer than" in err

    # int() refuses 5000 digits; the error still names the exponent's position
    f.write_text("gens: x\nrel: x^" + "9" * 5000 + "\n")
    code, out, err = run(capsys, "abelianize", str(f))
    assert (code, out, err) == (2, "", "error: line 2, column 8: exponent has too many digits\n")

    def exhausted(P):
        raise MemoryError

    monkeypatch.setattr("pdef.cli.tietze_simplify", exhausted)
    f.write_text("gens: x\nrel: x^2\n")
    code, out, err = run(capsys, "simplify", str(f))
    assert code == 2 and out == "" and err.startswith("error: ")


def test_trivial_presentation_round_trips(capsys, tmp_path, monkeypatch):
    import io

    # <x | x> simplifies to no generators at all, printed as "gens: "
    monkeypatch.setattr(sys, "stdin", io.StringIO("gens: x\nrel: x\n"))
    code, simplified, _ = run(capsys, "simplify", "-")
    assert code == 0 and simplified == "gens: \n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(simplified))
    assert run(capsys, "abelianize", "-")[:2] == (0, "1\n")

    f = tmp_path / "trivial.grp"
    f.write_text("gens:\n")
    for argv in (("def", "-p", "2"), ("lowindex",), ("dump-table",), ("certify", "p-large-def", "-p", "2")):
        code, out, err = run(capsys, *argv, str(f))
        assert code in (0, 1) and out and err == "", argv


def test_exhaustion_exit_code(capsys, tmp_path):
    f = tmp_path / "free.grp"
    f.write_text("gens: x, y\n")
    code, out, _ = run(capsys, "dump-table", "--max-cosets", "10", str(f))
    assert code == 1
    assert "bound exceeded" in out

    code, out, _ = run(capsys, "dump-table", "--max-cosets", "10", "--json", str(f))
    assert code == 1
    assert json.loads(out)["kind"] == "Exhausted"


def test_parse_error_exit_code(capsys, tmp_path):
    f = tmp_path / "bad.grp"
    f.write_text("gens: a\nrel: q\n")
    code, _, err = run(capsys, "def", "-p", "2", str(f))
    assert code == 2
    assert "line 2" in err

    code, _, err = run(capsys, "def", "-p", "2", str(tmp_path / "missing.grp"))
    assert code == 2


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


@pytest.mark.parametrize("argv", [("certify", "z-surjection"), ("certify", "p-large", "-p", "3")])
def test_max_index_below_one_is_a_usage_error(capsys, p_file, argv):
    code, out, err = run(capsys, *argv, "--max-index", "0", p_file)
    assert code == 2 and out == "" and err == "error: max_index must be at least 1\n"


@pytest.mark.parametrize(
    "where, message",
    [("rank", "abelian_invariants must hold integers"), ("table", "witness.table must be a list of integer rows")],
)
def test_verify_rejects_a_boolean_for_an_integer(capsys, tmp_path, dinf_file, where, message):
    code, out, _ = run(capsys, "certify", "z-surjection", "--max-index", "2", "--json", dinf_file)
    assert code == 0
    cert = json.loads(out)
    if where == "rank":
        cert["witness"]["abelian_invariants"]["rank"] = True
    else:
        row = next(row for row in cert["witness"]["table"] if 1 in row)
        row[row.index(1)] = True
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == "" and message in err


def test_verify_rejects_malformed_certificate(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "PLargeWitness", "wat": 1}')
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2 and "unknown fields" in err

    bad.write_text("not json at all")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2


@pytest.mark.parametrize(
    "target, key, value",
    [
        ("z-surjection", "max_index", 2.5),
        ("z-surjection", "max_index", float("inf")),
        ("z-surjection", "extra", "x"),
        ("p-large", "p", 3.0),
        ("p-large", "kill_budget", 3.5),
    ],
)
def test_verify_rejects_parameters_no_issuer_writes(capsys, tmp_path, dinf_file, p_file, target, key, value):
    argv = ("z-surjection", "--max-index", "4", dinf_file) if target == "z-surjection" else ("p-large", "-p", "3", p_file)
    code, out, _ = run(capsys, "certify", *argv, "--json")
    assert code == 0
    cert = json.loads(out)
    cert["parameters"][key] = value  # 2.5, 3.0 and Infinity are JSON numbers, not integers
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == "" and "parameters" in err


def test_verify_rejects_an_inconclusive_that_claims(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    cert.write_text(
        '{"kind": "Inconclusive", "conclusions": [{"claim": "large", "by": "Thm 1.2"}],'
        ' "parameters": {}, "witness": {}, "verified": true}'
    )
    code, out, _ = run(capsys, "verify", str(cert))
    assert code == 1 and out == "verified: false\n"


def test_deterministic_bytes(p_file):
    cmd = [
        sys.executable, "-m", "pdef", "certify", "p-large", "-p", "3",
        "--max-index", "3", "--kill-budget", "3", "--json", p_file,
    ]
    # the child imports the same pdef as this process, installed or not
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    a = subprocess.run(cmd, capture_output=True, env=env)
    b = subprocess.run(cmd, capture_output=True, env=env)
    assert a.returncode == 0 and a.stdout == b.stdout


def test_stdin_presentation(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(DINF_TEXT))
    code, out, _ = run(capsys, "def", "-p", "2", "-")
    assert code == 0 and out.splitlines()[0] == "def_2 = 1"


# the complete option set of each subcommand, with defaults
SUBCOMMAND_OPTIONS = {
    "def": {"-p": None},
    "deficiency": {},
    "abelianize": {},
    "lowindex": {"--normal": False, "--max-index": 3, "--json": False},
    "rewrite": {"--subgroup-gens": None, "--max-cosets": 100000, "--json": False},
    "dump-table": {"--subgroup-gens": None, "--max-cosets": 100000, "--json": False},
    "simplify": {},
    "certify p-large-def": {"-p": None, "--json": False},
    "certify p-large": {"-p": None, "--max-index": 3, "--kill-budget": 3, "--json": False},
    "certify z-surjection": {"--max-index": 3, "--json": False},
    "certify free-quotient": {"--kill-budget": 3, "--json": False},
    "certify allcock": {"--subgroup-gens": None, "--max-cosets": 100000, "--json": False},
    "certify power-quotient": {"--json": False},
    "verify": {},
}


def test_each_subcommand_takes_only_the_options_it_reads():
    found = {}

    def walk(parser, path):
        subcommands = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subcommands:
            found[" ".join(path)] = {
                a.option_strings[0]: a.default
                for a in parser._actions
                if a.option_strings and not isinstance(a, argparse._HelpAction)
            }
        for action in subcommands:
            for name, sub in action.choices.items():
                walk(sub, path + (name,))

    walk(build_parser(), ())
    assert found == SUBCOMMAND_OPTIONS
    assert sum(len(options) for options in found.values()) == 24


@pytest.mark.parametrize(
    "argv",
    [
        ("abelianize", "--kill-budget", "3"),
        ("deficiency", "-p", "3"),
        ("simplify", "--max-index", "2"),
        ("dump-table", "--tietze-budget", "5"),
        ("certify", "z-surjection", "--kill-budget", "2"),
        ("certify", "free-quotient", "--subgroup-gens", "a"),
        ("certify", "allcock", "--subgroup-gens", "b"),  # index 3 in S3, not normal
        ("certify", "allcock", "--tietze-budget", "5"),
        ("certify", "z-surjection", "--tietze-budget", "5"),
        ("certify", "free-quotient", "--kill-budget", "-1"),
        ("certify", "p-large", "-p", "2", "--kill-budget", "-1"),
        ("simplify", "--tietze-budget", "5"),
        ("certify", "p-large", "-p", "3", "--tietze-budget", "5"),
        ("certify", "free-quotient", "--tietze-budget", "5"),
    ],
)
def test_options_a_subcommand_does_not_read_are_usage_errors(capsys, tmp_path, argv):
    f = tmp_path / "S3.grp"
    f.write_text(S3_TEXT)
    code, out, err = run(capsys, *argv, str(f))
    assert code == 2 and out == ""
    if "--subgroup-gens" in argv and argv[1] == "allcock":
        assert err == "error: the rank bound needs a normal subgroup record\n"
    if "-1" in argv:
        assert err == "error: kill_budget must be at least 0\n"


def test_cli_parses_every_benchmark_argv(monkeypatch):
    # the benchmark's job generator, imported read-only
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import families

    parser = build_parser()
    argvs = [["verify", "x.json"]]
    for workload in families.WORKLOADS:
        argvs += [job.argv for job in itertools.islice(families.job_stream(workload, 0), 100)]
    for argv in argvs:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"the CLI rejects {argv}")


def test_tracer_names_resolve_to_pdef_functions(monkeypatch):
    # the benchmark's layer tracer, imported read-only: a metric named after
    # a function that was renamed or deleted would read 0 or crash a trace
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import tracer

    names = set(tracer.SPAN_STATS) | set(tracer.COUNTERS)
    names |= {name.rsplit(".", 1)[0] for name in tracer.SIZE_COUNTERS}
    consts = tracer.Tracer.kill_sets.__code__.co_consts
    kill_set_names = {c for c in consts if isinstance(c, str) and re.fullmatch(r"\w+\.\w+", c)}
    assert len(kill_set_names) == 2
    for name in sorted(names | kill_set_names):
        module, function = name.split(".")
        fn = getattr(importlib.import_module(f"pdef.{module}"), function, None)
        assert inspect.isfunction(fn) and fn.__module__ == f"pdef.{module}", name
    # _count_budget_stops imports the warning class only when a trace runs
    lazy = tracer.Tracer._count_budget_stops.__code__.co_names
    assert "pdef.presentations" in lazy and "TietzeBudgetWarning" in lazy
    warning = getattr(importlib.import_module("pdef.presentations"), "TietzeBudgetWarning", None)
    assert inspect.isclass(warning) and issubclass(warning, Warning)
