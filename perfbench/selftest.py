"""Quick self-test of the benchmark harness (about a minute).

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that variants keep the group,
that each oracle rejects a corrupted output and the loop counts it as a
failed job, that the tracer times calls made through every module
binding and restores them, that a short run of each workload prints a result line
naming exactly the metrics of BENCHMARK.json, and that the benchmark
fails without printing a result where there is no program to run.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path("src").resolve()))
sys.path.insert(0, str(HERE))

import families  # noqa: E402
import tracer  # noqa: E402
from loop import Loop, NothingMeasured, Runner  # noqa: E402
from pdef import cli, cosets, lowindex, parse_presentation, parse_word, presentations, reduce, rewriting, todd_coxeter  # noqa: E402

BENCH = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))


def check_variants():
    rng = random.Random(0)
    for sp, order in ((families.symmetric_coxeter(5), 120), (families.triangle_commutator(7), 1092)):
        for _ in range(4):
            text, _ = families.variant(sp, rng)
            P = parse_presentation(text)
            assert sorted(map(len, P.relators)) == sorted(len(r) * e for r, e in sp.relators), text
            assert todd_coxeter(P, []).n_cosets == order, text
    for k in (3, 5):
        text, subs = families.variant(families.DINF, rng, [(1, 2) * k])
        P = parse_presentation(text)
        words = [parse_word(w, P.generator_names) for w in subs.split(";")]
        assert todd_coxeter(P, words).n_cosets == 2 * k, (text, subs)
    names = ["a", "b", "c"]
    for _ in range(200):
        w = reduce([rng.choice((1, 2, 3, -1, -2, -3)) for _ in range(rng.randrange(1, 12))]).letters
        if w:
            assert parse_word(families.render_word(w, names), names).letters == w, w
    seen = set()
    stream = families.job_stream("normal_search", 0)
    for _ in range(300):
        job = next(stream)
        key = (tuple(job.argv), job.stdin)
        assert key not in seen
        seen.add(key)


def _corrupt_json(out, change):
    d = json.loads(out)
    change(d)
    return json.dumps(d)


def _replace_line(out, index, change):
    lines = out.splitlines()
    lines[index] = change(lines[index])
    return "\n".join(lines) + "\n"


def _swap_row_entries(out):
    """Swap the first-column entries of rows 1 and 2: the column stays a
    permutation but no longer inverts its partner column."""
    lines = out.splitlines()
    a, b = lines[1].split(), lines[2].split()
    a[0], b[0] = b[0], a[0]
    lines[1], lines[2] = " ".join(a), " ".join(b)
    return "\n".join(lines) + "\n"


# family -> corruptions, each (label, (rc, out, vrc, vout) -> corrupted tuple)
CORRUPTIONS = {
    "free_quotient.rank4": [
        ("exit code", lambda rc, out, vrc, vout: (1, out, vrc, vout)),
        ("kind", lambda rc, out, vrc, vout: (rc, _corrupt_json(out, lambda d: d.update(kind="Inconclusive")), vrc, vout)),
        ("kill set", lambda rc, out, vrc, vout: (rc, _corrupt_json(out, lambda d: d["witness"]["kill_set"].pop()), vrc, vout)),
        ("verified false", lambda rc, out, vrc, vout: (rc, _corrupt_json(out, lambda d: d.update(verified=False)), vrc, vout)),
        ("verify output", lambda rc, out, vrc, vout: (rc, out, 1, "verified: false\n")),
    ],
    "p_large_def.z3_z3_z3": [
        ("bound", lambda rc, out, vrc, vout: (rc, _corrupt_json(out, lambda d: d["witness"].update(bound=d["witness"]["bound"] + "1")), vrc, vout)),
    ],
    "dump_table.237_7": [
        ("header order", lambda rc, out, vrc, vout: (rc, _replace_line(out, 0, lambda h: " ".join(h.split()[2:] + h.split()[:2])), vrc, vout)),
        ("order", lambda rc, out, vrc, vout: (rc, out.replace("cosets 1092 ", "cosets 1091 ", 1), vrc, vout)),
        ("row count", lambda rc, out, vrc, vout: (rc, "\n".join(out.splitlines()[:-1]) + "\n", vrc, vout)),
        ("inverse columns", lambda rc, out, vrc, vout: (rc, _swap_row_entries(out), vrc, vout)),
    ],
    "lowindex_normal.f2_k6": [
        ("record count", lambda rc, out, vrc, vout: (rc, out.replace("36 records", "35 records", 1), vrc, vout)),
        ("normal count off by one", lambda rc, out, vrc, vout: (rc, _replace_line(out, -1, lambda line: line.replace("index 6", "index 5")), vrc, vout)),
        ("normal tag", lambda rc, out, vrc, vout: (rc, _replace_line(out, 1, lambda line: line.replace(" (normal)", "")), vrc, vout)),
    ],
}


class _CorruptEveryOther:
    """A stand-in for pdef.cli: every other call prints a wrong table
    header, every fourth raises."""

    def __init__(self):
        self.calls = 0

    def main(self, argv):
        self.calls += 1
        if self.calls % 4 == 1:
            print("cosets 0 gens 0")
            return 0
        if self.calls % 4 == 3:
            raise RuntimeError("injected")
        return cli.main(argv)


def check_oracles():
    cert = Path("perfbench") / "out" / "selftest-cert.json"
    cert.parent.mkdir(parents=True, exist_ok=True)
    runner = Runner(cli, cert)
    rng = random.Random(3)
    try:
        for family, corruptions in CORRUPTIONS.items():
            job = families.FAMILIES[family](family, rng)
            rc, out, _, _ = runner.call(job.argv, job.stdin)
            vrc, vout = None, ""
            if job.certify:
                cert.write_text(out, encoding="utf-8")
                vrc, vout, _, _ = runner.call(["verify", str(cert)])
            assert job.check(rc, out, vrc, vout) is None, family
            for label, corrupt in corruptions:
                assert job.check(*corrupt(rc, out, vrc, vout)) is not None, (family, label)
    finally:
        cert.unlink(missing_ok=True)

    loop = Loop(Runner(_CorruptEveryOther(), cert), "coset_enum", 0)
    loop.run_for(1.5)
    completed = sum(len(ts) for ts in loop.times.values())
    assert loop.attempted >= 4 and completed >= 1, (loop.attempted, completed)
    assert len(loop.failures) == loop.attempted - completed == (loop.attempted + 1) // 2, loop.failures
    assert any("injected" in reason for _, _, reason in loop.failures)
    assert any("header" in reason for _, _, reason in loop.failures)

    class _AlwaysWrong:
        def main(self, argv):
            print("cosets 0 gens 0")
            return 0

    loop = Loop(Runner(_AlwaysWrong(), cert), "coset_enum", 0)
    loop.run_for(0.2)
    assert loop.failures and not loop.times
    try:
        loop.jobs_per_s()
    except NothingMeasured:
        pass
    else:
        raise AssertionError("a loop with no completed job reported a throughput")


def check_tracer():
    original = presentations.tietze_simplify
    t = tracer.Tracer()
    t.install()
    try:
        assert rewriting.tietze_simplify is not original  # bound by `from .presentations import`
        P = parse_presentation("gens: a, b\nrel: a^2\nrel: b^3\n")
        records = lowindex.low_index_normal(P, 6)
        H = rewriting.subgroup_presentation(P, records[-1])
    finally:
        t.uninstall()
    assert presentations.tietze_simplify is original and rewriting.tietze_simplify is original
    assert H.n_generators >= 1
    stats = t.aggregate()
    assert stats["lowindex.low_index_normal"]["calls"] == 1
    assert stats["presentations.tietze_simplify"]["calls"] == 1
    names = [t.names[s[0]] for s in t.spans]
    sp = t.spans[names.index("rewriting.subgroup_presentation")]
    kids = [s for s in t.spans if s[3] == names.index("rewriting.subgroup_presentation")]
    assert {t.names[s[0]] for s in kids} == {"rewriting.reidemeister_schreier", "presentations.tietze_simplify"}
    self_s = stats["rewriting.subgroup_presentation"]["self_s"]
    assert abs(self_s - ((sp[2] - sp[1]) - sum(s[2] - s[1] for s in kids))) < 1e-9
    assert all(0 <= s["self_s"] <= s["busy_s"] + 1e-9 for s in stats.values())
    assert "cosets.trace" not in t.names and cosets.trace.__module__ == "pdef.cosets"
    t.install()  # a second block of a traced run reuses the wrappers
    try:
        lowindex.low_index_normal(P, 6)
    finally:
        t.uninstall()
    assert presentations.tietze_simplify is original and len(set(t.names)) == len(t.names)
    assert t.aggregate()["lowindex.low_index_normal"]["calls"] == 2


def run(args, cwd="."):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180)


def check_runs():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"] for m in BENCH[key]}
        for w in BENCH["workloads"]:
            proc = run(["--workload", w["name"], "--seed", "7", "--seconds", "2", "--trace", str(trace)])
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
            assert set(result["metrics"]) == want, set(result["metrics"]) ^ want
            units = {m["name"]: m["unit"] for m in BENCH[key]}
            assert all(v["unit"] == units[k] for k, v in result["metrics"].items())
            if trace == 0:
                assert all(v["value"] > 0 for v in result["metrics"].values()), result


def check_bare_directory():
    bare = Path("perfbench") / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    try:
        proc = run(["--workload", "coset_enum", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare)


def main():
    for check in (check_variants, check_oracles, check_tracer, check_runs, check_bare_directory):
        t0 = time.perf_counter()
        check()
        print(f"ok  {check.__name__} ({time.perf_counter() - t0:.1f} s)")


if __name__ == "__main__":
    main()
