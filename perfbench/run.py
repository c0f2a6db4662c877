"""pdef benchmark: seeded jobs through the public CLI, in process.

    python3 perfbench/run.py --workload plarge_search --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One client runs jobs in a closed loop: a job is the CLI calls
for one generated input (``certify ... --json`` then ``pdef verify`` on
the emitted JSON, or a single ``dump-table`` / ``lowindex``).  Every
output is checked against its family's closed-form answer.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same job sequence twice, untraced and traced, in alternating blocks, and
reports the per-layer metrics of the traced jobs together with the
tracing overhead.  The last line of stdout is one JSON object; a
readable report goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import families
from loop import Loop, NothingMeasured, Runner, metric

SETUP_SAMPLES = 25
SETUP_CODE = "import sys; sys.path.insert(0, 'src'); import pdef.cli; pdef.cli.build_parser()"
OUT_DIR = Path("perfbench") / "out"


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing pdef.cli and
    building its parser: what every `pdef` invocation pays first."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        # no timeout: with one, subprocess polls for the exit in sleeps of
        # up to 50 ms, which would quantize the measurement
        subprocess.run([sys.executable, "-c", SETUP_CODE], check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def end_to_end(loop, setup_s):
    jobs_per_s = loop.jobs_per_s()
    completed = sum(len(ts) for ts in loop.times.values())
    if completed < 100:
        print(f"note: {completed} jobs; job_p90_s has fewer than ten jobs beyond it", file=sys.stderr)
    deciles = loop.deciles()
    return {
        "setup_s": metric(setup_s, "s"),
        "jobs_per_s": metric(jobs_per_s, "1/s"),
        "job_p50_s": metric(deciles[4], "s"),
        "job_p90_s": metric(deciles[8], "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def report_loop(loop):
    err = sys.stderr
    print(f"workload {loop.workload}, seed {loop.seed}: {loop.attempted} jobs attempted, "
          f"{len(loop.failures)} failed (fail_share {len(loop.failures) / max(1, loop.attempted):.4f}), "
          f"input repeat share {loop.repeat_share():.4f}", file=err)
    for family in families.WORKLOADS[loop.workload]:
        ts = loop.times.get(family, [])
        med = f"{statistics.median(ts):.4f} s median" if ts else "-"
        print(f"  {family:34s} {len(ts):4d} jobs  {med}", file=err)
    if loop.verify_times:
        print(f"  verify_p50_s {statistics.median(loop.verify_times):.5f} s over "
              f"{len(loop.verify_times)} verify calls", file=err)
    for n, family, reason in loop.failures:
        print(f"  FAILED job {n} ({family}): {reason}", file=err)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(families.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = Path("src").resolve()
    if not (src / "pdef" / "cli.py").is_file():
        print("error: run from the root of a pdef checkout (src/pdef/cli.py not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from pdef import cli

    if Path(cli.__file__).resolve().parent != src / "pdef":
        print(f"error: imported pdef from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    cert_path = OUT_DIR / f"cert-{os.getpid()}.json"
    runner = Runner(cli, cert_path)
    try:
        if args.trace:
            import tracer

            metrics, loops = tracer.traced_run(runner, args.workload, args.seed, args.seconds, OUT_DIR)
        else:
            setup_s = measure_setup()
            loop = Loop(runner, args.workload, args.seed)
            loop.run_for(args.seconds)
            metrics, loops = end_to_end(loop, setup_s), [loop]
    except NothingMeasured as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        cert_path.unlink(missing_ok=True)
    for loop in loops:
        report_loop(loop)
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    failed = sum(len(loop.failures) for loop in loops)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(loop.attempted for loop in loops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
