"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py --seeds 1-10 --label set1

Runs ``run.py --trace 0`` once per (workload, seed), for every workload
of BENCHMARK.json at its ``run_seconds``, one run at a time, from the
root of a checkout.  For each metric it reports the median of
the runs and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of that median, and
writes everything to ``perfbench/results/steadiness-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--label", required=True)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    seconds = BENCH["run_seconds"]
    out = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in BENCH["workloads"]):
        runs = []
        for seed in args.seeds:
            cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = {
                "median": statistics.median(values),
                "iqr_share": spread(values),
                "bound": bound,
                "values": values,
            }
            print(f"  {workload} {name}: median {summary[name]['median']:.5g}, "
                  f"IQR/median {summary[name]['iqr_share']:.4f} (bound {bound})", flush=True)
        out["workloads"][workload] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": summary,
        }
    path = Path("perfbench") / "results" / f"steadiness-{args.label}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
