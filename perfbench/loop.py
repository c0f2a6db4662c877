"""Job runner and closed loop of the pdef benchmark."""

from __future__ import annotations

import contextlib
import io
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import families


class NothingMeasured(Exception):
    pass


class Runner:
    """Runs jobs through ``pdef.cli.main`` with stdin/stdout captured."""

    def __init__(self, cli, cert_path: Path):
        self.cli = cli
        self.cert_path = cert_path

    def call(self, argv, stdin=None):
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin or "")
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        finally:
            dt = time.perf_counter() - t0
            sys.stdin = saved
        return rc, out.getvalue(), err.getvalue(), dt

    def run(self, job):
        """(job seconds, verify seconds or None, error text or None)."""
        try:
            rc, out, err, dt = self.call(job.argv, job.stdin)
            vrc, vout, vdt = None, "", None
            if job.certify and out:
                self.cert_path.write_text(out, encoding="utf-8")
                vrc, vout, verr, vdt = self.call(["verify", str(self.cert_path)])
                err += verr
            error = job.check(rc, out, vrc, vout)
        except Exception:  # a crashing job is a failed job, never a crashed run
            return None, None, traceback.format_exc(limit=3)
        if error and err.strip():
            error += f" [stderr: {err.strip().splitlines()[-1]}]"
        return dt + (vdt or 0.0), vdt, error


class Loop:
    """Closed loop, one client: the next job starts when the last ends."""

    def __init__(self, runner, workload, seed):
        self.runner = runner
        self.workload = workload
        self.seed = seed
        self.times = {}  # family -> job seconds, completed jobs only
        self.verify_times = []
        self.failures = []  # (job number, family, reason)
        self.attempted = 0
        self.inputs = Counter()
        self.stream = families.job_stream(workload, seed)

    def run_for(self, seconds, on_job=None):
        """Run jobs for ``seconds``; a later call goes on where this one
        stopped in the job sequence."""
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            job = next(self.stream)
            self.attempted += 1
            self.inputs[(tuple(job.argv), job.stdin)] += 1
            if on_job:
                on_job(self.attempted)
            dt, vdt, error = self.runner.run(job)
            if error is not None:
                self.failures.append((self.attempted, job.family, error.strip().splitlines()[-1]))
                continue
            self.times.setdefault(job.family, []).append(dt)
            if vdt is not None:
                self.verify_times.append(vdt)

    def deciles(self):
        """p10 ... p90 of all completed jobs' times, interpolated."""
        times = [t for ts in self.times.values() for t in ts]
        return statistics.quantiles(times, n=10, method="inclusive") if len(times) > 1 else times * 9

    def jobs_per_s(self):
        """Throughput at the workload's stated mix: jobs per round over the
        round's time from each family's mean job time.  This leaves out
        how far the last, partial round got when time ran out.  A family
        with no completed job (all failed, or the run was too short) drops
        out of the mix."""
        mix = {f: n for f, n in families.WORKLOADS[self.workload].items() if f in self.times}
        if not mix:
            raise NothingMeasured(f"{self.workload}: no job completed ({len(self.failures)} failed)")
        return sum(mix.values()) / sum(n * statistics.fmean(self.times[f]) for f, n in mix.items())

    def repeat_share(self):
        return sum(n - 1 for n in self.inputs.values()) / max(1, self.attempted)


def metric(value, unit):
    return {"value": value, "unit": unit}
