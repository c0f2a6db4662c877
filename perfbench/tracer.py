"""Outside-in tracer: spans around the public functions of each pdef module.

Nothing in the program changes.  ``Tracer.install`` replaces every
``pdef.*`` module binding of a wrapped function, so calls made through
``from .x import f`` are timed too.  Each call records a span (name,
start, end, parent span, job id) in memory; the spans are written out
when the run ends.  Self time is a span's duration minus its direct child
spans.  Size counters are read from arguments and return values.

``words`` is not wrapped, nor is ``cosets.trace``: they are the hot inner
calls, and a wrapper would cost more than they do.  Their time appears
in their callers' self time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
import time
import warnings
from collections import defaultdict

from loop import Loop, metric

MODULES = ("cli", "certificates", "presentations", "cosets", "lowindex", "rewriting", "abelian")
SKIP = {"cosets.trace"}


def _total_length(P):
    return sum(len(r) for r in P.relators)


def _tietze_counts(args, kwargs, result):
    return {"len_in": _total_length(args[0]), "len_out": _total_length(result), "gens_out": result.n_generators}


def _todd_coxeter_counts(args, kwargs, result):
    if hasattr(result, "n_cosets"):
        return {"cosets_out": result.n_cosets}
    return {"exhausted": 1}


def _lowindex_counts(args, kwargs, result):
    return {"subgroups_out": len(result), "normal_found": sum(1 for rec in result if rec.normal)}


def _rs_counts(args, kwargs, result):
    return {"gens_out": result.n_generators, "rels_out": len(result.relators)}


def _snf_counts(args, kwargs, result):
    return {"cells": args[0].nrows * args[0].ncols}


def _free_quotient_counts(args, kwargs, result):
    return {"witnesses": int(result.kind == "FreeQuotientWitness")}


COUNTERS = {
    "presentations.tietze_simplify": _tietze_counts,
    "cosets.todd_coxeter": _todd_coxeter_counts,
    "lowindex.low_index_subgroups": _lowindex_counts,
    "lowindex.low_index_normal": lambda a, k, r: {"normal_out": len(r)},
    "rewriting.reidemeister_schreier": _rs_counts,
    "abelian.smith_normal_form": _snf_counts,
    "certificates.certify_free_quotient": _free_quotient_counts,
}


class Tracer:
    def __init__(self):
        self.names = []  # span name id -> "module.function"
        self.spans = []  # (name id, start, end, parent index or -1, job id)
        self.stack = []
        self.job = 0
        self.counts = defaultdict(int)  # "module.function.counter" -> total
        self.budget_stops = 0
        self._patched = []  # (module, attribute, original)
        self._wrappers = {}  # "module.function" -> wrapper, made once

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self.stack, self.counts
        counter = COUNTERS.get(name)
        tietze = name == "presentations.tietze_simplify"

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                if tietze:
                    result = self._count_budget_stops(fn, args, kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                spans[index] = (name_id, start, time.perf_counter(), parent, self.job)
                stack.pop()
            if counter:
                for key, value in counter(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_budget_stops(self, fn, args, kwargs):
        from pdef.presentations import TietzeBudgetWarning

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args, **kwargs)
        for w in caught:
            if issubclass(w.category, TietzeBudgetWarning):
                self.budget_stops += 1
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return result

    def install(self):
        for short in MODULES:
            importlib.import_module(f"pdef.{short}")
        pdef_modules = [m for name, m in sys.modules.items() if name == "pdef" or name.startswith("pdef.")]
        for short in MODULES:
            module = sys.modules[f"pdef.{short}"]
            for attr, fn in list(vars(module).items()):
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or name in SKIP
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                if name not in self._wrappers:
                    self._wrappers[name] = self._wrap(name, fn)
                wrapper = self._wrappers[name]
                for m in pdef_modules:
                    for a, value in list(vars(m).items()):
                        if value is fn:
                            self._patched.append((m, a, fn))
                            setattr(m, a, wrapper)

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # -- report --------------------------------------------------------------

    def aggregate(self):
        """Per function: calls, busy seconds (outermost spans of that name
        only) and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        open_names = []  # name ids of the enclosing spans, for nesting
        ends = []
        for i, (name_id, start, end, parent, _) in enumerate(self.spans):
            while ends and ends[-1] <= start:
                ends.pop()
                open_names.pop()
            s = stats[self.names[name_id]]
            s["calls"] += 1
            if name_id not in open_names:
                s["busy_s"] += end - start
            s["self_s"] += end - start - child_time[i]
            open_names.append(name_id)
            ends.append(end)
        return stats

    def kill_sets(self):
        """quotient_by_words calls made directly by certify_free_quotient,
        one per kill set tried (verify's own quotient is not a trial)."""
        q = self.names.index("presentations.quotient_by_words")
        c = self.names.index("certificates.certify_free_quotient")
        return sum(1 for name_id, _, _, parent, _ in self.spans if name_id == q and parent >= 0 and self.spans[parent][0] == c)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"names": self.names}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


# function -> the span statistics reported for it
SPAN_STATS = {
    "presentations.tietze_simplify": ("calls", "busy_s", "self_s"),
    "certificates.certify_free_quotient": ("calls",),
    "certificates.certify_p_large_witness": ("busy_s",),
    "certificates.allcock_rank_bound": ("busy_s",),
    "certificates.find_z_surjection": ("busy_s",),
    "certificates.power_quotient_largeness": ("busy_s",),
    "certificates.verify": ("calls", "busy_s", "self_s"),
    "cosets.todd_coxeter": ("calls", "busy_s"),
    "cosets.validate_table": ("busy_s",),
    "cosets.is_normal": ("busy_s",),
    "cosets.power_survives": ("busy_s",),
    "lowindex.low_index_subgroups": ("calls", "busy_s", "self_s"),
    "rewriting.schreier_generators": ("calls", "busy_s"),
    "rewriting.reidemeister_schreier": ("busy_s",),
    "abelian.smith_normal_form": ("calls", "busy_s"),
    "presentations.parse_presentation": ("busy_s",),
    "cli.main": ("calls", "self_s"),
}
# size counters summed from COUNTERS, reported per job
SIZE_COUNTERS = (
    "presentations.tietze_simplify.len_in",
    "presentations.tietze_simplify.len_out",
    "presentations.tietze_simplify.gens_out",
    "cosets.todd_coxeter.cosets_out",
    "cosets.todd_coxeter.exhausted",
    "lowindex.low_index_subgroups.subgroups_out",
    "lowindex.low_index_normal.normal_out",
    "rewriting.reidemeister_schreier.gens_out",
    "rewriting.reidemeister_schreier.rels_out",
    "abelian.smith_normal_form.cells",
)


def per_layer(tracer, jobs):
    """The per-layer metrics, every count and time divided by ``jobs``."""
    stats = tracer.aggregate()
    counts = tracer.counts
    m = {}
    for name, keys in SPAN_STATS.items():
        for key in keys:
            value = stats[name][key] / jobs if name in stats else 0.0
            m[f"{name}.{key}"] = metric(value, "count/job" if key == "calls" else "s/job")
    for name in SIZE_COUNTERS:
        m[name] = metric(counts.get(name, 0) / jobs, "count/job")
    m["presentations.tietze_simplify.budget_stops"] = metric(tracer.budget_stops / jobs, "count/job")
    kill_sets = tracer.kill_sets()
    witnesses = counts.get("certificates.certify_free_quotient.witnesses", 0)
    m["certificates.kill_sets_tried"] = metric(kill_sets / jobs, "count/job")
    m["certificates.kill_set_yield"] = metric(witnesses / kill_sets if kill_sets else 0.0, "share")
    subgroups = counts.get("lowindex.low_index_subgroups.subgroups_out", 0)
    normal = counts.get("lowindex.low_index_subgroups.normal_found", 0)
    m["lowindex.normal_yield"] = metric(normal / subgroups if subgroups else 0.0, "share")
    return m, stats


# blocks of a traced run: untraced, traced, traced, untraced, twice
TRACE_BLOCKS = 8


def traced_run(runner, workload, seed, seconds, out_dir):
    """The same job sequence twice, untraced and traced, in TRACE_BLOCKS
    alternating blocks in the order untraced, traced, traced, untraced, ...
    so that a slow spell of the machine falls on both about equally.
    Returns (metrics, [untraced loop, traced loop])."""
    plain = Loop(runner, workload, seed)
    traced = Loop(runner, workload, seed)
    tracer = Tracer()

    def on_job(n):
        tracer.job = n

    for block in range(TRACE_BLOCKS):
        if block % 4 in (1, 2):
            tracer.install()
            try:
                traced.run_for(seconds / TRACE_BLOCKS, on_job)
            finally:
                tracer.uninstall()
        else:
            plain.run_for(seconds / TRACE_BLOCKS)
    jobs = max(1, sum(len(ts) for ts in traced.times.values()) + len(traced.failures))
    metrics, stats = per_layer(tracer, jobs)
    untraced_rate, traced_rate = plain.jobs_per_s(), traced.jobs_per_s()
    metrics["trace.jobs_per_s_untraced"] = metric(untraced_rate, "1/s")
    metrics["trace.jobs_per_s_traced"] = metric(traced_rate, "1/s")
    metrics["trace.overhead"] = metric(untraced_rate / traced_rate - 1, "share")
    metrics["cli.verify.p50_s"] = metric(statistics.median(plain.verify_times) if plain.verify_times else 0.0, "s")
    metrics["inputs.repeat_share"] = metric(traced.repeat_share(), "share")
    tracer.write(out_dir / f"spans-{workload}-seed{seed}.jsonl")
    print(f"layers by self time ({jobs} traced jobs, {len(tracer.spans)} spans, per job):", file=sys.stderr)
    for name, s in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:44s} calls {s['calls'] / jobs:10.2f}  busy {s['busy_s'] / jobs:9.5f} s"
              f"  self {s['self_s'] / jobs:9.5f} s", file=sys.stderr)
    return metrics, [plain, traced]
