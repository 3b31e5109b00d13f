"""Traced mode: spans around calls into dpsampler's public functions.

The tracer wraps every public function of each dpsampler module, plus
``RandomSource.child``, and rebinds each wrapper in every module namespace
that imported the function (``gaussian.elap_sample``, ``elap.gamma_sample``,
``cli.read_kary_csv``, ...), so calls from one layer into another are
recorded too.  Nothing inside the library changes.  A span holds a name,
start, end, parent and whether it raised; spans stay in memory and are
written out when the run ends.  A layer's self time is the duration of its
spans minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

import numpy as np

from dpsampler.core import RandomSource

LAYERS = ("core", "kary", "elap", "gaussian", "multisampling", "divergences", "audit", "cli")


def _add(name, value):
    def meta(counts, args, result):
        counts[name] += value(args, result)
    return meta


# counters read from a call's arguments and result: function -> counter updates
META = {
    "core.read_kary_csv": [_add("core.read_csv_rows", lambda a, r: r.n)],
    "core.read_vector_csv": [_add("core.read_csv_rows", lambda a, r: r.n)],
    "core.write_kary_csv": [_add("core.write_csv_rows", lambda a, r: np.asarray(a["values"]).size)],
    "core.write_vector_csv": [
        _add("core.write_csv_rows", lambda a, r: np.atleast_2d(np.asarray(a["rows"])).shape[0])],
    "kary.shurr_run": [_add("kary.shurr_records_in", lambda a, r: a["data"].n),
                       _add("kary.released", lambda a, r: len(r))],
    "kary.subrr_sample": [_add("kary.released", lambda a, r: 1)],
    "gaussian.pure_gaussian_sample": [_add("gaussian.sample_rows", lambda a, r: a["data"].n)],
    "gaussian.zcdp_known_cov_sample": [_add("gaussian.sample_rows", lambda a, r: a["data"].n)],
    "gaussian.zcdp_bounded_cov_sample": [_add("gaussian.sample_rows", lambda a, r: a["data"].n)],
    "elap.elap_sample": [_add("elap.sample_draws", lambda a, r: a.get("size") or 1)],
    "divergences.tv_estimate_binned": [
        _add("divergences.tv_rows", lambda a, r: a["samples_p"].n + a["samples_q"].n)],
    # strong_via_both runs weak_via_repetition, which counts its m blocks
    "multisampling.weak_via_repetition": [_add("multisampling.blocks", lambda a, r: a["m"])],
    "multisampling.strong_via_precision": [_add("multisampling.blocks", lambda a, r: 1)],
}
for _name in ("audit_rr_local", "audit_subrr_pure", "audit_shurr_marginal",
              "audit_elap_mechanism", "audit_zcdp_gaussian"):
    META[f"audit.{_name}"] = [_add("audit.probes", lambda a, r: r.probe_count)]

GAUSSIAN_SAMPLERS = ("gaussian.pure_gaussian_sample", "gaussian.zcdp_known_cov_sample",
                     "gaussian.zcdp_bounded_cov_sample")
COMBINATORS = ("multisampling.weak_via_repetition", "multisampling.strong_via_precision",
               "multisampling.strong_via_both")
CHILD = "core.RandomSource.child"


class Tracer:
    """Records spans for wrapped calls; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, raised]
        self.counts = defaultdict(float)
        self._stack = []
        self._undo = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        metas = META.get(name)
        sig = inspect.signature(fn) if metas else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0, False])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx][4] = True
                raise
            finally:
                spans[idx][3] = clock()
                stack.pop()
            if metas:
                bound = sig.bind(*args, **kwargs).arguments
                for meta in metas:
                    meta(counts, bound, result)
            return result

        return traced

    def install(self, modules) -> None:
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        self._undo.append((RandomSource, "child", RandomSource.child))
        RandomSource.child = self.wrap(CHILD, RandomSource.child)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start_s", "end_s", "raised"],
                       "names": names,
                       "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]}, fh)


def _layer(name: str) -> str:
    return name.partition(".")[0]


def layer_metrics(tracer: Tracer, ops: int, extra_counts: dict) -> dict:
    """Per-layer metrics per traced op, as ``{name: (value, unit)}``."""
    spans = tracer.spans
    dur = [s[3] - s[2] for s in spans]
    covered = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            covered[s[1]] += dur[i]
    total = defaultdict(float)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    errors = defaultdict(int)
    sampler_self = 0.0
    combinator_calls = 0
    pure_n28060 = []
    for i, (name, parent, _, _, raised) in enumerate(spans):
        layer = _layer(name)
        parent_name = spans[parent][0] if parent >= 0 else ""
        total[name] += dur[i]
        calls[name] += 1
        self_s[layer] += dur[i] - covered[i]
        if raised and _layer(parent_name) != layer:
            errors[layer] += 1  # counted once, where the exception leaves the layer
        if name in GAUSSIAN_SAMPLERS:
            sampler_self += dur[i] - covered[i]
        if name in COMBINATORS and parent_name not in COMBINATORS:
            combinator_calls += 1
        if name == "gaussian.pure_gaussian_sample" and parent_name == "bench.pure-n28060-d1":
            pure_n28060.append(dur[i])

    counts = dict(tracer.counts)
    counts.update(extra_counts)

    def s(*names):
        return sum(total[n] for n in names) / ops, "s/op"

    def n(*names):
        return sum(calls[x] for x in names) / ops, "1/op"

    def c(name, unit="1/op"):
        return counts.get(name, 0.0) / ops, unit

    metrics = {
        "core.read_csv_s": s("core.read_kary_csv", "core.read_vector_csv"),
        "core.read_csv_rows": c("core.read_csv_rows", "rows/op"),
        "core.write_csv_s": s("core.write_kary_csv", "core.write_vector_csv"),
        "core.write_csv_rows": c("core.write_csv_rows", "rows/op"),
        "core.child_calls": n(CHILD),
        "core.child_s": s(CHILD),
        "cli.report_bytes": c("cli.report_bytes", "B/op"),
        "kary.shurr_run_calls": n("kary.shurr_run"),
        "kary.shurr_run_s": s("kary.shurr_run"),
        "kary.shurr_records_in": c("kary.shurr_records_in", "rows/op"),
        "kary.released": c("kary.released"),
        "kary.subrr_sample_s": s("kary.subrr_sample"),
        "gaussian.sample_calls": n(*GAUSSIAN_SAMPLERS),
        "gaussian.sample_rows": c("gaussian.sample_rows", "rows/op"),
        "gaussian.sample_self_s": (sampler_self / ops, "s/op"),
        "gaussian.mechanism_s": s("gaussian.elap_mechanism"),
        "multisampling.calls": (combinator_calls / ops, "1/op"),
        "multisampling.blocks": c("multisampling.blocks"),
        "elap.sample_calls": n("elap.elap_sample"),
        "elap.sample_draws": c("elap.sample_draws"),
        "elap.sample_s": s("elap.elap_sample"),
        "elap.gamma_s": s("elap.gamma_sample"),
        "divergences.tv_calls": n("divergences.tv_estimate_binned"),
        "divergences.tv_rows": c("divergences.tv_rows", "rows/op"),
        "divergences.tv_s": s("divergences.tv_estimate_binned"),
        "divergences.tv_covered": c("divergences.tv_covered"),
        "audit.calls": n(*(x for x in calls if x.startswith("audit.audit_"))),
        "audit.probes": c("audit.probes"),
        "audit.shurr_s": s("audit.audit_shurr_marginal"),
        "audit.subrr_s": s("audit.audit_subrr_pure"),
        "audit.elap_s": s("audit.audit_elap_mechanism"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer] / ops, "s/op")
        metrics[f"{layer}.errors"] = (errors[layer] / ops, "1/op")

    # per-call figures next to the ROADMAP re-anchor baseline (0 when not exercised)
    child_n = calls[CHILD]
    shurr_in = counts.get("kary.shurr_records_in", 0.0)
    metrics["baseline.child_us"] = (1e6 * total[CHILD] / child_n if child_n else 0.0, "us")
    metrics["baseline.pure_n28060_us"] = (
        1e6 * float(np.mean(pure_n28060)) if pure_n28060 else 0.0, "us")
    metrics["baseline.shurr_run_s_per_1e7_records"] = (
        1e7 * total["kary.shurr_run"] / shurr_in if shurr_in else 0.0, "s")
    return metrics


BASELINE = {  # ROADMAP re-anchor figures, same machine class
    "baseline.child_us": 17.0,
    "baseline.pure_n28060_us": 664.0,
    "baseline.shurr_run_s_per_1e7_records": 1.1,
}
