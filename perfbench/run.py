"""dpsampler benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/`` directory and nowhere else.  With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run.  Op times are scaled to the
reference machine's speed (see speed.py).  The line before it is a JSON
info object: run conditions, op counts, tail percentile, set-up samples,
unscaled values, known-defect figures and, when traced, the baseline
cross-check.  The run
exits non-zero without printing a result if set-up fails or a per-run law
check fails.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 150


@dataclass
class Phase:
    """Ops measured in one loop: latencies in seconds, and failures."""

    latencies: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    rounds: int = 0
    next_index: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def measure(ops, first_index: int, seconds: float, between=None) -> Phase:
    """Run whole rounds of ``ops`` until ``seconds`` have passed; time each op.

    ``between``, if given, is called after each op, outside its timing.
    """
    clock = time.perf_counter
    phase = Phase(next_index=first_index)
    start = clock()
    while True:
        for op in ops:
            i = phase.next_index
            t0 = clock()
            try:
                output = op.run(i)
                reason = None
            except Exception as exc:  # an op that raises counts as failed
                output, reason = None, f"raised {type(exc).__name__}: {exc}"
            elapsed = clock() - t0
            if reason is None:
                try:
                    reason = op.check(output)
                except Exception as exc:
                    reason = f"check raised {type(exc).__name__}: {exc}"
            phase.latencies.append(elapsed)
            phase.kinds.append(op.kind)
            if reason:
                phase.failures.append({"kind": op.kind, "op": i, "reason": reason})
            phase.next_index += 1
            if between is not None:
                between()
        phase.rounds += 1
        if clock() - start >= seconds:
            return phase


def _percentile(values, pct: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(phase: Phase, tail_pct: float, setup_samples, slowness: float) -> dict:
    """End-to-end metrics, with op times divided by the machine's slowness (speed.py).

    Set-up time is not scaled: it runs in other processes, and scaling it by
    the slowness seen in this one made it less steady, not more.
    """
    lat = phase.latencies
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "op_p50_ms": (1e3 * _percentile(lat, 50.0) / slowness, "ms"),
        "op_tail_ms": (1e3 * _percentile(lat, tail_pct) / slowness, "ms"),
        "ops_per_s": (slowness * phase.attempted / sum(lat), "1/s"),
        "ok_ratio": ((phase.attempted - len(phase.failures)) / phase.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def pin_threads() -> None:
    # before numpy is imported: BLAS and OpenMP read these once, at load
    for name in THREAD_VARS:
        os.environ[name] = "1"


def run_conditions(seed: int) -> dict:
    import numpy as np
    import dpsampler

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "dpsampler": dpsampler.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def import_library():
    """Import dpsampler from this checkout's src/, refusing any other copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dpsampler", "__init__.py")):
        raise SystemExit(f"error: no dpsampler sources under {src}")
    sys.path.insert(0, src)
    import dpsampler

    if os.path.dirname(os.path.dirname(os.path.abspath(dpsampler.__file__))) != src:
        raise SystemExit(f"error: imported dpsampler from {dpsampler.__file__}, not {src}")
    return dpsampler


def build(workload: str, seed: int, workdir: str):
    """Build the inputs and run the warm-up op (index 0)."""
    import workloads

    make_plan, tail_pct = workloads.WORKLOADS[workload]
    plan = make_plan(seed, workdir)
    warm = measure(plan.ops[:1], 0, 0.0)
    if warm.failures:
        raise SystemExit(f"error: warm-up op failed: {warm.failures[0]}")
    return plan, tail_pct


def setup_probe(workload: str, seed: int) -> None:
    """Child mode: set up once and print the monotonic clock at the first timed op."""
    import_library()
    workdir = make_workdir(workload)
    try:
        build(workload, seed, workdir)
        print(repr(time.monotonic()), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_samples(workload: str, seed: int) -> list:
    """Set-up time of fresh processes, from spawn to the first timed op."""
    samples = []
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
        start = time.monotonic()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - start)
    return samples


def make_workdir(workload: str) -> str:
    path = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}")
    os.makedirs(path)
    return path


def summarize(phase: Phase) -> dict:
    by_kind = {}
    for kind, latency in zip(phase.kinds, phase.latencies):
        by_kind.setdefault(kind, []).append(1e3 * latency)
    return {
        "attempted": phase.attempted,
        "rounds": phase.rounds,
        "op_ms_by_kind": {kind: {"n": len(xs), "p50": statistics.median(xs), "max": max(xs)}
                          for kind, xs in by_kind.items()},
        "failures": phase.failures[:10],
    }


def run(args) -> dict:
    dpsampler = import_library()
    import speed

    info = {"workload": args.workload, "run_conditions": run_conditions(args.seed)}
    if not args.trace:
        samples = setup_samples(args.workload, args.seed)
    workdir = make_workdir(args.workload)
    try:
        plan, tail_pct = build(args.workload, args.seed, workdir)
        if args.trace:
            phase, metrics = traced_run(dpsampler, plan, args)
            info.update(summarize(phase))
        else:
            reference = speed.SpeedReference()
            phase = measure(plan.ops, 1, args.seconds, reference.between_ops)
            slowness = reference.factor()
            metrics = end_to_end(phase, tail_pct, samples, slowness)
            raw = end_to_end(phase, tail_pct, samples, 1.0)
            info.update(summarize(phase), setup_samples_s=samples, tail_percentile=tail_pct,
                        ops_beyond_tail=sum(1 for x in phase.latencies
                                            if 1e3 * x > raw["op_tail_ms"][0]),
                        slowness=slowness, slowness_samples=len(reference.samples),
                        unscaled_metrics={name: value for name, (value, _) in raw.items()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    law = plan.law_checks()
    info["law_checks"] = {name: reason or "ok" for name, reason in law.items()}
    info["notes"] = plan.notes
    print(json.dumps({"info": info}))
    broken = {name: reason for name, reason in law.items() if reason}
    if broken:
        raise SystemExit(f"error: per-run law check failed: {broken}")
    return {
        "correct": not phase.failures,
        "attempted": phase.attempted,
        "failed": len(phase.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def traced_run(dpsampler, plan, args):
    """A third of the time untraced, then the rest traced; compare round times.

    Returns both phases as one for the op counts, and the per-layer metrics
    of the traced phase.
    """
    import importlib

    import tracing
    from workloads import Op

    untraced = measure(plan.ops, 1, args.seconds / 3.0)
    tracer = tracing.Tracer()
    modules = [dpsampler] + [importlib.import_module(f"dpsampler.{name}")
                             for name in tracing.LAYERS]
    bench_ops = [Op(op.kind, tracer.wrap(f"bench.{op.kind}", op.run), op.check)
                 for op in plan.ops]
    plan.counts.clear()
    tracer.install(modules)
    try:
        traced = measure(bench_ops, untraced.next_index, args.seconds * 2.0 / 3.0)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, traced.attempted, plan.counts)
    per_round = [sum(p.latencies) / p.rounds for p in (untraced, traced)]
    metrics["trace.overhead_ratio"] = (per_round[1] / per_round[0], "ratio")
    path = os.path.join(ROOT, ".bench_work", f"trace-{args.workload}-seed{args.seed}.json")
    tracer.write(path)
    plan.notes["trace_file"] = os.path.relpath(path, ROOT)
    plan.notes["baseline_cross_check"] = {
        name: {"measured": metrics[name][0], "roadmap": ref}
        for name, ref in tracing.BASELINE.items()
    }
    plan.notes["spans_per_traced_op"] = len(tracer.spans) / traced.attempted
    both = Phase(latencies=untraced.latencies + traced.latencies,
                 kinds=untraced.kinds + traced.kinds,
                 failures=untraced.failures + traced.failures,
                 rounds=untraced.rounds + traced.rounds)
    return both, metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # the names of workloads.WORKLOADS, listed here so that argument errors
    # come before numpy loads
    parser.add_argument("--workload", required=True,
                        choices=["cli-files", "release-mem", "audit"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
