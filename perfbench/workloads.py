"""The benchmark's three workloads: inputs built from the seed, and one round of ops.

Every workload is a closed loop: one client in one process with one op in
flight.  A round runs each op kind of the workload once, and a run measures
whole rounds, so every run has the same op mix.  The first op of a round is
also the warm-up op of set-up.

Inputs come from ``numpy.random.default_rng([seed, INPUT_SALT])`` and are
handed to the library through its public constructors and writers; op ``i``
draws from ``RandomSource(seed).child(i)``.  The library sees nothing else.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from dpsampler import audit, cli, core, divergences, gaussian, kary, multisampling

import checks

INPUT_SALT = 0x5EED


@dataclass
class Op:
    """One op kind: ``run(i)`` is the timed call, ``check(output)`` the untimed check."""

    kind: str
    run: Callable[[int], object]
    check: Callable[[object], str | None]


@dataclass
class Plan:
    """A workload's round of ops plus what its checks pool across the run.

    ``counts`` holds counters the checks feed for the traced run (it is reset
    when tracing starts); ``notes`` holds figures for the info line.
    """

    ops: list[Op]
    law_checks: Callable[[], dict] = lambda: {}
    counts: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value


def _kary_values(gen, k: int, n: int) -> np.ndarray:
    # every seed gets its own category law, so inputs differ by more than noise
    probs = gen.dirichlet(np.full(k, 2.0))
    return gen.choice(np.arange(1, k + 1), size=n, p=probs)


def _clipped_mean(rows: np.ndarray, B: float) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1)
    return (rows * np.minimum(B / np.maximum(norms, 1e-300), 1.0)[:, None]).mean(axis=0)


def _release_variance(n: int, d: int, B: float, eps: float) -> float:
    """Per-coordinate variance bound of a pure-DP Gaussian release.

    Z contributes (n-1)/n; the Euclidean-Laplace noise of scale b contributes
    (d+1) b^2 / n^2 per coordinate.  b is taken at the conservative 2B/eps,
    so the bound holds under either calibration the library offers.
    """
    b = 2.0 * B / eps
    return (n - 1) / n + (d + 1) * b * b / (n * n)


# --- cli-files: the CLI user waiting on a file --------------------------------


def cli_files(seed: int, workdir: str) -> Plan:
    gen = np.random.default_rng([seed, INPUT_SALT])
    k, n_kary, n_vec, d, count = 10, 300_000, 30_000, 2, 10
    kary_path = os.path.join(workdir, "kary.csv")
    vec_path = os.path.join(workdir, "vectors.csv")
    out_path = os.path.join(workdir, "draws.csv")
    kary_data = core.KaryDataset(values=_kary_values(gen, k, n_kary), k=k)
    vec_data = core.VectorDataset(rows=gen.uniform(-0.5, 0.5, d) + gen.standard_normal((n_vec, d)))
    core.write_kary_csv(kary_path, kary_data.values)
    core.write_vector_csv(vec_path, vec_data.rows)
    plan = Plan(ops=[])

    def call(argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 1
        return code, buf.getvalue()

    def op_seed(i: int) -> str:
        return str(seed * 1_000_003 + i)

    def kary_check(m: int):
        def check(output) -> str | None:
            code, stdout = output
            plan.count("cli.report_bytes", len(stdout))
            reason, report = checks.cli_report(code, stdout)
            return reason or checks.kary_release(report["outputs"].get("values"), k, m)
        return check

    def gaussian_check(output) -> str | None:
        code, stdout = output
        plan.count("cli.report_bytes", len(stdout))
        reason, report = checks.cli_report(code, stdout)
        if reason:
            return reason
        if report["outputs"].get("count") != count:
            return f"report counts {report['outputs'].get('count')} draws, expected {count}"
        rows = np.loadtxt(out_path, delimiter=",", ndmin=2)
        return checks.gaussian_releases(list(rows), count, d)

    common = ["--in", kary_path, "--k", str(k), "--eps", "1.0"]
    plan.ops = [
        Op(
            "sample-gaussian-pure-count10",
            lambda i: call([
                "sample-gaussian", "--variant", "pure", "--in", vec_path, "--R", "1.0",
                "--alpha", "0.1", "--eps", "1.0", "--count", str(count),
                "--seed", op_seed(i), "--out", out_path,
            ]),
            gaussian_check,
        ),
        Op(
            "sample-kary-shuffle-m100",
            lambda i: call(["sample-kary", "--mode", "shuffle", *common, "--delta", "1e-6",
                            "--m", "100", "--seed", op_seed(i)]),
            kary_check(100),
        ),
        Op(
            "sample-kary-both-m10",
            lambda i: call(["sample-kary", "--mode", "both", *common, "--alpha", "0.1",
                            "--m", "10", "--seed", op_seed(i)]),
            kary_check(10),
        ),
    ]
    return plan


# --- release-mem: the experimenter's Monte Carlo loop ---------------------------


def release_mem(seed: int, workdir: str) -> Plan:
    gen = np.random.default_rng([seed, INPUT_SALT])
    root = core.RandomSource(seed)
    plan = Plan(ops=[])

    # shurr_run at n = 1e6: per-row regime of the RR kernel
    k, n_kary, eps, delta, m = 10, 1_000_000, 1.0, 1e-6, 100
    kary_data = core.KaryDataset(values=_kary_values(gen, k, n_kary), k=k)
    shurr_law = kary.rr_mixture_dist(kary_data, kary.shurr_eps0(eps, delta, n_kary)).probs
    shurr_pool = np.zeros(k)

    def shurr_check(out) -> str | None:
        reason = checks.kary_release(out, k, m)
        if reason is None:
            shurr_pool[:] += np.bincount(out, minlength=k + 1)[1:]
        return reason

    # pure_gaussian_sample at n = 28,060, d = 1: the ROADMAP's 664 us case
    pure_params = gaussian.PureGaussianSamplerParams(R=1.0, d=1, alpha=0.1, eps=1.0)
    pure_rows = gen.uniform(-0.5, 0.5, 1) + gen.standard_normal((28_060, 1))
    pure_data = core.VectorDataset(rows=pure_rows)
    pure_mean = _clipped_mean(pure_rows, pure_params.B)
    pure_var = _release_variance(28_060, 1, pure_params.B, pure_params.eps)
    pure_pool = []

    def pure_check(out) -> str | None:
        reason = checks.gaussian_release(out, 1)
        if reason is None:
            pure_pool.append(out)
        return reason

    # strong_via_both: 10 blocks of n(alpha/m) rows
    both_spec = multisampling.pure_gaussian_sampler(d=1, R=1.0, eps=1.0, alpha=0.1)
    both_n = multisampling.strong_both_complexity(both_spec, 10, 0.1)
    both_data = core.VectorDataset(rows=gen.uniform(-0.5, 0.5, 1) + gen.standard_normal((both_n, 1)))

    # weak_via_repetition over both zCDP samplers at d = 4
    known = multisampling.zcdp_known_cov_sampler(4, 1.0, 1.0, 0.1)
    bounded = multisampling.zcdp_bounded_cov_sampler(4, 1.0, 1.0, 0.1)
    weak_n = max(multisampling.repetition_complexity(s, 10) for s in (known, bounded))
    weak_data = core.VectorDataset(rows=gen.uniform(-0.5, 0.5, 4) + gen.standard_normal((weak_n, 4)))

    def weak(i: int):
        rng = root.child(i)
        return (
            multisampling.weak_via_repetition(known, 10, weak_data, rng.child(0)),
            multisampling.weak_via_repetition(bounded, 10, weak_data, rng.child(1)),
        )

    # small-n pure releases at n = 8, d = 2: per-call regime, one child stream each
    small_params = gaussian.PureGaussianSamplerParams(R=1.0, d=2, alpha=0.1, eps=1.0)
    small_rows = [gen.standard_normal((8, 2)) for _ in range(16)]
    small_data = [core.VectorDataset(rows=rows) for rows in small_rows]
    small_means = [_clipped_mean(rows, small_params.B) for rows in small_rows]
    small_var = _release_variance(8, 2, small_params.B, small_params.eps)
    small_batch = 100
    small_pool = []

    def small(i: int):
        rng = root.child(i)
        data = small_data[i % len(small_data)]
        return i, [gaussian.pure_gaussian_sample(data, small_params, rng.child(r))
                   for r in range(small_batch)]

    def small_check(output) -> str | None:
        i, releases = output
        reason = checks.gaussian_releases(releases, small_batch, 2)
        if reason is None:
            small_pool.extend(np.asarray(releases) - small_means[i % len(small_means)])
        return reason

    plan.ops = [
        Op("pure-n28060-d1",
           lambda i: gaussian.pure_gaussian_sample(pure_data, pure_params, root.child(i)),
           pure_check),
        Op("weak-zcdp-known-bounded-d4", weak,
           lambda out: checks.gaussian_releases(out[0], 10, 4)
           or checks.gaussian_releases(out[1], 10, 4)),
        Op("both-pure-m10-d1",
           lambda i: multisampling.strong_via_both(both_spec, 10, 0.1, both_data, root.child(i)),
           lambda out: checks.gaussian_releases(out, 10, 1)),
        Op("pure-n8-d2-batch100", small, small_check),
        Op("shurr-n1e6-m100",
           lambda i: kary.shurr_run(kary_data, eps, delta, m, root.child(i)),
           shurr_check),
    ]
    plan.law_checks = lambda: {
        "shurr_run pooled frequencies vs rr_mixture_dist": checks.pooled_frequencies(
            shurr_pool, shurr_law),
        "pure n=28060 pooled mean": checks.pooled_mean(pure_pool, pure_mean, pure_var),
        "pure n=8 pooled residual mean": checks.pooled_mean(small_pool, np.zeros(2), small_var),
    }
    return plan


# --- audit: the auditor waiting on a verdict -----------------------------------


def audit_workload(seed: int, workdir: str) -> Plan:
    gen = np.random.default_rng([seed, INPUT_SALT])
    root = core.RandomSource(seed)
    plan = Plan(ops=[])
    shurr_n = kary.shurr_weak_complexity(2, 0.5, 4.0, 0.01, 1).n_required  # 2301
    shift, tv_rows = 0.1, 20_000

    def tv_op(d: int, bins: int) -> Op:
        p = core.VectorDataset(rows=gen.standard_normal((tv_rows, d)))
        q = core.VectorDataset(rows=gen.standard_normal((tv_rows, d)) + shift)
        truth = checks.tv_shifted_gaussians(d, shift)
        name = f"tv-d{d}-bins{bins}"
        cover = plan.notes.setdefault("tv_interval_covers_true_tv", {})
        cover[name] = {"true_tv": truth, "covered": 0, "calls": 0}

        def check(est) -> str | None:
            reason = checks.tv_estimate(est)
            if reason is None:
                # the known upward bias (ROADMAP) is reported, not counted as a failure
                covered = checks.tv_covers(est, truth)
                cover[name]["covered"] += int(covered)
                cover[name]["calls"] += 1
                plan.count("divergences.tv_covered", float(covered))
            return reason

        return Op(name,
                  lambda i: divergences.tv_estimate_binned(p, q, bins, root.child(i)),
                  check)

    plan.ops = [
        Op("subrr-k6-n7-honest", lambda i: audit.audit_subrr_pure(6, 7, 1.0),
           lambda r: checks.audit_verdict(r, "pass")),
        Op("subrr-k6-n7-planted", lambda i: audit.audit_subrr_pure(6, 7, 1.0, claimed_eps=0.1),
           lambda r: checks.audit_verdict(r, "fail")),
        Op("elap-d3-probes1e5",
           lambda i: audit.audit_elap_mechanism(3, 1.0, 1.0, 10**5, root.child(i)),
           lambda r: checks.audit_verdict(r, "pass")),
        tv_op(1, 100),
        tv_op(2, 100),
        tv_op(3, 50),
        Op("shurr-marginal-k2-runs1e4",
           lambda i: audit.audit_shurr_marginal(2, shurr_n, 4.0, 0.01, 10**4, root.child(i)),
           lambda r: checks.audit_verdict(r, "pass")),
    ]
    return plan


# name -> (plan maker, tail percentile).  The tail percentile is fixed per
# workload so that runs compare like with like.  It keeps at least ten ops
# beyond it at the op count a 30 s run reaches on the reference machine, and
# falls well inside the share of the slowest op kinds in the sorted
# latencies, away from its edges (see README.md).
WORKLOADS = {
    "cli-files": (cli_files, 80.0),
    "release-mem": (release_mem, 95.0),
    "audit": (audit_workload, 64.0),
}
