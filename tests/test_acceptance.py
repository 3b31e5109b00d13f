"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Monte Carlo criteria pin
their seeds, sample counts, and tolerance envelopes; analytic criteria are
exact up to the stated arithmetic slack.  Wall-clock budgets are asserted
alongside the statistical checks.
"""

import itertools
import math
import time

import numpy as np
import scipy.integrate

from helpers import ks_critical, ks_statistic

import dpsampler.gaussian
from dpsampler.audit import audit_elap_mechanism, audit_subrr_pure
from dpsampler.core import (
    KaryDataset,
    RandomSource,
    VectorDataset,
    validate_categorical,
)
from dpsampler.divergences import (
    eps_delta_closeness,
    hockey_stick_finite,
    hs_to_tv_bound,
    tv_distance_finite,
)
from dpsampler.elap import (
    ELapParams,
    GammaParams,
    elap_log_density,
    elap_sample,
    elap_tail_radius,
    gamma_exact_tail,
    gamma_tail_bound,
)
from dpsampler.gaussian import (
    GAUSSIAN_CALIBRATIONS,
    PureGaussianSamplerParams,
    _bounded_cov_mechanism,
    pure_gaussian_sample,
)
from dpsampler.kary import (
    KARY_CALIBRATIONS,
    RRParams,
    rr_row,
    fmt_eps1,
    shurr_eps0,
    shurr_run,
    shurr_weak_complexity,
)
from dpsampler.multisampling import strong_both_complexity, subrr_sampler


def record(number: int, description: str, failures: list, start: float, budget: float):
    elapsed = time.perf_counter() - start
    if elapsed > budget:
        failures.append(f"runtime {elapsed:.1f}s exceeded budget {budget:.0f}s")
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} ({elapsed:.1f}s): {description}", flush=True)
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def normal_cdf(x):
    return 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))


def test_criterion_01_elap_normalization():
    start = time.perf_counter()
    failures = []
    for d in range(1, 11):
        for b in (0.5, 1.0, 2.0):
            params = ELapParams(d=d, b=b)

            def integrand(r, d=d, params=params):
                point = np.zeros(d)
                point[0] = r
                surface = 2.0 * math.pi ** (d / 2.0) * r ** (d - 1) / math.gamma(d / 2.0)
                return math.exp(elap_log_density(point, params)) * surface

            total, _ = scipy.integrate.quad(integrand, 0.0, np.inf, limit=200)
            if abs(total - 1.0) > 1e-8:
                failures.append(f"d={d} b={b}: integral {total}")
    record(1, "Euclidean-Laplace density integrates to 1 (d<=10, 1e-8)", failures, start, 1.0)


def test_criterion_02_norm_law_ks():
    start = time.perf_counter()
    failures = []
    n = 10**6
    critical = ks_critical(n, 1e-3)
    for cell, (d, b) in enumerate(itertools.product((1, 2, 3, 8), (0.5, 1.0, 2.0))):
        cell_start = time.perf_counter()
        samples = elap_sample(ELapParams(d=d, b=b), RandomSource(1000 + cell), size=n)
        norms = np.linalg.norm(samples, axis=1)
        gamma = GammaParams(shape=float(d), rate=1.0 / b)
        stat = ks_statistic(norms, lambda xs: 1.0 - gamma_exact_tail(gamma, xs))
        if stat >= critical:
            failures.append(f"d={d} b={b}: KS {stat:.5f} >= {critical:.5f}")
        cell_elapsed = time.perf_counter() - cell_start
        if cell_elapsed > 30.0:
            failures.append(f"d={d} b={b}: cell took {cell_elapsed:.1f}s")
    record(2, "norm of ELap samples follows Gamma(d, 1/b) (KS at 1e6, sig 1e-3)",
           failures, start, 12 * 30.0)


def test_criterion_03_tail_bounds_exact():
    start = time.perf_counter()
    failures = []
    for d, b in itertools.product((1, 2, 3, 8), (0.5, 1.0, 2.0)):
        for alpha in (0.01, 0.1, 0.5):
            radius = elap_tail_radius(ELapParams(d=d, b=b), alpha)
            exact = gamma_exact_tail(GammaParams(shape=float(d), rate=1.0 / b), radius)
            if exact > alpha:
                failures.append(f"tail radius d={d} b={b} alpha={alpha}: {exact} > {alpha}")
    for shape in range(1, 17):
        for rate in (0.5, 1.0, 2.0):
            params = GammaParams(shape=float(shape), rate=rate)
            mean = shape / rate
            for t in np.geomspace(0.01 * mean, 100.0 * mean, 30):
                bound = gamma_tail_bound(params, float(t))
                exact = gamma_exact_tail(params, float(t))
                if bound < exact:
                    failures.append(f"shape={shape} rate={rate} t={t}: {bound} < {exact}")
    record(3, "tail-radius mass <= alpha and union bound dominates exact Gamma tail",
           failures, start, 30.0)


def test_criterion_04_subrr_pure_dp_exhaustive():
    start = time.perf_counter()
    failures = []
    for k in (2, 3, 4):
        for n in range(1, 7):
            for eps in (0.5, 1.0, 2.0):
                if eps * n <= 1.0:
                    continue
                report = audit_subrr_pure(k, n, eps)
                ratio = math.exp(report.measured)
                eps0 = KARY_CALIBRATIONS["sub"].eps0(eps, None, n)
                intermediate = 1.0 + math.exp(eps0) / n  # = 1 + eps
                if ratio > intermediate + 1e-12:
                    failures.append(f"k={k} n={n} eps={eps}: ratio {ratio} > {intermediate}")
                if intermediate > math.exp(eps) + 1e-12:
                    failures.append(f"k={k} n={n} eps={eps}: 1+eps > e^eps")
    record(4, "exhaustive subsampled-RR ratio <= 1 + e^eps0/n <= e^eps", failures, start, 10.0)


def test_criterion_05_subrr_accuracy_exact():
    start = time.perf_counter()
    failures = []
    for k, alpha, eps in itertools.product((2, 3, 5), (0.05, 0.1, 0.3), (0.5, 1.0, 2.0)):
        n = KARY_CALIBRATIONS["sub"].complexity("single", k, alpha, eps).n_required
        weight = (k - 1) / (k - 1 + eps * n)
        if weight > alpha + 1e-12:
            failures.append(f"k={k} alpha={alpha} eps={eps}: weight {weight} > {alpha}")
    gen = np.random.default_rng(2024)
    for trial in range(100):
        k = int(gen.integers(2, 6))
        alpha = float(gen.uniform(0.02, 0.5))
        eps = float(gen.uniform(0.2, 3.0))
        n = KARY_CALIBRATIONS["sub"].complexity("single", k, alpha, eps).n_required
        dist = validate_categorical(gen.dirichlet(np.ones(k)))
        params = RRParams(eps0=KARY_CALIBRATIONS["sub"].eps0(eps, None, n), k=k)
        rows = np.stack([rr_row(x, params) for x in range(1, k + 1)])
        averaged = validate_categorical(dist.probs @ rows)
        tv = tv_distance_finite(averaged, dist)
        if tv > alpha + 1e-12:
            failures.append(f"trial {trial}: TV {tv} > alpha {alpha}")
    record(5, "subsampled-RR mixture weight and exact averaged-law TV <= alpha",
           failures, start, 10.0)


def test_criterion_06_shurr_privacy_chain():
    start = time.perf_counter()
    failures = []
    # alpha and m are free in this criterion; fixed at 0.1 and 1 (the chain
    # bound holds for every n at which the local parameter is defined)
    for eps, delta, k in itertools.product(
        (0.1, 0.5, 1.0, 2.0, 4.0), (1e-6, 1e-8), (2, 10, 100)
    ):
        n = 2 * shurr_weak_complexity(k, 0.1, eps, delta, 1).n_required
        eps1 = fmt_eps1(shurr_eps0(eps, delta, n), delta, n, k)
        if eps1 > eps + 1e-12:
            failures.append(f"eps={eps} delta={delta} k={k}: eps1 {eps1} > eps")
    record(6, "shuffling amplification chain: eps1 <= eps on the full grid",
           failures, start, 10.0)


def test_criterion_07_shurr_accuracy_monte_carlo():
    start = time.perf_counter()
    failures = []
    k, alpha, eps, delta = 3, 0.3, 4.0, 0.05
    n = shurr_weak_complexity(k, alpha, eps, delta, 1).n_required
    eps0 = shurr_eps0(eps, delta, n)
    weight = (k - 1) / (k - 1 + math.exp(eps0))
    if weight > alpha + 1e-12:
        failures.append(f"mixture weight {weight} > alpha {alpha}")

    target = validate_categorical([0.5, 0.3, 0.2])
    cum = np.cumsum(target.probs)
    runs = 10**5
    rng = RandomSource(7007)
    gen_data = np.random.default_rng(7008)
    counts = np.zeros(k, dtype=np.int64)
    for _ in range(runs):
        values = np.searchsorted(cum, gen_data.random(n)) + 1
        out = shurr_run(KaryDataset(values=values, k=k), eps, delta, 1, rng)
        counts[out[0] - 1] += 1

    empirical = validate_categorical(counts / runs)
    tv = tv_distance_finite(empirical, target)
    boot_gen = np.random.default_rng(7009)
    boot = np.empty(200)
    for i in range(200):
        resampled = boot_gen.multinomial(runs, counts / runs)
        boot[i] = tv_distance_finite(validate_categorical(resampled / runs), target)
    lo, hi = np.quantile(boot, [0.025, 0.975])
    halfwidth = 0.5 * float(hi - lo)
    if tv > alpha + 3.0 * halfwidth:
        failures.append(f"marginal TV {tv:.4f} > alpha {alpha} + 3*{halfwidth:.4f}")
    record(7, f"shuffled-RR position-1 marginal TV <= alpha + 3 halfwidths "
              f"(k=3, n={n}, 1e5 runs)", failures, start, 60.0)


def test_criterion_08_zcdp_identities():
    start = time.perf_counter()
    failures = []
    orders = (1.5, 2.0, 4.0, 16.0)
    known = GAUSSIAN_CALIBRATIONS["zcdp-known"]
    for d, R, alpha, eps in itertools.product(
        (1, 4, 16), (0.5, 1.0, 2.0), (0.01, 0.1), (0.5, 1.0, 2.0)
    ):
        n = known.complexity(d, R, alpha, eps).n_required
        B = known.clip_bound(d, R, alpha)
        delta_norm = 2.0 * B / n
        sigma = math.sqrt((n - 1) / n)
        for lam in orders:
            renyi = lam * delta_norm**2 / (2.0 * sigma**2)
            if renyi > lam * eps**2 / 2.0 + 1e-12:
                failures.append(f"d={d} R={R} alpha={alpha} eps={eps} lam={lam}")
        sigma_eq = delta_norm / eps
        for lam in orders:
            gap = abs(lam * delta_norm**2 / (2.0 * sigma_eq**2) - lam * eps**2 / 2.0)
            if gap > 1e-9:
                failures.append(f"equality gap {gap} at d={d} eps={eps} lam={lam}")
    record(8, "known-covariance zCDP Renyi bound holds; equality at sigma = delta/eps",
           failures, start, 10.0)


def test_criterion_09_bounded_cov_structure():
    # the raw mechanism: the criterion states the output structure at any
    # sigma2 and unclipped rows, here sigma2 = 0.25 and B = 1e6, which no
    # calibration entry gives at n = 12
    start = time.perf_counter()
    failures = []
    d, q, runs = 2, 4, 10**5
    mu = np.array([0.5, -0.25])
    cov = np.array([[1.0, 0.3], [0.3, 0.5]])
    sigma2 = 0.25
    chol = np.linalg.cholesky(cov)
    gen = np.random.default_rng(909)
    rng = RandomSource(910)
    outs = np.empty((runs, d))
    for i in range(runs):
        rows = mu + gen.standard_normal((3 * q, d)) @ chol.T
        outs[i] = _bounded_cov_mechanism(
            VectorDataset(rows=rows), B=1e6, sigma2=sigma2, rng=rng.child(i)
        )
    expected_cov = sigma2 * np.eye(d) + cov
    mean_band = 5.0 * np.sqrt(np.diag(expected_cov) / runs)
    for j in range(d):
        if abs(outs[:, j].mean() - mu[j]) > mean_band[j]:
            failures.append(f"mean coord {j}: {outs[:, j].mean()} vs {mu[j]}")
    sample_cov = np.cov(outs.T)
    for i in range(d):
        for j in range(d):
            band = 5.0 * math.sqrt(
                (expected_cov[i, i] * expected_cov[j, j] + expected_cov[i, j] ** 2) / runs
            )
            if abs(sample_cov[i, j] - expected_cov[i, j]) > band:
                failures.append(f"cov[{i},{j}]: {sample_cov[i, j]} vs {expected_cov[i, j]}")
    record(9, "bounded-covariance sampler: mean mu, covariance sigma2*I + Sigma (1e5 runs)",
           failures, start, 60.0)


def test_criterion_10_pure_gaussian_sampler(monkeypatch):
    start = time.perf_counter()
    failures = []

    # (a) ELap noise zeroed: exactly N(clipped mean, ((n-1)/n) I)
    monkeypatch.setattr(
        dpsampler.gaussian, "elap_sample", lambda params, rng, size=None: np.zeros(params.d)
    )
    gen = np.random.default_rng(111)
    d, n, runs = 2, 8, 10**5
    params = PureGaussianSamplerParams(R=1.0, d=d, alpha=0.1, eps=1.0)
    rows = gen.standard_normal((n, d))
    norms = np.linalg.norm(rows, axis=1)
    clipped = rows * np.minimum(params.B / norms, 1.0)[:, None]
    data = VectorDataset(rows=rows)
    rng = RandomSource(112)
    outs = np.array([pure_gaussian_sample(data, params, rng.child(i)) for i in range(runs)])
    monkeypatch.undo()
    sigma2 = (n - 1) / n
    mean_band = 5.0 * math.sqrt(sigma2 / runs)
    if np.any(np.abs(outs.mean(axis=0) - clipped.mean(axis=0)) > mean_band):
        failures.append("(a) zeroed-noise mean off")
    var_band = 5.0 * sigma2 * math.sqrt(2.0 / (runs - 1))
    if np.any(np.abs(outs.var(axis=0, ddof=1) - sigma2) > var_band):
        failures.append("(a) zeroed-noise variance off")

    # (b) full sampler, d=1, alpha=0.01, eps free (=4), n = 10x complexity;
    # binned TV against N(mu, 1) within the generous 0.15 envelope
    alpha, eps, mu, runs_b = 0.01, 4.0, 0.3, 10**5
    n_required = GAUSSIAN_CALIBRATIONS["pure"].complexity(1, 1.0, alpha, eps).n_required
    n_b = 10 * n_required
    params_b = PureGaussianSamplerParams(R=1.0, d=1, alpha=alpha, eps=eps)
    gen_b = np.random.default_rng(113)
    rng_b = RandomSource(114)
    outs_b = np.empty(runs_b)
    for i in range(runs_b):
        data_b = VectorDataset(rows=gen_b.normal(mu, 1.0, size=(n_b, 1)))
        outs_b[i] = pure_gaussian_sample(data_b, params_b, rng_b.child(i))[0]
    edges = np.linspace(mu - 5.0, mu + 5.0, 101)
    observed = np.histogram(outs_b, bins=edges)[0] / runs_b
    cdf = normal_cdf(edges - mu)
    expected = np.diff(cdf)
    tv_binned = 0.5 * (np.abs(observed - expected).sum() + (1.0 - expected.sum()))
    if tv_binned > 0.15:
        failures.append(f"(b) binned TV {tv_binned:.4f} > 0.15 at n={n_b}")

    # (c) density-ratio audit of the underlying noisy-sum mechanism passes the
    # realized-shift bound
    for seed in (115, 116, 117):
        report = audit_elap_mechanism(2, 2.0, 1.0, 4000, RandomSource(seed))
        if report.verdict != "pass":
            failures.append(f"(c) audit failed at seed {seed}")
    record(10, "pure-DP Gaussian sampler: zeroed-noise moments, binned TV envelope, ratio audit",
           failures, start, 300.0)


def test_criterion_11_combinator_formula_equalities():
    start = time.perf_counter()
    failures = []
    for k, alpha, eps, m in itertools.product(
        (2, 5, 10), (0.05, 0.2, 0.4), (0.5, 1.0, 2.0), (1, 3, 10, 50)
    ):
        spec = subrr_sampler(k, alpha=alpha, eps=eps)
        composed = strong_both_complexity(spec, m, alpha)
        direct = m * KARY_CALIBRATIONS["sub"].complexity("single", k, alpha / m, eps).n_required
        if composed != direct:
            failures.append(f"strong-via-both k={k} alpha={alpha} eps={eps} m={m}")
    for k, alpha, eps, delta, m in itertools.product(
        (2, 10), (0.05, 0.3), (0.5, 2.0), (1e-6, 1e-8), (1, 7, 40)
    ):
        strong = KARY_CALIBRATIONS["shuffle"].complexity(
            "strong", k, alpha, eps, delta, m).n_required
        weak = shurr_weak_complexity(k, alpha / m, eps, delta, m).n_required
        if strong != weak:
            failures.append(f"shuffled strong k={k} alpha={alpha} eps={eps} m={m}")
    record(11, "strong = m * single(alpha/m) and strong = weak(alpha/m), exactly",
           failures, start, 10.0)


def test_criterion_12_divergence_suite():
    start = time.perf_counter()
    failures = []
    gen = np.random.default_rng(121)

    def event_sup(p, q, beta):
        best = 0.0
        for bits in itertools.product([0, 1], repeat=p.k):
            mask = np.array(bits, dtype=bool)
            best = max(best, p.probs[mask].sum() - beta * q.probs[mask].sum())
        return best

    for k in range(2, 13):
        for _ in range(5):
            p = validate_categorical(gen.dirichlet(np.ones(k)))
            q = validate_categorical(gen.dirichlet(np.ones(k)))
            if abs(tv_distance_finite(p, q) - event_sup(p, q, 1.0)) > 1e-12:
                failures.append(f"TV event-sup mismatch at k={k}")
            beta = float(gen.uniform(1.0, 3.0))
            if abs(hockey_stick_finite(p, q, beta) - event_sup(p, q, beta)) > 1e-12:
                failures.append(f"HS event-sup mismatch at k={k}")
    for _ in range(1000):
        k = int(gen.integers(2, 7))
        p = validate_categorical(gen.dirichlet(np.ones(k)))
        q = validate_categorical(gen.dirichlet(np.ones(k)))
        eps = float(gen.uniform(0.0, 2.0))
        delta = eps_delta_closeness(p, q, eps).delta_at_eps
        if tv_distance_finite(p, q) > hs_to_tv_bound(eps, min(delta, 1 - 1e-9)) + 1e-12:
            failures.append("closeness-to-TV bound violated")
    record(12, "event-sup equivalence (k<=12) and closeness-to-TV bound (1e3 triples)",
           failures, start, 60.0)
