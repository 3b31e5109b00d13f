import concurrent.futures
import gc
import inspect
import math
import sys
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from helpers import ks_critical, ks_statistic

import dpsampler.gaussian
from dpsampler.audit import audit_elap_mechanism, audit_zcdp_gaussian
from dpsampler.core import RandomSource, VectorDataset
from dpsampler.elap import ELapParams, GammaParams, elap_sample, gamma_exact_tail
from dpsampler.errors import BadSplit, InsufficientData, ValidationError
from dpsampler.gaussian import (
    GAUSSIAN_CALIBRATIONS,
    PureGaussianSamplerParams,
    _STATS,
    _bounded_cov_mechanism,
    _clip_rows,
    bounded_cov_clip_bound,
    gaussian_calibration,
    known_cov_clip_bound,
    pure_gaussian_sample,
    pure_sample_complexity,
    zcdp_bounded_cov_complexity,
    zcdp_bounded_cov_sample,
    zcdp_known_cov_complexity,
    zcdp_known_cov_sample,
)


class TestClipToBall:
    """`_clip_rows` projects each row onto the l2 ball of radius B."""

    def test_identity_inside(self):
        x = np.array([[0.5, -0.5]])
        assert np.array_equal(_clip_rows(x, 2.0), x)

    def test_scales_outside(self):
        np.testing.assert_allclose(_clip_rows(np.array([[3.0, 4.0]]), 2.5), [[1.5, 2.0]])

    def test_zero_vector(self):
        assert np.array_equal(_clip_rows(np.zeros((1, 3)), 1.0), np.zeros((1, 3)))

    def test_huge_rows_clip_to_the_sphere(self):
        # squaring 1e155 overflows to inf, which used to scale the row to 0
        rows = np.array([[1e155], [0.5], [-3e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _clip_rows(rows, 2.0).tolist() == [[2.0], [0.5], [-2.0]]
            wide = _clip_rows(np.array([[3e200, -4e200], [3.0, 4.0]]), 2.5)
        np.testing.assert_allclose(wide, [[1.5, -2.0], [1.5, 2.0]], rtol=1e-15)

    def test_idempotent_and_bounded(self):
        gen = np.random.default_rng(61)
        for _ in range(200):
            d = int(gen.integers(1, 6))
            x = gen.standard_normal((1, d)) * gen.uniform(0.1, 10.0)
            B = float(gen.uniform(0.1, 5.0))
            once = _clip_rows(x, B)
            assert np.linalg.norm(once) <= B + 1e-12
            np.testing.assert_allclose(_clip_rows(once, B), once, atol=1e-15)


class TestElapMechanism:
    """The pure sampler's privacy noise: ELap at the pure entry's scale b = B/eps."""

    def test_vanishing_noise_limit(self):
        b = GAUSSIAN_CALIBRATIONS["pure"].elap_scale(1.0, 1e9)
        noise = elap_sample(ELapParams(d=3, b=b), RandomSource(2))
        assert np.linalg.norm(noise) < 1e-6

    def test_noise_norm_is_gamma(self):
        d, B, eps = 3, 2.0, 1.0
        b = GAUSSIAN_CALIBRATIONS["pure"].elap_scale(B, eps)
        outs = elap_sample(ELapParams(d=d, b=b), RandomSource(63), size=100_000)
        norms = np.linalg.norm(outs, axis=1)
        gamma = GammaParams(shape=float(d), rate=eps / B)
        stat = ks_statistic(norms, lambda xs: 1.0 - gamma_exact_tail(gamma, xs))
        assert stat < ks_critical(norms.size, 1e-3)

    def test_log_density_ratio_bounded_by_shift(self):
        # closed-form output log-density ratio between neighbors is
        # (||y - S'|| - ||y - S||)/b <= eps * ||S - S'|| / B
        gen = np.random.default_rng(64)
        for _ in range(50):
            d = int(gen.integers(1, 4))
            B = float(gen.uniform(0.5, 3.0))
            eps = float(gen.uniform(0.2, 3.0))
            b = B / eps
            rows = gen.standard_normal((5, d))
            rows = _clip_rows(rows, B)
            replaced = _clip_rows(gen.standard_normal((1, d)), B)[0]
            sum_a = rows.sum(axis=0)
            sum_b = sum_a - rows[0] + replaced
            probe = gen.standard_normal((200, d)) * 3.0 * b
            ratios = (
                np.linalg.norm(probe - sum_b, axis=1) - np.linalg.norm(probe - sum_a, axis=1)
            ) / b
            bound = eps * np.linalg.norm(sum_a - sum_b) / B
            assert np.abs(ratios).max() <= bound + 1e-9


class TestPureGaussianSampler:
    def test_too_few_samples(self):
        params = PureGaussianSamplerParams(R=1.0, d=1, alpha=0.1, eps=1.0)
        with pytest.raises(InsufficientData):
            pure_gaussian_sample(VectorDataset(rows=[[0.0]]), params, RandomSource(3))

    def test_noise_hook_zeroed_moments(self, monkeypatch):
        # with eta forced to 0 the output is exactly N(clipped mean, ((n-1)/n) I)
        monkeypatch.setattr(
            dpsampler.gaussian, "elap_sample", lambda params, rng, size=None: np.zeros(params.d)
        )
        gen = np.random.default_rng(65)
        d, n, runs = 2, 8, 40_000
        params = PureGaussianSamplerParams(R=1.0, d=d, alpha=0.1, eps=1.0)
        rows = gen.standard_normal((n, d))
        clipped_mean = _clip_rows(rows, params.B).mean(axis=0)
        data = VectorDataset(rows=rows)
        rng = RandomSource(66)
        outs = np.array([pure_gaussian_sample(data, params, rng.child(i)) for i in range(runs)])
        sigma2 = (n - 1) / n
        mean_band = 5.0 * math.sqrt(sigma2 / runs)
        assert np.all(np.abs(outs.mean(axis=0) - clipped_mean) < mean_band)
        var_band = 5.0 * sigma2 * math.sqrt(2.0 / (runs - 1))
        assert np.all(np.abs(outs.var(axis=0, ddof=1) - sigma2) < var_band)

    def test_deterministic_replay(self):
        gen = np.random.default_rng(69)
        params = PureGaussianSamplerParams(R=1.0, d=3, alpha=0.1, eps=1.0)
        data = VectorDataset(rows=gen.standard_normal((10, 3)))
        a = pure_gaussian_sample(data, params, RandomSource(99))
        b = pure_gaussian_sample(data, params, RandomSource(99))
        assert np.array_equal(a, b)

    def test_output_mean_tracks_distribution_mean(self):
        gen = np.random.default_rng(67)
        d, mu, runs = 1, 0.4, 20_000
        params = PureGaussianSamplerParams(R=1.0, d=d, alpha=0.1, eps=2.0)
        n = pure_sample_complexity(d, 1.0, 0.1, 2.0).n_required
        rng = RandomSource(68)
        outs = np.empty(runs)
        for i in range(runs):
            data = VectorDataset(rows=gen.normal(mu, 1.0, size=(n, d)))
            outs[i] = pure_gaussian_sample(data, params, rng.child(i))[0]
        # output variance is ~1 plus noise terms; clipping bias is below alpha-tail mass
        band = 5.0 * outs.std(ddof=1) / math.sqrt(runs) + 0.01
        assert abs(outs.mean() - mu) < band


class TestPureComplexity:
    def test_frozen_value(self):
        report = pure_sample_complexity(1, 1.0, 0.1, 1.0)
        assert report.n_required == 214
        assert report.inputs["B"] == pytest.approx(4.03485425877, abs=1e-9)
        assert set(report.inputs) == {"d", "R", "alpha", "eps", "B"}

    def test_monotone(self):
        base = pure_sample_complexity(2, 1.0, 0.1, 1.0).n_required
        assert pure_sample_complexity(3, 1.0, 0.1, 1.0).n_required >= base
        assert pure_sample_complexity(2, 2.0, 0.1, 1.0).n_required >= base
        assert pure_sample_complexity(2, 1.0, 0.05, 1.0).n_required >= base
        assert pure_sample_complexity(2, 1.0, 0.1, 0.5).n_required >= base


class TestZcdpKnownCov:
    def test_renyi_bound_at_complexity(self):
        for d, R, alpha, eps in [(1, 1.0, 0.1, 1.0), (4, 2.0, 0.05, 0.5), (16, 1.0, 0.01, 2.0)]:
            report = audit_zcdp_gaussian("zcdp-known", d, R, alpha, eps)
            assert report.verdict == "pass", (d, R, alpha, eps)
            assert report.witness["n"] == zcdp_known_cov_complexity(d, R, alpha, eps).n_required
            for order in (1.5, 2.0, 4.0, 16.0):
                divergence = _gaussian_renyi(
                    report.witness["sensitivity"], report.witness["sigma"], order
                )
                assert divergence <= order * eps**2 / 2 + 1e-12

    def test_too_few_samples(self):
        data = VectorDataset(rows=np.zeros((3, 1)))
        with pytest.raises(InsufficientData):
            zcdp_known_cov_sample(data, R=1.0, alpha=0.1, eps=1.0, rng=RandomSource(5))

    def test_no_clipping_moments(self):
        # all rows well inside B: the output is the mean plus the replayed noise
        gen = np.random.default_rng(70)
        n, d = 20, 2
        rows = 0.1 * gen.standard_normal((n, d))
        data = VectorDataset(rows=rows)
        out = zcdp_known_cov_sample(data, R=10.0, alpha=0.1, eps=10.0, rng=RandomSource(6))
        noise = math.sqrt((n - 1) / n) * RandomSource(6).generator.standard_normal(d)
        np.testing.assert_allclose(out, rows.mean(axis=0) + noise, rtol=0, atol=1e-12)

    def test_unit_output_variance_d1(self):
        # data ~ N(mu, 1), no clipping: output variance = (n-1)/n + 1/n = 1
        gen = np.random.default_rng(71)
        runs, mu = 40_000, 0.3
        n = zcdp_known_cov_complexity(1, 1.0, 0.1, 1.0).n_required
        rng = RandomSource(72)
        outs = np.empty(runs)
        for i in range(runs):
            data = VectorDataset(rows=gen.normal(mu, 1.0, size=(n, 1)))
            outs[i] = zcdp_known_cov_sample(data, R=1.0, alpha=0.1, eps=1.0, rng=rng.child(i))[0]
        band = 5.0 * math.sqrt(2.0 / (runs - 1))
        assert abs(outs.var(ddof=1) - 1.0) < band
        assert abs(outs.mean() - mu) < 5.0 / math.sqrt(runs) + 0.01

    def test_complexity_frozen_and_boundary(self):
        report = zcdp_known_cov_complexity(1, 1.0, 0.1, 1.0)
        assert report.n_required == 8
        B = known_cov_clip_bound(1, 1.0, 0.1)

        def ok(n):
            return 2.0 * B / (1.0 * n) <= math.sqrt((n - 1) / n)

        assert ok(8) and not ok(7)

    def test_complexity_floor_at_huge_eps(self):
        assert zcdp_known_cov_complexity(1, 1.0, 0.1, 1e9).n_required == 2

    def test_complexity_scales_linearly_in_R(self):
        n1 = zcdp_known_cov_complexity(1, 100.0, 0.1, 1.0).n_required
        n2 = zcdp_known_cov_complexity(1, 200.0, 0.1, 1.0).n_required
        assert 1.8 < n2 / n1 < 2.2


class TestZcdpBoundedCov:
    def test_n1_equal_one_returns_first_row(self):
        # the raw mechanism: no calibration gives sigma2 = 1e-12, nor backs n = 3
        data = VectorDataset(rows=[[1.0, 2.0], [5.0, 5.0], [-4.0, 3.0]])
        out = _bounded_cov_mechanism(data, B=100.0, sigma2=1e-12, rng=RandomSource(7))
        noise = math.sqrt(1e-12) * RandomSource(7).generator.standard_normal(2)
        np.testing.assert_allclose(out, np.array([1.0, 2.0]) + noise, rtol=0, atol=1e-12)

    def test_bad_split(self):
        # eps = 100 takes n >= 3, so 4 rows pass the refusal and reach the split
        data = VectorDataset(rows=np.zeros((4, 2)))
        with pytest.raises(BadSplit):
            zcdp_bounded_cov_sample(data, R=1.0, alpha=0.1, eps=100.0, rng=RandomSource(8))

    def test_moments_match_structure(self):
        # no clipping at B = R + 2.35, inputs N(mu, Sigma): mean mu, covariance
        # sigma2*I + Sigma; eps = 1000 takes n >= 3, so 12 rows pass the refusal
        gen = np.random.default_rng(73)
        runs, q, d = 40_000, 4, 2
        R, alpha, eps = 100.0, 0.5, 1000.0
        mu = np.array([0.5, -0.25])
        cov = np.array([[1.0, 0.3], [0.3, 0.5]])
        sigma2 = GAUSSIAN_CALIBRATIONS["zcdp-bounded"].sigma2(d, alpha, 3 * q)
        chol = np.linalg.cholesky(cov)
        rng = RandomSource(74)
        outs = np.empty((runs, d))
        for i in range(runs):
            rows = mu + gen.standard_normal((3 * q, d)) @ chol.T
            outs[i] = zcdp_bounded_cov_sample(
                VectorDataset(rows=rows), R=R, alpha=alpha, eps=eps, rng=rng.child(i)
            )
        expected_cov = sigma2 * np.eye(d) + cov
        mean_band = 5.0 * np.sqrt(np.diag(expected_cov) / runs)
        assert np.all(np.abs(outs.mean(axis=0) - mu) < mean_band)
        sample_cov = np.cov(outs.T)
        for i in range(d):
            for j in range(d):
                band = 5.0 * math.sqrt(
                    (expected_cov[i, i] * expected_cov[j, j] + expected_cov[i, j] ** 2) / runs
                )
                assert abs(sample_cov[i, j] - expected_cov[i, j]) < band

    def test_realized_sensitivity_below_direct_max(self):
        gen = np.random.default_rng(75)
        q, d, B = 3, 2, 1.5
        bound = GAUSSIAN_CALIBRATIONS["zcdp-bounded"].sensitivity(B, 3 * q)

        def statistic(rows):
            clipped = _clip_rows(rows, B)
            mean_part = clipped[:q].sum(axis=0) / q
            pairs = clipped[q:].reshape(q, 2, d)
            return mean_part + math.sqrt((1 - 1 / q) / (2 * q)) * (
                pairs[:, 0] - pairs[:, 1]
            ).sum(axis=0)

        worst = 0.0
        for _ in range(200):
            rows = gen.standard_normal((3 * q, d)) * 2.0
            idx = int(gen.integers(0, 3 * q))
            replaced = rows.copy()
            replaced[idx] = gen.standard_normal(d) * 2.0
            worst = max(worst, float(np.linalg.norm(statistic(rows) - statistic(replaced))))
            assert worst <= bound + 1e-12
        # the bound is attained by flipping a difference-block row across the ball
        rows = np.zeros((3 * q, d))
        rows[q] = [B, 0.0]
        replaced = rows.copy()
        replaced[q] = [-B, 0.0]
        attained = float(np.linalg.norm(statistic(rows) - statistic(replaced)))
        assert attained == pytest.approx(bound, rel=1e-12)

    def test_complexity_example(self):
        d, alpha, eps = 4, 0.1, 1.0
        R = 10.0 - math.sqrt(2.0 * d * math.log(2.0 / alpha))
        report = zcdp_bounded_cov_complexity(d, R, alpha, eps)
        assert report.inputs["B"] == pytest.approx(10.0, abs=1e-12)
        assert report.n_required == 8000

    def test_complexity_quadratic_in_B(self):
        d, alpha, eps = 4, 0.1, 1.0
        tail = math.sqrt(2.0 * d * math.log(2.0 / alpha))
        n1 = zcdp_bounded_cov_complexity(d, 10.0 - tail, alpha, eps).n_required
        n2 = zcdp_bounded_cov_complexity(d, 20.0 - tail, alpha, eps).n_required
        assert n2 == 4 * n1

    def test_complexity_d_scaling(self):
        # with R negligible, n ~ sqrt(d) * B^2 ~ d^(3/2) up to the log factor
        n1 = zcdp_bounded_cov_complexity(64, 1e-9, 0.1, 1.0).n_required
        n2 = zcdp_bounded_cov_complexity(128, 1e-9, 0.1, 1.0).n_required
        assert 2.5 < n2 / n1 < 3.1


class TestClippedStatMemo:
    """Each sampler's pre-noise statistic is computed once per (dataset, sampler, B)."""

    @staticmethod
    def _data(seed: int, n: int = 30, d: int = 2) -> VectorDataset:
        return VectorDataset(rows=3.0 * np.random.default_rng(seed).standard_normal((n, d)))

    def test_two_tolerances_give_two_entries_equal_to_fresh_computations(self):
        data = self._data(1)
        for alpha in (0.1, 0.01):
            params = PureGaussianSamplerParams(R=1.0, d=2, alpha=alpha, eps=1.0)
            pure_gaussian_sample(data, params, RandomSource(2))
            zcdp_known_cov_sample(data, R=1.0, alpha=alpha, eps=1.0, rng=RandomSource(3))
            # eps = 100 takes n >= 3 at both tolerances, so the 30 rows are released
            zcdp_bounded_cov_sample(data, R=1.0, alpha=alpha, eps=100.0, rng=RandomSource(4))
        stats = _STATS[data]
        assert len(stats) == 6
        for alpha in (0.1, 0.01):
            B = PureGaussianSamplerParams(R=1.0, d=2, alpha=alpha, eps=1.0).B
            assert np.array_equal(stats[("pure", B)], _clip_rows(data.rows, B).sum(axis=0))
            B = known_cov_clip_bound(2, 1.0, alpha)
            assert np.array_equal(stats[("zcdp-known", B)], _clip_rows(data.rows, B).mean(axis=0))
            B = bounded_cov_clip_bound(2, 1.0, alpha)
            clipped = _clip_rows(data.rows, B)
            pairs = clipped[10:].reshape(10, 2, 2)
            mean_part, diff_part = stats[("zcdp-bounded", B)]
            assert np.array_equal(mean_part, clipped[:10].sum(axis=0) / 10)
            assert np.array_equal(
                diff_part,
                math.sqrt((1 - 1 / 10) / 20) * (pairs[:, 0, :] - pairs[:, 1, :]).sum(axis=0),
            )

    def test_repeated_calls_clip_once(self, monkeypatch):
        calls = []

        def counting_clip_rows(rows, B):
            calls.append(B)
            return _clip_rows(rows, B)

        monkeypatch.setattr(dpsampler.gaussian, "_clip_rows", counting_clip_rows)
        data = self._data(5)
        params = PureGaussianSamplerParams(R=1.0, d=2, alpha=0.1, eps=1.0)
        for i in range(5):
            pure_gaussian_sample(data, params, RandomSource(6).child(i))
        assert calls == [params.B]

    def test_entry_is_a_d_vector_and_dies_with_its_dataset(self):
        gc.collect()
        before = len(_STATS)
        data = self._data(7, n=300, d=4)
        pure_gaussian_sample(
            data, PureGaussianSamplerParams(R=1.0, d=4, alpha=0.1, eps=1.0), RandomSource(8)
        )
        (stat,) = _STATS[data].values()
        assert stat.shape == (4,)
        assert len(_STATS) == before + 1
        del data, stat
        gc.collect()
        assert len(_STATS) == before

    def test_threads_sharing_datasets_get_the_serial_outputs(self):
        # a race may compute one statistic twice, never store a different one
        params = PureGaussianSamplerParams(R=1.0, d=2, alpha=0.1, eps=1.0)
        rows = [3.0 * np.random.default_rng(s).standard_normal((200, 2)) for s in range(4)]

        def releases(shared):
            out = []
            for i in range(40):
                data = shared[i % 4] if shared else VectorDataset(rows=rows[i % 4])
                out.append(pure_gaussian_sample(data, params, RandomSource(12).child(i)))
            return np.array(out)

        expected = releases(None)
        shared = [VectorDataset(rows=r) for r in rows]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(releases, shared if t % 2 else None) for t in range(8)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for result in results:
            assert np.array_equal(result, expected)

    @pytest.mark.parametrize("B", [-1.0, 0.0, math.nan, math.inf])
    def test_bounded_sampler_refuses_bad_B_before_the_memo(self, B):
        # the raw mechanism: the memo is keyed by B, and the public sampler
        # derives B from a checked R, so only here can a bad B arrive
        data = self._data(9)
        with pytest.raises(ValidationError, match="B must be finite and positive"):
            _bounded_cov_mechanism(data, B, 0.1, RandomSource(10))
        assert data not in _STATS


class TestZcdpValidation:
    @pytest.mark.parametrize("B", [-1.0, 0.0, math.nan, math.inf])
    def test_bounded_sensitivity_refuses_bad_B(self, B):
        with pytest.raises(ValidationError):
            GAUSSIAN_CALIBRATIONS["zcdp-bounded"].sensitivity(B, 9)

    @pytest.mark.parametrize("clip_bound", [known_cov_clip_bound, bounded_cov_clip_bound])
    @pytest.mark.parametrize("d, R", [(0, 1.0), (2, -10.0), (2, 0.0), (2, math.nan), (2, math.inf)])
    def test_clip_bounds_refuse_bad_d_and_R(self, clip_bound, d, R):
        with pytest.raises(ValidationError):
            clip_bound(d, R, 0.1)

    @pytest.mark.parametrize("eps", [-1.0, 0.0, math.nan, math.inf])
    def test_known_sampler_refuses_bad_eps(self, eps):
        data = VectorDataset(rows=np.ones((30, 2)))
        with pytest.raises(ValidationError, match="eps must be finite and positive"):
            zcdp_known_cov_sample(data, R=1.0, alpha=0.1, eps=eps, rng=RandomSource(11))


class TestNonFiniteParameters:
    """Each Gaussian parameter check names the parameter it refuses, inf included."""

    BAD = [math.inf, -1.0, 0.0, math.nan]

    @pytest.mark.parametrize("value", BAD)
    @pytest.mark.parametrize("name", ["R", "eps"])
    def test_pure_sampler_params(self, name, value):
        kwargs = {"R": 1.0, "d": 2, "alpha": 0.1, "eps": 1.0, name: value}
        with pytest.raises(ValidationError, match=f"^{name} must be finite and positive"):
            PureGaussianSamplerParams(**kwargs)

    @pytest.mark.parametrize("value", BAD)
    @pytest.mark.parametrize("name", ["B", "eps"])
    def test_elap_mechanism_params(self, name, value):
        kwargs = {"B": 1.0, "eps": 1.0, name: value}
        with pytest.raises(ValidationError, match=f"^{name} must be finite and positive"):
            audit_elap_mechanism(2, probes=1000, rng=RandomSource(0), **kwargs)

    @pytest.mark.parametrize("complexity", [
        pure_sample_complexity, zcdp_known_cov_complexity, zcdp_bounded_cov_complexity,
    ])
    @pytest.mark.parametrize("eps", BAD)
    def test_complexities_refuse_bad_eps(self, complexity, eps):
        with pytest.raises(ValidationError, match="^eps must be finite and positive"):
            complexity(2, 1.0, 0.1, eps)


class TestCalibrationTable:
    def test_zcdp_sensitivities(self):
        assert GAUSSIAN_CALIBRATIONS["zcdp-known"].sensitivity(2.0, 10) == pytest.approx(0.4)
        assert GAUSSIAN_CALIBRATIONS["zcdp-bounded"].sensitivity(2.0, 9) == pytest.approx(
            2.0 * 2.0 * math.sqrt((1 - 1 / 3) / 6.0)
        )
        with pytest.raises(BadSplit):
            GAUSSIAN_CALIBRATIONS["zcdp-bounded"].sensitivity(2.0, 10)

    def test_bounded_rows_round_up_to_the_split(self):
        bounded = GAUSSIAN_CALIBRATIONS["zcdp-bounded"]
        assert [bounded.rows(n) for n in (3, 4, 5, 6, 477)] == [3, 6, 6, 6, 477]

    def test_pure_entry_reads_the_clip_constant(self):
        # the constant is the literal 2 of R + 2 * sqrt(d * ln(1/alpha))
        params = PureGaussianSamplerParams(R=1.0, d=3, alpha=0.1, eps=0.5)
        assert GAUSSIAN_CALIBRATIONS["pure"].clip_bound(3, 1.0, 0.1) == params.B
        assert params.B == 1.0 + 2.0 * math.sqrt(3 * math.log(10.0))
        assert [v for v, cal in GAUSSIAN_CALIBRATIONS.items() if cal.zcdp] == [
            "zcdp-known", "zcdp-bounded"]

    def test_unknown_variant_refused(self):
        with pytest.raises(ValidationError, match="unknown Gaussian variant 'known_cov'"):
            gaussian_calibration("known_cov")

    @pytest.mark.parametrize("variant, field, name", [
        ("pure", "clip_bound", "pure_clip_bound"),
        ("zcdp-known", "clip_bound", "known_cov_clip_bound"),
        ("zcdp-bounded", "clip_bound", "bounded_cov_clip_bound"),
        ("pure", "complexity", "pure_sample_complexity"),
        ("zcdp-known", "complexity", "zcdp_known_cov_complexity"),
        ("zcdp-bounded", "complexity", "zcdp_bounded_cov_complexity"),
    ])
    def test_entries_call_module_functions_by_name(self, monkeypatch, variant, field, name):
        # a function rebound in the module (a tracer's wrapper, say) is what the table calls
        original = getattr(dpsampler.gaussian, name)
        called = []

        def recording(*args):
            called.append(args)
            return original(*args)

        monkeypatch.setattr(dpsampler.gaussian, name, recording)
        args = (2, 1.0, 0.1) if field == "clip_bound" else (2, 1.0, 0.1, 1.0)
        result = getattr(GAUSSIAN_CALIBRATIONS[variant], field)(*args)
        assert called[0] == args
        assert result == original(*args)

    @pytest.mark.parametrize("variant, name", [
        ("zcdp-known", "zcdp_known_cov_sample"), ("zcdp-bounded", "zcdp_bounded_cov_sample")])
    def test_zcdp_releases_call_their_samplers_by_name(self, monkeypatch, variant, name):
        original = getattr(dpsampler.gaussian, name)
        called = []

        def recording(data, **kwargs):
            called.append(kwargs)
            return original(data, **kwargs)

        monkeypatch.setattr(dpsampler.gaussian, name, recording)
        cal = GAUSSIAN_CALIBRATIONS[variant]
        data = VectorDataset(rows=np.zeros((cal.n_per_call(1, 1.0, 0.1, 1.0), 1)))
        rng = RandomSource(15)
        out = cal.release(data, 1.0, 0.1, 1.0, rng)
        assert called == [{"R": 1.0, "alpha": 0.1, "eps": 1.0, "rng": rng}]
        assert np.array_equal(out, original(data, R=1.0, alpha=0.1, eps=1.0,
                                            rng=RandomSource(15)))


ZCDP_SAMPLERS = {"zcdp-known": zcdp_known_cov_sample, "zcdp-bounded": zcdp_bounded_cov_sample}


class TestCalibratedReleases:
    """Each zCDP sampler is its entry's release: refused below n_per_call, released at it."""

    @pytest.mark.parametrize("variant", ZCDP_SAMPLERS)
    def test_signature_is_keyword_only_after_data(self, variant):
        sample = ZCDP_SAMPLERS[variant]
        keyword = inspect.Parameter.KEYWORD_ONLY
        assert [(p.name, p.kind) for p in inspect.signature(sample).parameters.values()] == [
            ("data", inspect.Parameter.POSITIONAL_OR_KEYWORD), ("R", keyword),
            ("alpha", keyword), ("eps", keyword), ("rng", keyword)]
        data = VectorDataset(rows=np.zeros((1200, 2)))
        with pytest.raises(TypeError):
            sample(data, 1.0, 1.0, 0.1, RandomSource(1))  # the 0.9.0 (R, eps, alpha) order

    @pytest.mark.parametrize("variant", ZCDP_SAMPLERS)
    @pytest.mark.parametrize("d, R, alpha, eps", [
        (1, 1.0, 0.1, 1.0), (2, 1.0, 0.1, 1.0), (4, 2.0, 0.05, 0.5)])
    def test_refused_below_n_per_call_and_released_at_it(self, variant, d, R, alpha, eps):
        sample, cal = ZCDP_SAMPLERS[variant], GAUSSIAN_CALIBRATIONS[variant]
        needed = cal.n_per_call(d, R, alpha, eps)
        rows = np.random.default_rng(needed).normal(size=(needed, d))
        with pytest.raises(InsufficientData, match=f"n >= {needed}\\b"):
            sample(VectorDataset(rows=rows[1:]), R=R, alpha=alpha, eps=eps, rng=RandomSource(2))
        data = VectorDataset(rows=rows)
        out = sample(data, R=R, alpha=alpha, eps=eps, rng=RandomSource(3))
        assert out.shape == (d,)
        assert np.array_equal(out, cal.release(data, R, alpha, eps, RandomSource(3)))

    def test_pure_refuses_one_row_and_releases_at_two(self):
        pure = GAUSSIAN_CALIBRATIONS["pure"]
        with pytest.raises(InsufficientData, match="need n >= 2"):
            pure.release(VectorDataset(rows=[[0.5]]), 1.0, 0.1, 1.0, RandomSource(4))
        assert pure.release(VectorDataset(rows=[[0.5], [-0.5]]), 1.0, 0.1, 1.0,
                            RandomSource(4)).shape == (1,)


def _gaussian_renyi(delta_norm: float, sigma: float, order: float) -> float:
    """Reference: Renyi divergence order * delta_norm^2 / (2 sigma^2) of a shifted Gaussian.

    The zCDP audit states rho = Delta^2 / (2 sigma^2), this divergence per unit order.
    """
    return order * delta_norm * delta_norm / (2.0 * sigma * sigma)


class TestGaussianMechRenyi:
    def test_zero_shift(self):
        for order in (1.5, 2.0, 8.0):
            assert _gaussian_renyi(0.0, 1.0, order) == 0.0

    def test_unit_case(self):
        assert _gaussian_renyi(1.0, 1.0, 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_linear_in_order(self):
        v2 = _gaussian_renyi(0.7, 1.3, 2.0)
        v4 = _gaussian_renyi(0.7, 1.3, 4.0)
        assert v4 == pytest.approx(2.0 * v2, rel=1e-12)

    def test_matches_numerical_integration(self):
        # direct quadrature of the order-2 Renyi integral for 1-d Gaussians
        delta, sigma, order = 1.0, 1.0, 2.0

        def integrand(x):
            log_p = -x * x / (2 * sigma**2) - 0.5 * math.log(2 * math.pi * sigma**2)
            log_q = -((x - delta) ** 2) / (2 * sigma**2) - 0.5 * math.log(
                2 * math.pi * sigma**2
            )
            return math.exp(order * log_p + (1 - order) * log_q)

        total, _ = scipy.integrate.quad(integrand, -40, 40)
        numeric = math.log(total) / (order - 1)
        assert _gaussian_renyi(delta, sigma, order) == pytest.approx(numeric, rel=1e-8)

    @pytest.mark.parametrize("variant", ["zcdp-known", "zcdp-bounded"])
    def test_audit_rho_is_the_divergence_per_unit_order(self, variant):
        report = audit_zcdp_gaussian(variant, 2, 1.0, 0.1, 1.0)
        for order in (1.5, 2.0, 16.0):
            divergence = _gaussian_renyi(
                report.witness["sensitivity"], report.witness["sigma"], order
            )
            assert report.measured == pytest.approx(divergence / order, rel=1e-12)
