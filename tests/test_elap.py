import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from helpers import chi2_statistic, ks_critical, ks_statistic

from dpsampler.core import RandomSource
from dpsampler.elap import (
    MIN_SCALE,
    ELapParams,
    GammaParams,
    elap_density,
    elap_log_density,
    elap_sample,
    elap_tail_radius,
    gamma_exact_tail,
    gamma_sample,
    gamma_tail_bound,
)
from dpsampler.errors import (
    DimensionMismatch,
    InvalidAlpha,
    NonIntegerShape,
    PrecisionLimit,
    ValidationError,
)


def radial_density_integral(d: int, b: float) -> float:
    """Quadrature of the full density over R^d, reduced to the radial integral."""
    params = ELapParams(d=d, b=b)

    def integrand(r):
        point = np.zeros(d)
        point[0] = r
        surface = 2.0 * math.pi ** (d / 2.0) * r ** (d - 1) / math.gamma(d / 2.0)
        return elap_density(point, params) * surface

    total, _ = scipy.integrate.quad(integrand, 0.0, np.inf, limit=200)
    return total


class TestLogDensity:
    def test_scalar_laplace_at_origin(self):
        # Gamma(1/2) / (2 sqrt(pi)) = 1/2, the scalar Laplace density at 0
        assert elap_log_density([0.0], ELapParams(d=1, b=1.0)) == pytest.approx(
            math.log(0.5), abs=1e-12
        )

    def test_two_dims_at_origin(self):
        assert elap_log_density([0.0, 0.0], ELapParams(d=2, b=1.0)) == pytest.approx(
            math.log(1.0 / (2.0 * math.pi)), abs=1e-12
        )

    def test_depends_only_on_norm(self):
        params = ELapParams(d=3, b=0.7)
        a = elap_log_density([1.0, 2.0, 2.0], params)
        b = elap_log_density([3.0, 0.0, 0.0], params)
        assert a == pytest.approx(b, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            elap_log_density([0.0, 0.0], ELapParams(d=3, b=1.0))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    def test_normalization(self, d, b):
        assert radial_density_integral(d, b) == pytest.approx(1.0, abs=1e-8)


class TestElapSample:
    def test_norm_is_exponential_in_one_dim(self):
        samples = elap_sample(ELapParams(d=1, b=1.0), RandomSource(100), size=200_000)
        norms = np.abs(samples[:, 0])
        params = GammaParams(shape=1.0, rate=1.0)
        stat = ks_statistic(norms, lambda xs: 1.0 - gamma_exact_tail(params, xs))
        assert stat < ks_critical(norms.size, 1e-3)

    def test_norm_law_d3_b2(self):
        samples = elap_sample(ELapParams(d=3, b=2.0), RandomSource(101), size=200_000)
        norms = np.linalg.norm(samples, axis=1)
        params = GammaParams(shape=3.0, rate=0.5)
        stat = ks_statistic(norms, lambda xs: 1.0 - gamma_exact_tail(params, xs))
        assert stat < ks_critical(norms.size, 1e-3)

    def test_zero_mean_d2(self):
        n = 200_000
        samples = elap_sample(ELapParams(d=2, b=1.0), RandomSource(102), size=n)
        # per-coordinate variance is E[r^2]/2 = d(d+1)b^2/d = (d+1)b^2 = 3
        band = 4.0 * math.sqrt(3.0 / n)
        assert np.all(np.abs(samples.mean(axis=0)) < band)

    def test_angle_uniform_d2(self):
        n = 100_000
        samples = elap_sample(ELapParams(d=2, b=1.0), RandomSource(103), size=n)
        angles = np.arctan2(samples[:, 1], samples[:, 0]) + math.pi
        counts = np.histogram(angles, bins=36, range=(0.0, 2.0 * math.pi))[0]
        stat = chi2_statistic(counts, np.full(36, n / 36))
        assert stat < scipy.stats.chi2.ppf(1.0 - 1e-3, df=35)

    def test_scalar_call_shape(self):
        out = elap_sample(ELapParams(d=4, b=1.0), RandomSource(104))
        assert out.shape == (4,)

    def test_replay(self):
        a = elap_sample(ELapParams(d=2, b=1.0), RandomSource(7), size=10)
        b = elap_sample(ELapParams(d=2, b=1.0), RandomSource(7), size=10)
        assert np.array_equal(a, b)


class TestTailRadius:
    def test_closed_form_values(self):
        assert elap_tail_radius(ELapParams(d=1, b=1.0), 1.0 / math.e) == pytest.approx(
            1.0, abs=1e-12
        )
        assert elap_tail_radius(ELapParams(d=3, b=1.0), 0.1) == pytest.approx(
            3.0 * math.log(30.0), abs=1e-12
        )

    def test_invalid_alpha(self):
        with pytest.raises(InvalidAlpha):
            elap_tail_radius(ELapParams(d=1, b=1.0), 1.5)

    def test_radius_beyond_the_float_range_refused(self):
        with pytest.raises(PrecisionLimit, match="beyond the largest float"):
            elap_tail_radius(ELapParams(d=3, b=1e308), 0.1)

    @pytest.mark.parametrize("d, message", [
        (2.5, "d must be an integer, got 2.5"), (0, "d must be >= 1, got 0")])
    def test_dimension_must_be_a_positive_integer(self, d, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            ELapParams(d=d, b=1.0)

    def test_integral_float_dimension_is_taken(self):
        params = ELapParams(d=2.0, b=1.0)
        assert params == ELapParams(d=2, b=1.0) and isinstance(params.d, int)
        assert np.array_equal(elap_sample(params, RandomSource(8), size=3),
                              elap_sample(ELapParams(d=2, b=1.0), RandomSource(8), size=3))

    @pytest.mark.parametrize("b", [math.inf, math.nan, 0.0, -1.0])
    def test_scale_must_be_finite_and_positive(self, b):
        with pytest.raises(ValidationError, match="^scale must be finite and positive"):
            ELapParams(d=2, b=b)

    @pytest.mark.parametrize("b", [1e-320, math.nextafter(MIN_SCALE, 0.0)])
    def test_scale_whose_rate_overflows_refused(self, b):
        assert 1.0 / b == math.inf
        with pytest.raises(PrecisionLimit,
                           match=rf"^scale must be >= {MIN_SCALE!r}, .* got {b!r}$"):
            ELapParams(d=3, b=b)

    def test_smallest_scale_samples(self):
        assert math.isfinite(1.0 / MIN_SCALE)
        params = ELapParams(d=3, b=MIN_SCALE)
        samples = elap_sample(params, RandomSource(106), size=5)
        assert np.isfinite(samples).all()
        assert elap_tail_radius(params, 0.1) > 0

    def test_empirical_tail_below_alpha(self):
        d, b, alpha = 3, 1.0, 0.1
        radius = elap_tail_radius(ELapParams(d=d, b=b), alpha)
        samples = elap_sample(ELapParams(d=d, b=b), RandomSource(105), size=100_000)
        tail = float((np.linalg.norm(samples, axis=1) > radius).mean())
        assert tail <= alpha

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("alpha", [0.01, 0.1, 0.5])
    def test_exact_tail_at_radius_below_alpha(self, d, b, alpha):
        radius = elap_tail_radius(ELapParams(d=d, b=b), alpha)
        exact = gamma_exact_tail(GammaParams(shape=float(d), rate=1.0 / b), radius)
        assert exact <= alpha


class TestGammaTailBound:
    def test_exponential_case_is_tight(self):
        params = GammaParams(shape=1.0, rate=2.0)
        bound = gamma_tail_bound(params, 1.0)
        assert bound == pytest.approx(math.exp(-2.0), abs=1e-15)
        assert bound == pytest.approx(gamma_exact_tail(params, 1.0), abs=1e-12)

    def test_shape3_dominates_exact(self):
        params = GammaParams(shape=3.0, rate=1.0)
        bound = gamma_tail_bound(params, 9.0)
        assert bound == pytest.approx(3.0 * math.exp(-3.0), abs=1e-12)
        exact = gamma_exact_tail(params, 9.0)
        assert exact == pytest.approx(0.00623219510638, abs=1e-11)
        assert bound >= exact

    def test_vacuous_bound_clamped(self):
        assert gamma_tail_bound(GammaParams(shape=2.0, rate=1.0), 0.1) == 1.0

    def test_non_integer_shape_rejected(self):
        # the bound cannot be asked at shape 2.5: GammaParams refuses it
        with pytest.raises(NonIntegerShape):
            GammaParams(shape=2.5, rate=1.0)

    @pytest.mark.parametrize("shape", list(range(1, 17)))
    @pytest.mark.parametrize("rate", [0.5, 1.0, 2.0])
    def test_dominance_grid(self, shape, rate):
        params = GammaParams(shape=float(shape), rate=rate)
        mean = shape / rate
        for t in np.geomspace(0.01 * mean, 100.0 * mean, 25):
            assert gamma_tail_bound(params, float(t)) >= gamma_exact_tail(
                params, float(t)
            ) - 1e-15


class TestGammaExactTail:
    def test_trivial_values(self):
        assert gamma_exact_tail(GammaParams(shape=1.0, rate=1.0), 0.0) == 1.0
        assert gamma_exact_tail(GammaParams(shape=1.0, rate=2.0), 1.0) == pytest.approx(
            math.exp(-2.0), abs=1e-15
        )

    def test_integer_closed_form(self):
        # e^-3 * (1 + 3 + 4.5)
        assert gamma_exact_tail(GammaParams(shape=3.0, rate=1.0), 3.0) == pytest.approx(
            8.5 * math.exp(-3.0), abs=1e-14
        )

    @pytest.mark.parametrize("shape", [1.0, 2.0, 3.0, 8.0, 64.0])
    @pytest.mark.parametrize("rate", [0.5, 1.0, 3.0])
    def test_matches_high_precision_oracle(self, shape, rate):
        params = GammaParams(shape=shape, rate=rate)
        mean = shape / rate
        for t in [0.01 * mean, 0.5 * mean, mean, 3.0 * mean, 10.0 * mean]:
            ours = gamma_exact_tail(params, t)
            exact = float(
                mpmath.gammainc(shape, rate * t, mpmath.inf, regularized=True)
            )
            assert ours == pytest.approx(exact, rel=1e-10, abs=1e-280)

    def test_vectorized_integer_shape(self):
        params = GammaParams(shape=4.0, rate=1.0)
        ts = np.array([0.0, 1.0, 4.0, 20.0])
        out = gamma_exact_tail(params, ts)
        assert out.shape == ts.shape
        for t, v in zip(ts, out):
            assert v == pytest.approx(gamma_exact_tail(params, float(t)), abs=1e-15)

    def test_infinite_t_has_no_tail(self):
        params = GammaParams(shape=3.0, rate=1.0)
        with np.errstate(all="raise"):
            assert gamma_exact_tail(params, math.inf) == 0.0
            out = gamma_exact_tail(params, np.array([0.0, 3.0, math.inf]))
        assert out[0] == 1.0 and out[2] == 0.0
        assert out[1] == pytest.approx(8.5 * math.exp(-3.0), abs=1e-14)

    @pytest.mark.parametrize("t", [-1.0, math.nan])
    def test_negative_or_nan_t_refused(self, t):
        with pytest.raises(ValidationError, match="t must be nonnegative"):
            gamma_exact_tail(GammaParams(shape=2.0, rate=1.0), t)


class TestGammaSample:
    def test_exponential_special_case(self):
        params = GammaParams(shape=1.0, rate=1.5)
        samples = gamma_sample(params, RandomSource(200), size=200_000)
        stat = ks_statistic(samples, lambda xs: 1.0 - np.exp(-1.5 * xs))
        assert stat < ks_critical(samples.size, 1e-3)

    def test_integer_shape_matches_sum_of_exponentials(self):
        n = 100_000
        params = GammaParams(shape=4.0, rate=2.0)
        ours = gamma_sample(params, RandomSource(201), size=n)
        gen = np.random.default_rng(202)
        other = gen.exponential(scale=0.5, size=(n, 4)).sum(axis=1)
        _, pvalue = scipy.stats.ks_2samp(ours, other)
        assert pvalue > 1e-3

    @pytest.mark.parametrize("shape,rate", [(1.0, 1.0), (3.0, 0.5), (8.0, 4.0)])
    def test_mean_within_band(self, shape, rate):
        n = 200_000
        samples = gamma_sample(GammaParams(shape=shape, rate=rate), RandomSource(203), size=n)
        band = 5.0 * math.sqrt(shape / rate**2 / n)
        assert abs(samples.mean() - shape / rate) < band

    def test_scalar_and_replay(self):
        params = GammaParams(shape=3.0, rate=1.0)
        a = gamma_sample(params, RandomSource(6))
        b = gamma_sample(params, RandomSource(6))
        assert isinstance(a, float) and a == b and a > 0

    def test_invalid_params(self):
        with pytest.raises(ValidationError):
            GammaParams(shape=0.0, rate=1.0)
        with pytest.raises(ValidationError):
            GammaParams(shape=1.0, rate=-1.0)

    @pytest.mark.parametrize("shape", [2.5, 0.5, 0.0, -3.0, math.inf, math.nan])
    def test_shape_must_be_a_positive_integer(self, shape):
        with pytest.raises(NonIntegerShape, match="^shape must be a positive integer"):
            GammaParams(shape=shape, rate=1.0)

    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_rate_must_be_finite(self, rate):
        # a scale of 1e-320 gives the rate 1/b = inf
        with pytest.raises(ValidationError, match="^rate must be finite and positive"):
            GammaParams(shape=3.0, rate=rate)
