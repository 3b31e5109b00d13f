import math

import numpy as np
import pytest
import scipy.stats

from helpers import chi2_statistic

from dpsampler.core import KaryDataset, RandomSource, validate_categorical
from dpsampler.divergences import tv_distance_finite
from dpsampler.errors import InsufficientData, OutOfDomain, PrecisionLimit, ValidationError
from dpsampler.kary import (
    KARY_CALIBRATIONS,
    ComplexityReport,
    RRParams,
    _rr_apply,
    fmt_eps1,
    rr_mixture_dist,
    rr_mixture_weight,
    rr_pmf,
    rr_row,
    rr_sample,
    shurr_eps0,
    shurr_f,
    shurr_run,
    shurr_weak_complexity,
    subrr_sample,
)

SUB, SHUFFLE = KARY_CALIBRATIONS["sub"], KARY_CALIBRATIONS["shuffle"]

CHI2_SIG = 1e-3


def chi2_vs_exact(counts: np.ndarray, probs: np.ndarray) -> bool:
    n = counts.sum()
    stat = chi2_statistic(counts, n * probs)
    return stat < scipy.stats.chi2.ppf(1.0 - CHI2_SIG, df=len(probs) - 1)


class TestRRPmf:
    def test_zero_parameter_is_uniform(self):
        params = RRParams(eps0=0.0, k=5)
        for y in range(1, 6):
            assert rr_pmf(1, y, params) == pytest.approx(0.2, abs=1e-15)

    def test_closed_form(self):
        params = RRParams(eps0=math.log(3.0), k=4)
        assert rr_pmf(2, 2, params) == pytest.approx(0.5, abs=1e-15)
        assert rr_pmf(2, 3, params) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_ratio_is_exactly_exp_eps0(self):
        for eps0 in (0.3, 1.0, 2.5):
            params = RRParams(eps0=eps0, k=3)
            ratios = [
                rr_pmf(x, y, params) / rr_pmf(x2, y, params)
                for x in (1, 2, 3)
                for x2 in (1, 2, 3)
                for y in (1, 2, 3)
            ]
            assert max(ratios) == pytest.approx(math.exp(eps0), rel=1e-12)
            assert min(ratios) == pytest.approx(math.exp(-eps0), rel=1e-12)

    def test_rows_sum_to_one(self):
        gen = np.random.default_rng(5)
        for _ in range(100):
            k = int(gen.integers(2, 50))
            params = RRParams(eps0=float(gen.uniform(0.0, 8.0)), k=k)
            x = int(gen.integers(1, k + 1))
            assert abs(rr_row(x, params).sum() - 1.0) <= 1e-15

    def test_out_of_domain(self):
        params = RRParams(eps0=1.0, k=3)
        with pytest.raises(OutOfDomain):
            rr_pmf(0, 1, params)
        with pytest.raises(OutOfDomain):
            rr_pmf(1, 4, params)

    def test_negative_eps0_rejected(self):
        with pytest.raises(ValidationError):
            RRParams(eps0=-0.1, k=2)


class TestRRSample:
    def test_large_eps0_keeps_input(self):
        params = RRParams(eps0=50.0, k=4)
        out = rr_sample(3, params, RandomSource(10), size=10_000)
        assert (out == 3).mean() > 0.999

    def test_zero_eps0_uniform(self):
        params = RRParams(eps0=0.0, k=4)
        out = rr_sample(2, params, RandomSource(11), size=200_000)
        counts = np.bincount(out, minlength=5)[1:]
        assert chi2_vs_exact(counts, np.full(4, 0.25))

    def test_matches_pmf(self):
        params = RRParams(eps0=math.log(3.0), k=4)
        out = rr_sample(1, params, RandomSource(12), size=200_000)
        counts = np.bincount(out, minlength=5)[1:]
        assert chi2_vs_exact(counts, np.array([0.5, 1 / 6, 1 / 6, 1 / 6]))


class TestSubRR:
    def test_eps0_values(self):
        assert SUB.eps0(1.0, None, 100) == pytest.approx(math.log(100.0), abs=1e-12)
        assert SUB.eps0(math.e, None, 1) == pytest.approx(1.0, abs=1e-12)

    def test_eps0_boundary(self):
        with pytest.raises(InsufficientData):
            SUB.eps0(0.01, None, 100)

    def test_single_record_matches_rr(self):
        data = KaryDataset(values=[2], k=3)
        eps = 2.0 * math.e
        params = RRParams(eps0=math.log(eps), k=3)
        out = np.array(
            [subrr_sample(data, eps, RandomSource(13).child(i)) for i in range(100_000)]
        )
        counts = np.bincount(out, minlength=4)[1:]
        assert chi2_vs_exact(counts, rr_row(2, params))

    def test_all_identical_collapses(self):
        data = KaryDataset(values=[3] * 6, k=4)
        eps = 1.0
        eps0 = SUB.eps0(eps, None, 6)
        dist = rr_mixture_dist(data, eps0)
        expected_keep = 1.0 / (1.0 + 3.0 * math.exp(-eps0))
        assert dist.prob(3) == pytest.approx(expected_keep, abs=1e-12)
        np.testing.assert_allclose(dist.probs, rr_row(3, RRParams(eps0=eps0, k=4)))

    def test_sample_matches_exact_dist(self):
        data = KaryDataset(values=[1, 2, 3, 1, 1], k=3)
        eps = 1.0
        oracle = rr_mixture_dist(data, SUB.eps0(eps, None, data.n))
        rng = RandomSource(14)
        out = np.array([subrr_sample(data, eps, rng) for _ in range(150_000)])
        counts = np.bincount(out, minlength=4)[1:]
        assert chi2_vs_exact(counts, oracle.probs)

    def test_hand_enumerated_output_dist(self):
        # eps*n = 3 so eps0 = ln 3; rows (0.75, 0.25) and (0.25, 0.75) average to uniform
        data = KaryDataset(values=[1, 2], k=2)
        dist = rr_mixture_dist(data, SUB.eps0(1.5, None, data.n))
        np.testing.assert_allclose(dist.probs, [0.5, 0.5], atol=1e-15)

    def test_tv_to_empirical_bounded_by_mixture_weight(self):
        gen = np.random.default_rng(15)
        for _ in range(50):
            k = int(gen.integers(2, 6))
            n = int(gen.integers(2, 30))
            eps = float(gen.uniform(1.5 / n, 3.0))
            if eps * n <= 1.0:
                continue
            data = KaryDataset(values=gen.integers(1, k + 1, size=n), k=k)
            dist = rr_mixture_dist(data, SUB.eps0(eps, None, data.n))
            empirical = validate_categorical(data.counts() / n)
            weight = rr_mixture_weight(k, SUB.eps0(eps, None, n))
            assert tv_distance_finite(dist, empirical) <= weight + 1e-12


class TestSubRRComplexity:
    def test_examples(self):
        assert SUB.complexity("single", 10, 0.1, 1.0).n_required == 81
        assert SUB.complexity("single", 2, 0.5, 1.0).n_required == 1

    def test_below_simple_bound(self):
        gen = np.random.default_rng(16)
        for _ in range(100):
            k = int(gen.integers(2, 200))
            alpha = float(gen.uniform(0.01, 0.9))
            eps = float(gen.uniform(0.05, 4.0))
            n = SUB.complexity("single", k, alpha, eps).n_required
            assert n <= k / (alpha * eps) + 1

    def test_mixture_weight_at_complexity(self):
        for k, alpha, eps in [(10, 0.1, 1.0), (5, 0.25, 0.5), (2, 0.5, 1.0), (100, 0.02, 2.0)]:
            n = SUB.complexity("single", k, alpha, eps).n_required
            weight = (k - 1) / (k - 1 + eps * n)
            assert weight <= alpha + 1e-12


class TestShuRRCalibration:
    def test_f_values(self):
        assert shurr_f(1.0) == pytest.approx(0.051031036308, abs=1e-11)
        assert shurr_f(0.5) == pytest.approx(0.025515518154, abs=1e-11)
        assert shurr_f(4.0) == pytest.approx(0.102062072616, abs=1e-11)

    def test_f_branches_agree_at_one(self):
        assert shurr_f(1.0) == pytest.approx(shurr_f(1.0 + 1e-12), rel=1e-6)

    def test_eps0_frozen_value(self):
        # high-precision re-evaluation of ln(f(0.5)^2 * 1e6 / ln(4e6) - 1)
        assert shurr_eps0(0.5, 1e-6, 10**6) == pytest.approx(
            3.73353257645148, rel=1e-12
        )

    def test_eps0_insufficient(self):
        with pytest.raises(InsufficientData):
            shurr_eps0(0.5, 1e-6, 10)

    def test_eps0_monotone_in_n(self):
        values = [shurr_eps0(0.5, 1e-6, n) for n in (10**5, 2 * 10**5, 10**6, 10**7)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_fmt_eps1_vanishes_with_n(self):
        values = [fmt_eps1(math.log(3.0), 1e-6, n, 5) for n in (10**3, 10**5, 10**7, 10**11)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-3

    def test_fmt_eps1_frozen_value(self):
        # independent high-precision re-evaluation of the closed form
        assert fmt_eps1(math.log(3.0), 0.01, 10**4, 2) == pytest.approx(
            0.395050032596833, rel=1e-12
        )

    @pytest.mark.parametrize("eps", [0.5, 2.0])
    @pytest.mark.parametrize("k", [2, 10])
    def test_privacy_chain_small_grid(self, eps, k):
        delta = 1e-6
        n = 2 * shurr_weak_complexity(k, 0.1, eps, delta, 1).n_required
        assert fmt_eps1(shurr_eps0(eps, delta, n), delta, n, k) <= eps + 1e-12


class TestShuRRRun:
    def test_m_equals_n_is_permutation_of_randomized_values(self):
        data = KaryDataset(values=[1, 2, 3, 1, 2, 3], k=3)
        eps, delta = 300.0, 0.5
        out = shurr_run(data, eps, delta, m=6, rng=RandomSource(21))
        # replay the pipeline: an ordered uniform choice of all n records,
        # then randomized response on the chosen values
        eps0 = KARY_CALIBRATIONS["shuffle"].eps0(eps, delta, 6)
        gen = RandomSource(21).generator
        order = gen.choice(6, size=6, replace=False)
        assert sorted(order) == list(range(6))
        randomized = _rr_apply(data.values[order], RRParams(eps0=eps0, k=3), gen)
        assert np.array_equal(out, randomized)

    def test_randomizes_only_released_records(self, monkeypatch):
        sizes = []

        def recording_rr_apply(values, params, gen):
            sizes.append(values.size)
            return _rr_apply(values, params, gen)

        monkeypatch.setattr("dpsampler.kary._rr_apply", recording_rr_apply)
        data = KaryDataset(values=np.ones(10**5, dtype=np.int64), k=2)
        out = shurr_run(data, 4.0, 0.01, m=3, rng=RandomSource(27))
        assert sizes == [3]
        assert out.shape == (3,)

    def test_too_many_outputs(self):
        data = KaryDataset(values=[1, 2, 3, 1, 2, 3], k=3)
        with pytest.raises(InsufficientData, match="m=7 outputs from n=6"):
            shurr_run(data, 300.0, 0.5, m=7, rng=RandomSource(22))

    def test_no_outputs_rejected(self):
        data = KaryDataset(values=[1, 2, 3, 1, 2, 3], k=3)
        with pytest.raises(ValidationError, match="^m must be >= 1"):
            shurr_run(data, 300.0, 0.5, m=0, rng=RandomSource(22))

    def test_fractional_outputs_rejected(self):
        data = KaryDataset(values=[1, 2, 3, 1, 2, 3], k=3)
        with pytest.raises(ValidationError, match="^m must be an integer, got 1.5$"):
            shurr_run(data, 300.0, 0.5, m=1.5, rng=RandomSource(22))

    def test_insufficient_n(self):
        data = KaryDataset(values=[1, 2], k=2)
        with pytest.raises(InsufficientData):
            shurr_run(data, 0.5, 1e-6, m=1, rng=RandomSource(23))

    def test_position1_marginal_matches_mixture_oracle(self):
        data = KaryDataset(values=[1, 1, 1, 2, 2, 3], k=3)
        eps, delta, runs = 300.0, 0.5, 40_000
        eps0 = shurr_eps0(eps, delta, 6)
        oracle = rr_mixture_dist(data, eps0)
        rng = RandomSource(24)
        firsts = np.array([shurr_run(data, eps, delta, 2, rng)[0] for _ in range(runs)])
        counts = np.bincount(firsts, minlength=4)[1:]
        assert chi2_vs_exact(counts, oracle.probs)

    def test_all_identical_marginal_is_rr_row(self):
        data = KaryDataset(values=[2] * 6, k=3)
        eps, delta, runs = 300.0, 0.5, 40_000
        eps0 = shurr_eps0(eps, delta, 6)
        expected = rr_row(2, RRParams(eps0=eps0, k=3))
        rng = RandomSource(25)
        outs = np.array([shurr_run(data, eps, delta, 1, rng)[0] for _ in range(runs)])
        counts = np.bincount(outs, minlength=4)[1:]
        assert chi2_vs_exact(counts, expected)

    def test_positions_exchangeable(self):
        data = KaryDataset(values=[1, 1, 1, 2, 2, 3], k=3)
        eps, delta, runs = 300.0, 0.5, 30_000
        rng = RandomSource(26)
        outs = np.array([shurr_run(data, eps, delta, 6, rng) for _ in range(runs)])
        first = np.bincount(outs[:, 0], minlength=4)[1:]
        last = np.bincount(outs[:, -1], minlength=4)[1:]
        # two-sample chi-square with pooled expectations
        pooled = (first + last) / (2.0 * runs)
        stat = chi2_statistic(first, runs * pooled) + chi2_statistic(last, runs * pooled)
        assert stat < scipy.stats.chi2.ppf(1.0 - CHI2_SIG, df=2)


class TestShuRRComplexity:
    def test_frozen_weak_value(self):
        report = shurr_weak_complexity(10, 0.1, 0.5, 1e-6, 1000)
        assert report.n_required == 2_334_998

    def test_m_dominates(self):
        assert shurr_weak_complexity(2, 0.5, 4.0, 0.01, 10**9).n_required == 10**9

    def test_mixture_weight_at_weak_complexity(self):
        for k, alpha, eps, delta in [(10, 0.1, 0.5, 1e-6), (3, 0.3, 4.0, 0.01), (2, 0.05, 1.0, 1e-8)]:
            n = shurr_weak_complexity(k, alpha, eps, delta, 1).n_required
            weight = rr_mixture_weight(k, shurr_eps0(eps, delta, n))
            assert weight <= alpha + 1e-12

    def test_strong_is_weak_at_alpha_over_m(self):
        for k, alpha, eps, delta, m in [(10, 0.1, 0.5, 1e-6, 10), (4, 0.2, 2.0, 0.01, 7)]:
            strong = SHUFFLE.complexity("strong", k, alpha, eps, delta, m)
            weak = shurr_weak_complexity(k, alpha / m, eps, delta, m)
            assert strong.n_required == weak.n_required

    def test_strong_m1_equals_weak(self):
        assert (
            SHUFFLE.complexity("strong", 10, 0.1, 0.5, 1e-6, 1).n_required
            == shurr_weak_complexity(10, 0.1, 0.5, 1e-6, 1).n_required
        )

    def test_strong_linear_in_m(self):
        base = SHUFFLE.complexity("strong", 10, 0.1, 0.5, 1e-6, 100).n_required
        doubled = SHUFFLE.complexity("strong", 10, 0.1, 0.5, 1e-6, 200).n_required
        assert doubled == pytest.approx(2 * base, rel=1e-6)

    def test_precision_limit(self):
        with pytest.raises(PrecisionLimit):
            SHUFFLE.complexity("strong", 10, 1e-9, 0.5, 1e-6, 10**7)


class TestIntegralCounts:
    """k and m count categories and outputs: a non-integral one is refused, 4.0 is 4."""

    @pytest.mark.parametrize("name, mode, task, args", [
        ("k", "sub", "single", (4.5, 0.1, 1.0)),
        ("m", "shuffle", "weak", (3, 0.1, 1.0, 1e-6, 2.5)),
        ("k", "shuffle", "weak", (3.5, 0.1, 1.0, 1e-6, 2)),
        ("m", "shuffle", "weak", (3, 0.1, 1.0, 1e-6, math.nan)),
        ("m", "shuffle", "strong", (3, 0.1, 1.0, 1e-6, 2.5)),
        ("k", "shuffle", "strong", (3.5, 0.1, 1.0, 1e-6, 2)),
    ])
    def test_non_integral_count_refused(self, name, mode, task, args):
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got"):
            KARY_CALIBRATIONS[mode].complexity(task, *args)

    @pytest.mark.parametrize("mode, task, args", [
        ("sub", "single", (4, 0.1, 1.0)),
        ("shuffle", "weak", (3, 0.1, 1.0, 1e-6, 2)),
        ("shuffle", "strong", (3, 0.1, 1.0, 1e-6, 2)),
    ])
    def test_integral_float_accepted(self, mode, task, args):
        as_floats = [float(v) if isinstance(v, int) else v for v in args]
        cal = KARY_CALIBRATIONS[mode]
        assert cal.complexity(task, *as_floats) == cal.complexity(task, *args)


class TestNonFiniteBudgets:
    """An infinite budget would keep every record, so each k-ary entry point refuses it."""

    @pytest.mark.parametrize("eps0", [math.inf, math.nan])
    def test_rr_params_refuse_non_finite_eps0(self, eps0):
        with pytest.raises(ValidationError, match="^eps0 must be finite and nonnegative"):
            RRParams(eps0=eps0, k=2)

    @pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("calculate", [
        lambda eps: SUB.eps0(eps, None, 100),
        shurr_f,
        lambda eps: SUB.complexity("single", 3, 0.1, eps),
        lambda eps: shurr_weak_complexity(3, 0.1, eps, 1e-6, 5),
        lambda eps: shurr_eps0(eps, 1e-6, 10**6),
    ], ids=["subrr_eps0", "shurr_f", "subrr_complexity", "shurr_weak_complexity", "shurr_eps0"])
    def test_budget_calculators_refuse_bad_eps(self, calculate, eps):
        with pytest.raises(ValidationError, match="^eps must be finite and positive"):
            calculate(eps)


class TestShuRRMinN:
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("delta", [1e-9, 1e-6, 1e-3, 0.01, 0.3])
    def test_min_n_is_the_first_accepted_n(self, eps, delta):
        n = SHUFFLE.min_n(eps, delta)
        assert shurr_eps0(eps, delta, n) > 0
        with pytest.raises(InsufficientData, match=f"need n >= {n} at"):
            shurr_eps0(eps, delta, n - 1)

    def test_frozen_value(self):
        # eps = 4, delta = 0.3: n = 498 gives eps0 = 0.0027 > 0, n = 497 does not
        assert SHUFFLE.min_n(4.0, 0.3) == 498
        assert shurr_eps0(4.0, 0.3, 498) == pytest.approx(0.0027, abs=1e-4)

    def test_negative_local_parameter_refused(self):
        # f^2 * n / ln(4/delta) lies in (1, 2] here, so ln(ratio - 1) would be negative
        ratio = shurr_f(1.0) ** 2 * 8_756 / math.log(4e6)
        assert 1.0 < ratio <= 2.0
        with pytest.raises(InsufficientData, match="need n >= 11675 at"):
            shurr_eps0(1.0, 1e-6, 8_756)
        data = KaryDataset(values=np.ones(8_756, dtype=np.int64), k=2)
        with pytest.raises(InsufficientData):
            shurr_run(data, 1.0, 1e-6, 1, RandomSource(28))

    def test_min_n_terminates_at_huge_n(self):
        n = SHUFFLE.min_n(1e-10, 1e-6)
        assert shurr_eps0(1e-10, 1e-6, n) > 0
        with pytest.raises(InsufficientData):
            shurr_eps0(1e-10, 1e-6, n - 1)


class TestKaryCalibrations:
    def test_eps0_is_the_mechanisms_local_parameter(self):
        assert SUB.eps0(0.5, None, 40) == math.log(0.5 * 40)
        assert SHUFFLE.eps0(0.5, 1e-6, 10**6) == math.log(
            shurr_f(0.5) ** 2 * 10**6 / math.log(4e6) - 1.0
        )
        assert shurr_eps0(0.5, 1e-6, 10**6) == SHUFFLE.eps0(0.5, 1e-6, 10**6)

    @pytest.mark.parametrize("eps", [0.1, 1.0, 3.0])
    def test_sub_certificate_is_log1p_eps(self, eps):
        n = 50
        eps0 = KARY_CALIBRATIONS["sub"].eps0(eps, None, n)
        certificate = KARY_CALIBRATIONS["sub"].certify(eps0, None, n, 4)
        assert certificate == math.log1p(math.exp(eps0) / n)
        assert certificate == pytest.approx(math.log1p(eps), rel=1e-12)
        assert certificate <= eps

    def test_shuffle_certificate_is_fmt_eps1(self):
        eps0 = KARY_CALIBRATIONS["shuffle"].eps0(2.0, 0.01, 10**5)
        assert KARY_CALIBRATIONS["shuffle"].certify(eps0, 0.01, 10**5, 3) == fmt_eps1(
            eps0, 0.01, 10**5, 3
        )

    def test_derived_figures(self):
        assert KARY_CALIBRATIONS["sub"].derived(1.0, None, 100, 3) == {"eps0": math.log(100.0)}
        eps, delta, n, k = 4.0, 0.3, 3_000, 3
        eps0 = shurr_eps0(eps, delta, n)
        assert KARY_CALIBRATIONS["shuffle"].derived(eps, delta, n, k) == {
            "eps0": eps0, "f_value": shurr_f(eps), "eps1": fmt_eps1(eps0, delta, n, k)
        }

    def test_complexity_tasks_take_their_inputs_in_order(self):
        # the reports the 0.12.0 calculators gave at these inputs
        cases = {
            "single": ((10, 0.1, 1.0), 81),
            "weak": ((10, 0.1, 0.5, 1e-6, 8), 2_334_998),
            "strong": ((10, 0.1, 0.5, 1e-6, 8), 18_679_978),
        }
        tasks = {}
        for cal in KARY_CALIBRATIONS.values():
            for task in cal.bounds:
                args, n = cases[task]
                assert cal.complexity(task, *args) == ComplexityReport(
                    n_required=n, formula_name=f"kary_{task}", inputs=dict(zip(cal.inputs, args))
                )
                with pytest.raises(TypeError, match=f"^the {task} task takes"):
                    cal.complexity(task, *args[:-1])
                tasks[task] = cal.inputs
        assert tasks == {
            "single": ("k", "alpha", "eps"),
            "weak": ("k", "alpha", "eps", "delta", "m"),
            "strong": ("k", "alpha", "eps", "delta", "m"),
        }

    @pytest.mark.parametrize("mode, eps, delta", [
        ("sub", 0.003, None), ("sub", 0.3, None), ("sub", 0.7, None),
        ("shuffle", 0.5, 1e-6), ("shuffle", 4.0, 0.3),
    ])
    def test_eps0_accepts_exactly_from_min_n(self, mode, eps, delta):
        cal = KARY_CALIBRATIONS[mode]
        n = cal.min_n(eps, delta)
        assert n > 1
        assert cal.eps0(eps, delta, n) > 0
        with pytest.raises(InsufficientData, match=f"need n >= {n} at"):
            cal.eps0(eps, delta, n - 1)
