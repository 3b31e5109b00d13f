import concurrent.futures
import gc
import inspect
import math
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from helpers import chi2_statistic

from dpsampler.core import KaryDataset, RandomSource, VectorDataset
from dpsampler.errors import (
    DimensionMismatch,
    DomainMismatch,
    InsufficientData,
    PrecisionLimit,
    ValidationError,
)
import dpsampler.gaussian
from dpsampler.gaussian import _STATS, _clip_rows, zcdp_bounded_cov_sample
from dpsampler.kary import KARY_CALIBRATIONS, rr_mixture_dist
from dpsampler.multisampling import (
    _BLOCKS,
    SamplerSpec,
    gaussian_sampler,
    pure_gaussian_sampler,
    repetition_complexity,
    shurr_sampler,
    strong_both_complexity,
    strong_via_both,
    strong_via_precision,
    subrr_sampler,
    weak_via_repetition,
    zcdp_bounded_cov_sampler,
    zcdp_known_cov_sampler,
)


def kary_data(pattern, copies, k):
    return KaryDataset(values=np.tile(pattern, copies), k=k)


def recording(spec, calls):
    """``spec`` whose run records (first row, rows, tolerance, child index) per call.

    Run it on ``VectorDataset(rows=np.arange(N))``: the first row of a block is
    then its start index in the input.
    """

    def run(block, alpha, rng):
        calls.append((int(block.rows[0, 0]), block.n, alpha, rng.key[-1]))
        return [len(calls)]

    return replace(spec, run=run)


def index_rows(n):
    return VectorDataset(rows=np.arange(n))


# each combinator, and the input size it consumes, as a call on (spec, m, data, rng)
COMBINATORS = {
    "repetition": lambda spec, m, data, rng: weak_via_repetition(spec, m, data, rng),
    "precision": lambda spec, m, data, rng: strong_via_precision(spec, m, 0.5, data, rng),
    "both": lambda spec, m, data, rng: strong_via_both(spec, m, 0.5, data, rng),
    "repetition-size": lambda spec, m, data, rng: repetition_complexity(spec, m),
    "both-size": lambda spec, m, data, rng: strong_both_complexity(spec, m, 0.5),
}


class TestCombinatorsCheckM:
    @pytest.mark.parametrize("combinator", COMBINATORS)
    @pytest.mark.parametrize("m, message", [
        (0, "m must be >= 1, got 0"), (-3, "m must be >= 1, got -3"),
        (1.5, "m must be an integer, got 1.5")])
    def test_bad_m_refused_before_any_call(self, combinator, m, message):
        calls = []
        spec = SamplerSpec(alpha=0.5, n_per_call=lambda a: calls.append(a) or 1,
                           run=lambda data, a, rng: calls.append(a))
        with pytest.raises(ValidationError, match=f"^{message}$"):
            COMBINATORS[combinator](spec, m, index_rows(10), RandomSource(29))
        assert calls == []

    @pytest.mark.parametrize("combinator", ["repetition", "both"])
    def test_integral_float_m_is_taken(self, combinator):
        calls = []
        spec = recording(subrr_sampler(k=3, eps=1.0, alpha=0.5), calls)
        data = index_rows(2 * spec.n_per_call(0.25))
        COMBINATORS[combinator](spec, 2.0, data, RandomSource(29))
        assert len(calls) == 2


class TestWeakViaRepetition:
    def test_m1_matches_single_call_on_first_block(self):
        spec = subrr_sampler(k=3, eps=1.0, alpha=0.2)
        data = kary_data([1, 2, 3], 20, 3)
        block = spec.n_per_call(0.2)
        out = weak_via_repetition(spec, 1, data, RandomSource(30))
        direct = spec.run(data.subset(0, block), 0.2, RandomSource(30).child(0))
        assert out == [direct]

    def test_blocks_partition_input(self):
        calls = []
        spec = recording(subrr_sampler(k=3, eps=1.0, alpha=0.25), calls)
        block = spec.n_per_call(0.25)
        m = 4
        data = index_rows(3 * 2 * block * m)
        weak_via_repetition(spec, m, data, RandomSource(31))
        assert [c[3] for c in calls] == list(range(m))
        spans = [(c[0], c[0] + c[1]) for c in calls]
        assert spans == [(i * block, (i + 1) * block) for i in range(m)]
        assert all(c[2] == 0.25 for c in calls)

    def test_insufficient_data(self):
        spec = subrr_sampler(k=3, eps=1.0, alpha=0.2)
        data = kary_data([1, 2, 3], 1, 3)
        with pytest.raises(InsufficientData):
            weak_via_repetition(spec, 5, data, RandomSource(32))

    def test_positions_have_equal_exact_marginals(self):
        # blocks with identical composition have identical exact output laws
        spec = subrr_sampler(k=3, eps=1.0, alpha=0.3)
        block = spec.n_per_call(0.3)
        pattern = ([1] * (block - 1)) + [2]
        data = KaryDataset(values=np.tile(pattern, 3), k=3)
        eps0 = KARY_CALIBRATIONS["sub"].eps0(1.0, None, block)
        first = rr_mixture_dist(data.subset(0, block), eps0)
        last = rr_mixture_dist(data.subset(2 * block, 3 * block), eps0)
        np.testing.assert_allclose(first.probs, last.probs, atol=1e-15)

    def test_joint_law_is_product_of_block_marginals(self):
        # disjoint blocks and independent child streams make outputs independent;
        # compare the empirical joint of (out1, out2) against the product of the
        # per-block exact marginals
        eps, alpha, k = 2.0, 0.4, 2
        spec = subrr_sampler(k=k, eps=eps, alpha=alpha)
        block = spec.n_per_call(alpha)
        data = KaryDataset(values=np.array([1] * block + [2] * block), k=k)
        eps0 = KARY_CALIBRATIONS["sub"].eps0(eps, None, block)
        oracle1 = rr_mixture_dist(data.subset(0, block), eps0)
        oracle2 = rr_mixture_dist(data.subset(block, 2 * block), eps0)
        product = np.outer(oracle1.probs, oracle2.probs).ravel()

        runs = 40_000
        root = RandomSource(33)
        joint = np.zeros((k, k), dtype=np.int64)
        for i in range(runs):
            o1, o2 = weak_via_repetition(spec, 2, data, root.child(i))
            joint[o1 - 1, o2 - 1] += 1
        stat = chi2_statistic(joint.ravel(), runs * product)
        assert stat < scipy.stats.chi2.ppf(1 - 1e-3, df=k * k - 1)

    def test_complexity_formula(self):
        spec = subrr_sampler(k=10, eps=1.0, alpha=0.1)
        single = KARY_CALIBRATIONS["sub"].complexity("single", 10, 0.1, 1.0)
        assert repetition_complexity(spec, 7) == 7 * single.n_required


class TestStrongViaPrecision:
    def test_m1_is_weak_call_at_alpha(self):
        spec = shurr_sampler(k=3, eps=300.0, delta=0.5, m=1, alpha=0.4)
        data = kary_data([1, 2, 3], 7, 3)
        out = strong_via_precision(spec, 1, 0.4, data, RandomSource(34))
        direct = list(spec.run(data, 0.4, RandomSource(34).child(0)))
        assert out == direct

    def test_tolerance_plumbing(self):
        seen = []
        spec = recording(shurr_sampler(k=2, eps=4.0, delta=0.01, m=2, alpha=0.5), seen)
        n = spec.n_per_call(0.5 / 2)
        strong_via_precision(spec, 2, 0.5, index_rows(n), RandomSource(35))
        assert seen == [(0, n, 0.25, 0)]

    def test_required_n_matches_weak_complexity_at_alpha_over_m(self):
        spec = shurr_sampler(k=10, eps=0.5, delta=1e-6, m=20, alpha=0.2)
        assert spec.n_per_call(0.2 / 20) == KARY_CALIBRATIONS["shuffle"].complexity(
            "strong", 10, 0.2, 0.5, 1e-6, 20
        ).n_required

    def test_insufficient_data(self):
        spec = shurr_sampler(k=2, eps=4.0, delta=0.01, m=2, alpha=0.5)
        data = KaryDataset(values=np.ones(10, dtype=np.int64), k=2)
        with pytest.raises(InsufficientData):
            strong_via_precision(spec, 2, 0.5, data, RandomSource(36))

    def test_precision_limit(self):
        spec = shurr_sampler(k=2, eps=4.0, delta=0.01, m=10**6, alpha=1e-8)
        data = KaryDataset(values=np.ones(10, dtype=np.int64), k=2)
        with pytest.raises(PrecisionLimit):
            strong_via_precision(spec, 10**6, 1e-8, data, RandomSource(37))


class TestStrongViaBoth:
    def test_m1_is_single_call_at_alpha(self):
        spec = subrr_sampler(k=3, eps=1.0, alpha=0.2)
        block = spec.n_per_call(0.2)
        data = kary_data([1, 2, 3], block, 3)
        out = strong_via_both(spec, 1, 0.2, data, RandomSource(38))
        direct = spec.run(data.subset(0, block), 0.2, RandomSource(38).child(0))
        assert out == [direct]

    def test_total_complexity_formula(self):
        k, eps, alpha, m = 4, 1.0, 0.2, 5
        spec = subrr_sampler(k=k, eps=eps, alpha=alpha)
        expected = m * math.ceil((k - 1) * (1 - alpha / m) / ((alpha / m) * eps))
        assert strong_both_complexity(spec, m, alpha) == expected

    def test_blocks_sized_by_tightened_tolerance(self):
        calls = []
        spec = recording(subrr_sampler(k=3, eps=1.0, alpha=0.3), calls)
        m, alpha = 3, 0.3
        block = spec.n_per_call(alpha / m)
        data = index_rows(3 * block * m)
        strong_via_both(spec, m, alpha, data, RandomSource(39))
        assert [(c[0], c[0] + c[1]) for c in calls] == [
            (i * block, (i + 1) * block) for i in range(m)
        ]
        assert all(c[2] == alpha / m for c in calls)

    def test_per_record_exposure_is_single_block(self):
        # disjointness: each record index appears in exactly one call span
        calls = []
        spec = recording(subrr_sampler(k=2, eps=2.0, alpha=0.5), calls)
        m, alpha = 4, 0.5
        block = spec.n_per_call(alpha / m)
        strong_via_both(spec, m, alpha, index_rows(block * m), RandomSource(40))
        touched = np.zeros(block * m, dtype=int)
        for start, rows, _tol, _child in calls:
            touched[start:start + rows] += 1
        assert np.all(touched == 1)


class TestKaryFactories:
    def test_repetition_refuses_a_block_of_another_k(self):
        spec = subrr_sampler(k=3, eps=1.0, alpha=0.2)
        data = kary_data([1, 2], spec.n_per_call(0.2), 2)
        with pytest.raises(DomainMismatch, match="data domain size 2 != sampler domain size 3"):
            weak_via_repetition(spec, 2, data, RandomSource(41))

    def test_precision_refuses_data_of_another_k(self):
        spec = shurr_sampler(k=3, eps=300.0, delta=0.5, m=1, alpha=0.4)
        data = kary_data([1, 2, 3, 4], 7, 4)
        with pytest.raises(DomainMismatch, match="data domain size 4 != sampler domain size 3"):
            strong_via_precision(spec, 1, 0.4, data, RandomSource(42))


class TestGaussianFactories:
    def test_pure_sampler_repetition(self):
        gen = np.random.default_rng(41)
        spec = pure_gaussian_sampler(d=1, R=1.0, eps=5.0, alpha=0.3)
        block = spec.n_per_call(0.3)
        data = VectorDataset(rows=gen.normal(0.0, 1.0, size=(3 * block, 1)))
        out = weak_via_repetition(spec, 3, data, RandomSource(42))
        assert len(out) == 3 and all(o.shape == (1,) for o in out)

    def test_zcdp_known_sampler_runs(self):
        gen = np.random.default_rng(43)
        spec = zcdp_known_cov_sampler(d=2, R=1.0, eps=1.0, alpha=0.2)
        block = spec.n_per_call(0.2)
        data = VectorDataset(rows=gen.normal(size=(block, 2)))
        out = spec.run(data, 0.2, RandomSource(44))
        assert out.shape == (2,)

    def test_zcdp_bounded_sampler_block_multiple_of_three(self):
        spec = zcdp_bounded_cov_sampler(d=2, R=1.0, eps=1.0, alpha=0.2)
        for alpha in (0.2, 0.1, 0.05):
            assert spec.n_per_call(alpha) % 3 == 0

    def test_zcdp_bounded_run_refuses_fewer_rows_than_n_per_call(self):
        spec = zcdp_bounded_cov_sampler(d=2, R=1.0, eps=1.0, alpha=0.1)
        needed = spec.n_per_call(0.1)
        gen = np.random.default_rng(45)
        short = VectorDataset(rows=gen.normal(size=(needed - 3, 2)))
        with pytest.raises(InsufficientData, match=f"n >= {needed} rows; got n={needed - 3}"):
            spec.run(short, 0.1, RandomSource(46))
        # at its own n, a call draws what the sampler draws
        data = VectorDataset(rows=gen.normal(size=(needed, 2)))
        direct = zcdp_bounded_cov_sample(data, R=1.0, alpha=0.1, eps=1.0, rng=RandomSource(47))
        assert np.array_equal(spec.run(data, 0.1, RandomSource(47)), direct)

    @pytest.mark.parametrize("variant", ["pure", "zcdp-known", "zcdp-bounded"])
    def test_run_refuses_data_of_another_dimension(self, variant):
        spec = gaussian_sampler(variant, 3, 1.0, alpha=0.1, eps=1.0)
        rows = np.random.default_rng(48).normal(size=(spec.n_per_call(0.1), 1))
        with pytest.raises(DimensionMismatch, match="data dimension 1 != sampler dimension 3"):
            spec.run(VectorDataset(rows=rows), 0.1, RandomSource(49))


# each factory that is not a fixed-variant wrapper: its leading positional
# parameters, and a call in its 0.11.0 order, with eps before alpha
KEYWORD_FACTORIES = {
    "subrr_sampler": (subrr_sampler, ["k"], (3, 1.0, 0.2)),
    "shurr_sampler": (shurr_sampler, ["k"], (3, 300.0, 0.5, 1, 0.4)),
    "gaussian_sampler": (gaussian_sampler, ["variant", "d", "R"], ("pure", 3, 1.0, 1.0, 0.1)),
}


class TestFactorySignatures:
    @pytest.mark.parametrize("name", KEYWORD_FACTORIES)
    def test_alpha_and_eps_are_keyword_only(self, name):
        factory, positional, old_call = KEYWORD_FACTORIES[name]
        params = inspect.signature(factory).parameters.values()
        assert [p.name for p in params if p.kind == p.POSITIONAL_OR_KEYWORD] == positional
        keyword_only = [p.name for p in params if p.kind == p.KEYWORD_ONLY]
        assert keyword_only[:2] == ["alpha", "eps"]
        with pytest.raises(TypeError):
            factory(*old_call)

    @pytest.mark.parametrize("variant, wrapper", [
        ("pure", pure_gaussian_sampler), ("zcdp-known", zcdp_known_cov_sampler),
        ("zcdp-bounded", zcdp_bounded_cov_sampler)])
    def test_fixed_variant_wrappers_keep_their_positional_order(self, variant, wrapper):
        # (d, R, eps, alpha); a wrapper that passed alpha as eps would size n at eps = 0.3
        spec = wrapper(2, 1.0, 5.0, 0.3)
        direct = gaussian_sampler(variant, 2, 1.0, alpha=0.3, eps=5.0)
        assert spec.alpha == 0.3
        assert spec.n_per_call(0.3) == direct.n_per_call(0.3)
        assert spec.n_per_call(0.3) != gaussian_sampler(
            variant, 2, 1.0, alpha=0.3, eps=0.3).n_per_call(0.3)


# repeated block releases on one dataset, per combinator: the rows they need,
# their block count, and the call on (data, rng)
REPEATED = {
    "both-pure": (129, 3, lambda data, rng: strong_via_both(
        pure_gaussian_sampler(d=1, R=1.0, eps=5.0, alpha=0.3), 3, 0.3, data, rng)),
    "repetition-zcdp-known": (20, 4, lambda data, rng: weak_via_repetition(
        zcdp_known_cov_sampler(d=2, R=1.0, eps=2.0, alpha=0.2), 4, data, rng)),
    "repetition-zcdp-bounded": (468, 4, lambda data, rng: weak_via_repetition(
        zcdp_bounded_cov_sampler(d=2, R=1.0, eps=2.0, alpha=0.2), 4, data, rng)),
}


def _rows(case, seed):
    n = REPEATED[case][0]
    d = 1 if case == "both-pure" else 2
    return 3.0 * np.random.default_rng(seed).standard_normal((n, d))


class TestBlockReuse:
    @pytest.mark.parametrize("case", REPEATED)
    def test_repeated_calls_clip_each_block_once_and_match_fresh_copies(
            self, monkeypatch, case):
        clipped = []

        def counting_clip_rows(rows, B):
            clipped.append(rows.__array_interface__["data"][0])
            return _clip_rows(rows, B)

        monkeypatch.setattr(dpsampler.gaussian, "_clip_rows", counting_clip_rows)
        rows = _rows(case, 50)
        data = VectorDataset(rows=rows)
        _, blocks, release = REPEATED[case]
        for i in range(5):
            out = release(data, RandomSource(51).child(i))
            fresh = release(VectorDataset(rows=rows), RandomSource(51).child(i))
            assert np.asarray(out).tobytes() == np.asarray(fresh).tobytes()
        # five calls on the shared dataset clip each block once; each fresh copy
        # clips all of its blocks
        assert len(clipped) == blocks + 5 * blocks
        shared = clipped[:blocks]
        assert len(set(shared)) == blocks
        assert not set(shared) & set(clipped[blocks:])

    @pytest.mark.parametrize("case", REPEATED)
    def test_blocks_and_their_statistics_die_with_the_dataset(self, case):
        gc.collect()
        blocks_before, stats_before = len(_BLOCKS), len(_STATS)
        _, count, release = REPEATED[case]
        data = VectorDataset(rows=_rows(case, 52))
        release(data, RandomSource(53))
        (blocks,) = _BLOCKS[data].values()
        assert len(blocks) == count
        assert all(block in _STATS for block in blocks)
        assert len(_BLOCKS) == blocks_before + 1
        assert len(_STATS) == stats_before + count
        refs = [weakref.ref(block) for block in blocks]
        del data, blocks
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert (len(_BLOCKS), len(_STATS)) == (blocks_before, stats_before)

    def test_more_blocks_extend_the_cut_ones(self):
        spec = zcdp_known_cov_sampler(d=2, R=1.0, eps=2.0, alpha=0.2)
        data = VectorDataset(rows=_rows("repetition-zcdp-known", 54))
        weak_via_repetition(spec, 2, data, RandomSource(55))
        (first,) = _BLOCKS[data].values()
        weak_via_repetition(spec, 4, data, RandomSource(55))
        weak_via_repetition(spec, 3, data, RandomSource(55))
        (blocks,) = _BLOCKS[data].values()
        assert len(blocks) == 4 and blocks[:2] == first
        size = spec.n_per_call(0.2)
        for i, block in enumerate(blocks):
            assert np.shares_memory(block.rows, data.rows)
            assert np.array_equal(block.rows, data.rows[i * size:(i + 1) * size])

    def test_threads_sharing_datasets_get_the_serial_outputs(self):
        # a race may cut a block or compute a statistic twice, never store a wrong one
        rows = [_rows("repetition-zcdp-bounded", s) for s in range(4)]
        known = REPEATED["repetition-zcdp-known"][2]
        bounded = REPEATED["repetition-zcdp-bounded"][2]

        def releases(shared):
            out = []
            for i in range(24):
                data = shared[i % 4] if shared else VectorDataset(rows=rows[i % 4])
                rng = RandomSource(56).child(i)
                out.append(known(data, rng.child(0)) + bounded(data, rng.child(1)))
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
