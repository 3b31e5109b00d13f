import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from dpsampler import divergences
from dpsampler.core import RandomSource, VectorDataset, validate_categorical
from dpsampler.divergences import (
    BOOTSTRAP_CHUNK_ENTRIES,
    BOOTSTRAP_RESAMPLES,
    MAX_BINS_PER_AXIS,
    eps_delta_closeness,
    hockey_stick_finite,
    hs_to_tv_bound,
    _cell_ids,
    _replicate_counts,
    tv_distance_finite,
    tv_estimate_binned,
)
from dpsampler.errors import DimensionMismatch, DomainMismatch, ValidationError


def random_dist(gen, k):
    probs = gen.dirichlet(np.ones(k))
    probs = probs / probs.sum()
    return validate_categorical(probs)


def brute_force_event_sup(p, q, beta=1.0):
    """sup over all 2^k events of P(E) - beta*Q(E), by enumeration."""
    best = 0.0
    k = p.k
    for bits in itertools.product([0, 1], repeat=k):
        mask = np.array(bits, dtype=bool)
        best = max(best, p.probs[mask].sum() - beta * q.probs[mask].sum())
    return best


class TestTvDistance:
    def test_identity(self):
        p = validate_categorical([0.3, 0.7])
        assert tv_distance_finite(p, p) == 0.0

    def test_disjoint_support(self):
        assert tv_distance_finite(
            validate_categorical([1.0, 0.0]), validate_categorical([0.0, 1.0])
        ) == 1.0

    def test_two_outcome_example(self):
        # sup over all 4 events of the probability gap equals 0.25
        p = validate_categorical([0.5, 0.5])
        q = validate_categorical([0.75, 0.25])
        assert tv_distance_finite(p, q) == pytest.approx(0.25, abs=1e-15)
        assert brute_force_event_sup(p, q) == pytest.approx(0.25, abs=1e-15)

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            tv_distance_finite(
                validate_categorical([0.5, 0.5]), validate_categorical([0.4, 0.3, 0.3])
            )

    def test_equals_event_sup(self):
        gen = np.random.default_rng(11)
        for k in (2, 3, 5, 8):
            for _ in range(20):
                p, q = random_dist(gen, k), random_dist(gen, k)
                assert tv_distance_finite(p, q) == pytest.approx(
                    brute_force_event_sup(p, q), abs=1e-12
                )


class TestHockeyStick:
    def test_identity_at_beta_one(self):
        p = validate_categorical([0.2, 0.8])
        assert hockey_stick_finite(p, p, 1.0) == 0.0

    def test_beta_one_is_tv(self):
        gen = np.random.default_rng(3)
        for _ in range(50):
            k = int(gen.integers(2, 9))
            p, q = random_dist(gen, k), random_dist(gen, k)
            assert hockey_stick_finite(p, q, 1.0) == pytest.approx(
                tv_distance_finite(p, q), abs=1e-12
            )

    def test_two_outcome_example(self):
        p = validate_categorical([0.9, 0.1])
        q = validate_categorical([0.5, 0.5])
        assert hockey_stick_finite(p, q, 1.5) == pytest.approx(0.15, abs=1e-15)
        assert brute_force_event_sup(p, q, beta=1.5) == pytest.approx(0.15, abs=1e-15)

    def test_equals_event_sup(self):
        gen = np.random.default_rng(4)
        for _ in range(40):
            k = int(gen.integers(2, 8))
            beta = float(gen.uniform(1.0, 3.0))
            p, q = random_dist(gen, k), random_dist(gen, k)
            assert hockey_stick_finite(p, q, beta) == pytest.approx(
                brute_force_event_sup(p, q, beta=beta), abs=1e-12
            )

    def test_invalid_order(self):
        p = validate_categorical([0.5, 0.5])
        with pytest.raises(ValidationError):
            hockey_stick_finite(p, p, 0.5)
        with pytest.raises(ValidationError, match="got 0.99"):
            hockey_stick_finite(p, p, 0.99)


class TestClosenessAndConversion:
    def test_identity(self):
        p = validate_categorical([0.3, 0.7])
        assert eps_delta_closeness(p, p, 0.7).delta_at_eps == 0.0

    def test_eps_zero_is_tv(self):
        gen = np.random.default_rng(23)
        for _ in range(30):
            k = int(gen.integers(2, 6))
            p, q = random_dist(gen, k), random_dist(gen, k)
            assert eps_delta_closeness(p, q, 0.0).delta_at_eps == pytest.approx(
                tv_distance_finite(p, q), abs=1e-12
            )

    def test_symmetrized_example(self):
        p = validate_categorical([0.9, 0.1])
        q = validate_categorical([0.5, 0.5])
        result = eps_delta_closeness(p, q, math.log(1.5))
        # brute force over both directions and all events at beta = 1.5:
        # forward gives 0.15, backward (event {2}) gives 0.5 - 1.5*0.1 = 0.35
        expected = max(
            brute_force_event_sup(p, q, beta=1.5), brute_force_event_sup(q, p, beta=1.5)
        )
        assert result.hs_forward == pytest.approx(0.15, abs=1e-15)
        assert result.delta_at_eps == pytest.approx(expected, abs=1e-15)
        assert result.delta_at_eps == pytest.approx(0.35, abs=1e-15)

    def test_nonincreasing_in_eps(self):
        gen = np.random.default_rng(29)
        for _ in range(20):
            k = int(gen.integers(2, 6))
            p, q = random_dist(gen, k), random_dist(gen, k)
            deltas = [
                eps_delta_closeness(p, q, eps).delta_at_eps
                for eps in (0.0, 0.2, 0.5, 1.0, 2.0)
            ]
            for lo, hi in zip(deltas, deltas[1:]):
                assert hi <= lo + 1e-12

    def test_hs_to_tv_values(self):
        assert hs_to_tv_bound(0.0, 0.0) == 0.0
        assert hs_to_tv_bound(0.0, 0.1) == pytest.approx(0.1, abs=1e-15)
        assert hs_to_tv_bound(math.log(2), 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_hs_to_tv_dominates_tv(self):
        gen = np.random.default_rng(31)
        for _ in range(200):
            k = int(gen.integers(2, 7))
            p, q = random_dist(gen, k), random_dist(gen, k)
            eps = float(gen.uniform(0.0, 1.5))
            delta = eps_delta_closeness(p, q, eps).delta_at_eps
            assert tv_distance_finite(p, q) <= hs_to_tv_bound(eps, min(delta, 1 - 1e-12)) + 1e-12


def dense_tv_reference(samples_p, samples_q, bins_per_axis, rng):
    """The dense histogramdd estimator that bins every resample afresh."""
    stacked = np.vstack([samples_p.rows, samples_q.rows])
    lo = stacked.min(axis=0)
    hi = stacked.max(axis=0)
    pad = 0.01 * np.maximum(hi - lo, 1e-12)
    edges = [
        np.linspace(lo[j] - pad[j], hi[j] + pad[j], bins_per_axis + 1)
        for j in range(samples_p.d)
    ]

    def freq(rows):
        return np.histogramdd(rows, bins=edges)[0].ravel() / rows.shape[0]

    estimate = 0.5 * float(np.abs(freq(samples_p.rows) - freq(samples_q.rows)).sum())
    gen = rng.generator
    reps = np.empty(BOOTSTRAP_RESAMPLES)
    for b in range(BOOTSTRAP_RESAMPLES):
        boot_p = samples_p.rows[gen.integers(0, samples_p.n, size=samples_p.n)]
        boot_q = samples_q.rows[gen.integers(0, samples_q.n, size=samples_q.n)]
        reps[b] = 0.5 * float(np.abs(freq(boot_p) - freq(boot_q)).sum())
    lo_q, hi_q = np.quantile(reps, [0.025, 0.975])
    return estimate, 0.5 * float(hi_q - lo_q)


def reference_cases():
    for d, bins, seed in itertools.product((1, 2, 3, 4), (2, 7, 20), (0, 1)):
        gen = np.random.default_rng(1000 * d + 10 * bins + seed)
        # unequal sizes, shifted and rescaled q
        p = gen.normal(size=(int(gen.integers(50, 400)), d))
        q = gen.normal(0.3, 1.5, size=(int(gen.integers(50, 400)), d))
        yield f"d{d}-bins{bins}-seed{seed}", p, q, bins, seed
    gen = np.random.default_rng(7)
    p, q = gen.normal(size=(300, 3)), gen.normal(size=(200, 3))
    p[:, 1] = q[:, 1] = 5.0
    yield "constant-column", p, q, 10, 3
    p, q = gen.uniform(size=(300, 2)), gen.uniform(size=(100, 2))
    p[:5] = np.maximum(p.max(axis=0), q.max(axis=0))
    yield "repeated-box-maximum", p, q, 5, 4
    # the 1% pad rounds away at this magnitude, so the largest rows lie on the
    # top edge itself, which the last bin includes
    p = 1e17 + 16 * np.arange(40.0)[:, None]
    q = 1e17 + 16 * np.arange(0.0, 40.0, 3.0)[:, None]
    yield "rows-on-top-edge", p, q, 6, 5
    yield "count-side-and-row-side", *count_side_and_row_side_case()


def count_side_and_row_side_case():
    # p: 4,000 rows in at most 20 cells takes the count path; q: 60 rows in
    # more than 3 cells resamples its rows
    gen = np.random.default_rng(9)
    return gen.normal(size=(4000, 1)), gen.normal(0.5, 1.0, size=(60, 1)), 20, 6


def unique_rows_tv_reference(samples_p, samples_q, bins_per_axis, rng):
    """tv_estimate_binned with cell ids from np.unique(axis=0) over the cell rows."""
    stacked = np.vstack([samples_p.rows, samples_q.rows])
    lo = stacked.min(axis=0)
    hi = stacked.max(axis=0)
    pad = 0.01 * np.maximum(hi - lo, 1e-12)
    edges = [
        np.linspace(lo[j] - pad[j], hi[j] + pad[j], bins_per_axis + 1)
        for j in range(samples_p.d)
    ]
    bins = [np.searchsorted(e, col, side="right") for e, col in zip(edges, stacked.T)]
    cells = np.minimum(np.column_stack(bins) - 1, bins_per_axis - 1)
    occupied_cells, inverse = np.unique(cells, axis=0, return_inverse=True)
    occupied = occupied_cells.shape[0]
    inverse = inverse.reshape(-1)
    ids_p, ids_q = inverse[: samples_p.n], inverse[samples_p.n :]

    def tv(side_p, side_q):
        freq_p = np.bincount(side_p, minlength=occupied) / side_p.size
        freq_q = np.bincount(side_q, minlength=occupied) / side_q.size
        return min(0.5 * float(np.abs(freq_p - freq_q).sum()), 1.0)

    estimate = tv(ids_p, ids_q)
    gen = rng.generator
    reps = [
        tv(
            ids_p[gen.integers(0, samples_p.n, size=samples_p.n)],
            ids_q[gen.integers(0, samples_q.n, size=samples_q.n)],
        )
        for _ in range(BOOTSTRAP_RESAMPLES)
    ]
    lo_q, hi_q = np.quantile(reps, [0.025, 0.975])
    return estimate, 0.5 * float(hi_q - lo_q)


def count_path_tv_reference(samples_p, samples_q, bins_per_axis, rng):
    """The estimator from dense histogramdd counts, restricted to occupied cells.

    A side with at least ``ROWS_PER_CELL`` rows per occupied cell draws each
    replicate's counts with ``gen.multinomial`` over its occupied cells; any
    other side resamples its rows and bins them afresh.  p draws before q.
    """
    stacked = np.vstack([samples_p.rows, samples_q.rows])
    lo = stacked.min(axis=0)
    hi = stacked.max(axis=0)
    pad = 0.01 * np.maximum(hi - lo, 1e-12)
    edges = [
        np.linspace(lo[j] - pad[j], hi[j] + pad[j], bins_per_axis + 1)
        for j in range(samples_p.d)
    ]

    def counts(rows):
        return np.histogramdd(rows, bins=edges)[0].ravel()

    counts_p, counts_q = counts(samples_p.rows), counts(samples_q.rows)
    # raveled order is lexicographic order, the order of the estimator's ids
    occupied = (counts_p + counts_q) > 0

    def tv(side_p, side_q):
        freq_p = side_p[occupied] / samples_p.n
        freq_q = side_q[occupied] / samples_q.n
        return min(0.5 * float(np.abs(freq_p - freq_q).sum()), 1.0)

    gen = rng.generator

    def replicate(samples, side_counts):
        cells = np.flatnonzero(side_counts)
        if cells.size * divergences.ROWS_PER_CELL > samples.n:
            return counts(samples.rows[gen.integers(0, samples.n, size=samples.n)])
        draw = np.zeros_like(side_counts)
        draw[cells] = gen.multinomial(samples.n, side_counts[cells] / samples.n)
        return draw

    estimate = tv(counts_p, counts_q)
    reps = [
        tv(replicate(samples_p, counts_p), replicate(samples_q, counts_q))
        for _ in range(BOOTSTRAP_RESAMPLES)
    ]
    lo_q, hi_q = np.quantile(reps, [0.025, 0.975])
    return estimate, 0.5 * float(hi_q - lo_q)


class RecordingGenerator:
    """Delegates to a numpy generator and records each method it hands out."""

    def __init__(self, gen):
        self.gen = gen
        self.calls = []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.gen, name)


def past_int64_case():
    # (2^21 + 1)^3 cells is past 2^63; rows on a small integer grid share cells
    gen = np.random.default_rng(8)
    p = gen.integers(0, 4, size=(300, 3)).astype(float)
    q = gen.integers(1, 5, size=(200, 3)).astype(float)
    return p, q, 2**21 + 1, 7


def at_bin_cap_case():
    # (2^22)^3 cells needs a 66-bit raveled key.  Rows on a small grid share
    # cells, and every axis has rows at both ends of the box, so the first
    # axis's cells lie near 2^22 * 0.01 and 2^22 * 0.99: a key wrapped past
    # int64 would reorder and merge cells.
    gen = np.random.default_rng(10)
    grid = np.array([0.0, 0.3, 0.6, 1.0])
    p = grid[gen.integers(0, 4, size=(301, 3))]
    q = grid[gen.integers(0, 4, size=(199, 3))] ** 2
    return p, q, MAX_BINS_PER_AXIS, 8


class TestTvEstimateBinned:
    @pytest.mark.parametrize(
        "p, q, bins, seed",
        [pytest.param(*case, id=name) for name, *case in reference_cases()],
    )
    def test_matches_dense_histogram_reference(self, p, q, bins, seed, monkeypatch):
        # the reference resamples rows, so every side takes the row path
        monkeypatch.setattr(divergences, "ROWS_PER_CELL", math.inf)
        samples_p, samples_q = VectorDataset(rows=p), VectorDataset(rows=q)
        result = tv_estimate_binned(samples_p, samples_q, bins, RandomSource(seed))
        estimate, halfwidth = dense_tv_reference(samples_p, samples_q, bins, RandomSource(seed))
        assert result.estimate == pytest.approx(estimate, abs=1e-12)
        assert result.halfwidth == pytest.approx(halfwidth, abs=1e-12)

    @pytest.mark.parametrize(
        "p, q, bins, seed",
        [pytest.param(*case, id=name) for name, *case in reference_cases()]
        + [pytest.param(*past_int64_case(), id="bins-cubed-past-int64"),
           pytest.param(*at_bin_cap_case(), id="bins-cubed-at-cap")],
    )
    def test_matches_unique_rows_reference(self, p, q, bins, seed, monkeypatch):
        monkeypatch.setattr(divergences, "ROWS_PER_CELL", math.inf)
        samples_p, samples_q = VectorDataset(rows=p), VectorDataset(rows=q)
        result = tv_estimate_binned(samples_p, samples_q, bins, RandomSource(seed))
        estimate, halfwidth = unique_rows_tv_reference(
            samples_p, samples_q, bins, RandomSource(seed)
        )
        assert (result.estimate, result.halfwidth) == (estimate, halfwidth)

    @pytest.mark.parametrize("rows_per_cell", ["default", 0])
    @pytest.mark.parametrize(
        "p, q, bins, seed",
        [pytest.param(*case, id=name) for name, *case in reference_cases()],
    )
    def test_matches_count_path_reference(self, p, q, bins, seed, rows_per_cell, monkeypatch):
        # 0 sends every side down the count path
        if rows_per_cell != "default":
            monkeypatch.setattr(divergences, "ROWS_PER_CELL", rows_per_cell)
        samples_p, samples_q = VectorDataset(rows=p), VectorDataset(rows=q)
        result = tv_estimate_binned(samples_p, samples_q, bins, RandomSource(seed))
        estimate, halfwidth = count_path_tv_reference(
            samples_p, samples_q, bins, RandomSource(seed)
        )
        assert (result.estimate, result.halfwidth) == (estimate, halfwidth)

    def test_count_and_row_paths_share_the_replicate_law(self, monkeypatch):
        # One side: 6 ids in cells 0, 2 and 3 of 4, so each replicate is one of
        # the 28 count vectors of Multinomial(6, (3, 0, 2, 1) / 6).  Each path
        # draws 20,000 replicates; a chi-square homogeneity test on the two
        # tables of count vectors (vectors whose exact expected count is under
        # 5 pooled) must not reject at level 1e-3.  Were the laws equal, a
        # fresh seed would fail with probability 1e-3.
        ids = np.array([0, 0, 0, 2, 2, 3])
        counts = np.bincount(ids, minlength=4)
        probs = counts / ids.size
        draws = 20_000

        def table(rows_per_cell, rng):
            monkeypatch.setattr(divergences, "ROWS_PER_CELL", rows_per_cell)
            draw = _replicate_counts(ids, counts, rng.generator)
            return [tuple(draw().tolist()) for _ in range(draws)]

        count_path = table(0, RandomSource(71))
        row_path = table(math.inf, RandomSource(72))
        assert all(v[1] == 0 and sum(v) == ids.size for v in count_path + row_path)

        def expected(vector):
            coef = math.factorial(ids.size)
            for c in vector:
                coef //= math.factorial(c)
            return draws * coef * math.prod(p**c for p, c in zip(probs, vector))

        outcomes = sorted(set(count_path) | set(row_path))
        pooled = {v: (v if expected(v) >= 5 else "rare") for v in outcomes}
        keys = sorted(set(pooled.values()), key=str)
        tallies = [Counter(pooled[v] for v in side) for side in (count_path, row_path)]
        observed = np.array([[tally[key] for key in keys] for tally in tallies])
        assert observed.shape[1] >= 10
        assert chi2_contingency(observed).pvalue > 1e-3

    def test_count_path_draws_no_integers(self, monkeypatch):
        # 20 bins on one axis: at most 20 occupied cells for 3,000 rows a side,
        # so each multinomial call draws at least entries // 40 replicates
        gen = np.random.default_rng(73)
        p = VectorDataset(rows=gen.normal(size=(3000, 1)))
        q = VectorDataset(rows=gen.normal(0.2, 1.0, size=(3000, 1)))
        for entries in (BOOTSTRAP_CHUNK_ENTRIES, 2 * 20 * 7):
            monkeypatch.setattr(divergences, "BOOTSTRAP_CHUNK_ENTRIES", entries)
            rng = RandomSource(8)
            rng._gen = RecordingGenerator(rng._gen)
            tv_estimate_binned(p, q, 20, rng)
            assert set(rng._gen.calls) == {"multinomial"}
            assert len(rng._gen.calls) <= math.ceil(BOOTSTRAP_RESAMPLES / (entries // 40))

    def test_count_side_and_row_side_draw_per_replicate(self):
        p, q, bins, seed = count_side_and_row_side_case()
        rng = RandomSource(seed)
        rng._gen = RecordingGenerator(rng._gen)
        tv_estimate_binned(VectorDataset(rows=p), VectorDataset(rows=q), bins, rng)
        assert rng._gen.calls == ["multinomial", "integers"] * BOOTSTRAP_RESAMPLES

    def test_count_path_memory_is_per_chunk(self):
        # 2e5 uniform rows a side in 10^4 bins: at most 10^4 occupied cells, so
        # both sides take the count path.  Binning the 4e5 rows peaks near
        # 19 MiB; drawing all 200 replicates at once would add at least
        # 200 * 2 * 10^4 int64 counts, 30.5 MiB.
        gen = np.random.default_rng(75)
        p = VectorDataset(rows=gen.uniform(size=(200_000, 1)))
        q = VectorDataset(rows=gen.uniform(size=(200_000, 1)))
        tracemalloc.start()
        try:
            tv_estimate_binned(p, q, 10_000, RandomSource(9))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 30 * 2**20

    def test_refuses_bin_count_above_cap_before_allocating(self):
        gen = np.random.default_rng(74)
        p = VectorDataset(rows=gen.normal(size=(50, 3)))
        q = VectorDataset(rows=gen.normal(size=(50, 3)))
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=f"{MAX_BINS_PER_AXIS}.*{2**40}"):
                tv_estimate_binned(p, q, 2**40, RandomSource(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cell_ids_match_unique_rows(self, d):
        # the raveled index of a d = 3 cell needs 66 bits at the bin cap and
        # 120 bits at 2^40 bins; each axis draws from three values, so rows
        # tie on some axes and not others
        gen = np.random.default_rng(60 + d)
        for bins in (MAX_BINS_PER_AXIS, 2**40):
            pools = gen.integers(0, bins, size=(3, d))
            pools[0], pools[1] = 0, bins - 1
            cells = pools[gen.integers(0, 3, size=(3000, d)), np.arange(d)]
            ids, occupied = _cell_ids(list(cells.T), bins)
            expected_cells, expected = np.unique(cells, axis=0, return_inverse=True)
            assert ids.tolist() == expected.reshape(-1).tolist()
            assert occupied == expected_cells.shape[0]

    def test_memory_independent_of_bin_count(self):
        # 40^5 = 1e8 cells: a dense histogram needs about 1 GB per call
        gen = np.random.default_rng(59)
        p = VectorDataset(rows=gen.normal(size=(2000, 5)))
        q = VectorDataset(rows=gen.normal(0.1, 1.0, size=(2000, 5)))
        tracemalloc.start()
        try:
            result = tv_estimate_binned(p, q, 40, RandomSource(5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert 0.0 <= result.estimate <= 1.0

    def test_every_row_in_its_own_cell_stays_in_unit_interval(self):
        gen = np.random.default_rng(61)
        p = VectorDataset(rows=gen.normal(size=(500, 30)))
        q = VectorDataset(rows=gen.normal(size=(500, 30)))
        result = tv_estimate_binned(p, q, 10, RandomSource(6))
        assert 0.0 <= result.estimate <= 1.0

    def test_identical_files(self):
        gen = np.random.default_rng(41)
        rows = gen.standard_normal((5000, 1))
        data = VectorDataset(rows=rows)
        result = tv_estimate_binned(data, data, 50, RandomSource(1))
        assert result.estimate == 0.0

    def test_shifted_gaussians(self):
        gen = np.random.default_rng(43)
        p = VectorDataset(rows=gen.normal(0.0, 1.0, size=(100_000, 1)))
        q = VectorDataset(rows=gen.normal(3.0, 1.0, size=(100_000, 1)))
        result = tv_estimate_binned(p, q, 100, RandomSource(2))
        # exact TV between N(0,1) and N(3,1) is 2*Phi(1.5) - 1
        exact = math.erf(1.5 / math.sqrt(2))
        assert abs(result.estimate - exact) <= 0.015
        assert result.halfwidth < 0.01

    def test_null_calibration(self):
        gen_p = np.random.default_rng(47)
        gen_q = np.random.default_rng(48)
        p = VectorDataset(rows=gen_p.normal(size=(100_000, 1)))
        q = VectorDataset(rows=gen_q.normal(size=(100_000, 1)))
        result = tv_estimate_binned(p, q, 100, RandomSource(3))
        assert result.estimate < 0.02

    def test_dimension_mismatch(self):
        p = VectorDataset(rows=np.zeros((3, 1)))
        q = VectorDataset(rows=np.zeros((3, 2)))
        with pytest.raises(DimensionMismatch):
            tv_estimate_binned(p, q, 10, RandomSource(0))

    def test_deterministic_given_seed(self):
        gen = np.random.default_rng(53)
        p = VectorDataset(rows=gen.normal(size=(2000, 2)))
        q = VectorDataset(rows=gen.normal(size=(2000, 2)))
        r1 = tv_estimate_binned(p, q, 8, RandomSource(9))
        r2 = tv_estimate_binned(p, q, 8, RandomSource(9))
        assert r1 == r2
