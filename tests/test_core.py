import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

import dpsampler.core
from dpsampler.core import (
    KaryDataset,
    PrivacyBudget,
    RandomSource,
    VectorDataset,
    _row_norms,
    empirical_dist,
    read_kary_csv,
    read_vector_csv,
    validate_categorical,
    write_kary_csv,
    write_vector_csv,
)
from dpsampler.audit import audit_shurr_marginal
from dpsampler.elap import ELapParams, GammaParams, elap_sample, elap_tail_radius, gamma_sample
from dpsampler.errors import (
    DPSamplerError,
    DomainTooSmall,
    EmptyDataset,
    InvalidAlpha,
    NotNormalized,
    NegativeMass,
    OutOfDomain,
    ValidationError,
)
from dpsampler.gaussian import GAUSSIAN_CALIBRATIONS
from dpsampler.kary import (
    KARY_CALIBRATIONS,
    RRParams,
    fmt_eps1,
    rr_sample,
    shurr_run,
    shurr_weak_complexity,
    subrr_sample,
)
from dpsampler.multisampling import repetition_complexity, subrr_sampler


class TestValidateCategorical:
    def test_symmetric(self):
        dist = validate_categorical([0.5, 0.5])
        assert dist.k == 2
        assert np.allclose(dist.probs, [0.5, 0.5])

    def test_point_mass(self):
        dist = validate_categorical([1.0, 0.0, 0.0])
        assert dist.k == 3
        assert dist.prob(1) == 1.0

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            validate_categorical([0.6, 0.5])

    def test_negative_mass(self):
        with pytest.raises(NegativeMass):
            validate_categorical([1.2, -0.2])

    def test_domain_too_small(self):
        with pytest.raises(DomainTooSmall):
            validate_categorical([1.0])

    def test_immutable(self):
        dist = validate_categorical([0.5, 0.5])
        with pytest.raises(ValueError):
            dist.probs[0] = 0.9


class TestEmpiricalDist:
    def test_counting(self):
        dist = empirical_dist(KaryDataset(values=[1, 1, 2], k=2))
        assert np.allclose(dist.probs, [2 / 3, 1 / 3])

    def test_single_point(self):
        dist = empirical_dist(KaryDataset(values=[3], k=3))
        assert np.allclose(dist.probs, [0, 0, 1])

    def test_uniform(self):
        dist = empirical_dist(KaryDataset(values=[1, 2, 3, 4], k=4))
        assert np.allclose(dist.probs, 0.25)

    def test_always_validates(self):
        gen = np.random.default_rng(7)
        for _ in range(50):
            k = int(gen.integers(2, 8))
            n = int(gen.integers(1, 40))
            values = gen.integers(1, k + 1, size=n)
            dist = empirical_dist(KaryDataset(values=values, k=k))
            validate_categorical(dist.probs)


class TestDatasets:
    def test_kary_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            KaryDataset(values=[0, 1], k=2)
        with pytest.raises(OutOfDomain):
            KaryDataset(values=[1, 3], k=2)

    def test_kary_empty(self):
        with pytest.raises(EmptyDataset):
            KaryDataset(values=[], k=2)

    @pytest.mark.parametrize("via", ["constructor", "reader"])
    @pytest.mark.parametrize("k", [2.5, float("nan"), float("inf"), True, "3"])
    def test_kary_k_must_be_an_integer(self, tmp_path, via, k):
        with pytest.raises(ValidationError, match="^k must be an integer"):
            _kary_with_k(tmp_path, via, k)

    @pytest.mark.parametrize("via", ["constructor", "reader"])
    def test_kary_integral_float_k_is_stored_as_int(self, tmp_path, via):
        data = _kary_with_k(tmp_path, via, 3.0)
        assert data.k == 3 and type(data.k) is int
        assert empirical_dist(data).probs.tolist() == [0.5, 0.5, 0.0]

    @pytest.mark.parametrize("via", ["constructor", "reader"])
    @pytest.mark.parametrize("k", [1, 0, -2, 1.0])
    def test_kary_k_below_two_is_too_small(self, tmp_path, via, k):
        with pytest.raises(DomainTooSmall, match=f"^k must be >= 2, got {int(k)}$"):
            _kary_with_k(tmp_path, via, k)

    def test_kary_subset(self):
        data = KaryDataset(values=[1, 2, 3, 1], k=3)
        sub = data.subset(1, 3)
        assert list(sub.values) == [2, 3]
        assert sub.k == 3

    def test_vector_shapes(self):
        data = VectorDataset(rows=[[1.0, 2.0], [3.0, 4.0]])
        assert (data.n, data.d) == (2, 2)
        flat = VectorDataset(rows=[1.0, 2.0, 3.0])
        assert (flat.n, flat.d) == (3, 1)

    def test_vector_empty(self):
        with pytest.raises(EmptyDataset):
            VectorDataset(rows=np.empty((0, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_vector_non_finite_rejected(self, bad):
        rows = np.zeros((100, 2))
        rows[37, 1] = bad
        with pytest.raises(ValidationError, match="row index 37"):
            VectorDataset(rows=rows)


def _kary_with_k(tmp_path, via: str, k):
    """The records [1, 2] with domain size ``k``, built directly or read from a file."""
    if via == "constructor":
        return KaryDataset(values=[1, 2], k=k)
    path = tmp_path / "data.csv"
    write_kary_csv(path, [1, 2])
    return read_kary_csv(path, k=k)


def _stored(data) -> np.ndarray:
    return data.values if isinstance(data, KaryDataset) else data.rows


def _ten_records(which: str):
    """A k-ary or a vector dataset of ten records."""
    if which == "kary":
        return KaryDataset(values=np.arange(10) % 5 + 1, k=5)
    return VectorDataset(rows=np.arange(20.0).reshape(10, 2))


class TestSubsetViews:
    @pytest.mark.parametrize("which", ["kary", "vector"])
    def test_a_subset_is_a_read_only_view_of_its_parent(self, which):
        data = _ten_records(which)
        sub = _stored(data.subset(2, 7))
        assert np.shares_memory(sub, _stored(data))
        assert not sub.flags.writeable
        with pytest.raises(ValueError):
            sub[0] = 1
        assert np.array_equal(sub, _stored(data)[2:7])

    @pytest.mark.parametrize("which", ["kary", "vector"])
    @pytest.mark.parametrize("start, stop", [(-3, None), (-4, -1), (8, 100), (-100, 2), (0, 10)])
    def test_bounds_follow_numpy_slicing(self, which, start, stop):
        data = _ten_records(which)
        sub = data.subset(start, stop)
        want = _stored(data)[start:stop]
        assert _stored(sub).dtype == want.dtype and np.array_equal(_stored(sub), want)
        assert sub.n == len(want)
        assert (sub.k == data.k) if which == "kary" else (sub.d == data.d)

    @pytest.mark.parametrize("which", ["kary", "vector"])
    @pytest.mark.parametrize("start, stop", [(3, 3), (5, 2), (10, 20), (-1, -1)])
    def test_an_empty_range_is_refused(self, which, start, stop):
        with pytest.raises(EmptyDataset, match="is empty"):
            _ten_records(which).subset(start, stop)


class TestNarrowKaryStorage:
    @pytest.mark.parametrize("k, dtype", [
        (2, np.int8), (127, np.int8), (128, np.int16), (32767, np.int16), (32768, np.int32),
        (2**31 - 1, np.int32), (2**31, np.int64), (2**70, np.int64)])
    def test_values_take_the_narrowest_signed_type_holding_k(self, k, dtype):
        values = np.array([1, min(k, 2**63 - 1), 2], dtype=np.int64)
        data = KaryDataset(values=values, k=k)
        assert data.values.dtype == dtype
        assert not data.values.flags.writeable
        assert data.values.tolist() == values.tolist()

    @pytest.mark.parametrize("k, n", [(3, 10), (10, 200_001), (300, 1 << 16), (70_000, 140_001)])
    def test_counts_match_bincount_of_the_int64_values(self, k, n):
        values = np.random.default_rng(k).integers(1, k + 1, size=n)
        assert np.array_equal(KaryDataset(values=values, k=k).counts(),
                              np.bincount(values, minlength=k + 1)[1:])

    def test_counts_cast_no_more_than_a_chunk_at_a_time(self):
        data = KaryDataset(values=np.arange(10**6) % 10 + 1, k=10)
        tracemalloc.start()
        try:
            counts = data.counts()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.tolist() == [10**5] * 10
        # an intp copy of every record would be 8 MB
        assert peak < 2**20

    def test_values_are_a_private_copy(self):
        values = np.array([1, 2, 3], dtype=np.int8)
        data = KaryDataset(values=values, k=3)
        values[0] = 3
        assert data.values.tolist() == [1, 2, 3]

    @pytest.mark.parametrize("k, bad", [
        (10, 0), (10, -1), (10, 300), (10, 261), (10, 2**40), (2**31 - 1, 2**32 + 3)],
        ids=["zero", "negative", "300", "wraps-to-5-in-int8", "2^40", "wraps-to-3-in-int32"])
    def test_out_of_domain_is_checked_before_narrowing(self, k, bad):
        # the message names the unwrapped value
        with pytest.raises(OutOfDomain, match=f"got range \\[{min(1, bad)}, {max(2, bad)}\\]$"):
            KaryDataset(values=[1, bad, 2], k=k)

    def test_samplers_keep_their_output_types(self):
        data = KaryDataset(values=np.arange(200) % 4 + 1, k=4)
        assert data.values.dtype == np.int8
        out = shurr_run(data, 300.0, 0.5, 20, RandomSource(1))
        assert type(out) is np.ndarray and out.dtype == np.int64 and out.shape == (20,)
        assert type(subrr_sample(data, 1.0, RandomSource(2))) is int
        assert data.counts().tolist() == [50, 50, 50, 50]
        params = RRParams(eps0=1.0, k=4)
        assert type(rr_sample(int(data.values[0]), params, RandomSource(3))) is int
        many = rr_sample(int(data.values[0]), params, RandomSource(3), size=5)
        assert many.dtype == np.int64 and many.shape == (5,)


def _norm_inputs(d: int):
    """Named (n, d) float arrays: every layout and edge case the row-norm kernel meets."""
    gen = np.random.default_rng(100 + d)
    n = 4_000
    rows = gen.standard_normal((n, d)) * 10.0 ** gen.uniform(-3, 3, (n, 1))
    special = np.zeros((9, d))
    special[1] = -0.0
    special[2, 0] = -0.0
    special[3] = 1e-160
    special[4, -1] = -1e-160
    special[5] = gen.uniform(1e-160, 1e-150, d)
    special[6] = 1e200  # squares overflow to inf
    special[7, 0] = -3e200
    special[8] = 1.5
    wide = gen.standard_normal((2 * n, 3 * d))
    return {
        "c-order": rows,
        "fortran-order": np.asfortranarray(rows),
        "strided-view": wide[::2, 1::3],
        "transposed-view": gen.standard_normal((d, n)).T,
        "special": special,
        "special-fortran": np.asfortranarray(special),
        "one-row": rows[:1].copy(),
        "one-row-view": wide[5:6, ::3],
    }


class TestRowNorms:
    """`_row_norms(rows, center)` gives the bits of `np.linalg.norm(rows - center, axis=1)`."""

    @pytest.mark.parametrize("d", range(1, 13))
    def test_bit_identical_to_linalg_norm(self, d):
        center = np.random.default_rng(200 + d).standard_normal(d) * 10.0
        for name, rows in _norm_inputs(d).items():
            with np.errstate(over="ignore", under="ignore"):
                got = _row_norms(rows)
                want = np.linalg.norm(rows, axis=1)
                got_centered = _row_norms(rows, center)
                want_centered = np.linalg.norm(rows - center, axis=1)
            assert got.shape == want.shape == (rows.shape[0],), name
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (d, name)
            assert np.array_equal(got_centered.view(np.uint64),
                                  want_centered.view(np.uint64)), (d, name, "centered")

    def test_overflowing_rows_are_inf_and_tiny_rows_stay_finite(self):
        rows = _norm_inputs(3)["special"]
        with np.errstate(over="ignore"):
            norms = _row_norms(rows)
        assert norms[:3].tolist() == [0.0, 0.0, 0.0]
        assert np.isinf(norms[6:8]).all()
        assert np.isfinite(norms[[3, 4, 5, 8]]).all()


class TestPrivacyBudget:
    def test_rho_consistency(self):
        PrivacyBudget.zcdp(2.0)
        with pytest.raises(ValidationError):
            PrivacyBudget(epsilon=2.0, rho=1.0)

    def test_delta_range(self):
        with pytest.raises(ValidationError):
            PrivacyBudget(epsilon=1.0, delta=1.0)

    def test_negative_epsilon(self):
        with pytest.raises(ValidationError):
            PrivacyBudget(epsilon=-0.1)


class TestRandomSource:
    def test_replay(self):
        a = RandomSource(123).generator.standard_normal(100)
        b = RandomSource(123).generator.standard_normal(100)
        assert np.array_equal(a, b)

    def test_children_replayable_and_distinct(self):
        root = RandomSource(9)
        c0 = root.child(0).generator.standard_normal(50)
        c0_again = RandomSource(9).child(0).generator.standard_normal(50)
        c1 = root.child(1).generator.standard_normal(50)
        assert np.array_equal(c0, c0_again)
        assert not np.array_equal(c0, c1)

    def test_child_independent_of_parent_draws(self):
        # stateless derivation: consuming the parent does not change children
        fresh = RandomSource(5)
        fresh.generator.standard_normal(1000)
        after = fresh.child(2).generator.standard_normal(10)
        direct = RandomSource(5).child(2).generator.standard_normal(10)
        assert np.array_equal(after, direct)

    @pytest.mark.parametrize("make, message", [
        (lambda: RandomSource(-1), "seed must be >= 0, got -1"),
        (lambda: RandomSource(1.5), "seed must be an integer, got 1.5"),
        (lambda: RandomSource(float("nan")), "seed must be an integer, got nan"),
        (lambda: RandomSource("3"), "seed must be an integer, got 3"),
        (lambda: RandomSource(3).child(-1), "child index must be >= 0, got -1"),
        (lambda: RandomSource(3).child(2.5), "child index must be an integer, got 2.5"),
    ], ids=["seed-negative", "seed-1.5", "seed-nan", "seed-string", "child-negative",
            "child-2.5"])
    def test_negative_or_fractional_seeds_and_indices_refused(self, make, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            make()

    def test_integral_floats_and_seeds_beyond_64_bits_are_taken(self):
        def draws(rng):
            return rng.generator.standard_normal(5)

        assert np.array_equal(draws(RandomSource(7.0)), draws(RandomSource(7)))
        assert np.array_equal(draws(RandomSource(7).child(3.0)), draws(RandomSource(7).child(3)))
        assert RandomSource(7.0).seed == 7 and RandomSource(7).child(3.0).key == (3,)
        assert draws(RandomSource(2**64)).shape == (5,)


# calls that check a count with core._check_count, by the count's name: each
# returns the count it kept
COUNT_CALLS = {
    "seed": lambda v: RandomSource(v).seed,
    "child index": lambda v: RandomSource(1).child(v).key[-1],
    "d": lambda v: ELapParams(d=v, b=1.0).d,
    # 81 records a call
    "m": lambda v: repetition_complexity(subrr_sampler(k=10, eps=1.0, alpha=0.1), v) // 81,
}


@pytest.mark.parametrize("name", COUNT_CALLS)
def test_counts_refuse_booleans_and_take_integral_floats(name):
    for flag in (True, np.True_):
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got True$"):
            COUNT_CALLS[name](flag)
    assert COUNT_CALLS[name](4.0) == 4 and type(COUNT_CALLS[name](4.0)) is int


# every call that takes a record count n or a draw count size, each checking it
# with core._check_count: (count name, call, the message below its least value)
RECORD_AND_DRAW_COUNT_SITES = {
    "sub.eps0": ("n", lambda v: KARY_CALIBRATIONS["sub"].eps0(1.0, None, v),
                 "n must be >= 1, got -1"),
    "shuffle.eps0": ("n", lambda v: KARY_CALIBRATIONS["shuffle"].eps0(4.0, 0.01, v),
                     "n must be >= 1, got -1"),
    "fmt_eps1": ("n", lambda v: fmt_eps1(1.0, 0.01, v, 3), "n must be >= 1, got -1"),
    # the audited pair, reached past the entry's eps0 by a planted eps0
    "audit_shurr_marginal": (
        "n", lambda v: audit_shurr_marginal(2, v, 0.5, 0.01, None, None, eps0=1.0),
        "the audited pair needs n >= 1 records, got -1"),
    "rr_sample": ("size", lambda v: rr_sample(1, RRParams(eps0=1.0, k=3), RandomSource(1), v),
                  "size must be >= 0, got -1"),
    "gamma_sample": ("size", lambda v: gamma_sample(GammaParams(shape=2, rate=1.0),
                                                    RandomSource(1), v),
                     "size must be >= 0, got -1"),
    "elap_sample": ("size", lambda v: elap_sample(ELapParams(d=2, b=1.0), RandomSource(1), v),
                    "size must be >= 0, got -1"),
}


@pytest.mark.parametrize("site", RECORD_AND_DRAW_COUNT_SITES)
@pytest.mark.parametrize("value", [2.5, True, -1])
def test_record_and_draw_counts_share_one_rule(site, value):
    name, call, below = RECORD_AND_DRAW_COUNT_SITES[site]
    message = below if value == -1 else f"{name} must be an integer, got {value}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$") as raised:
        call(value)
    assert type(raised.value) is (EmptyDataset if site == "audit_shurr_marginal" and value == -1
                                  else ValidationError)


@pytest.mark.parametrize("site", ["rr_sample", "gamma_sample", "elap_sample"])
def test_draw_count_zero_gives_no_draws(site):
    _, call, _ = RECORD_AND_DRAW_COUNT_SITES[site]
    assert len(call(0)) == 0 and len(call(2.0)) == 2


# every call that takes a domain size k, each checking it with core._check_domain_size
DOMAIN_SIZE_SITES = {
    "KaryDataset": lambda k: KaryDataset(values=[1, 2], k=k),
    "RRParams": lambda k: RRParams(eps0=1.0, k=k),
    "sub.complexity": lambda k: KARY_CALIBRATIONS["sub"].complexity("single", k, 0.1, 1.0),
    "shurr_weak_complexity": lambda k: shurr_weak_complexity(k, 0.1, 1.0, 0.01, 1),
    "fmt_eps1": lambda k: fmt_eps1(1.0, 0.01, 100, k),
}


@pytest.mark.parametrize("site", DOMAIN_SIZE_SITES)
@pytest.mark.parametrize("k, error, message", [
    (1, DomainTooSmall, "k must be >= 2, got 1"),
    (2.5, ValidationError, "k must be an integer, got 2.5"),
    (True, ValidationError, "k must be an integer, got True"),
])
def test_domain_size_sites_share_one_rule(site, k, error, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$") as raised:
        DOMAIN_SIZE_SITES[site](k)
    assert type(raised.value) is error


def test_rr_params_store_an_integral_k_as_int():
    params = RRParams(eps0=1.0, k=3.0)
    assert params.k == 3 and type(params.k) is int
    assert params == RRParams(eps0=1.0, k=3)


# every call that takes a tolerance alpha, each checking it with core._check_alpha
ALPHA_SITES = {
    **{f"{variant}.clip_bound": (lambda a, cal=cal: cal.clip_bound(2, 1.0, a))
       for variant, cal in GAUSSIAN_CALIBRATIONS.items()},
    "sub.complexity": lambda a: KARY_CALIBRATIONS["sub"].complexity("single", 3, a, 1.0),
    "shurr_weak_complexity": lambda a: shurr_weak_complexity(3, a, 1.0, 0.01, 1),
    "elap_tail_radius": lambda a: elap_tail_radius(ELapParams(d=2, b=1.0), a),
}


@pytest.mark.parametrize("site", ALPHA_SITES)
@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5, math.nan])
def test_alpha_sites_share_one_rule(site, alpha):
    with pytest.raises(InvalidAlpha, match=f"^alpha must be in \\(0, 1\\), got {alpha}$"):
        ALPHA_SITES[site](alpha)


class TestCsvIO:
    def test_kary_roundtrip(self, tmp_path):
        path = tmp_path / "data.csv"
        write_kary_csv(path, [1, 2, 3, 2])
        data = read_kary_csv(path)
        assert list(data.values) == [1, 2, 3, 2]
        assert data.k == 3

    def test_kary_explicit_k_and_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("value\n1\n2\n")
        data = read_kary_csv(path, k=5)
        assert data.k == 5

    def test_vector_roundtrip(self, tmp_path):
        path = tmp_path / "vec.csv"
        rows = np.array([[0.125, -3.5], [1e-8, 2.0]])
        write_vector_csv(path, rows)
        data = read_vector_csv(path)
        assert np.array_equal(data.rows, rows)

    def test_vector_ragged(self, tmp_path):
        path = tmp_path / "vec.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValidationError):
            read_vector_csv(path)


# Files that probe the edges of the CSV format.  Each is read by the one-pass
# numpy path where it applies and by the csv-module path alone; both must give
# the same dataset or the same typed error.
AWKWARD_FILES = {
    "header": b"value\n1\n2\n",
    "vector-header": b"a,b\n1.5,2\n3,4\n",
    "blank-lines": b"1\n\n2\n\n",
    "whitespace-line": b"1\n   \n2\n",
    "spaces-around": b" 1\n2 \n",
    "space-separated": b"1 2\n3 4\n",
    "quoted": b'"1"\n"2"\n',
    "vector-quoted": b'"1.5",2\n3,4\n',
    "extra-columns": b"1,5\n2,6\n",
    "ragged": b"1,2\n3\n",
    "ragged-equal-totals": b"5,6\n1,2,3\n4\n",
    "empty-cell": b"1,,2\n3,4,5\n",
    "leading-empty-cell": b",1\n2,3\n",
    "trailing-comma": b"1,\n2,\n",
    "crlf": b"1\r\n2\r\n",
    "vector-crlf": b"1.5,2\r\n3,4\r\n",
    "lone-cr": b"1,2\r3,4\r",
    "cr-cr-lf": b"1,2\r\r\n3,4\n",
    "cr-before-comma": b"1\r,2\n3,4\n",
    "no-final-newline": b"1\n2",
    "vector-no-final-newline": b"1.5,2\n3,4",
    "non-numeric": b"1\nx\n",
    "vector-non-numeric": b"1,2\n3,x\n",
    "lone-minus": b"1\n-\n",
    "lone-e": b"1\ne\n",
    "lone-dot": b"1\n.\n",
    "vector-lone-minus": b"1,2\n-,3\n",
    "vector-lone-e": b"1,2\n3,e\n",
    "first-cell-e": b"e\n1\n",
    "double-sign": b"+-1\n2\n",
    "nan": b"1\nnan\n",
    "inf": b"1.0\ninf\n",
    "overflow-to-inf": b"1e400\n2\n",
    "leading-zeros": b"007\n3\n",
    "wide-leading-zeros": b"0000000000000000000000000000007\n3\n",
    "eighteen-digits": b"999999999999999999\n1\n",
    "int64-max-minus-one": b"9223372036854775806\n1\n",
    "plus-sign": b"+1\n2\n",
    "float-spellings": b".5\n5.\n1e+05\n",
    "signed-vector": b"-1.5,-2e-3\n+3,4E2\n",
    "zero": b"0\n1\n2\n",
    "negative": b"-1\n2\n",
    "fraction": b"1.5\n2\n",
    "above-k": b"1\n2\n5\n",
    "int64-max": b"9223372036854775807\n1\n",
    "beyond-int64": b"99999999999999999999\n1\n",
    "beyond-int64-after-header": b"value\n99999999999999999999\n",
    "empty": b"",
    "only-newlines": b"\n\n",
    "only-cr": b"\r",
    "only-crlfs": b"\r\n\r\n",
    "int64-max-plus-one": b"9223372036854775808\n",
    "vector-blank-lines": b"1,2\n\n3,4\n\n",
    "only-header": b"x\n",
    "bom": b"\xef\xbb\xbf1\n2\n3\n",
    "vector-bom": b"\xef\xbb\xbf0.5,1\n2,3\n",
    "bom-header": b"\xef\xbb\xbfvalue\n1\n2\n",
    "bom-quoted": b'\xef\xbb\xbf"1"\n2\n',
}


def _outcome(read, path):
    """A dataset's exact contents, or the class of the typed error raised."""
    try:
        data = read(path)
    except DPSamplerError as exc:
        return type(exc)
    if isinstance(data, KaryDataset):
        return data.values.dtype, data.values.tobytes(), data.k, type(data.k)
    return data.rows.dtype, data.rows.shape, data.rows.tobytes()


def _both_paths(monkeypatch, path):
    readers = [read_kary_csv, lambda p: read_kary_csv(p, k=3), read_vector_csv]
    default = [_outcome(read, path) for read in readers]
    reader, calls = dpsampler.core.csv.reader, []

    def counted_reader(*args, **kwargs):
        calls.append(args)
        return reader(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(dpsampler.core, "_plain_ints", lambda raw: None)
        patch.setattr(dpsampler.core, "_plain_vectors", lambda raw: None)
        patch.setattr(dpsampler.core.csv, "reader", counted_reader)
        csv_only = [_outcome(read, path) for read in readers]
    # else the csv-only side took the one-pass path too and compared it with itself
    assert len(calls) == len(readers), path
    return default, csv_only


def _reference_write_kary_csv(path, values):
    with open(path, "w", newline="") as fh:
        for v in np.asarray(values).ravel():
            fh.write(f"{int(v)}\n")


def _reference_write_vector_csv(path, rows):
    arr = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    with open(path, "w", newline="") as fh:
        for row in arr:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _wide_floats(gen, shape):
    """Finite float64s from random bit patterns (subnormals included) plus hand-picked edges."""
    x = gen.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)
    x[~np.isfinite(x)] = 0.0
    x.flat[:4] = [-0.0, 5e-324, 1e16, -1.7976931348623157e308]
    return x


_LINE_BREAKS = [b"\n", b"\r\n", b"\r", b"\n\n", b"\r\n\r\n", b"\r\r"]


def _digit_cells(gen, n: int, widest: int) -> list[bytes]:
    """n nonzero integers of 1 to ``widest`` digits, mostly short; some have leading zeros."""
    widths = np.where(gen.random(n) < 0.9, gen.integers(1, 4, n), gen.integers(1, widest + 1, n))
    widths = np.minimum(widths, widest)
    ends = np.cumsum(widths)
    digits = gen.integers(ord("0"), ord("9") + 1, ends[-1], dtype=np.uint8)
    digits[ends - 1] = gen.integers(ord("1"), ord("9") + 1, n)
    starts = ends - widths
    padded = starts[(widths > 1) & (gen.random(n) < 0.1)]
    digits[padded] = ord("0")
    text = digits.tobytes()
    return [text[a:b] for a, b in zip(starts.tolist(), ends.tolist())]


def _kary_file(gen, size: int, widest: int) -> bytearray:
    """About ``size`` bytes of k-ary cells, each followed by one of ``_LINE_BREAKS``."""
    n = size // 4
    cells = _digit_cells(gen, n, widest)
    breaks = gen.integers(0, len(_LINE_BREAKS), n).tolist()
    return bytearray(b"".join(cell + _LINE_BREAKS[j] for cell, j in zip(cells, breaks)))


class TestCsvFastPath:
    @pytest.mark.parametrize("name", sorted(AWKWARD_FILES))
    def test_matches_csv_path(self, tmp_path, monkeypatch, name):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(AWKWARD_FILES[name])
        default, csv_only = _both_paths(monkeypatch, path)
        assert default == csv_only

    def test_byte_order_mark_keeps_first_row(self, tmp_path):
        kary, vector = tmp_path / "k.csv", tmp_path / "v.csv"
        kary.write_bytes(b"\xef\xbb\xbf1\n2\n3\n")
        vector.write_bytes(b"\xef\xbb\xbf0.5,1\n2,3\n")
        assert read_kary_csv(kary).values.tolist() == [1, 2, 3]
        assert read_vector_csv(vector).rows.tolist() == [[0.5, 1.0], [2.0, 3.0]]

    def test_repr_round_trip_matches_csv_path(self, tmp_path, monkeypatch):
        gen = np.random.default_rng(90)
        rows = np.vstack([_wide_floats(gen, (5000, 3)), gen.standard_normal((5000, 3))])
        path = tmp_path / "vec.csv"
        write_vector_csv(path, rows)
        default, csv_only = _both_paths(monkeypatch, path)
        assert default == csv_only
        assert default[2] == (np.dtype(np.float64), rows.shape, rows.tobytes())

    def test_cell_parse_matches_python(self):
        # the one-pass path rests on numpy accepting a cell exactly when
        # float()/int() does, with the same value
        tokens = [
            "".join(chars)
            for size in range(1, 6)
            for chars in itertools.product("09.eE+-", repeat=size)
        ]
        # correctly rounded halfway, subnormal and overflow edges
        tokens += [
            "9007199254740993",
            "1.00000000000000011102230246251565404236316680908203125",
            "2.2250738585072011e-308",
            "2.4703282292062327e-324",
            "2.4703282292062328e-324",
            "1.7976931348623158e308",
            "1.7976931348623159e308",
        ]
        for token in tokens:
            parsed = dpsampler.core._cells(token.encode(), np.float64)
            try:
                expected = float(token)
            except ValueError:
                assert parsed is None, token
            else:
                assert parsed is not None, token
                assert parsed.tobytes() == np.float64(expected).tobytes(), token
        # the k-ary alphabet's cells are digits only, read by the digit pass
        # up to 18 digits wide
        ints = ["".join(chars) for size in range(1, 7) for chars in itertools.product("0159", repeat=size)]
        ints += ["9" * 18, "0" * 17 + "7", "1" + "0" * 17]
        for token in ints:
            assert dpsampler.core._plain_ints(token.encode()).tolist() == [int(token)], token
        # a wider cell, which may exceed int64, is left to the csv path
        for token in ["0" * 30 + "7", "1" + "0" * 18, "9223372036854775806", "9223372036854775807",
                      "9223372036854775808", "18446744073709551616", "9" * 30]:
            assert dpsampler.core._plain_ints(token.encode()) is None, token
        # numpy reads a lone sign as the int 0, which int() refuses; so the
        # k-ary alphabet admits no sign, and a signed value takes the csv path
        for token in ["+", "-"]:
            assert dpsampler.core._cells(token.encode(), np.int64).tolist() == [0], token
        assert not set(b"+-") & set(dpsampler.core._KARY_BYTES)

    def test_plain_files_skip_the_csv_module(self, tmp_path, monkeypatch):
        # the writers' own output must take the one-pass path, or every CLI
        # read would silently fall back to the slow one
        gen = np.random.default_rng(93)
        values, rows = gen.integers(1, 11, 10_000), _wide_floats(gen, (10_000, 3))
        kary, vector, header = tmp_path / "k.csv", tmp_path / "v.csv", tmp_path / "h.csv"
        write_kary_csv(kary, values)
        write_vector_csv(vector, rows)
        header.write_text("value\n1\n")

        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader called")

        monkeypatch.setattr(dpsampler.core.csv, "reader", refuse)
        with monkeypatch.context() as patch:
            # k-ary files take the digit pass, not numpy's text parser
            patch.setattr(dpsampler.core.np, "fromstring", refuse)
            assert read_kary_csv(kary).values.tolist() == values.tolist()
        assert read_vector_csv(vector).rows.tobytes() == rows.tobytes()
        with pytest.raises(AssertionError, match="csv.reader called"):
            read_kary_csv(header)

    def test_random_plain_files_match_csv_path(self, monkeypatch):
        # short files over each plain alphabet, and a dense pool of the bytes
        # that make blank cells, ragged rows and blank lines
        gen = np.random.default_rng(94)
        pools = [dpsampler.core._KARY_BYTES, dpsampler.core._VECTOR_BYTES, b"12,\n"]
        file = {}
        # served from memory: opening 18k files would be most of the test's time
        monkeypatch.setattr(dpsampler.core, "_read_bytes", lambda path: file["raw"])
        plain = [0, 0]
        for pool in pools:
            for _ in range(1000):
                raw = file["raw"] = bytes(gen.choice(list(pool), size=int(gen.integers(0, 13))).tolist())
                default, csv_only = _both_paths(monkeypatch, "fuzz.csv")
                assert default == csv_only, raw
                plain[0] += dpsampler.core._plain_ints(raw) is not None
                plain[1] += dpsampler.core._plain_vectors(raw) is not None
        # each one-pass reader must accept a good share, or this compares little
        assert min(plain) > 1000

    def test_multi_chunk_kary_files_match_csv_path(self, tmp_path, monkeypatch):
        # cells of 1 to 20 digits, some with leading zeros, between mixed line
        # breaks and blank lines, over up to four chunks, with a cell placed at
        # every chunk's nominal end
        gen = np.random.default_rng(95)
        chunk, plain = dpsampler.core._CHUNK_BYTES, 0
        for i, widest in enumerate([2, 4, 9, 18, 19, 20] * 2):
            raw = _kary_file(gen, 2**10 * (210 if i == 0 else int(gen.integers(16, 211))), widest)
            start = 0
            while start + chunk < len(raw):
                end = start + chunk
                cell = _digit_cells(gen, 1, widest)[0]
                at = end - int(gen.integers(0, len(cell) + 1))
                raw[at - 1:at + len(cell) + 1] = b"\n" + cell + b"\r"
                start = max(raw.rfind(b"\n", start, end), raw.rfind(b"\r", start, end)) + 1
            path = tmp_path / f"fuzz{i}.csv"
            path.write_bytes(raw)
            default, csv_only = _both_paths(monkeypatch, path)
            assert default == csv_only, (i, widest)
            plain += dpsampler.core._plain_ints(bytes(raw)) is not None
        # files whose cells all have at most 18 digits take the digit pass
        assert plain >= 8

    def test_kary_read_keeps_its_temporaries_chunk_sized(self, tmp_path):
        n = 300_000
        values = np.random.default_rng(96).integers(1, 11, n)
        path = tmp_path / "k.csv"
        write_kary_csv(path, values)
        tracemalloc.start()
        try:
            data = read_kary_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.values.tolist() == values.tolist()
        # a whole-file temporary per byte would add 1 to 8 bytes per file byte
        assert peak < 8 * n + 2**21


class TestCsvWriters:
    @pytest.mark.parametrize("values", [
        np.arange(1, 1001),
        np.array([1.0, 2.0, 30.0]),
        np.array([-2.7, 2.7, 0.0]),
        np.array([[1, 2], [3, 4]], dtype=np.uint8),
        np.array([True, False]),
        [4, 5, 6],
        7,
        np.array([], dtype=np.int64),
    ], ids=["int64", "integer-valued-float", "truncated-float", "2d-uint8", "bool", "list",
            "scalar", "empty"])
    def test_kary_matches_reference(self, tmp_path, values):
        write_kary_csv(tmp_path / "new.csv", values)
        _reference_write_kary_csv(tmp_path / "ref.csv", values)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("rows", [
        _wide_floats(np.random.default_rng(91), (2000, 3)),
        np.random.default_rng(92).standard_normal((300, 1)),
        np.array([0.1, -0.0, np.inf, np.nan]),
        [[1, 2], [3, 4]],
        np.empty((0, 2)),
        np.empty(0),
    ], ids=["wide-floats", "one-column", "one-row-nonfinite", "int-list", "no-rows", "empty-1d"])
    def test_vector_matches_reference(self, tmp_path, rows):
        write_vector_csv(tmp_path / "new.csv", rows)
        _reference_write_vector_csv(tmp_path / "ref.csv", rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
