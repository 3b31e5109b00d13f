import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

import dpsampler.kary
from dpsampler.audit import (
    _report,
    _verdict,
    audit_elap_mechanism,
    audit_rr_local,
    audit_shurr_marginal,
    audit_subrr_pure,
    audit_zcdp_gaussian,
    report_from_json,
    report_to_json,
    reverify,
)
from dpsampler.core import KaryDataset, PrivacyBudget, RandomSource
from dpsampler.divergences import eps_delta_closeness
from dpsampler.elap import ELapParams, elap_sample
from dpsampler.errors import EmptyDataset, InsufficientData, ValidationError
from dpsampler.gaussian import GAUSSIAN_CALIBRATIONS
from dpsampler.kary import (
    KARY_CALIBRATIONS,
    RRParams,
    rr_mixture_dist,
    rr_pmf,
    rr_row,
    subrr_eps0,
    subrr_sample_complexity,
)
from dpsampler.multisampling import gaussian_sampler


def _compositions(total: int, parts: int):
    # all count vectors of length `parts` summing to `total`
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def reference_audit_subrr_pure(k, n, eps, claimed_eps=None):
    """audit_subrr_pure as a nested loop over (counts, a, b), one outcome vector at a time."""
    eps0 = subrr_eps0(eps, n)
    params = RRParams(eps0=eps0, k=k)
    rows = np.stack([rr_row(x, params) for x in range(1, k + 1)])
    bound = eps if claimed_eps is None else claimed_eps
    best = (0.0, None)
    pairs = 0
    for counts in _compositions(n, k):
        base = np.asarray(counts, dtype=np.float64) @ rows / n
        for a in range(k):
            if counts[a] == 0:
                continue
            for b in range(k):
                if b == a:
                    continue
                neighbor = base + (rows[b] - rows[a]) / n
                pairs += 1
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratios = np.log(base) - np.log(neighbor)
                # an outcome neither law can produce is no evidence either way
                ratios[(base == 0) & (neighbor == 0)] = -np.inf
                y = int(np.argmax(ratios))
                if ratios[y] > best[0]:
                    best = (float(ratios[y]), {
                        "counts": list(counts),
                        "replaced": a + 1,
                        "replacement": b + 1,
                        "outcome": y + 1,
                    })
    return _report("subrr", PrivacyBudget.pure(bound), best[0], bound, pairs, best[1] or {},
                   eps0=eps0, proof_intermediate_log=math.log1p(math.exp(eps0) / n))


def reference_audit_rr_local(k, eps0):
    """audit_rr_local's measured value as a loop over every (x, x', y) triple."""
    params = RRParams(eps0=eps0, k=k)
    best = 0.0
    for x, x_alt, y in itertools.product(range(1, k + 1), repeat=3):
        mass, mass_alt = rr_pmf(x, y, params), rr_pmf(x_alt, y, params)
        if mass > 0.0:
            best = max(best, math.log(mass / mass_alt) if mass_alt > 0.0 else math.inf)
    return best


def _same_measure(report, reference):
    """Equal within 1e-12 relative, or inf on both sides."""
    if math.isinf(reference):
        return report.measured == reference
    return report.measured == pytest.approx(reference, rel=1e-12, abs=0.0)


class TestAuditRRLocal:
    def test_matches_triple_loop_reference(self):
        for k, eps0 in itertools.product(range(2, 9), (0.0, 0.5, 1.0, 2.0, 6.0, 36.0, 40.0)):
            for claimed in (None, 0.99 * eps0):
                report = audit_rr_local(k, eps0, claimed_eps=claimed)
                reference = reference_audit_rr_local(k, eps0)
                assert _same_measure(report, reference), (k, eps0)
                bound = eps0 if claimed is None else claimed
                assert report.verdict == _verdict(reference, bound), (k, eps0, claimed)
                if eps0 > 0.0:  # at eps0 = 0 the ratios are rounding noise
                    assert report.witness == {"x": 1, "x_alt": 2, "outcome": 1}, (k, eps0)
                assert report.probe_count == k

    def test_measured_equals_eps0(self):
        report = audit_rr_local(2, 1.0)
        assert report.measured == pytest.approx(1.0, abs=1e-12)
        assert report.verdict == "pass"

    def test_tightness_fails_understated_claim(self):
        report = audit_rr_local(2, 1.0, claimed_eps=0.99)
        assert report.verdict == "fail"
        w = report.witness
        assert w["x"] != w["x_alt"] and w["outcome"] == w["x"]

    def test_zero_eps0(self):
        report = audit_rr_local(4, 0.0)
        assert report.measured == 0.0
        assert report.verdict == "pass"

    def test_factor_two_violation_detected(self):
        assert audit_rr_local(3, 2.0, claimed_eps=1.0).verdict == "fail"

    def test_underflowed_off_diagonal_mass_fails_with_inf(self):
        # keep_prob rounds to 1.0 at eps0 = 40, so RR (and its sampler) never
        # flips: outcome x has mass 1 under x and 0 under x', an unbounded ratio
        assert RRParams(eps0=40.0, k=3).keep_prob == 1.0
        report = audit_rr_local(3, 40.0)
        assert report.measured == math.inf
        assert report.verdict == "fail"
        assert report.witness == {"x": 1, "x_alt": 2, "outcome": 1}
        assert reverify(report_from_json(report_to_json(report)))


class TestAuditSubRRPure:
    def test_k2_n2_hand_enumeration(self):
        report = audit_subrr_pure(2, 2, 1.0)
        # eps0 = ln 2; worst pair [1,2] vs [2,2] at outcome 1: (1/2)/(1/3) = 3/2
        assert math.exp(report.measured) == pytest.approx(1.5, rel=1e-12)
        assert report.verdict == "pass"
        # proof's intermediate bound 1 + e^eps0/n = 2 dominates, itself below e^eps
        assert report.measured <= report.details["proof_intermediate_log"]
        assert report.details["proof_intermediate_log"] == pytest.approx(math.log(2.0), rel=1e-12)

    def test_k3_n3_passes(self):
        report = audit_subrr_pure(3, 3, 0.5)
        assert report.verdict == "pass"
        assert report.measured <= report.details["proof_intermediate_log"] + 1e-12

    def test_understated_claim_fails_with_witness(self):
        report = audit_subrr_pure(2, 2, 1.0, claimed_eps=0.1)
        assert report.verdict == "fail"
        assert report.witness["counts"]

    def test_factor_two_violation_detected(self):
        # k=4, n=6, eps=2: worst ratio (n-1+eps*n)/n = 17/6 exceeds e^(eps/2)
        report = audit_subrr_pure(4, 6, 2.0, claimed_eps=1.0)
        assert report.verdict == "fail"
        assert math.exp(report.measured) == pytest.approx(17.0 / 6.0, rel=1e-9)

    def test_grid_respects_intermediate_bound(self):
        for k in (2, 3, 4):
            for n in (2, 3, 4, 5, 6):
                for eps in (0.5, 1.0, 2.0):
                    if eps * n <= 1.0:
                        continue
                    report = audit_subrr_pure(k, n, eps)
                    assert report.verdict == "pass"
                    assert (
                        report.measured
                        <= report.details["proof_intermediate_log"] + 1e-12
                    )

    @pytest.mark.parametrize("k, alpha, eps", [
        (2, 0.1, 1.0), (6, 0.05, 0.5), (50, 0.01, 1.0), (1000, 0.01, 0.5), (10, 1e-4, 0.1),
    ])
    def test_passes_at_its_samplers_own_n(self, k, alpha, eps):
        # n runs from 18 to 899,910: the worst pair's ratio is 1 + (e^eps0 - 1)/n
        n = subrr_sample_complexity(k, alpha, eps).n_required
        report = audit_subrr_pure(k, n, eps)
        assert report.verdict == "pass"
        assert report.measured == pytest.approx(
            math.log1p(math.expm1(report.details["eps0"]) / n), rel=1e-12
        )
        assert report.witness == {"counts": [n - 1, 1] + [0] * (k - 2), "replaced": 2,
                                  "replacement": 1, "outcome": 2}
        planted = audit_subrr_pure(k, n, eps, claimed_eps=report.measured - 0.01)
        assert planted.verdict == "fail"

    def test_memory_does_not_grow_with_n(self):
        # both k-ary audits read two count vectors of length k, not n records
        tracemalloc.start()
        try:
            audit_subrr_pure(20, 10**12, 1.0)
            audit_shurr_marginal(20, 10**12, 1.0, 1e-6, None, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_underflowed_off_diagonal_mass_fails_with_inf(self):
        # eps = 1e17 at n = 2 gives keep_prob 1.0: the rows are the identity,
        # so removing the only record a leaves outcome a no mass at all
        assert RRParams(eps0=subrr_eps0(1e17, 2), k=3).keep_prob == 1.0
        report = audit_subrr_pure(3, 2, 1e17)
        assert report.measured == math.inf
        assert report.verdict == "fail"
        # replacing the lone 2 by a 1 empties outcome 2
        assert report.witness == {"counts": [1, 1, 0], "replaced": 2, "replacement": 1,
                                  "outcome": 2}

    def test_no_moved_outcome_measures_zero(self, monkeypatch):
        # identical rows: no replacement moves any outcome's probability
        monkeypatch.setattr(dpsampler.kary, "rr_row", lambda x, params: np.full(params.k, 0.25))
        report = audit_subrr_pure(4, 3, 1.0)
        assert report.measured == 0.0
        assert report.witness == {"counts": [2, 1, 0, 0], "replaced": 2, "replacement": 1,
                                  "outcome": 1}
        assert report.verdict == "pass"

    def test_matches_nested_loop_reference(self):
        checked = 0
        for k in range(2, 7):
            for n in range(1, 9):
                if k**n > 10**6:
                    continue
                for eps in (0.5, 1.0, 2.0):
                    for claimed in (None, 0.1):
                        try:
                            expected = reference_audit_subrr_pure(k, n, eps, claimed)
                        except InsufficientData:
                            continue
                        report = audit_subrr_pure(k, n, eps, claimed_eps=claimed)
                        case = (k, n, eps, claimed)
                        assert _same_measure(report, expected.measured), case
                        assert report.verdict == expected.verdict, case
                        checked += 1
        assert checked > 200
        # keep_prob rounds to 1.0 at eps = 1e17: both sides must measure inf;
        # n = 9 lies past the grid
        for k, n, eps in [(3, 2, 1e17), (2, 9, 0.5)]:
            report = audit_subrr_pure(k, n, eps)
            expected = reference_audit_subrr_pure(k, n, eps)
            assert _same_measure(report, expected.measured), (k, n, eps)
            assert report.verdict == expected.verdict, (k, n, eps)


def _marginal_pmf(values, k, eps0):
    """First-output law (1/n) * sum_i rr_pmf(x_i, y), one record at a time."""
    params = RRParams(eps0=eps0, k=k)
    return [sum(rr_pmf(int(x), y, params) for x in values) / len(values)
            for y in range(1, k + 1)]


def _hockey_stick_both(p, q, eps):
    beta = math.exp(eps)
    forward = sum(max(pi - beta * qi, 0.0) for pi, qi in zip(p, q))
    backward = sum(max(qi - beta * pi, 0.0) for pi, qi in zip(p, q))
    return max(forward, backward)


def _default_pair(n):
    ones = np.ones(n, dtype=np.int64)
    replaced = ones.copy()
    replaced[-1] = 2
    return ones, replaced


# (k, n, eps0, eps) cells for the exact shuffle-marginal audit
SHURR_GRID = list(itertools.product(range(2, 5), range(1, 7), (0.5, 2.0, 6.0), (0.05, 0.5, 1.0)))


class TestAuditShuRRMarginal:
    def test_identical_datasets_gap_near_zero(self):
        law = rr_mixture_dist(KaryDataset(values=np.ones(50, dtype=np.int64), k=2), 2.0)
        assert eps_delta_closeness(law, law, 4.0).delta_at_eps == 0.0
        # at eps0 = 0 every record reports uniformly, so the audited pair's laws agree
        report = audit_shurr_marginal(2, 50, 4.0, 0.5, None, None, eps0=0.0)
        assert report.verdict == "pass"
        assert report.measured == 0.0

    def test_weak_complexity_point_passes(self):
        from dpsampler.kary import shurr_weak_complexity

        k, alpha, eps, delta = 2, 0.5, 4.0, 0.01
        n = shurr_weak_complexity(k, alpha, eps, delta, 1).n_required
        report = audit_shurr_marginal(k, n, eps, delta, None, None)
        assert report.verdict == "pass"

    def test_planted_violation_detected(self):
        # near-deterministic local reports with a tiny claimed budget
        report = audit_shurr_marginal(2, 10, 0.05, 0.001, None, None, eps0=12.0)
        assert report.verdict == "fail"
        assert report.measured == pytest.approx(0.09999845, abs=1e-8)
        assert report.bound == 0.001

    def test_measured_delta_matches_exact_mixture_laws(self):
        # position 1 is RR on a uniform record, so the gap is the closeness of
        # the two rr_mixture_dist laws
        k, n, eps, eps0 = 3, 4, 0.05, 3.0
        values_a, values_b = _default_pair(n)
        exact = eps_delta_closeness(
            rr_mixture_dist(KaryDataset(values=values_a, k=k), eps0),
            rr_mixture_dist(KaryDataset(values=values_b, k=k), eps0),
            eps,
        ).delta_at_eps
        report = audit_shurr_marginal(k, n, eps, 0.001, None, None, eps0=eps0)
        assert exact == pytest.approx(0.2137, abs=1e-4)
        assert report.measured == exact

    def test_matches_hand_built_marginals(self):
        # the audit on its pair, and the mixture laws it reads on random pairs
        gen = np.random.default_rng(61)
        for k, n, eps0, eps in SHURR_GRID:
            values_a = gen.integers(1, k + 1, size=n)
            values_b = values_a.copy()
            values_b[gen.integers(n)] = gen.integers(1, k + 1)
            deltas = []
            for pair in (_default_pair(n), (values_a, values_b)):
                expected = _hockey_stick_both(
                    _marginal_pmf(pair[0], k, eps0), _marginal_pmf(pair[1], k, eps0), eps
                )
                laws = [rr_mixture_dist(KaryDataset(values=v, k=k), eps0) for v in pair]
                deltas.append(eps_delta_closeness(laws[0], laws[1], eps).delta_at_eps)
                case = (k, n, eps0, eps, pair)
                assert deltas[-1] == pytest.approx(expected, rel=0, abs=1e-12), case
            report = audit_shurr_marginal(k, n, eps, 0.01, None, None, eps0=eps0)
            assert report.measured == deltas[0]
            assert report.bound == 0.01
            assert report.probe_count == k

    def test_default_pair_reaches_the_worst_neighbouring_pair(self):
        # the marginal depends on the counts only, so enumerate count vectors
        # and every single-record replacement of each
        for k, n, eps0 in itertools.product(range(2, 5), range(1, 7), (0.5, 2.0, 6.0)):
            counts = list(_compositions(n, k))
            laws = {c: _marginal_pmf(np.repeat(np.arange(1, k + 1), c), k, eps0) for c in counts}
            for eps in (0.05, 0.5, 1.0):
                worst = 0.0
                for c in counts:
                    for a, b in itertools.permutations(range(k), 2):
                        if c[a] == 0:
                            continue
                        neighbor = list(c)
                        neighbor[a] -= 1
                        neighbor[b] += 1
                        worst = max(worst, _hockey_stick_both(laws[c], laws[tuple(neighbor)], eps))
                report = audit_shurr_marginal(k, n, eps, 0.01, None, None, eps0=eps0)
                assert report.measured >= worst - 1e-12, (k, n, eps0, eps)

    def test_draws_no_random_numbers(self):
        for args, eps0 in [((2301, 4.0, 0.01), None), ((10, 0.05, 0.001), 12.0)]:
            rng = RandomSource(62)
            before = rng.generator.bit_generator.state
            audit_shurr_marginal(2, *args, 10**4, rng, eps0=eps0)
            assert rng.generator.bit_generator.state == before

    def test_n_with_negative_local_parameter_refused(self):
        # at n = 8,756 ln(f^2 n / ln(4/delta) - 1) = -0.69; the audit refuses it
        # as the sampler does, naming the smallest n the calibration accepts
        with pytest.raises(InsufficientData, match="need n >= 11675 at"):
            audit_shurr_marginal(2, 8756, 1.0, 1e-6, None, None)

    def test_eps0_read_from_the_calibration(self):
        report = audit_shurr_marginal(2, 2301, 4.0, 0.01, None, None)
        assert report.details["eps0"] == KARY_CALIBRATIONS["shuffle"].eps0(4.0, 0.01, 2301)

    def test_n_beyond_the_int64_counts_refused(self):
        # both k-ary audits count records in int64, so n = 2^63 cannot be held
        for audit in (lambda n: audit_subrr_pure(3, n, 1.0),
                      lambda n: audit_shurr_marginal(3, n, 1.0, 0.01, None, None)):
            assert audit(2**63 - 1).probe_count == 3
            with pytest.raises(ValidationError, match="need n <= 9223372036854775807"):
                audit(2**63)

    def test_empty_dataset_rejected(self):
        # a planted eps0 skips shurr_eps0's own n >= 1 check
        with pytest.raises(EmptyDataset):
            audit_shurr_marginal(2, 0, 1.0, 0.01, None, None, eps0=1.0)


def _elap_probe_search(d, B, eps, probes, rng, differing_rows=None):
    """Reference: the 0.3.0 audit's probe search for the largest |log ratio|.

    Half the probes come from the mechanism's own output law around S, half
    lie on the line through S' and S, extended by 3b on both sides.  Draws the
    same sums as ``audit_elap_mechanism`` at the same rng.
    """
    b = B / eps
    gen = rng.generator

    def random_in_ball():
        vec = gen.standard_normal(d)
        return vec * (B * gen.random() ** (1.0 / d) / np.linalg.norm(vec))

    shared = [random_in_ball() for _ in range(3)]
    if differing_rows is None:
        differing_rows = (random_in_ball(), random_in_ball())
    base = np.sum(shared, axis=0)
    sum_a = base + np.asarray(differing_rows[0], dtype=np.float64)
    sum_b = base + np.asarray(differing_rows[1], dtype=np.float64)
    shift = sum_a - sum_b
    shift_norm = float(np.linalg.norm(shift))
    half = probes // 2
    from_law = elap_sample(ELapParams(d=d, b=b), rng, size=half) + sum_a
    direction = shift / shift_norm if shift_norm > 0 else np.eye(d)[0]
    ts = np.linspace(-3.0 * b, shift_norm + 3.0 * b, probes - half)
    on_segment = sum_b[None, :] + ts[:, None] * direction[None, :]
    points = np.vstack([from_law, on_segment])
    ratios = (
        np.linalg.norm(points - sum_b, axis=1) - np.linalg.norm(points - sum_a, axis=1)
    ) / b
    return float(np.abs(ratios).max())


def _elap_pairs(d, B):
    """Differing-row pairs: random (None), antipodal, equal and collinear."""
    e1 = np.eye(d)[0]
    u = np.ones(d) / math.sqrt(d)
    return {
        "random": None,
        "antipodal": (B * e1, -B * e1),
        "equal": (0.5 * B * u, 0.5 * B * u),
        "collinear": (0.25 * B * u, 0.75 * B * u),
    }


class TestAuditElapMechanism:
    # from d = 8 on, _row_norms hands the witness row to np.linalg.norm
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8])
    def test_closed_form_matches_probe_search_reference(self, d):
        B, eps = 1.5, 0.8
        for pair, rows in _elap_pairs(d, B).items():
            for seed in range(5):
                report = audit_elap_mechanism(
                    d, B, eps, None, RandomSource(300 + seed), differing_rows=rows
                )
                reference = _elap_probe_search(
                    d, B, eps, 2_000, RandomSource(300 + seed), differing_rows=rows
                )
                measured = report.measured
                case = (d, pair, seed)
                # no probe can beat the closed form, and the segment probes beyond
                # S reach it up to rounding
                assert measured >= reference - 1e-12, case
                assert measured == pytest.approx(reference, rel=1e-9, abs=1e-12), case
                bound = report.details["shift_norm"] / report.details["scale"]
                assert measured == pytest.approx(bound, rel=1e-12, abs=1e-15), case
                assert report.bound == bound
                assert set(report.witness) == {"sum_a", "sum_b"}
                assert report.probe_count == 1
                assert report.verdict == "pass"

    @pytest.mark.parametrize("given_pair", [False, True])
    def test_draws_only_the_ball_rows(self, given_pair):
        d, seed = 3, 77
        rows = _elap_pairs(d, 1.0)["antipodal"] if given_pair else None
        rng = RandomSource(seed)
        audit_elap_mechanism(d, 1.0, 1.0, 10**5, rng, differing_rows=rows)
        replay = RandomSource(seed).generator
        for _ in range(3 if given_pair else 5):
            replay.standard_normal(d)
            replay.random()
        assert rng.generator.bit_generator.state == replay.bit_generator.state

    def test_equal_sums_give_zero(self):
        row = np.array([0.5, 0.0])
        report = audit_elap_mechanism(
            2, 1.0, 1.0, 2000, RandomSource(54), differing_rows=(row, row)
        )
        assert report.measured == 0.0
        assert report.verdict == "pass"
        assert report.details["bare_eps_ok"]
        assert "advisory" not in report_to_json(report)

    def test_shift_equal_to_clip_bound_attains_eps(self):
        d, B, eps = 2, 2.0, 1.3
        report = audit_elap_mechanism(
            d, B, eps, 5000, RandomSource(55),
            differing_rows=(np.zeros(d), np.array([B, 0.0])),
        )
        assert report.details["shift_norm"] == pytest.approx(B, rel=1e-12)
        # the ratio peaks at y = S, where it equals ||S - S'||/b = eps
        assert report.measured == pytest.approx(eps, rel=1e-9)
        assert report.verdict == "pass"
        assert report.details["bare_eps_ok"]

    def test_adversarial_two_B_shift(self):
        d, B, eps = 2, 2.0, 0.8
        report = audit_elap_mechanism(
            d, B, eps, 5000, RandomSource(56),
            differing_rows=(np.array([-B, 0.0]), np.array([B, 0.0])),
        )
        assert report.details["shift_norm"] == pytest.approx(2 * B, rel=1e-12)
        assert report.measured == pytest.approx(2 * eps, rel=1e-9)
        assert report.verdict == "pass"  # realized-shift bound holds
        assert not report.details["bare_eps_ok"]  # but the bare eps claim is not certified

    def test_zero_eps_rejected(self):
        with pytest.raises(ValidationError):
            audit_elap_mechanism(2, 1.0, 0.0, 2000, RandomSource(58))

    @pytest.mark.parametrize("d", [0, -1])
    def test_dimension_outside_one_to_four_rejected(self, d):
        with pytest.raises(ValidationError, match="needs d >= 1"):
            audit_elap_mechanism(d, 1.0, 1.0, 2000, RandomSource(59))

    def test_random_pairs_never_exceed_shift_bound(self):
        for seed in range(5):
            report = audit_elap_mechanism(3, 1.5, 1.0, 2000, RandomSource(60 + seed))
            assert report.verdict == "pass"
            assert report.measured <= report.bound + 1e-9


# (d, R, alpha, eps) cells for the zCDP audit sweep
ZCDP_CELLS = [(1, 1.0, 0.1, 1.0), (2, 1.0, 0.1, 1.0), (4, 1.0, 0.05, 0.5), (3, 2.0, 0.2, 2.0)]


def _plant(monkeypatch, variant: str, **fields) -> None:
    """Replace fields of a variant's calibration entry for one test."""
    entry = dataclasses.replace(GAUSSIAN_CALIBRATIONS[variant], **fields)
    monkeypatch.setitem(GAUSSIAN_CALIBRATIONS, variant, entry)


def _plant_half_sigma(monkeypatch, cell) -> None:
    """Known covariance adding half the noise its own n is computed for."""
    known = GAUSSIAN_CALIBRATIONS["zcdp-known"]
    report = known.complexity(*cell)
    _plant(monkeypatch, "zcdp-known", complexity=lambda *args: report,
           sigma2=lambda d, alpha, n: known.sigma2(d, alpha, n) / 4.0)


class TestAuditZcdpGaussian:
    @pytest.mark.parametrize("cell", ZCDP_CELLS)
    @pytest.mark.parametrize("variant", [
        "zcdp-known",
        pytest.param("zcdp-bounded", marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 1: n = 4 sqrt(d) B^2 / (alpha eps^2) leaves rho near 6 eps^2/2"))),
    ])
    def test_each_spec_passes_at_its_own_n(self, variant, cell):
        report = audit_zcdp_gaussian(variant, *cell)
        assert report.verdict == "pass", report.measured / report.bound
        assert reverify(report)

    @pytest.mark.parametrize("cell", ZCDP_CELLS)
    def test_planted_half_sigma_fails_the_sweep(self, monkeypatch, cell):
        _plant_half_sigma(monkeypatch, cell)
        with pytest.raises(AssertionError):
            self.test_each_spec_passes_at_its_own_n("zcdp-known", cell)

    @pytest.mark.parametrize("variant", ["zcdp-known", "zcdp-bounded"])
    def test_reads_the_samplers_own_calibration(self, variant):
        d, R, alpha, eps = 2, 1.0, 0.1, 1.0
        cal = GAUSSIAN_CALIBRATIONS[variant]
        n = gaussian_sampler(variant, d, R, eps, alpha).n_per_call(alpha)
        report = audit_zcdp_gaussian(variant, d, R, alpha, eps)
        assert report.witness["n"] == n
        assert report.witness["B"] == cal.clip_bound(d, R, alpha)
        assert report.witness["sigma"] == math.sqrt(cal.sigma2(d, alpha, n))

    def test_bounded_is_about_six_times_over_budget(self):
        report = audit_zcdp_gaussian("zcdp-bounded", 2, 1.0, 0.1, 1.0)
        assert report.verdict == "fail"
        assert 5.8 < report.measured / report.bound < 6.0

    def test_exact_calibration_gives_equality(self, monkeypatch):
        d, R, alpha, eps = 2, 1.0, 0.1, 1.0
        known = GAUSSIAN_CALIBRATIONS["zcdp-known"]
        B = known.clip_bound(d, R, alpha)
        _plant(monkeypatch, "zcdp-known",
               sigma2=lambda d, alpha, n: (known.sensitivity(B, n) / eps) ** 2)
        report = audit_zcdp_gaussian("zcdp-known", d, R, alpha, eps)
        assert report.verdict == "pass"
        assert report.measured == pytest.approx(eps**2 / 2, abs=1e-12)

    def test_half_sigma_fails_every_order(self, monkeypatch):
        # rho = Delta^2 / (2 sigma^2) is the same at every Renyi order
        cell = (2, 1.0, 0.1, 1.0)
        honest = audit_zcdp_gaussian("zcdp-known", *cell)
        _plant_half_sigma(monkeypatch, cell)
        report = audit_zcdp_gaussian("zcdp-known", *cell)
        assert report.verdict == "fail"
        assert report.measured == pytest.approx(
            4.0 * honest.measured, rel=1e-12
        )

    def test_zero_sensitivity_trivially_passes(self, monkeypatch):
        _plant(monkeypatch, "zcdp-known", sensitivity=lambda B, n: 0.0)
        report = audit_zcdp_gaussian("zcdp-known", 2, 2.0, 0.1, 0.01)
        assert report.verdict == "pass"
        assert report.measured == 0.0

    def test_bounded_cov_uses_direct_max_sensitivity(self):
        report = audit_zcdp_gaussian("zcdp-bounded", 2, 1.0, 0.1, 1.0)
        q = report.witness["n"] // 3
        assert report.witness["n"] == 3 * q
        assert report.witness["sensitivity"] == pytest.approx(
            2.0 * report.witness["B"] * math.sqrt((1 - 1 / q) / (2.0 * q)), rel=1e-12
        )

    @pytest.mark.parametrize("variant", ["pure", "known_cov"])
    def test_refuses_non_zcdp_variants(self, variant):
        with pytest.raises(ValidationError):
            audit_zcdp_gaussian(variant, 2, 1.0, 0.1, 1.0)


def _one_report_per_audit():
    return [
        audit_rr_local(3, 1.0),
        audit_subrr_pure(3, 3, 1.0),
        audit_shurr_marginal(2, 10, 0.05, 0.001, None, None, eps0=12.0),
        audit_elap_mechanism(3, 1.0, 1.0, None, RandomSource(72)),
        audit_zcdp_gaussian("zcdp-known", 2, 1.0, 0.1, 1.0),
    ]


class TestReportSerialization:
    def test_deterministic_given_seed(self):
        a = audit_elap_mechanism(2, 1.0, 1.0, 2000, RandomSource(70))
        b = audit_elap_mechanism(2, 1.0, 1.0, 2000, RandomSource(70))
        assert report_to_json(a) == report_to_json(b)

    def test_roundtrip_and_reverify(self):
        for report in _one_report_per_audit():
            payload = report_to_json(report)
            loaded = report_from_json(payload)
            assert report_to_json(loaded) == payload
            assert reverify(loaded)

    def test_details_hold_no_copy_of_measured_or_bound(self):
        for report in _one_report_per_audit():
            assert report.verdict == _verdict(report.measured, report.bound)
            assert not {"measured", "bound"} & set(report.details), report.mechanism

    def test_payload_without_a_key_is_refused_naming_it(self):
        raw = json.loads(report_to_json(audit_rr_local(3, 1.0)))
        del raw["claimed"]
        with pytest.raises(ValidationError, match="lacks the key.* claimed$"):
            report_from_json(json.dumps(raw))

    @pytest.mark.parametrize("claimed", [5, {"eps": 1.0}, {"epsilon": "1"}])
    def test_malformed_claimed_budget_is_refused(self, claimed):
        raw = json.loads(report_to_json(audit_rr_local(3, 1.0)))
        raw["claimed"] = claimed
        with pytest.raises(ValidationError, match="claimed budget is malformed"):
            report_from_json(json.dumps(raw))

    def test_text_that_is_not_json_is_refused(self):
        with pytest.raises(ValidationError, match="not JSON: Expecting value"):
            report_from_json('{"mechanism": rr}')
        with pytest.raises(ValidationError, match="must be a JSON object, got list"):
            report_from_json("[]")

    def test_0_8_0_report_is_refused_naming_its_missing_keys(self):
        # 0.8.0 kept measured and bound in details and the ratio at top level
        report = audit_subrr_pure(3, 3, 1.0)
        raw = json.loads(report_to_json(report))
        old = {key: value for key, value in raw.items() if key not in ("measured", "bound")}
        old.update(measured_max_log_ratio=report.measured, measured_delta=0.0)
        old["details"] = {"measured": report.measured, "bound": report.bound, **raw["details"]}
        with pytest.raises(ValidationError, match="lacks the key.* measured, bound$"):
            report_from_json(json.dumps(old))

    def test_loads_a_payload_that_carries_advisory(self):
        # 0.4.0 reports carry an "advisory" key, true here (shift 2B > B); it is ignored
        rows = (np.array([-1.0, 0.0]), np.array([1.0, 0.0]))
        report = audit_elap_mechanism(2, 1.0, 1.0, None, RandomSource(71), differing_rows=rows)
        old = json.loads(report_to_json(report))
        old["advisory"] = True
        loaded = report_from_json(json.dumps(old))
        assert report_to_json(loaded) == report_to_json(report)
        assert reverify(loaded)

    def test_reverify_catches_tampering(self):
        report = audit_rr_local(2, 1.0, claimed_eps=0.5)
        assert report.verdict == "fail"
        payload = report_to_json(report).replace('"verdict":"fail"', '"verdict":"pass"')
        assert not reverify(report_from_json(payload))
