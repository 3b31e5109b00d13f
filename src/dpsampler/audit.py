"""Executable privacy verification for the package's mechanisms.

Each audit measures a privacy quantity against a claimed budget and returns
an :class:`AuditReport`, built by ``_report``, whose verdict is ``pass`` iff
its ``measured`` is at most its ``bound`` plus a 1e-9 numeric slack.  Every
audit is exact, and every verdict is binding.  The three k-ary audits (RR,
subsampled RR and the shuffled mechanism's first output) compare the exact
laws of one worst-case neighbouring pair: n ones against n - 1 ones and one
2.  They differ only in n (1 for RR), eps0 and the divergence.  The Gaussian
audits are closed form.  Only the ELap audit draws random numbers (its
dataset pair); every audit is deterministic given its inputs and
RandomSource, and reports serialize to canonical JSON for byte-identical
re-verification.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .core import (
    CategoricalDist,
    PrivacyBudget,
    RandomSource,
    _check_count,
    _check_finite_positive,
    _row_norms,
)
from .divergences import eps_delta_closeness
from .errors import EmptyDataset, ValidationError
from .gaussian import GAUSSIAN_CALIBRATIONS, gaussian_calibration
from .kary import KARY_CALIBRATIONS, RRParams, _rr_mixture

VERDICT_SLACK = 1e-9


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one privacy audit: one measured value against one bound.

    ``measured`` is the audit's binding figure: the worst log-likelihood ratio
    for the pure-DP audits, rho for the zCDP audit and the exact additive delta
    for the shuffle marginal.  ``bound`` is what it must not exceed, and
    ``verdict`` is ``_verdict(measured, bound)``.  ``probe_count`` is the
    number of outcomes or points the audit compares: k for the k-ary audits, 1
    for the closed-form ones.  ``witness`` names where ``measured`` is reached,
    and ``details`` holds the figures stated nowhere else in the report.
    """

    mechanism: str
    claimed: PrivacyBudget
    measured: float
    bound: float
    probe_count: int
    verdict: str
    witness: dict
    details: dict = field(default_factory=dict)


def _verdict(measured: float, bound: float) -> str:
    return "pass" if measured <= bound + VERDICT_SLACK else "fail"


def _report(mechanism: str, claimed: PrivacyBudget, measured: float, bound: float,
            probe_count: int, witness: dict, **details) -> AuditReport:
    """The one place a report is built, so its verdict always follows from measured and bound."""
    return AuditReport(mechanism, claimed, measured, bound, probe_count,
                       _verdict(measured, bound), witness, details)


def report_to_json(report: AuditReport) -> str:
    """Canonical JSON serialization (sorted keys, no whitespace)."""
    return json.dumps(asdict(report), sort_keys=True, separators=(",", ":"))


def report_from_json(payload: str) -> AuditReport:
    """Rebuild a report from its canonical JSON; keys it does not hold are ignored.

    A persisted report is outside input, so a payload that is not a JSON
    object or lacks a field raises ValidationError naming the fault.
    """
    try:
        raw = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"audit report is not JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValidationError(f"audit report must be a JSON object, got {type(raw).__name__}")
    names = [f.name for f in fields(AuditReport)]
    missing = [name for name in names if name not in raw]
    if missing:
        raise ValidationError(f"audit report lacks the key(s) {', '.join(missing)}")
    kwargs = {name: raw[name] for name in names}
    try:
        kwargs["claimed"] = PrivacyBudget(**kwargs["claimed"])
    except TypeError as exc:
        raise ValidationError(f"audit report's claimed budget is malformed: {exc}") from None
    return AuditReport(**kwargs)


def reverify(report: AuditReport) -> bool:
    """Recompute the verdict from the persisted measured/bound pair."""
    return report.verdict == _verdict(report.measured, report.bound)


# --- k-ary randomized response: one worst-case neighbouring pair --------------

_MAX_COUNT = int(np.iinfo(np.int64).max)


def _worst_pair(k: int, n: int, eps0: float) -> tuple[CategoricalDist, CategoricalDist]:
    """RR-mixture laws of n ones and of its neighbour with one record replaced by 2.

    The two count vectors are [n, 0, ...] and [n - 1, 1, 0, ...], so this
    costs O(k) time and memory whatever n is.  They are int64, which bounds n.
    """
    n = _check_count("n", n, -math.inf)
    if n < 1:
        raise EmptyDataset(f"the audited pair needs n >= 1 records, got {n}")
    if n > _MAX_COUNT:
        raise ValidationError(f"n = {n} overflows the int64 record counts; need n <= {_MAX_COUNT}")
    params = RRParams(eps0=eps0, k=k)
    ones = np.zeros(k, dtype=np.int64)
    ones[0] = n
    replaced = ones.copy()
    replaced[:2] = (n - 1, 1)
    return _rr_mixture(ones, params), _rr_mixture(replaced, params)


def _max_log_ratio(laws: tuple[CategoricalDist, CategoricalDist]) -> tuple[float, int, int]:
    """Largest log(p_y / q_y) over both orders (p, q) of the two laws.

    Returns it with the index in ``laws`` of its p and its outcome y; the first
    order, and the first outcome, win ties.  Outcomes p gives no mass are
    skipped, so an outcome with mass under p only gives ``inf``.
    """
    best = (-math.inf, 0, 1)
    for i in (0, 1):
        p, q = laws[i].probs, laws[1 - i].probs
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.log(p / q)
        ratios[p == 0.0] = -math.inf
        y = int(np.argmax(ratios))
        if ratios[y] > best[0]:
            best = (float(ratios[y]), i, y + 1)
    return best


def audit_rr_local(k: int, eps0: float, claimed_eps: float | None = None) -> AuditReport:
    """Worst-case log pmf ratio of k-ary randomized response.

    This is the pair at n = 1: inputs 1 and 2, whose laws are ``rr_row(1)``
    and ``rr_row(2)``.  Any other pair of inputs relabels it, so the maximum
    over outcomes equals eps0 exactly; auditing a smaller claimed budget
    therefore fails with a concrete witness.  Once the keep probability rounds
    to 1.0, outcome x has mass under x only: ``inf``.
    """
    bound = eps0 if claimed_eps is None else claimed_eps
    measured, alt, outcome = _max_log_ratio(_worst_pair(k, 1, eps0))
    x, x_alt = (1, 2) if alt == 0 else (2, 1)
    return _report("rr", PrivacyBudget.pure(bound), measured, bound, k,
                   {"x": x, "x_alt": x_alt, "outcome": outcome}, eps0=eps0)


def audit_subrr_pure(
    k: int, n: int, eps: float, claimed_eps: float | None = None
) -> AuditReport:
    """Worst-case output-probability ratio of the subsampled mechanism.

    The output law ``rr_mixture_dist`` depends on the counts only.  Replacing
    one record a by b lowers only outcome a, from P(a) to P(a) - (RR_a(a) -
    RR_b(a))/n, so the ratio is largest where P(a) is smallest: the dataset
    holds a single a.  Every such pair is a relabelling of n - 1 ones and one
    2 against n ones, whose ratio at outcome 2 is 1 + (e^eps0 - 1)/n, the
    tight subsampling bound.  The audit measures the larger max log ratio of
    that pair's two exact laws, taken in both directions.  An outcome with
    mass before the replacement and none after it gives ``inf`` and a ``fail``.
    """
    eps0 = KARY_CALIBRATIONS["sub"].eps0(eps, None, n)
    bound = eps if claimed_eps is None else claimed_eps
    # the replaced law first: removing its lone 2 gives the larger ratio, and
    # it names the witness on a tie
    measured, alt, outcome = _max_log_ratio(_worst_pair(k, n, eps0)[::-1])
    counts, replaced, replacement = ([n - 1, 1], 2, 1) if alt == 0 else ([n, 0], 1, 2)
    witness = {"counts": counts + [0] * (k - 2), "replaced": replaced,
               "replacement": replacement, "outcome": outcome}
    return _report("subrr", PrivacyBudget.pure(bound), measured, bound, k, witness, eps0=eps0,
                   proof_intermediate_log=KARY_CALIBRATIONS["sub"].certify(eps0, None, n, k))


# --- shuffled randomized response (first-output marginal) ---------------------


def audit_shurr_marginal(
    k: int, n: int, eps: float, delta: float, runs: int | None, rng: RandomSource | None,
    eps0: float | None = None,
) -> AuditReport:
    """Exact (eps, delta) gap of the shuffled mechanism's first output.

    Position 1 of "randomize every record, shuffle, release the first m" is RR
    on a uniformly chosen record, with law ``rr_mixture_dist`` of the dataset.
    The audit takes the hockey-stick divergence at e^eps, in both directions,
    between the laws of the all-ones dataset and its neighbor with one record
    replaced by 2, and binds it to ``delta``.  The first output is a
    post-processing of the release, so a ``fail`` proves the release breaks its
    claim.  For k 2-4, n 1-6, eps0 in {0.5, 2, 6} and eps in {0.05, 0.5, 1} no
    neighboring pair has a larger marginal delta than this one.

    A ``pass`` does not certify the release, whose law is that of all m
    outputs: one record moves the marginal by only 1/n.  At k = 2, n = 36,814,
    eps = 0.5 and a planted eps0 = 12 (eleven times the calibrated 1.10 at
    delta = 0.01) the marginal delta is 2.3e-5.  ``eps0`` may be overridden to
    plant violations.  ``runs`` and ``rng`` are retired: the audit draws
    nothing and ignores them.
    """
    if eps0 is None:
        eps0 = KARY_CALIBRATIONS["shuffle"].eps0(eps, delta, n)
    measured = eps_delta_closeness(*_worst_pair(k, n, eps0), eps).delta_at_eps
    return _report("shurr", PrivacyBudget.approx(eps, delta), measured, delta, k,
                   {"dataset": "all-ones vs one replaced by 2", "k": k, "n": n}, eps0=eps0)


# --- Euclidean-Laplace mechanism -----------------------------------------------


def audit_elap_mechanism(
    d: int,
    B: float,
    eps: float,
    probes: int | None,
    rng: RandomSource,
    differing_rows=None,
) -> AuditReport:
    """Worst-case output log-density ratio of the Euclidean-Laplace sum mechanism.

    Builds a random pair of neighboring clipped four-row datasets (or uses the
    supplied differing rows) with sums S and S'.  The release S + ELap(b) has
    log-density ratio (||y - S'|| - ||y - S||)/b between the two, which the
    triangle inequality caps at ||S - S'||/b; the cap is reached at y = S.  So
    the audit states that maximum in closed form, evaluates the ratio at the
    witness y = S, and binds it to the realized shift: ``bound`` is
    ||S - S'||/b, not the claimed eps.  The scale b is the pure sampler's,
    read from its calibration entry; any integer d >= 1 is audited, and d = 2.0
    is taken as 2.
    ``details["bare_eps_ok"]`` is false when ||S - S'|| exceeds B, i.e. when
    passing the realized-shift bound does not certify the bare eps claim.

    ``probes`` is retired: the audit scores no random probe points and ignores
    the value.  The rng draws only the shared rows and, when ``differing_rows``
    is not given, the differing pair.
    """
    d = _check_count("d", d, 1)
    _check_finite_positive("B", B)
    _check_finite_positive("eps", eps)
    b = GAUSSIAN_CALIBRATIONS["pure"].elap_scale(B, eps)
    gen = rng.generator

    def random_in_ball() -> np.ndarray:
        vec = gen.standard_normal(d)
        return vec * (B * gen.random() ** (1.0 / d) / np.linalg.norm(vec))

    shared = [random_in_ball() for _ in range(3)]
    if differing_rows is None:
        differing_rows = (random_in_ball(), random_in_ball())
    row_a = np.asarray(differing_rows[0], dtype=np.float64)
    row_b = np.asarray(differing_rows[1], dtype=np.float64)
    base = np.sum(shared, axis=0)
    sum_a = base + row_a
    sum_b = base + row_b
    shift_norm = float(np.linalg.norm(sum_a - sum_b))

    at_s = sum_a[None, :]
    measured = float((_row_norms(at_s, sum_b)[0] - _row_norms(at_s, sum_a)[0]) / b)
    witness = {"sum_a": [float(v) for v in sum_a], "sum_b": [float(v) for v in sum_b]}
    return _report("elap", PrivacyBudget.pure(eps), measured, shift_norm / b, 1, witness,
                   shift_norm=shift_norm, scale=b,
                   bare_eps_ok=bool(measured <= eps + VERDICT_SLACK))


# --- zCDP Gaussian mechanisms ---------------------------------------------------


def audit_zcdp_gaussian(variant: str, d: int, R: float, alpha: float, eps: float) -> AuditReport:
    """Analytic zCDP audit of a Gaussian sampler at its own calibration.

    Reads the variant's clip radius B, noise variance sigma2 and replacement
    sensitivity Delta from its calibration entry, at the n one call of the
    sampler takes.  The Renyi divergence of a Gaussian shift is linear in the
    order, so rho = Delta^2 / (2 sigma2) holds at every order; the claim is
    eps^2/2-zCDP.
    """
    cal = gaussian_calibration(variant)
    if not cal.zcdp:
        raise ValidationError(f"variant {variant!r} claims pure DP, not zCDP")
    n = cal.n_per_call(d, R, alpha, eps)
    B = cal.clip_bound(d, R, alpha)
    sigma2 = cal.sigma2(d, alpha, n)
    sensitivity = cal.sensitivity(B, n)
    witness = {"variant": variant, "n": n, "B": B, "sensitivity": sensitivity,
               "sigma": math.sqrt(sigma2)}
    return _report("zcdp", PrivacyBudget.zcdp(eps), sensitivity * sensitivity / (2.0 * sigma2),
                   eps**2 / 2.0, 1, witness)
