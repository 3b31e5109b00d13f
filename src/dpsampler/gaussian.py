"""Private single-samplers for Gaussians with known or bounded covariance.

Pure DP path: clip rows to norm B, privatize the sum with Euclidean-Laplace
noise of scale ``b = B/eps`` (an l2-calibrated analogue of the scalar Laplace
mechanism), then add the Gaussian that turns the noisy mean into an
approximate fresh draw.  zCDP paths: clipped empirical mean plus Gaussian
noise, with the noise scale tied to the replacement sensitivity of the
statistic.

A note on sensitivity: replacing one row can move the clipped sum by up to
``2B``, while the pure-DP calibration below uses ``b = B/eps`` (a per-row
budget of eps per unit of sum movement over B).  ``ELapMechanismParams``
exposes ``sensitivity_multiplier`` (default 1.0; 2.0 for the conservative
replacement bound) so the realized log-density ratio can be checked either
way by the audit module.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .core import RandomSource, VectorDataset, _row_norms
from .elap import ELapParams, elap_sample
from .errors import (
    BadSplit,
    InvalidAlpha,
    InvalidOrder,
    NormViolation,
    TooFewSamples,
    ValidationError,
)
from .kary import ComplexityReport, _tolerant_ceil


def _clip_rows(rows: np.ndarray, B: float) -> np.ndarray:
    with np.errstate(over="ignore"):
        norms = _row_norms(rows)
    scale = np.minimum(B / np.maximum(norms, 1e-300), 1.0)
    # a finite row whose squared entries overflow takes its scale from the
    # row divided by its largest absolute entry
    huge = np.isinf(norms)
    if huge.any():
        peak = np.abs(rows[huge]).max(axis=1)
        unit_norms = _row_norms(rows[huge] / peak[:, None])
        scale[huge] = np.minimum(B / peak / unit_norms, 1.0)
    return rows * scale[:, None]


# Pre-noise statistic of each Gaussian sampler, per dataset:
# {data: {(sampler, B): stat}}.  A VectorDataset's rows are a private read-only
# copy and the dataclass hashes by identity, so an entry cannot go stale, and
# the weak key drops it with its dataset.  Each entry is O(d); only the noise
# is drawn per call.
_STATS: "weakref.WeakKeyDictionary[VectorDataset, dict]" = weakref.WeakKeyDictionary()


def _clipped_stat(data: VectorDataset, sampler: str, B: float, compute):
    """``compute()`` on its first call for (data, sampler, B); the stored result after."""
    stats = _STATS.get(data)
    if stats is None:
        stats = _STATS[data] = {}
    stat = stats.get((sampler, B))
    if stat is None:
        stat = stats[(sampler, B)] = compute()
    return stat


def _check_finite_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{name} must be finite and positive, got {value}")


def fresh_draw_variance(n: int) -> float:
    """Variance (n-1)/n of the Gaussian that turns a noisy n-row mean into a fresh draw."""
    return (n - 1) / n


@dataclass(frozen=True)
class ELapMechanismParams:
    """Clip bound B, privacy budget eps, and the derived noise scale b.

    ``sensitivity_multiplier`` scales b: 1.0 reproduces the stated calibration
    b = B/eps; 2.0 covers the worst-case replacement movement of the sum.
    """

    B: float
    eps: float
    sensitivity_multiplier: float = 1.0

    def __post_init__(self):
        _check_finite_positive("B", self.B)
        _check_finite_positive("eps", self.eps)
        _check_finite_positive("sensitivity_multiplier", self.sensitivity_multiplier)

    @property
    def b(self) -> float:
        return self.sensitivity_multiplier * self.B / self.eps


def elap_mechanism(
    data: VectorDataset, params: ELapMechanismParams, rng: RandomSource
) -> np.ndarray:
    """Noisy vector sum: Euclidean-Laplace noise of scale b added to sum of rows.

    The caller is responsible for clipping; rows whose norm exceeds B by more
    than 1e-9 are rejected.
    """
    worst = float(_row_norms(data.rows).max())
    if worst > params.B + 1e-9:
        raise NormViolation(f"input row norm {worst} exceeds bound B={params.B}")
    return data.rows.sum(axis=0) + elap_sample(ELapParams(d=data.d, b=params.b), rng)


@dataclass(frozen=True)
class PureGaussianSamplerParams:
    """Mean bound R, dimension d, tolerance alpha, budget eps, clip constant c.

    The clip radius is B = R + c * sqrt(d * ln(1/alpha)).
    """

    R: float
    d: int
    alpha: float
    eps: float
    c: float = 2.0

    def __post_init__(self):
        if self.d < 1:
            raise ValidationError(f"d must be >= 1, got {self.d}")
        _check_finite_positive("R", self.R)
        _check_finite_positive("eps", self.eps)
        _check_finite_positive("c", self.c)
        if not 0 < self.alpha < 1:
            raise InvalidAlpha(f"alpha must be in (0, 1), got {self.alpha}")

    @property
    def B(self) -> float:
        return self.R + self.c * math.sqrt(self.d * math.log(1.0 / self.alpha))


def pure_gaussian_sample(
    data: VectorDataset, params: PureGaussianSamplerParams, rng: RandomSource
) -> np.ndarray:
    """Pure-DP approximate fresh draw from N(mu, I) given n >= 2 input rows.

    Clips rows to B, privatizes their sum with Euclidean-Laplace noise at
    scale B/eps, and returns Z + (noisy sum)/n with Z ~ N(0, ((n-1)/n) I).
    """
    if data.d != params.d:
        raise ValidationError(f"data dimension {data.d} != params dimension {params.d}")
    n = data.n
    if n < 2:
        raise TooFewSamples(f"need n >= 2 for the (n-1)/n noise calibration, got {n}")
    B = params.B
    # the rows are clipped right here, so elap_mechanism's second norm pass is skipped
    b = ELapMechanismParams(B=B, eps=params.eps).b
    clipped_sum = _clipped_stat(data, "pure", B, lambda: _clip_rows(data.rows, B).sum(axis=0))
    noisy_sum = clipped_sum + elap_sample(ELapParams(d=params.d, b=b), rng)
    sigma = math.sqrt(fresh_draw_variance(n))
    return sigma * rng.generator.standard_normal(params.d) + noisy_sum / n


def pure_sample_complexity(
    d: int, R: float, alpha: float, eps: float, C: float = 1.0, c: float = 2.0
) -> ComplexityReport:
    """n = ceil(C * d * B * ln(d/alpha) * ln(1/alpha) / (alpha * eps))."""
    params = PureGaussianSamplerParams(R=R, d=d, alpha=alpha, eps=eps, c=c)
    _check_finite_positive("C", C)
    bound = C * d * params.B * math.log(d / alpha) * math.log(1.0 / alpha) / (alpha * eps)
    return ComplexityReport(
        n_required=max(2, _tolerant_ceil(bound)),
        formula_name="gaussian_pure",
        inputs={"d": d, "R": R, "alpha": alpha, "eps": eps, "C": C, "c": c, "B": params.B},
    )


# --- zCDP samplers -----------------------------------------------------------


def _check_clip_inputs(d: int, R: float, alpha: float) -> None:
    if not 0 < alpha < 1:
        raise InvalidAlpha(f"alpha must be in (0, 1), got {alpha}")
    if d < 1:
        raise ValidationError(f"d must be >= 1, got {d}")
    _check_finite_positive("R", R)


def known_cov_clip_bound(d: int, R: float, alpha: float) -> float:
    """Clip radius R + sqrt(2 * (d + ln(1/alpha))) for the known-covariance sampler."""
    _check_clip_inputs(d, R, alpha)
    return R + math.sqrt(2.0 * (d + math.log(1.0 / alpha)))


def zcdp_known_cov_sample(
    data: VectorDataset,
    R: float,
    eps: float,
    alpha: float,
    rng: RandomSource,
) -> np.ndarray:
    """Clipped empirical mean plus N(0, ((n-1)/n) I) noise, under eps^2/2-zCDP.

    Requires n large enough that the noise scale covers the mean's replacement
    sensitivity 2B/n, i.e. 2B/(eps*n) <= sqrt((n-1)/n).
    """
    n = data.n
    B = known_cov_clip_bound(data.d, R, alpha)
    _check_finite_positive("eps", eps)
    sigma = math.sqrt(fresh_draw_variance(n))
    if n < 2 or 2.0 * B / (eps * n) > sigma:
        needed = zcdp_known_cov_complexity(data.d, R, alpha, eps).n_required
        raise TooFewSamples(
            f"zCDP condition sigma >= 2B/(eps*n) fails at n={n}; need n >= {needed}"
        )
    clipped_mean = _clipped_stat(
        data, "known", B, lambda: _clip_rows(data.rows, B).mean(axis=0)
    )
    return clipped_mean + sigma * rng.generator.standard_normal(data.d)


def zcdp_known_cov_complexity(d: int, R: float, alpha: float, eps: float) -> ComplexityReport:
    """Smallest n >= 2 with 2B/(eps*n) <= sqrt((n-1)/n), by integer bisection."""
    _check_finite_positive("eps", eps)
    B = known_cov_clip_bound(d, R, alpha)

    def ok(n: int) -> bool:
        return 2.0 * B / (eps * n) <= math.sqrt(fresh_draw_variance(n))

    hi = 2
    while not ok(hi):
        hi *= 2
    lo = max(2, hi // 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return ComplexityReport(
        n_required=lo,
        formula_name="gaussian_zcdp_known",
        inputs={"d": d, "R": R, "alpha": alpha, "eps": eps, "B": B},
    )


def bounded_cov_clip_bound(d: int, R: float, alpha: float) -> float:
    """Clip radius R + sqrt(2 * d * ln(2/alpha)) for the bounded-covariance sampler."""
    _check_clip_inputs(d, R, alpha)
    return R + math.sqrt(2.0 * d * math.log(2.0 / alpha))


def bounded_cov_sigma2(d: int, alpha: float) -> float:
    """Noise variance alpha/(4*sqrt(d)) of the bounded-covariance sampler."""
    return alpha / (4.0 * math.sqrt(d))


def bounded_cov_sensitivity(n1: int, n2: int, B: float) -> float:
    """Replacement sensitivity of the pre-noise statistic, by direct maximization.

    A changed row enters with coefficient 1/n1 (mean block) or
    sqrt((1 - 1/n1)/(2*n2)) (difference block) and can move by at most 2B.
    """
    if n1 < 1 or n2 < 1:
        raise ValidationError("n1 and n2 must be >= 1")
    _check_finite_positive("B", B)
    coeff = max(1.0 / n1, math.sqrt((1.0 - 1.0 / n1) / (2.0 * n2)))
    return 2.0 * B * coeff


def _bounded_cov_split(n: int) -> int:
    """Block size n1 = n2 = n/3 of the bounded-covariance statistic."""
    if n % 3 != 0:
        raise BadSplit(f"row count {n} is not divisible by 3 for the n1 = n2 = n/3 split")
    return n // 3


def zcdp_bounded_cov_sample(
    data: VectorDataset, B: float, sigma2: float, rng: RandomSource
) -> np.ndarray:
    """Bounded-covariance single draw from n = 3q clipped rows, split n1 = n2 = q.

    Output is Z + (1/n1) * sum of the first n1 rows
    + sqrt((1 - 1/n1)/(2*n2)) * sum of consecutive differences of the
    remaining 2*n2 rows, with Z ~ N(0, sigma2 * I).
    """
    if not sigma2 > 0:
        raise ValidationError(f"sigma2 must be positive, got {sigma2}")
    _check_finite_positive("B", B)
    n1 = n2 = _bounded_cov_split(data.n)

    def parts():
        clipped = _clip_rows(data.rows, B)
        mean_part = clipped[:n1].sum(axis=0) / n1
        pairs = clipped[n1:].reshape(n2, 2, data.d)
        diff_part = math.sqrt((1.0 - 1.0 / n1) / (2.0 * n2)) * (
            pairs[:, 0, :] - pairs[:, 1, :]
        ).sum(axis=0)
        return mean_part, diff_part

    mean_part, diff_part = _clipped_stat(data, "bounded", B, parts)
    noise = math.sqrt(sigma2) * rng.generator.standard_normal(data.d)
    return noise + mean_part + diff_part


def zcdp_bounded_cov_complexity(d: int, R: float, alpha: float, eps: float) -> ComplexityReport:
    """n = ceil(4 * sqrt(d) * B^2 / (alpha * eps^2)) with B = R + sqrt(2d ln(2/alpha))."""
    _check_finite_positive("eps", eps)
    B = bounded_cov_clip_bound(d, R, alpha)
    bound = 4.0 * math.sqrt(d) * B * B / (alpha * eps * eps)
    return ComplexityReport(
        n_required=max(3, _tolerant_ceil(bound)),
        formula_name="gaussian_zcdp_bounded",
        inputs={"d": d, "R": R, "alpha": alpha, "eps": eps, "B": B},
    )


@dataclass(frozen=True)
class ZcdpParams:
    """Parameters of a zCDP Gaussian mechanism run, for auditing.

    Only structural consistency is validated here; whether ``sigma2`` covers
    the sensitivity at budget ``eps`` is exactly what the audit measures.  A
    ``bounded_cov`` run splits its n rows as n1 = n2 = n/3, as the sampler
    does, so n must be divisible by 3.
    """

    variant: str
    B: float
    sigma2: float
    eps: float
    n: int

    def __post_init__(self):
        if self.variant not in ("known_cov", "bounded_cov"):
            raise ValidationError(f"unknown variant {self.variant!r}")
        if not self.B > 0 or not self.sigma2 > 0 or not self.eps > 0 or self.n < 1:
            raise ValidationError("B, sigma2, eps must be positive and n >= 1")
        if self.variant == "bounded_cov":
            _bounded_cov_split(self.n)

    def sensitivity(self) -> float:
        """Replacement sensitivity of the pre-noise statistic."""
        if self.variant == "known_cov":
            return 2.0 * self.B / self.n
        q = _bounded_cov_split(self.n)
        return bounded_cov_sensitivity(q, q, self.B)


def gaussian_mech_renyi(delta_norm: float, sigma: float, order: float) -> float:
    """Renyi divergence order * delta_norm^2 / (2 * sigma^2) of a shifted Gaussian."""
    if delta_norm < 0:
        raise ValidationError(f"delta_norm must be nonnegative, got {delta_norm}")
    if not sigma > 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    if not order > 1:
        raise InvalidOrder(f"order must be > 1, got {order}")
    return order * delta_norm * delta_norm / (2.0 * sigma * sigma)
