"""Private single-samplers for Gaussians with known or bounded covariance.

Pure DP path: clip rows to norm B, privatize the sum with Euclidean-Laplace
noise of scale ``b = B/eps`` (an l2-calibrated analogue of the scalar Laplace
mechanism), then add the Gaussian that turns the noisy mean into an
approximate fresh draw.  zCDP paths: clipped empirical mean plus Gaussian
noise, with the noise scale tied to the replacement sensitivity of the
statistic.

``GAUSSIAN_CALIBRATIONS`` states each sampler's numbers once, keyed by the
variant names ``pure``, ``zcdp-known`` and ``zcdp-bounded``: the clip radius
B, the noise, the replacement sensitivity of the noised statistic and the
rows one call takes.  The samplers, their complexity calculators, the
``SamplerSpec`` factories, the CLI and the zCDP audit read them from there.
Each zCDP sampler is its entry's release, ``(data, *, R, alpha, eps, rng)``,
and refuses a dataset smaller than its calibration fixes (``InsufficientData``).

A note on sensitivity: replacing one row can move the clipped sum by up to
``2B``, while the pure-DP scale ``b = B/eps`` covers a movement of ``B``.
The pure entry states both, and ``audit_elap_mechanism`` measures the
realized log-density ratio against the realized shift.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import RandomSource, VectorDataset, _check_finite_positive, _row_norms
from .elap import ELapParams, elap_sample
from .errors import BadSplit, DimensionMismatch, InsufficientData, InvalidAlpha, ValidationError
from .kary import ComplexityReport, _least_n, _tolerant_ceil


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
# {data: {(variant, B): stat}}.  A VectorDataset's rows are a private read-only
# copy, or a read-only view of one for a block from ``subset``, and the
# dataclass hashes by identity, so an entry cannot go stale, and the weak key
# drops it with its dataset.  The repetition combinators reuse their blocks
# (``multisampling._BLOCKS``), so a block's statistic is computed once too.
# Each entry is O(d); only the noise is drawn per call.  Each entry is stored
# in one assignment: a race may compute a statistic twice, never store a
# different one.
_STATS: "weakref.WeakKeyDictionary[VectorDataset, dict]" = weakref.WeakKeyDictionary()


def _clipped_stat(data: VectorDataset, variant: str, B: float, compute):
    """``compute()`` on its first call for (data, variant, B); the stored result after."""
    stats = _STATS.get(data)
    if stats is None:
        stats = _STATS[data] = {}
    stat = stats.get((variant, B))
    if stat is None:
        stat = stats[(variant, B)] = compute()
    return stat


@dataclass(frozen=True)
class PureGaussianSamplerParams:
    """Mean bound R, dimension d, tolerance alpha, budget eps.

    ``B`` is the clip radius :func:`pure_clip_bound` gives for (d, R, alpha).
    """

    R: float
    d: int
    alpha: float
    eps: float
    B: float = field(init=False)

    def __post_init__(self):
        _check_finite_positive("eps", self.eps)
        object.__setattr__(self, "B", pure_clip_bound(self.d, self.R, self.alpha))


def _check_clip_inputs(d: int, R: float, alpha: float) -> None:
    if not 0 < alpha < 1:
        raise InvalidAlpha(f"alpha must be in (0, 1), got {alpha}")
    if d < 1:
        raise ValidationError(f"d must be >= 1, got {d}")
    _check_finite_positive("R", R)


def pure_clip_bound(d: int, R: float, alpha: float) -> float:
    """Clip radius R + 2 * sqrt(d * ln(1/alpha)) for the pure-DP sampler."""
    _check_clip_inputs(d, R, alpha)
    return R + 2.0 * math.sqrt(d * math.log(1.0 / alpha))


def pure_gaussian_sample(
    data: VectorDataset, params: PureGaussianSamplerParams, rng: RandomSource
) -> np.ndarray:
    """Pure-DP approximate fresh draw from N(mu, I) given n >= 2 input rows.

    Clips rows to B, privatizes their sum with Euclidean-Laplace noise at
    scale B/eps, and returns Z + (noisy sum)/n with Z ~ N(0, ((n-1)/n) I).
    """
    if data.d != params.d:
        raise DimensionMismatch(f"data dimension {data.d} != params dimension {params.d}")
    n = data.n
    if n < 2:
        raise InsufficientData(f"need n >= 2 for the (n-1)/n noise calibration, got {n}")
    pure = GAUSSIAN_CALIBRATIONS["pure"]
    B = params.B
    b = pure.elap_scale(B, params.eps)
    clipped_sum = _clipped_stat(data, "pure", B, lambda: _clip_rows(data.rows, B).sum(axis=0))
    noisy_sum = clipped_sum + elap_sample(ELapParams(d=params.d, b=b), rng)
    sigma = math.sqrt(pure.sigma2(params.d, params.alpha, n))
    return sigma * rng.generator.standard_normal(params.d) + noisy_sum / n


def pure_sample_complexity(d: int, R: float, alpha: float, eps: float) -> ComplexityReport:
    """n = ceil(d * B * ln(d/alpha) * ln(1/alpha) / (alpha * eps))."""
    params = PureGaussianSamplerParams(R=R, d=d, alpha=alpha, eps=eps)
    bound = d * params.B * math.log(d / alpha) * math.log(1.0 / alpha) / (alpha * eps)
    return ComplexityReport(
        n_required=max(2, _tolerant_ceil(bound)),
        formula_name="gaussian_pure",
        inputs={"d": d, "R": R, "alpha": alpha, "eps": eps, "B": params.B},
    )


# --- zCDP samplers -----------------------------------------------------------


def known_cov_clip_bound(d: int, R: float, alpha: float) -> float:
    """Clip radius R + sqrt(2 * (d + ln(1/alpha))) for the known-covariance sampler."""
    _check_clip_inputs(d, R, alpha)
    return R + math.sqrt(2.0 * (d + math.log(1.0 / alpha)))


def _known_cov_covers(d: int, B: float, alpha: float, eps: float, n: int) -> bool:
    """The known-covariance n condition: n >= 2 and sensitivity/eps <= sigma."""
    known = GAUSSIAN_CALIBRATIONS["zcdp-known"]
    return n >= 2 and known.sensitivity(B, n) / eps <= math.sqrt(known.sigma2(d, alpha, n))


def zcdp_known_cov_sample(
    data: VectorDataset, *, R: float, alpha: float, eps: float, rng: RandomSource
) -> np.ndarray:
    """Clipped empirical mean plus N(0, ((n-1)/n) I) noise, under eps^2/2-zCDP.

    Refuses an n too small for the noise scale to cover the mean's replacement
    sensitivity 2B/n at eps (:func:`_known_cov_covers`).
    """
    n = data.n
    known = GAUSSIAN_CALIBRATIONS["zcdp-known"]
    B = known.clip_bound(data.d, R, alpha)
    _check_finite_positive("eps", eps)
    if not _known_cov_covers(data.d, B, alpha, eps, n):
        needed = zcdp_known_cov_complexity(data.d, R, alpha, eps).n_required
        raise InsufficientData(
            f"zCDP condition sigma >= 2B/(eps*n) fails at n={n}; need n >= {needed}"
        )
    clipped_mean = _clipped_stat(
        data, "zcdp-known", B, lambda: _clip_rows(data.rows, B).mean(axis=0)
    )
    sigma = math.sqrt(known.sigma2(data.d, alpha, n))
    return clipped_mean + sigma * rng.generator.standard_normal(data.d)


def zcdp_known_cov_complexity(d: int, R: float, alpha: float, eps: float) -> ComplexityReport:
    """Smallest n satisfying :func:`_known_cov_covers`, by integer bisection."""
    _check_finite_positive("eps", eps)
    B = known_cov_clip_bound(d, R, alpha)
    return ComplexityReport(
        n_required=_least_n(lambda n: _known_cov_covers(d, B, alpha, eps, n), 2),
        formula_name="gaussian_zcdp_known",
        inputs={"d": d, "R": R, "alpha": alpha, "eps": eps, "B": B},
    )


def bounded_cov_clip_bound(d: int, R: float, alpha: float) -> float:
    """Clip radius R + sqrt(2 * d * ln(2/alpha)) for the bounded-covariance sampler."""
    _check_clip_inputs(d, R, alpha)
    return R + math.sqrt(2.0 * d * math.log(2.0 / alpha))


def _bounded_cov_split(n: int) -> tuple[int, float]:
    """Block size q = n1 = n2 = n/3 and the difference-block weight sqrt((1 - 1/q)/(2q))."""
    if n % 3 != 0:
        raise BadSplit(f"row count {n} is not divisible by 3 for the n1 = n2 = n/3 split")
    q = n // 3
    return q, math.sqrt((1.0 - 1.0 / q) / (2.0 * q))


def _bounded_cov_sensitivity(B: float, n: int) -> float:
    """Replacement sensitivity of the bounded-covariance statistic, by direct maximization.

    A changed row enters with weight 1/q (mean block) or the difference-block
    weight, and can move by at most 2B.
    """
    _check_finite_positive("B", B)
    q, diff_weight = _bounded_cov_split(n)
    return 2.0 * B * max(1.0 / q, diff_weight)


def _bounded_cov_mechanism(
    data: VectorDataset, B: float, sigma2: float, rng: RandomSource
) -> np.ndarray:
    """The bounded-covariance draw at any B and sigma2, from n = 3q rows split n1 = n2 = q.

    Output is Z + (1/n1) * sum of the first n1 clipped rows
    + sqrt((1 - 1/n1)/(2*n2)) * sum of consecutive differences of the
    remaining 2*n2 clipped rows, with Z ~ N(0, sigma2 * I).  No n backs an
    arbitrary sigma2, so only :func:`zcdp_bounded_cov_sample` calls this, with
    its entry's numbers.
    """
    _check_finite_positive("B", B)  # B keys the memo
    q, diff_weight = _bounded_cov_split(data.n)

    def parts():
        clipped = _clip_rows(data.rows, B)
        mean_part = clipped[:q].sum(axis=0) / q
        pairs = clipped[q:].reshape(q, 2, data.d)
        diff_part = diff_weight * (pairs[:, 0, :] - pairs[:, 1, :]).sum(axis=0)
        return mean_part, diff_part

    mean_part, diff_part = _clipped_stat(data, "zcdp-bounded", B, parts)
    noise = math.sqrt(sigma2) * rng.generator.standard_normal(data.d)
    return noise + mean_part + diff_part


def zcdp_bounded_cov_sample(
    data: VectorDataset, *, R: float, alpha: float, eps: float, rng: RandomSource
) -> np.ndarray:
    """One bounded-covariance draw under eps^2/2-zCDP, at the entry's B and sigma2.

    This sampler's noise does not grow as n shrinks, so its privacy rests on
    n: it refuses fewer rows than the entry's ``n_per_call``.
    """
    bounded = GAUSSIAN_CALIBRATIONS["zcdp-bounded"]
    needed = bounded.n_per_call(data.d, R, alpha, eps)
    if data.n < needed:
        raise InsufficientData(
            f"bounded-covariance noise is calibrated for n >= {needed} rows; got n={data.n}"
        )
    B = bounded.clip_bound(data.d, R, alpha)
    return _bounded_cov_mechanism(data, B, bounded.sigma2(data.d, alpha, data.n), rng)


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


# --- calibration table ----------------------------------------------------------


@dataclass(frozen=True)
class GaussianCalibration:
    """The numbers one Gaussian sampler is calibrated by, each stated once.

    Arguments are the dimension d, mean bound R, tolerance alpha, budget eps,
    clip radius B and the row count n of one call.

    * ``clip_bound(d, R, alpha)``: the clip radius B.
    * ``sigma2(d, alpha, n)``: variance of the Gaussian added to one call's statistic.
    * ``sensitivity(B, n)``: how far, in l2, replacing one row can move the
      statistic that the privacy noise covers.
    * ``complexity(d, R, alpha, eps)``: the sufficient n, as a report.
    * ``release(data, R, alpha, eps, rng)``: one draw from the data,
      calibrated at its dimension.
    * ``rows(n)``: the rows one call takes, given the sufficient n.
    * ``elap_scale(B, eps)``: the Euclidean-Laplace scale b of the pure
      sampler's privacy noise.  It is None for the eps^2/2-zCDP variants,
      whose privacy noise is the sigma2 Gaussian.
    """

    clip_bound: Callable[[int, float, float], float]
    sigma2: Callable[[int, float, int], float]
    sensitivity: Callable[[float, int], float]
    complexity: Callable[[int, float, float, float], ComplexityReport]
    release: Callable[[VectorDataset, float, float, float, RandomSource], np.ndarray]
    rows: Callable[[int], int] = lambda n: n
    elap_scale: Callable[[float, float], float] | None = None

    @property
    def zcdp(self) -> bool:
        return self.elap_scale is None

    def n_per_call(self, d: int, R: float, alpha: float, eps: float) -> int:
        """Rows one call takes at these inputs."""
        return self.rows(self.complexity(d, R, alpha, eps).n_required)


# entries call the module's functions by name, so a rebound function is seen here
GAUSSIAN_CALIBRATIONS = {
    "pure": GaussianCalibration(
        clip_bound=lambda *args: pure_clip_bound(*args),
        # the Gaussian that turns the noisy n-row mean into a fresh draw
        sigma2=lambda d, alpha, n: (n - 1) / n,
        sensitivity=lambda B, n: 2.0 * B,  # of the clipped sum
        complexity=lambda *args: pure_sample_complexity(*args),
        release=lambda data, R, alpha, eps, rng: pure_gaussian_sample(
            data, PureGaussianSamplerParams(R=R, d=data.d, alpha=alpha, eps=eps), rng
        ),
        elap_scale=lambda B, eps: B / eps,
    ),
    "zcdp-known": GaussianCalibration(
        clip_bound=lambda *args: known_cov_clip_bound(*args),
        sigma2=lambda d, alpha, n: (n - 1) / n,
        sensitivity=lambda B, n: 2.0 * B / n,  # of the clipped mean
        complexity=lambda *args: zcdp_known_cov_complexity(*args),
        release=lambda data, R, alpha, eps, rng: zcdp_known_cov_sample(
            data, R=R, alpha=alpha, eps=eps, rng=rng
        ),
    ),
    "zcdp-bounded": GaussianCalibration(
        clip_bound=lambda *args: bounded_cov_clip_bound(*args),
        sigma2=lambda d, alpha, n: alpha / (4.0 * math.sqrt(d)),
        sensitivity=_bounded_cov_sensitivity,
        complexity=lambda *args: zcdp_bounded_cov_complexity(*args),
        release=lambda data, R, alpha, eps, rng: zcdp_bounded_cov_sample(
            data, R=R, alpha=alpha, eps=eps, rng=rng
        ),
        rows=lambda n: 3 * math.ceil(n / 3),  # rounded up to the n1 = n2 = n/3 split
    ),
}


def gaussian_calibration(variant: str) -> GaussianCalibration:
    """The calibration entry of a Gaussian variant; unknown names are refused."""
    if variant not in GAUSSIAN_CALIBRATIONS:
        raise ValidationError(
            f"unknown Gaussian variant {variant!r}; expected one of {list(GAUSSIAN_CALIBRATIONS)}"
        )
    return GAUSSIAN_CALIBRATIONS[variant]
