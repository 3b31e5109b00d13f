"""The Euclidean-Laplace distribution and its Gamma-distribution underpinnings.

``ELap(b)`` over R^d is the spherically symmetric distribution with density

    Gamma(d/2) / (2 * pi^(d/2) * b^d * Gamma(d)) * exp(-||eta||_2 / b).

Its norm follows Gamma(shape d, rate 1/b), which gives an exact two-step
sampler (Gamma radius times a uniform direction), a closed-form tail radius
``d*b*ln(d/alpha)``, and a union-bound tail estimate for integer shapes.
Everything here is exact up to floating point: the Gamma sampler is
rejection-based and the tail/CDF evaluations use the regularized incomplete
gamma function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RandomSource, _row_norms
from .errors import (
    DimensionMismatch,
    InvalidAlpha,
    NonIntegerShape,
    ValidationError,
)

_MIN_DIRECTION_NORM = 1e-300


@dataclass(frozen=True)
class ELapParams:
    """Dimension d >= 1 and scale b > 0 of the Euclidean-Laplace distribution."""

    d: int
    b: float

    def __post_init__(self):
        if self.d < 1:
            raise ValidationError(f"dimension must be >= 1, got {self.d}")
        if not self.b > 0:
            raise ValidationError(f"scale must be positive, got {self.b}")


@dataclass(frozen=True)
class GammaParams:
    """Gamma distribution with shape k > 0 and rate lambda > 0 (scale 1/lambda)."""

    shape: float
    rate: float

    def __post_init__(self):
        if not self.shape > 0:
            raise ValidationError(f"shape must be positive, got {self.shape}")
        if not self.rate > 0:
            raise ValidationError(f"rate must be positive, got {self.rate}")

    @property
    def scale(self) -> float:
        return 1.0 / self.rate


def elap_log_constant(params: ELapParams) -> float:
    """log of the ELap normalizing constant Gamma(d/2) / (2 pi^(d/2) b^d Gamma(d))."""
    d, b = params.d, params.b
    return (
        math.lgamma(d / 2.0)
        - math.log(2.0)
        - (d / 2.0) * math.log(math.pi)
        - d * math.log(b)
        - math.lgamma(d)
    )


def elap_log_density(eta, params: ELapParams) -> float:
    """Log density of ELap(b) at the point eta in R^d."""
    vec = np.asarray(eta, dtype=np.float64).ravel()
    if vec.size != params.d:
        raise DimensionMismatch(f"expected a vector of length {params.d}, got {vec.size}")
    return elap_log_constant(params) - float(np.linalg.norm(vec)) / params.b


def elap_density(eta, params: ELapParams) -> float:
    """Linear-space convenience wrapper around :func:`elap_log_density`."""
    return math.exp(elap_log_density(eta, params))


def elap_tail_radius(params: ELapParams, alpha: float) -> float:
    """Radius r = d*b*ln(d/alpha) with Pr(||eta||_2 > r) <= alpha."""
    if not 0 < alpha < 1:
        raise InvalidAlpha(f"alpha must be in (0, 1), got {alpha}")
    return params.d * params.b * math.log(params.d / alpha)


def gamma_tail_bound(params: GammaParams, t: float) -> float:
    """Union-bound tail estimate k * exp(-rate*t/k) for integer shape k.

    The bound decomposes a Gamma(k, rate) variable into k iid exponentials,
    which requires an integer shape.  Values above 1 are clamped (vacuous).
    """
    if abs(params.shape - round(params.shape)) > 1e-12:
        raise NonIntegerShape(f"integer shape required, got {params.shape}")
    if not t > 0:
        raise ValidationError(f"t must be positive, got {t}")
    k = round(params.shape)
    return min(1.0, k * math.exp(-params.rate * t / k))


def _erlang_log_tail_terms(k: int, x: np.ndarray) -> np.ndarray:
    # log of exp(-x) * x^j / j! for j = 0..k-1, evaluated stably
    j = np.arange(k, dtype=np.float64)
    logx = np.log(x[:, None])
    return -x[:, None] + j[None, :] * logx - np.array([math.lgamma(v + 1) for v in j])


def _erlang_tail(k: int, x: np.ndarray) -> np.ndarray:
    # Pr(X > x) for X ~ Gamma(k, 1), integer k: Poisson sum in log space;
    # x is gamma_exact_tail's float64 array
    out = np.ones_like(x)
    pos = x > 0
    if np.any(pos):
        terms = _erlang_log_tail_terms(k, x[pos])
        shift = terms.max(axis=1, keepdims=True)
        out[pos] = np.exp(shift[:, 0] + np.log(np.exp(terms - shift).sum(axis=1)))
    return np.clip(out, 0.0, 1.0)


def _upper_gamma_series(a: float, x: float) -> float:
    # Q(a, x) = 1 - P(a, x) with P from the power series; valid for x < a + 1
    term = 1.0 / a
    total = term
    for n in range(1, 10_000):
        term *= x / (a + n)
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    p = total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    return 1.0 - p


def _upper_gamma_contfrac(a: float, x: float) -> float:
    # Q(a, x) by modified Lentz continued fraction; valid for x >= a + 1
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def gamma_exact_tail(params: GammaParams, t):
    """Exact upper tail Pr(X > t) for X ~ Gamma(shape, rate).

    Integer shapes use the closed-form Poisson sum (vectorized over ``t``);
    non-integer shapes use the series / continued-fraction evaluation of the
    regularized upper incomplete gamma function at a scalar ``t``.
    """
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0):
        raise ValidationError("t must be nonnegative")
    x = t_arr * params.rate

    if abs(params.shape - round(params.shape)) <= 1e-12:
        out = _erlang_tail(round(params.shape), np.atleast_1d(x))
        return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)

    if t_arr.ndim != 0:
        raise ValidationError("non-integer shape supports scalar t only")
    xs = float(x)
    a = params.shape
    if xs == 0.0:
        return 1.0
    if xs < a + 1.0:
        q = _upper_gamma_series(a, xs)
    else:
        q = _upper_gamma_contfrac(a, xs)
    return min(max(q, 0.0), 1.0)


def _standard_gamma_ge1(shape: float, gen: np.random.Generator, count: int) -> np.ndarray:
    # Marsaglia-Tsang squeeze-free rejection sampler, exact for shape >= 1
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(count)
    pending = np.arange(count)
    while pending.size:
        x = gen.standard_normal(pending.size)
        u = gen.random(pending.size)
        y = 1.0 + c * x
        v = y * y * y
        with np.errstate(divide="ignore", invalid="ignore"):
            accept = (v > 0) & (np.log(u) < 0.5 * x * x + d - d * v + d * np.log(v))
        out[pending[accept]] = d * v[accept]
        pending = pending[~accept]
    return out


def gamma_sample(params: GammaParams, rng: RandomSource, size: int | None = None):
    """Exact Gamma sample(s) via rejection sampling.

    Shapes >= 1 use the rejection method directly; shapes in (0, 1) boost to
    shape + 1 and multiply by U^(1/shape), which is also exact.  Returns a
    scalar when ``size`` is None, else an array of length ``size``.
    """
    gen = rng.generator
    count = 1 if size is None else int(size)
    if params.shape >= 1.0:
        out = _standard_gamma_ge1(params.shape, gen, count)
    else:
        out = _standard_gamma_ge1(params.shape + 1.0, gen, count)
        out *= gen.random(count) ** (1.0 / params.shape)
    out /= params.rate
    return float(out[0]) if size is None else out


def elap_sample(params: ELapParams, rng: RandomSource, size: int | None = None):
    """Exact sample(s) from ELap(b) in d dimensions.

    Draws the radius from Gamma(shape d, scale b) and an independent uniform
    direction from d standard normals.  Returns a length-d vector when
    ``size`` is None, else a (size, d) array.
    """
    gen = rng.generator
    count = 1 if size is None else int(size)
    radii = gamma_sample(GammaParams(shape=float(params.d), rate=1.0 / params.b), rng, count)
    dirs = gen.standard_normal((count, params.d))
    norms = _row_norms(dirs)
    # a zero-norm direction is astronomically unlikely but must not yield NaN
    while np.any(norms < _MIN_DIRECTION_NORM):
        bad = norms < _MIN_DIRECTION_NORM
        dirs[bad] = gen.standard_normal((int(bad.sum()), params.d))
        norms = _row_norms(dirs)
    dirs *= np.atleast_1d(radii)[:, None]
    dirs /= norms[:, None]
    return dirs[0] if size is None else dirs
