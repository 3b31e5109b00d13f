"""The Euclidean-Laplace distribution and its Gamma-distribution underpinnings.

``ELap(b)`` over R^d is the spherically symmetric distribution with density

    Gamma(d/2) / (2 * pi^(d/2) * b^d * Gamma(d)) * exp(-||eta||_2 / b).

Its norm follows Gamma(shape d, rate 1/b), which gives an exact two-step
sampler (Gamma radius times a uniform direction), a closed-form tail radius
``d*b*ln(d/alpha)``, and a union-bound tail estimate.  The norm law is the
only Gamma this package needs, so Gamma shapes are positive integers: the
exact tail is the Erlang (Poisson) sum and the sampler is Marsaglia-Tsang
rejection, both exact up to floating point.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import RandomSource, _check_alpha, _check_count, _check_finite_positive, _row_norms
from .errors import DimensionMismatch, NonIntegerShape, PrecisionLimit, ValidationError

_MIN_DIRECTION_NORM = 1e-300

# the smallest scale b whose Gamma rate 1/b is a finite float
MIN_SCALE = math.nextafter(1.0 / sys.float_info.max, math.inf)


@dataclass(frozen=True)
class ELapParams:
    """Integer dimension d >= 1 and finite scale b >= ``MIN_SCALE`` of the Euclidean-Laplace
    distribution; d = 2.0 is taken as 2."""

    d: int
    b: float

    def __post_init__(self):
        object.__setattr__(self, "d", _check_count("d", self.d, 1))
        _check_finite_positive("scale", self.b)
        if self.b < MIN_SCALE:
            raise PrecisionLimit(f"scale must be >= {MIN_SCALE!r}, the smallest whose rate "
                                 f"1/scale is a finite float, got {self.b}")


@dataclass(frozen=True)
class GammaParams:
    """Gamma distribution with integer shape k >= 1 and finite rate lambda > 0 (scale 1/lambda)."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (self.shape >= 1 and float(self.shape).is_integer()):
            raise NonIntegerShape(f"shape must be a positive integer, got {self.shape}")
        _check_finite_positive("rate", self.rate)


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


def elap_tail_radius(params: ELapParams, alpha: float) -> float:
    """Radius r = d*b*ln(d/alpha) with Pr(||eta||_2 > r) <= alpha."""
    _check_alpha(alpha)
    radius = params.d * params.b * math.log(params.d / alpha)
    if math.isinf(radius):
        raise PrecisionLimit(f"tail radius d*b*ln(d/alpha) is beyond the largest float "
                             f"{sys.float_info.max:.4g} at d={params.d}, b={params.b}")
    return radius


def gamma_tail_bound(params: GammaParams, t: float) -> float:
    """Union-bound tail estimate k * exp(-rate*t/k) for shape k.

    The bound decomposes a Gamma(k, rate) variable into k iid exponentials.
    Values above 1 are clamped (vacuous).
    """
    if not t > 0:
        raise ValidationError(f"t must be positive, got {t}")
    k = int(params.shape)
    return min(1.0, k * math.exp(-params.rate * t / k))


def gamma_exact_tail(params: GammaParams, t):
    """Exact upper tail Pr(X > t) for X ~ Gamma(k, rate), by the Erlang (Poisson) sum.

    Vectorized over ``t``: a scalar ``t`` gives a float, an array an array.
    """
    t_arr = np.asarray(t, dtype=np.float64)
    if not np.all(t_arr >= 0):
        raise ValidationError("t must be nonnegative")
    x = np.atleast_1d(t_arr * params.rate)
    # sum of exp(-x) * x^j / j! for j = 0..k-1, in log space; no tail at x = inf
    out = np.where(x == np.inf, 0.0, 1.0)
    pos = (x > 0) & (x < np.inf)
    if np.any(pos):
        j = np.arange(int(params.shape), dtype=np.float64)
        xs = x[pos][:, None]
        terms = -xs + j * np.log(xs) - np.array([math.lgamma(v + 1) for v in j])
        shift = terms.max(axis=1, keepdims=True)
        out[pos] = np.exp(shift[:, 0] + np.log(np.exp(terms - shift).sum(axis=1)))
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)


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
    """Exact Gamma sample(s) by Marsaglia-Tsang rejection.

    Returns a scalar when ``size`` is None, else an array of length ``size``.
    """
    count = 1 if size is None else _check_count("size", size, 0)
    out = _standard_gamma_ge1(params.shape, rng.generator, count)
    out /= params.rate
    return float(out[0]) if size is None else out


def elap_sample(params: ELapParams, rng: RandomSource, size: int | None = None):
    """Exact sample(s) from ELap(b) in d dimensions.

    Draws the radius from Gamma(shape d, scale b) and an independent uniform
    direction from d standard normals.  Returns a length-d vector when
    ``size`` is None, else a (size, d) array.
    """
    gen = rng.generator
    count = 1 if size is None else _check_count("size", size, 0)
    radii = gamma_sample(GammaParams(shape=float(params.d), rate=1.0 / params.b), rng, size)
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
