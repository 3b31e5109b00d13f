"""Finite-domain private samplers built on k-ary randomized response.

Two mechanisms, both calibrated through the local randomizer

    RR_x(y) = e^eps0 / (e^eps0 + k - 1)   if y = x,
              1      / (e^eps0 + k - 1)   otherwise:

* subsampled randomized response: apply RR to one uniformly chosen record
  with eps0 = ln(eps * n); releases a single element.
* shuffled randomized response: apply RR to every record with
  eps0 = ln(f(eps)^2 * n / ln(4/delta) - 1), shuffle, release the first m.
  The shuffle amplifies the local parameter down to a central (eps, delta)
  via the closed-form amplification bound evaluated by :func:`fmt_eps1`.
  That bound is a statement about the law of the released m values, which
  is exactly RR applied to a uniform ordered m-subset of the records drawn
  without replacement; :func:`shurr_run` samples that law directly, in O(m)
  RR work.

``KARY_CALIBRATIONS`` states each mechanism's eps0, central-eps certificate,
RunReport figures and complexity tasks once, keyed by the CLI's mode names
``sub`` and ``shuffle``; the samplers, the CLI and both audits read it.

The exact output law of the subsampled mechanism is the mixture
``(1/n) * sum_i RR_{X_i}``, computed from the dataset's counts; sample-complexity
calculators return integer ceilings of the sufficient bounds.

The amplification bound is inherently (eps, delta): even though the eps > 1
branch of the budget split admits a pure-DP reading, the shuffled mechanism
is reported as (eps, delta)-DP in both regimes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import CategoricalDist, KaryDataset, RandomSource, _check_count, _check_finite_positive
from .errors import InsufficientData, InvalidAlpha, OutOfDomain, PrecisionLimit, ValidationError

STRONG_ALPHA_FLOOR = 1e-12
# the largest n a sample-size bound can state: float arithmetic overflows past it
N_CEILING = int(sys.float_info.max)
_BEYOND_FLOATS = f"the sample size these parameters need is beyond the largest float {N_CEILING:.4g}"


def _check_tolerance(alpha: float, m: int) -> float:
    """Per-output tolerance alpha/m of a strong sampler, refused below the floor."""
    per_output = alpha / m
    if per_output < STRONG_ALPHA_FLOOR:
        raise PrecisionLimit(
            f"per-output tolerance alpha/m = {per_output} below floor {STRONG_ALPHA_FLOOR}"
        )
    return per_output


def _tolerant_ceil(x: float) -> int:
    """Ceiling that forgives float noise just above an exact integer; an overflowed x is refused."""
    if not math.isfinite(x):
        raise PrecisionLimit(_BEYOND_FLOATS)
    return int(math.ceil(x - 1e-9 * max(1.0, abs(x))))


def _least_n(ok: Callable[[int], bool], lo: int) -> int:
    """Smallest n in [lo, N_CEILING] with ok(n), for ok monotone in n: doubling, then bisection."""
    hi = lo
    while not ok(hi):
        if hi >= N_CEILING:
            raise PrecisionLimit(_BEYOND_FLOATS)
        lo, hi = hi + 1, min(2 * hi, N_CEILING)
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ok(mid) else (mid + 1, hi)
    return lo


@dataclass(frozen=True)
class RRParams:
    """Local randomizer parameters: finite privacy parameter eps0 >= 0, domain size k >= 2."""

    eps0: float
    k: int

    def __post_init__(self):
        if not (math.isfinite(self.eps0) and self.eps0 >= 0):
            raise ValidationError(f"eps0 must be finite and nonnegative, got {self.eps0}")
        if self.k < 2:
            raise ValidationError(f"k must be >= 2, got {self.k}")

    @property
    def keep_prob(self) -> float:
        """Probability of reporting the true value, e^eps0 / (e^eps0 + k - 1)."""
        return 1.0 / (1.0 + (self.k - 1) * math.exp(-self.eps0))


def rr_pmf(x: int, y: int, params: RRParams) -> float:
    """Probability that randomized response maps input x to output y."""
    for v in (x, y):
        if not 1 <= v <= params.k:
            raise OutOfDomain(f"element {v} outside [1..{params.k}]")
    keep = params.keep_prob
    return keep if y == x else (1.0 - keep) / (params.k - 1)


def rr_row(x: int, params: RRParams) -> np.ndarray:
    """Full output pmf of randomized response on input x."""
    if not 1 <= x <= params.k:
        raise OutOfDomain(f"element {x} outside [1..{params.k}]")
    keep = params.keep_prob
    row = np.full(params.k, (1.0 - keep) / (params.k - 1))
    row[x - 1] = keep
    return row


def rr_mixture_weight(k: int, eps0: float) -> float:
    """Mixture weight (k-1) / (k-1 + e^eps0): the TV error RR adds to any input law."""
    w = (k - 1) * math.exp(-eps0)
    return w / (w + 1.0)


def _rr_apply(values: np.ndarray, params: RRParams, gen: np.random.Generator) -> np.ndarray:
    keep = gen.random(values.size) < params.keep_prob
    offset = gen.integers(1, params.k, size=values.size)
    shifted = ((values - 1 + offset) % params.k) + 1
    return np.where(keep, values, shifted)


def rr_sample(x: int, params: RRParams, rng: RandomSource, size: int | None = None):
    """Randomized response output(s) for the single input x."""
    if not 1 <= x <= params.k:
        raise OutOfDomain(f"element {x} outside [1..{params.k}]")
    count = 1 if size is None else int(size)
    out = _rr_apply(np.full(count, x, dtype=np.int64), params, rng.generator)
    return int(out[0]) if size is None else out


# --- subsampled randomized response ----------------------------------------


def subrr_eps0(eps: float, n: int) -> float:
    """Local parameter ln(eps * n); defined only when eps * n > 1."""
    _check_finite_positive("eps", eps)
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if eps * n <= 1.0:
        n_min = _least_n(lambda m: eps * m > 1.0, 1)
        raise InsufficientData(
            f"eps*n = {eps * n} <= 1 leaves the local parameter undefined; "
            f"need n >= {n_min} at eps = {eps}"
        )
    return math.log(eps * n)


def subrr_sample(data: KaryDataset, eps: float, rng: RandomSource) -> int:
    """One private sample: randomized response on a uniformly chosen record."""
    params = RRParams(eps0=KARY_CALIBRATIONS["sub"].eps0(eps, None, data.n), k=data.k)
    r = int(rng.generator.integers(0, data.n))
    return rr_sample(int(data.values[r]), params, rng)


def _rr_mixture(counts: np.ndarray, params: RRParams) -> CategoricalDist:
    """Exact law (1/n) * sum_x counts[x] * RR_x of RR on a random one of n = sum(counts) records.

    Costs O(k) memory, and O(k) time per nonzero count, whatever n is.
    """
    probs = np.zeros(params.k)
    for x in np.flatnonzero(counts):
        probs += counts[x] * rr_row(x + 1, params)
    return CategoricalDist(probs=probs / counts.sum())


def rr_mixture_dist(data: KaryDataset, eps0: float) -> CategoricalDist:
    """Exact law (1/n) * sum_i RR_{X_i} of randomized response on a random record."""
    return _rr_mixture(data.counts(), RRParams(eps0=eps0, k=data.k))


def subrr_exact_output_dist(data: KaryDataset, eps: float) -> CategoricalDist:
    """Exact output law of the subsampled mechanism at eps0 = ln(eps * n)."""
    return rr_mixture_dist(data, KARY_CALIBRATIONS["sub"].eps0(eps, None, data.n))


@dataclass(frozen=True)
class ComplexityReport:
    """Sufficient sample count for a stated accuracy/privacy target."""

    n_required: int
    formula_name: str
    inputs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_required < 1:
            raise ValidationError(f"n_required must be >= 1, got {self.n_required}")


def _check_alpha(alpha: float) -> None:
    if not 0 < alpha < 1:
        raise InvalidAlpha(f"alpha must be in (0, 1), got {alpha}")


def subrr_sample_complexity(k: int, alpha: float, eps: float) -> ComplexityReport:
    """n = ceil((k-1)(1-alpha) / (alpha*eps)), sufficient for TV error alpha."""
    _check_alpha(alpha)
    _check_count("k", k, 2)
    _check_finite_positive("eps", eps)
    n = max(1, _tolerant_ceil((k - 1) * (1.0 - alpha) / (alpha * eps)))
    return ComplexityReport(
        n_required=n,
        formula_name="kary_single",
        inputs={"k": k, "alpha": alpha, "eps": eps},
    )


# --- shuffled randomized response -------------------------------------------


def shurr_f(eps: float) -> float:
    """Amplification budget split: eps/(16*sqrt(3/2)) below 1, sqrt(eps)/(16*sqrt(3/2)) above."""
    _check_finite_positive("eps", eps)
    scale = 16.0 * math.sqrt(1.5)
    return eps / scale if eps <= 1.0 else math.sqrt(eps) / scale


# the shuffled mechanism's local parameter ln(ratio - 1) is positive iff this ratio > 2
def _shurr_ratio(eps: float, delta: float, n: int) -> float:
    return shurr_f(eps) ** 2 * n / math.log(4.0 / delta)


def shurr_min_n(eps: float, delta: float) -> int:
    """Smallest n that :func:`shurr_eps0` accepts, found on its own test."""
    return _least_n(lambda n: _shurr_ratio(eps, delta, n) > 2.0, 1)


def shurr_eps0(eps: float, delta: float, n: int) -> float:
    """Local parameter ln(f(eps)^2 * n / ln(4/delta) - 1), refused unless positive."""
    if not 0 < delta < 1:
        raise ValidationError(f"delta must be in (0, 1), got {delta}")
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    ratio = _shurr_ratio(eps, delta, n)
    if not ratio > 2.0:
        raise InsufficientData(
            f"f(eps)^2*n/ln(4/delta) = {ratio} <= 2 leaves eps0 = ln(ratio - 1) not positive; "
            f"need n >= {shurr_min_n(eps, delta)} at eps = {eps}, delta = {delta}"
        )
    return math.log(ratio - 1.0)


def fmt_eps1(eps0: float, delta: float, n: int, k: int) -> float:
    """Central privacy parameter of shuffled randomized response.

    Closed-form amplification-by-shuffling bound:
    log(1 + 8(e^eps0 + 1)(sqrt((k+1)/k * ln(4/delta)/n * 1/(e^eps0 + k - 1))
    + (k+1)/(k*n))).
    """
    if k < 2:
        raise ValidationError(f"k must be >= 2, got {k}")
    if n < 1 or not 0 < delta < 1:
        raise ValidationError(f"need n >= 1 and delta in (0, 1), got n={n}, delta={delta}")
    e0 = math.exp(eps0)
    root = math.sqrt((k + 1) / k * math.log(4.0 / delta) / n / (e0 + k - 1))
    return math.log1p(8.0 * (e0 + 1.0) * (root + (k + 1) / (k * n)))


def shurr_run(
    data: KaryDataset, eps: float, delta: float, m: int, rng: RandomSource
) -> np.ndarray:
    """Release m shuffled randomized-response outputs of the dataset.

    Samples the same joint law as "randomize every record, shuffle uniformly,
    release the first m": RR on m records chosen uniformly without
    replacement, in uniformly random order, so positions stay exchangeable.
    The amplification bound :func:`fmt_eps1` is a statement about that law.
    """
    m = _check_count("m", m, 1)
    if m > data.n:
        raise InsufficientData(f"requested m={m} outputs from n={data.n} inputs")
    params = RRParams(eps0=KARY_CALIBRATIONS["shuffle"].eps0(eps, delta, data.n), k=data.k)
    gen = rng.generator
    chosen = data.values[gen.choice(data.n, size=m, replace=False)]
    return _rr_apply(chosen, params, gen)


def shurr_weak_complexity(
    k: int, alpha: float, eps: float, delta: float, m: int
) -> ComplexityReport:
    """n = max(m, ceil(k*ln(4/delta) / (alpha*f(eps)^2))) for marginal TV error alpha."""
    _check_alpha(alpha)
    _check_count("m", m, 1)
    _check_count("k", k, 2)
    if not 0 < delta < 1:
        raise ValidationError(f"delta must be in (0, 1), got {delta}")
    bound = k * math.log(4.0 / delta) / (alpha * shurr_f(eps) ** 2)
    n = max(m, _tolerant_ceil(bound))
    return ComplexityReport(
        n_required=n,
        formula_name="kary_weak",
        inputs={"k": k, "alpha": alpha, "eps": eps, "delta": delta, "m": m},
    )


def shurr_strong_complexity(
    k: int, alpha: float, eps: float, delta: float, m: int
) -> ComplexityReport:
    """Weak complexity at per-output tolerance alpha/m (union bound)."""
    _check_alpha(alpha)
    _check_count("m", m, 1)
    weak = shurr_weak_complexity(k, _check_tolerance(alpha, m), eps, delta, m)
    return ComplexityReport(
        n_required=weak.n_required,
        formula_name="kary_strong",
        inputs={"k": k, "alpha": alpha, "eps": eps, "delta": delta, "m": m},
    )


# --- calibration table ----------------------------------------------------------


@dataclass(frozen=True)
class KaryCalibration:
    """The numbers one k-ary sampler is calibrated by, each stated once.

    * ``eps0(eps, delta, n)``: the RR parameter on n records, refused unless positive;
      ``delta`` is None for the pure ``sub`` entry.
    * ``certify(eps0, delta, n, k)``: the paper's bound on the central eps at that eps0.
    * ``complexity``: task -> sufficient-n calculator, taking ``inputs`` in that order.
    * ``figures(eps, eps0, delta, n, k)``: RunReport figures besides eps0.
    """

    eps0: Callable[[float, float | None, int], float]
    certify: Callable[[float, float | None, int, int], float]
    inputs: tuple[str, ...]
    complexity: dict[str, Callable[..., ComplexityReport]]
    figures: Callable[..., dict] = lambda eps, eps0, delta, n, k: {}

    def derived(self, eps: float, delta: float | None, n: int, k: int) -> dict:
        """RunReport figures of one release from n records on [1..k]."""
        eps0 = self.eps0(eps, delta, n)
        return {"eps0": eps0, **self.figures(eps, eps0, delta, n, k)}


# entries call the module's functions by name, so a rebound function is seen here
KARY_CALIBRATIONS = {
    "sub": KaryCalibration(
        eps0=lambda eps, delta, n: subrr_eps0(eps, n),
        certify=lambda eps0, delta, n, k: math.log1p(math.exp(eps0) / n),  # = ln(1 + eps)
        inputs=("k", "alpha", "eps"),
        complexity={"single": lambda *args: subrr_sample_complexity(*args)},
    ),
    "shuffle": KaryCalibration(
        eps0=lambda eps, delta, n: shurr_eps0(eps, delta, n),
        certify=lambda eps0, delta, n, k: fmt_eps1(eps0, delta, n, k),
        inputs=("k", "alpha", "eps", "delta", "m"),
        complexity={
            "weak": lambda *args: shurr_weak_complexity(*args),
            "strong": lambda *args: shurr_strong_complexity(*args),
        },
        figures=lambda eps, eps0, delta, n, k: {"f_value": shurr_f(eps),
                                                "eps1": fmt_eps1(eps0, delta, n, k)},
    ),
}
