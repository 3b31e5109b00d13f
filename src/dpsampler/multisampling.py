"""Combinators that lift single-samplers to multi-samplers.

Two generic constructions:

* repetition: run a single-sampler on m disjoint consecutive blocks of
  input; the outputs are i.i.d. with the single-sampler's marginal, so the
  per-output tolerance is unchanged.
* precision: run a sampler with per-output tolerance alpha/m; a union bound
  makes the m-fold product law alpha-close to the target product.

Composing the two turns a single-sampler into a strong multi-sampler with
sample complexity m * n(alpha/m).  Privacy is inherited: each record is
consumed by exactly one inner call.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from typing import Any, Callable

from .core import RandomSource, _check_count
from .errors import DimensionMismatch, DomainMismatch, InsufficientData
from .gaussian import gaussian_calibration
from .kary import KARY_CALIBRATIONS, _check_tolerance, shurr_run, subrr_sample

@dataclass(frozen=True)
class SamplerSpec:
    """A sampler plus the metadata the combinators need to drive it.

    ``n_per_call(alpha)`` is the input size one invocation consumes at
    tolerance alpha; ``run(data, alpha, rng)`` performs one invocation.
    Single-samplers return one draw per call, weak samplers return their m
    outputs in one call.
    """

    alpha: float
    n_per_call: Callable[[float], int]
    run: Callable[[Any, float, RandomSource], Any]


# The blocks repetition has cut from each dataset, per block size:
# {data: {block: (first block, second block, ...)}}.  A block is a read-only
# view of the dataset's private copy, so a stored one cannot go stale, and
# handing out the same block objects on every call lets the Gaussian samplers'
# per-dataset statistic cache hit.  The weak key drops the blocks with their
# dataset.  Each tuple is built whole and stored in one assignment: a race may
# cut a block twice, but never stores blocks in the wrong order.
_BLOCKS: "weakref.WeakKeyDictionary[Any, dict[int, tuple]]" = weakref.WeakKeyDictionary()


def _blocks(data, block: int, m: int) -> tuple:
    """The first m consecutive blocks of ``block`` records of ``data``, cut once per dataset."""
    cut = _BLOCKS.setdefault(data, {})
    blocks = cut.get(block, ())
    if len(blocks) < m:
        blocks = cut[block] = blocks + tuple(
            data.subset(i * block, (i + 1) * block) for i in range(len(blocks), m)
        )
    return blocks


def weak_via_repetition(single: SamplerSpec, m: int, data, rng: RandomSource) -> list:
    """m i.i.d. outputs from m disjoint consecutive blocks of the input."""
    m = _check_count("m", m, 1)
    block = single.n_per_call(single.alpha)
    if data.n < m * block:
        raise InsufficientData(
            f"need m*n = {m}*{block} = {m * block} records, got {data.n}"
        )
    blocks = _blocks(data, block, m)
    return [single.run(blocks[i], single.alpha, rng.child(i)) for i in range(m)]


def strong_via_precision(
    weak: SamplerSpec, m: int, alpha: float, data, rng: RandomSource
) -> list:
    """Run the weak sampler once at per-output tolerance alpha/m."""
    per_output = _check_tolerance(alpha, _check_count("m", m, 1))
    needed = weak.n_per_call(per_output)
    if data.n < needed:
        raise InsufficientData(f"need {needed} records at tolerance {per_output}, got {data.n}")
    return list(weak.run(data, per_output, rng.child(0)))


def strong_via_both(
    single: SamplerSpec, m: int, alpha: float, data, rng: RandomSource
) -> list:
    """Single-sampler at tolerance alpha/m repeated on m disjoint blocks."""
    tightened = replace(single, alpha=_check_tolerance(alpha, _check_count("m", m, 1)))
    return weak_via_repetition(tightened, m, data, rng)


def repetition_complexity(single: SamplerSpec, m: int) -> int:
    """Total input size m * n(alpha) consumed by repetition."""
    return _check_count("m", m, 1) * single.n_per_call(single.alpha)


def strong_both_complexity(single: SamplerSpec, m: int, alpha: float) -> int:
    """Total input size m * n(alpha/m) consumed by precision-tightened repetition."""
    m = _check_count("m", m, 1)
    return m * single.n_per_call(_check_tolerance(alpha, m))


# --- sampler factories --------------------------------------------------------


def _on_domain(k: int, run: Callable[[Any, float, RandomSource], Any]):
    """``run`` behind a check, made before any draw, that the block's domain size is k."""

    def checked(block, a, rng):
        if block.k != k:
            raise DomainMismatch(f"data domain size {block.k} != sampler domain size {k}")
        return run(block, a, rng)

    return checked


def subrr_sampler(k: int, *, alpha: float, eps: float) -> SamplerSpec:
    """Single-sampler spec for the subsampled randomized-response mechanism.

    A call refuses a block whose domain size is not k.
    """
    cal = KARY_CALIBRATIONS["sub"]
    return SamplerSpec(
        alpha=alpha,
        n_per_call=lambda a: cal.complexity("single", k, a, eps).n_required,
        run=_on_domain(k, lambda block, a, rng: subrr_sample(block, eps, rng)),
    )


def shurr_sampler(k: int, *, alpha: float, eps: float, delta: float, m: int) -> SamplerSpec:
    """Weak multi-sampler spec for the shuffled randomized-response mechanism.

    A call refuses data whose domain size is not k.
    """
    cal = KARY_CALIBRATIONS["shuffle"]
    return SamplerSpec(
        alpha=alpha,
        n_per_call=lambda a: cal.complexity("weak", k, a, eps, delta, m).n_required,
        run=_on_domain(k, lambda data, a, rng: shurr_run(data, eps, delta, m, rng)),
    )


def gaussian_sampler(variant: str, d: int, R: float, *, alpha: float, eps: float) -> SamplerSpec:
    """Single-sampler spec for a Gaussian variant, read from its calibration entry.

    A call refuses a block whose dimension is not d.
    """
    cal = gaussian_calibration(variant)

    def run(block, a, rng):
        if block.d != d:
            raise DimensionMismatch(f"data dimension {block.d} != sampler dimension {d}")
        return cal.release(block, R=R, alpha=a, eps=eps, rng=rng)

    return SamplerSpec(
        alpha=alpha,
        n_per_call=lambda a: cal.n_per_call(d, R, a, eps),
        run=run,
    )


def pure_gaussian_sampler(d: int, R: float, eps: float, alpha: float) -> SamplerSpec:
    """Single-sampler spec for the pure-DP known-covariance Gaussian mechanism."""
    return gaussian_sampler("pure", d, R, alpha=alpha, eps=eps)


def zcdp_known_cov_sampler(d: int, R: float, eps: float, alpha: float) -> SamplerSpec:
    """Single-sampler spec for the zCDP known-covariance Gaussian mechanism."""
    return gaussian_sampler("zcdp-known", d, R, alpha=alpha, eps=eps)


def zcdp_bounded_cov_sampler(d: int, R: float, eps: float, alpha: float) -> SamplerSpec:
    """Single-sampler spec for the zCDP bounded-covariance Gaussian mechanism.

    A call refuses fewer rows than ``n_per_call``: this sampler's noise does not
    grow as n shrinks, so its privacy rests on n.
    """
    return gaussian_sampler("zcdp-bounded", d, R, alpha=alpha, eps=eps)
