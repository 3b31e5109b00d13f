"""Divergences between distributions.

Exact calculators on finite distributions:

* total variation        ``TV(p, q) = (1/2) * sum_i |p_i - q_i|``
* hockey-stick           ``HS_beta(p || q) = sum_i max(0, p_i - beta * q_i)``

plus the closeness relation built from the hockey-stick divergence in both
directions, the conversion bound from (eps, delta)-closeness to TV distance,
and a binned Monte Carlo TV estimator for continuous samplers (each row binned
once, O(n * d) memory).

Convention: hockey-stick order is restricted to ``beta >= 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .core import CategoricalDist, RandomSource, VectorDataset
from .errors import DimensionMismatch, DomainMismatch, EmptyDataset, ValidationError

BOOTSTRAP_RESAMPLES = 200

# A bootstrap replicate of a side's n cell ids, counted, is one draw from
# Multinomial(n, counts / n).  On a 2-core Xeon with numpy 2.4,
# ``gen.multinomial`` cost 130-200 ns per occupied cell and resampling and
# counting the ids 7-10 ns per row (2k-100k rows, 30-7,800 cells), so the two
# broke even at 18-22 rows per cell.  A side takes the multinomial draw when
# occupied * ROWS_PER_CELL <= n.
ROWS_PER_CELL = 20

# Each axis materializes bins_per_axis + 1 float64 edges: 32 MiB at the cap.
MAX_BINS_PER_AXIS = 2**22

# When both sides draw multinomials, one call draws a chunk of replicates:
# (chunk, 2, cells) counts, at most this many entries.
BOOTSTRAP_CHUNK_ENTRIES = 2**16


@dataclass(frozen=True)
class ClosenessResult:
    """Hockey-stick divergence in both directions at beta = e^eps."""

    hs_forward: float
    hs_backward: float

    @property
    def delta_at_eps(self) -> float:
        """Smallest delta making the two distributions (eps, delta)-close."""
        return max(self.hs_forward, self.hs_backward)


def _check_same_domain(p: CategoricalDist, q: CategoricalDist) -> None:
    if p.k != q.k:
        raise DomainMismatch(f"distributions over different domains: {p.k} vs {q.k}")


def tv_distance_finite(p: CategoricalDist, q: CategoricalDist) -> float:
    """Total variation distance, equal to the sup over events of the probability gap."""
    _check_same_domain(p, q)
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def hockey_stick_finite(p: CategoricalDist, q: CategoricalDist, beta: float) -> float:
    """Hockey-stick divergence sum_i max(0, p_i - beta*q_i) = sup_E (P(E) - beta*Q(E))."""
    _check_same_domain(p, q)
    if not beta >= 1:
        raise ValidationError(f"hockey-stick order must be >= 1, got {beta}")
    return float(np.maximum(p.probs - beta * q.probs, 0.0).sum())


def eps_delta_closeness(p: CategoricalDist, q: CategoricalDist, eps: float) -> ClosenessResult:
    """Smallest delta making p and q (eps, delta)-close, via both hockey-stick directions."""
    if eps < 0:
        raise ValidationError(f"eps must be nonnegative, got {eps}")
    beta = math.exp(eps)
    return ClosenessResult(hockey_stick_finite(p, q, beta), hockey_stick_finite(q, p, beta))


def hs_to_tv_bound(eps: float, delta: float) -> float:
    """Upper bound on TV distance implied by (eps, delta)-closeness.

    Returns ``2*delta/(e^eps + 1) + (e^eps - 1)``; values above 1 are vacuous
    but returned as computed.
    """
    if eps < 0:
        raise ValidationError(f"eps must be nonnegative, got {eps}")
    if not 0 <= delta < 1:
        raise ValidationError(f"delta must be in [0, 1), got {delta}")
    return 2.0 * delta / (math.exp(eps) + 1.0) + math.expm1(eps)


@dataclass(frozen=True)
class TvEstimate:
    """Binned TV estimate with a bootstrap confidence halfwidth."""

    estimate: float
    halfwidth: float
    bins: int


def _bin_ids(col: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """histogramdd's bin of each value: ``searchsorted(edges, col, "right") - 1``, last bin closed.

    The arithmetic guess ``(col - edges[0]) / step`` uses ``np.linspace``'s own
    step; each guess is checked against the edges themselves, and the values it
    misses by rounding take ``searchsorted``.
    """
    last = edges.size - 2
    step = (edges[-1] - edges[0]) / (last + 1)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        guess = np.floor((col - edges[0]) / step)
    ids = np.clip(np.nan_to_num(guess), 0, last).astype(np.intp)
    wrong = (edges[ids] > col) | ((edges[ids + 1] <= col) & (ids < last))
    if wrong.any():
        ids[wrong] = np.minimum(np.searchsorted(edges, col[wrong], side="right") - 1, last)
    return ids


def _cell_ids(columns: list[np.ndarray], bins: int) -> tuple[np.ndarray, int]:
    """Rank of each row's cell among the occupied cells, in lexicographic order.

    ``columns`` holds one array of bin indices in ``[0, bins)`` per axis.  The
    ids equal the inverse of ``np.unique(np.column_stack(columns), axis=0)``,
    from one 1-D unique of the raveled key ``key * bins + col``.  When the next
    axis would push that key past int64, the key so far is first replaced by
    its rank among the occupied values, which keeps it below N * bins for N
    rows however large bins^d is.
    """
    key, size = columns[0], bins
    for col in columns[1:]:
        if size * bins > 2**63:
            values, key = np.unique(key, return_inverse=True)
            size = values.size
        key = key * bins + col
        size *= bins
    values, ids = np.unique(key, return_inverse=True)
    return ids, values.size


def _takes_count_path(counts: np.ndarray) -> bool:
    """Whether a side has at least ``ROWS_PER_CELL`` rows per occupied cell."""
    return np.count_nonzero(counts) * ROWS_PER_CELL <= counts.sum()


def _replicate_counts(
    ids: np.ndarray, counts: np.ndarray, gen: np.random.Generator
) -> Callable[[], np.ndarray]:
    """One side's bootstrap: each call draws the counts of n ids resampled with replacement.

    A side with at least ``ROWS_PER_CELL`` rows per occupied cell draws them as
    one ``Multinomial(n, counts / n)`` over its occupied cells, their exact
    law; any other side resamples its ids with ``gen.integers`` and counts them.
    """
    n = ids.size
    if not _takes_count_path(counts):
        return lambda: np.bincount(ids[gen.integers(0, n, size=n)], minlength=counts.size)
    cells = np.flatnonzero(counts)
    pvals = counts[cells] / n

    def draw() -> np.ndarray:
        out = np.zeros_like(counts)
        out[cells] = gen.multinomial(n, pvals)
        return out

    return draw


def _multinomial_replicates(
    counts_p: np.ndarray, counts_q: np.ndarray, gen: np.random.Generator
) -> Iterator[list[np.ndarray]]:
    """Yield both sides' replicate counts, (chunk, occupied) each, in chunks of replicates.

    One ``gen.multinomial([n_p, n_q], pvals, size=(chunk, 2))`` call draws a
    chunk.  Each row of ``pvals`` holds its side's occupied cells, padded with
    zeros on the left: numpy's conditional-binomial loop draws nothing for a
    zero probability and gives the remainder to the last cell, so the draws
    equal one ``gen.multinomial(n, counts[cells] / n)`` per side and replicate,
    p before q.
    """
    n = np.array([counts_p.sum(), counts_q.sum()])
    cells = [np.flatnonzero(counts_p), np.flatnonzero(counts_q)]
    width = max(c.size for c in cells)
    pvals = np.zeros((2, width))
    for row, side, c in zip(pvals, (counts_p, counts_q), cells):
        row[width - c.size:] = side[c] / side.sum()
    chunk = max(1, BOOTSTRAP_CHUNK_ENTRIES // (2 * width))
    for start in range(0, BOOTSTRAP_RESAMPLES, chunk):
        size = min(chunk, BOOTSTRAP_RESAMPLES - start)
        draws = gen.multinomial(n, pvals, size=(size, 2))
        sides = []
        for j, c in enumerate(cells):
            side = np.zeros((size, counts_p.size), dtype=counts_p.dtype)
            side[:, c] = draws[:, j, width - c.size:]
            sides.append(side)
        yield sides


def tv_estimate_binned(
    samples_p: VectorDataset,
    samples_q: VectorDataset,
    bins_per_axis: int,
    rng: RandomSource,
) -> TvEstimate:
    """Estimate TV distance between two continuous sample sets by binning.

    Both sets are binned with equal-width bins on their joint bounding box
    (expanded by 1% per side); the estimate is half the L1 distance between
    the two bin-frequency vectors.  Each row is binned once, to the id of its
    occupied cell, so memory is O(n * d) for n rows however large bins^d is;
    ``bins_per_axis`` is capped at ``MAX_BINS_PER_AXIS`` because the edges are
    materialized.  The halfwidth is half the central-95% width of
    ``BOOTSTRAP_RESAMPLES`` bootstrap replicates of the estimate.  Each
    replicate draws p's resampled cell counts, then q's: a side with at least
    ``ROWS_PER_CELL`` rows per occupied cell draws them with one
    ``gen.multinomial(n, counts / n)`` over those cells, their exact law; any
    other side resamples its n cell ids with ``gen.integers`` and counts them.
    When both sides take the multinomial, one call draws a chunk of
    replicates for both sides, the same draws in the same order as one call
    per side and replicate, in O(chunk * occupied) memory.  Resampling stays
    one replicate at a time: its cost is per row (the ``gen.integers`` draw,
    the gather and the count of n ids), and drawing one side's replicates
    together would reorder the alternating p, q draws.
    """
    if samples_p.d != samples_q.d:
        raise DimensionMismatch(
            f"sample sets have different dimensions: {samples_p.d} vs {samples_q.d}"
        )
    if bins_per_axis < 2:
        raise ValidationError(f"bins_per_axis must be >= 2, got {bins_per_axis}")
    if bins_per_axis > MAX_BINS_PER_AXIS:
        raise ValidationError(
            f"bins_per_axis must be <= MAX_BINS_PER_AXIS = {MAX_BINS_PER_AXIS}, "
            f"got {bins_per_axis}"
        )
    if samples_p.n == 0 or samples_q.n == 0:
        raise EmptyDataset("both sample sets must be nonempty")

    cells = []
    for col_p, col_q in zip(samples_p.rows.T, samples_q.rows.T):
        lo = min(col_p.min(), col_q.min())
        hi = max(col_p.max(), col_q.max())
        pad = 0.01 * max(hi - lo, 1e-12)
        edges = np.linspace(lo - pad, hi + pad, bins_per_axis + 1)
        cells.append(np.concatenate([_bin_ids(col_p, edges), _bin_ids(col_q, edges)]))
    ids, occupied = _cell_ids(cells, bins_per_axis)
    ids_p, ids_q = ids[: samples_p.n], ids[samples_p.n :]
    counts_p = np.bincount(ids_p, minlength=occupied)
    counts_q = np.bincount(ids_q, minlength=occupied)

    def tv(side_p: np.ndarray, side_q: np.ndarray) -> np.ndarray:
        freq_p = side_p / samples_p.n
        freq_q = side_q / samples_q.n
        # rounding can push the sum just past 1 when every row has its own cell
        return np.minimum(0.5 * np.abs(freq_p - freq_q).sum(axis=-1), 1.0)

    estimate = float(tv(counts_p, counts_q))
    gen = rng.generator
    if _takes_count_path(counts_p) and _takes_count_path(counts_q):
        reps = np.concatenate([tv(side_p, side_q) for side_p, side_q
                               in _multinomial_replicates(counts_p, counts_q, gen)])
    else:
        draw_p = _replicate_counts(ids_p, counts_p, gen)
        draw_q = _replicate_counts(ids_q, counts_q, gen)
        reps = np.array([tv(draw_p(), draw_q()) for _ in range(BOOTSTRAP_RESAMPLES)])
    lo_q, hi_q = np.quantile(reps, [0.025, 0.975])
    return TvEstimate(
        estimate=estimate,
        halfwidth=0.5 * float(hi_q - lo_q),
        bins=bins_per_axis,
    )
