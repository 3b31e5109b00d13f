"""Shared domain types, the randomness contract, and dataset validation.

Conventions used throughout the package:

* finite-domain elements are the 1-indexed integers ``[1..k]``,
* probabilities are 64-bit floats; densities are handled in log space,
* randomness flows through an explicit :class:`RandomSource` so that every
  experiment is replayable from a 64-bit seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainTooSmall,
    EmptyDataset,
    NegativeMass,
    NotNormalized,
    OutOfDomain,
    ValidationError,
)

NORMALIZATION_TOL = 1e-12


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    arr = np.array(arr, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class CategoricalDist:
    """Explicit probability vector over the domain [1..k], k >= 2.

    Entries must be nonnegative and sum to 1 within ``NORMALIZATION_TOL``.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = _frozen_array(self.probs, np.float64)
        if probs.ndim != 1 or probs.size < 2:
            raise DomainTooSmall(f"need k >= 2 outcomes, got shape {probs.shape}")
        if np.any(probs < 0):
            raise NegativeMass(f"negative entry in probability vector: min={probs.min()}")
        total = float(probs.sum())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise NotNormalized(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "probs", probs)

    @property
    def k(self) -> int:
        return int(self.probs.size)

    def prob(self, x: int) -> float:
        """Probability of the 1-indexed outcome ``x``."""
        if not 1 <= x <= self.k:
            raise OutOfDomain(f"outcome {x} outside [1..{self.k}]")
        return float(self.probs[x - 1])


def validate_categorical(probs) -> CategoricalDist:
    """Validate a raw probability vector and wrap it as a CategoricalDist."""
    return CategoricalDist(probs=np.asarray(probs, dtype=np.float64))


@dataclass(frozen=True, eq=False)
class KaryDataset:
    """n integer records in [1..k]."""

    values: np.ndarray
    k: int

    def __post_init__(self):
        values = _frozen_array(self.values, np.int64)
        if values.ndim != 1 or values.size == 0:
            raise EmptyDataset("dataset needs at least one value")
        if self.k < 2:
            raise DomainTooSmall(f"k must be >= 2, got {self.k}")
        if values.min() < 1 or values.max() > self.k:
            raise OutOfDomain(
                f"values must lie in [1..{self.k}], got range [{values.min()}, {values.max()}]"
            )
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def counts(self) -> np.ndarray:
        """Occurrence count of each element of [1..k]."""
        return np.bincount(self.values, minlength=self.k + 1)[1:]

    def subset(self, start: int, stop: int) -> "KaryDataset":
        return KaryDataset(values=self.values[start:stop], k=self.k)


@dataclass(frozen=True, eq=False)
class VectorDataset:
    """n rows in d-dimensional real space."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows.reshape(-1, 1)
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise EmptyDataset(f"expected a nonempty (n, d) array, got shape {rows.shape}")
        if rows.shape[1] < 1:
            raise DimensionMismatch("rows must have dimension d >= 1")
        if not np.isfinite(rows).all():
            bad = int(np.argmin(np.isfinite(rows).all(axis=1)))
            raise ValidationError(f"row index {bad} has a non-finite entry: {rows[bad].tolist()}")
        rows = _frozen_array(rows, np.float64)
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return int(self.rows.shape[0])

    @property
    def d(self) -> int:
        return int(self.rows.shape[1])

    def subset(self, start: int, stop: int) -> "VectorDataset":
        return VectorDataset(rows=self.rows[start:stop])


def empirical_dist(data: KaryDataset) -> CategoricalDist:
    """Empirical frequency vector count(j)/n of a k-ary dataset."""
    return CategoricalDist(probs=data.counts() / data.n)


@dataclass(frozen=True)
class PrivacyBudget:
    """(epsilon, delta) privacy budget; ``rho`` optionally records eps^2/2 for zCDP."""

    epsilon: float
    delta: float = 0.0
    rho: float | None = None

    def __post_init__(self):
        # strictly positive in every mechanism; zero permitted so audits can
        # express a zero claimed budget
        if not self.epsilon >= 0:
            raise ValidationError(f"epsilon must be nonnegative, got {self.epsilon}")
        if not 0 <= self.delta < 1:
            raise ValidationError(f"delta must be in [0, 1), got {self.delta}")
        if self.rho is not None:
            expected = self.epsilon**2 / 2
            if not self.rho >= 0 or abs(self.rho - expected) > 1e-12:
                raise ValidationError(
                    f"rho={self.rho} inconsistent with epsilon^2/2={expected}"
                )

    @classmethod
    def pure(cls, epsilon: float) -> "PrivacyBudget":
        return cls(epsilon=epsilon, delta=0.0)

    @classmethod
    def approx(cls, epsilon: float, delta: float) -> "PrivacyBudget":
        return cls(epsilon=epsilon, delta=delta)

    @classmethod
    def zcdp(cls, epsilon: float) -> "PrivacyBudget":
        return cls(epsilon=epsilon, delta=0.0, rho=epsilon**2 / 2)


class RandomSource:
    """Seedable pseudo-random stream with reproducible child derivation.

    Identical ``(seed, key)`` pairs yield identical streams.  Children are
    derived statelessly: ``child(i)`` appends ``i`` to the spawn key of the
    underlying ``numpy.random.SeedSequence``, so a tree of parallel streams is
    fully determined by the root seed and the tree position, independent of
    call order.
    """

    def __init__(self, seed: int, _key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.key = tuple(int(i) for i in _key)
        self._gen = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=self.key)
        )

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def child(self, index: int) -> "RandomSource":
        """Derive the ``index``-th independent child stream."""
        return RandomSource(self.seed, self.key + (index,))

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, key={self.key})"


# --- CSV dataset formats --------------------------------------------------
#
# k-ary: one integer per line.  Vector: one comma-separated float vector per
# line.  A single non-numeric first line is treated as a header and skipped.


def _data_lines(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and any(cell.strip() for cell in row)]
    if not rows:
        raise EmptyDataset(f"no data rows in {path}")
    try:
        float(rows[0][0])
    except ValueError:
        rows = rows[1:]
    if not rows:
        raise EmptyDataset(f"only a header row in {path}")
    return rows


def read_kary_csv(path, k: int | None = None) -> KaryDataset:
    """Read one integer per line; ``k`` defaults to the largest value seen."""
    rows = _data_lines(path)
    try:
        values = [int(row[0]) for row in rows]
    except ValueError as exc:
        raise ValidationError(f"non-integer value in k-ary dataset {path}: {exc}") from exc
    if k is None:
        k = max(max(values), 2)
    return KaryDataset(values=np.asarray(values), k=k)


def read_vector_csv(path) -> VectorDataset:
    """Read one comma-separated real vector per line."""
    rows = _data_lines(path)
    try:
        vectors = [[float(cell) for cell in row] for row in rows]
    except ValueError as exc:
        raise ValidationError(f"non-numeric value in vector dataset {path}: {exc}") from exc
    widths = {len(v) for v in vectors}
    if len(widths) != 1:
        raise DimensionMismatch(f"inconsistent row widths {sorted(widths)} in {path}")
    return VectorDataset(rows=np.asarray(vectors))


def write_kary_csv(path, values) -> None:
    with open(path, "w", newline="") as fh:
        for v in np.asarray(values).ravel():
            fh.write(f"{int(v)}\n")


def write_vector_csv(path, rows) -> None:
    arr = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    with open(path, "w", newline="") as fh:
        for row in arr:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
