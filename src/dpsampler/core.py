"""Shared domain types, the randomness contract, and dataset validation.

Conventions used throughout the package:

* finite-domain elements are the 1-indexed integers ``[1..k]``,
* probabilities are 64-bit floats; densities are handled in log space,
* randomness flows through an explicit :class:`RandomSource` so that every
  experiment is replayable from a nonnegative integer seed.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import numbers
import warnings
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
    """A private read-only copy of ``values`` as ``dtype``, made in one pass."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _narrowest_int(k: int) -> type:
    """The narrowest signed integer type that holds every value in [1..k]."""
    for dtype in (np.int8, np.int16, np.int32):
        if k <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _view(cls, **fields):
    """A ``cls`` holding already-validated read-only fields, built without a copy or a check."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _check_finite_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{name} must be finite and positive, got {value}")


def _check_count(name: str, value, least: float) -> int:
    """``value`` as an int, refused unless integral and >= ``least``.

    4.0 counts as 4; a bool is refused, though Python counts True as 1.
    """
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral)
            or isinstance(value, numbers.Real) and float(value).is_integer()):
        raise ValidationError(f"{name} must be an integer, got {value}")
    if value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _row_norms(rows: np.ndarray, center: np.ndarray | None = None) -> np.ndarray:
    """Euclidean norm of each row of a float (n, d) array, less ``center`` if given.

    Bit for bit ``np.linalg.norm(rows - center, axis=1)``.  For small d numpy
    reduces the short axis with a slow strided loop; summing the d column
    squares left to right adds in the same order and is several times faster,
    and subtracting ``center`` one column at a time needs no (n, d) copy.  From
    d = 8 on, numpy reduces a C-order row by pairwise summation instead, so
    those widths keep ``np.linalg.norm``.
    """
    d = rows.shape[1]
    if d >= 8:
        return np.linalg.norm(rows if center is None else rows - center, axis=1)
    for j in range(d):
        col = rows[:, j] if center is None else rows[:, j] - center[j]
        if j == 0:
            sq = col * col
        else:
            sq += col * col
    return np.sqrt(sq)


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
    """n integer records in [1..k].

    ``k`` is an integer >= 2; an integral float such as 3.0 is stored as
    the int 3.  ``values`` is validated as int64 and then stored as a
    private read-only copy in the narrowest signed integer type that holds
    k (int8 up to k = 127), so cast it before arithmetic that can exceed k.
    """

    values: np.ndarray
    k: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.int64)
        if values.ndim != 1 or values.size == 0:
            raise EmptyDataset("dataset needs at least one value")
        k = _check_count("k", self.k, -math.inf)
        if k < 2:
            raise DomainTooSmall(f"k must be >= 2, got {k}")
        if values.min() < 1 or values.max() > k:
            raise OutOfDomain(
                f"values must lie in [1..{k}], got range [{values.min()}, {values.max()}]"
            )
        object.__setattr__(self, "values", _frozen_array(values, _narrowest_int(k)))
        object.__setattr__(self, "k", k)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def counts(self) -> np.ndarray:
        """Occurrence count of each element of [1..k].

        ``bincount`` casts its input to intp, so the narrow values are binned
        in chunks of at least k + 1: the cast copy stays near the size of the
        result instead of 8 bytes per record, at O(n + k) work.
        """
        chunk = max(self.k + 1, 1 << 16)
        total = np.zeros(self.k + 1, dtype=np.intp)
        for start in range(0, self.n, chunk):
            total += np.bincount(self.values[start:start + chunk], minlength=self.k + 1)
        return total[1:]

    def subset(self, start: int, stop: int) -> "KaryDataset":
        """Records ``[start:stop]`` as a read-only view of this dataset's values; no copy."""
        values = self.values[start:stop]
        if values.size == 0:
            raise EmptyDataset(f"subset [{start}:{stop}] of {self.n} values is empty")
        return _view(KaryDataset, values=values, k=self.k)


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
        """Rows ``[start:stop]`` as a read-only view of this dataset's rows; no copy."""
        rows = self.rows[start:stop]
        if rows.shape[0] == 0:
            raise EmptyDataset(f"subset [{start}:{stop}] of {self.n} rows is empty")
        return _view(VectorDataset, rows=rows)


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
    call order.  Seeds and child indices are integers >= 0; 7.0 counts as 7.
    """

    def __init__(self, seed: int, _key: tuple[int, ...] = ()):
        self.seed = _check_count("seed", seed, 0)
        self.key = tuple(int(i) for i in _key)
        self._gen = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=self.key)
        )

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def child(self, index: int) -> "RandomSource":
        """Derive the ``index``-th independent child stream."""
        return RandomSource(self.seed, self.key + (_check_count("child index", index, 0),))

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, key={self.key})"


# --- CSV dataset formats --------------------------------------------------
#
# k-ary: one integer per line.  Vector: one comma-separated float vector per
# line.  A single non-numeric first line is treated as a header and skipped.
# Files are UTF-8 text, and a leading byte-order mark is dropped before either
# path reads them.  ``_data_lines`` and the ``csv`` module define the
# format.  A file whose bytes all lie in the format's plain alphabet below (so
# no header, quotes or spaces) is parsed by numpy instead.  A k-ary file is
# read by a digit pass over chunks of the bytes, in which every nonblank line
# is one cell; a cell wider than ``_WIDEST_CELL`` digits falls back to the
# ``csv`` path, which handles leading zeros and the int64 range.  A vector
# file is read in one C-level numpy text pass, which parses each cell with
# the same rules as ``float``; counting its cells against the file's nonblank
# lines decides whether that pass stands: a parse that stops early, a blank
# cell or a ragged row falls back to the ``csv`` path.  So both paths accept
# the same files and return the same datasets.

# digits and line breaks only: the digit pass takes every byte below "0" for a break
_KARY_BYTES = b"0123456789\r\n"
_VECTOR_BYTES = b"0123456789.eE+-,\r\n"
_COMMAS_TO_SPACES = bytes.maketrans(b",", b" ")
# Whole-file temporaries of a few MB are mapped by malloc and page-faulted
# afresh on every read; chunk-sized ones stay on the heap.
_CHUNK_BYTES = 1 << 16
# every run of this many digits fits int64
_WIDEST_CELL = 18


def _read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from exc
    # left in, the mark would make the first row non-numeric and read as a header
    return raw.removeprefix(codecs.BOM_UTF8)


def _line_starts(raw: bytes) -> np.ndarray:
    """A mask of the bytes of ``raw`` that begin a nonblank line."""
    data = np.frombuffer(raw, np.uint8)
    is_break = data < 14  # "\r" and "\n" are the only such bytes either alphabet has
    starts = ~is_break
    starts[1:] &= is_break[:-1]
    return starts


def _cells(text: bytes, dtype) -> np.ndarray | None:
    """The whitespace-separated cells of ``text`` in one numpy pass, or None if it stops early.

    Whitespace alone parses to one garbage cell; callers check for it.
    """
    with warnings.catch_warnings():
        # older numpy warns instead of raising and returns the cells read so
        # far, which, when it stopped inside the last cell, are as many as
        # a full parse gives
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.fromstring(text, dtype, sep=" ")
        except (ValueError, DeprecationWarning):
            return None


def _chunk_ints(chunk: np.ndarray) -> np.ndarray | None:
    """The cells of a chunk of digit and line-break bytes, or None if one is too wide.

    The chunk must not start or end inside a cell.  A cell ends at a digit
    that no digit follows, and its value is the sum over its digits of
    d * 10^j, j being the digit's distance from that end.
    """
    is_digit = chunk >= 48  # the alphabet's other bytes are "\r" and "\n"
    last = is_digit.copy()
    last[:-1] &= ~is_digit[1:]
    # runs[j][q]: bytes q..q+j are all digits
    runs = [is_digit]
    while runs[-1].any():
        if len(runs) > _WIDEST_CELL:
            return None
        runs.append(runs[-1][1:] & is_digit[:-len(runs)])
    widest = len(runs) - 1
    # the narrowest unsigned type that holds every run of that many digits
    digits = ((chunk - 48) * is_digit).astype(np.min_scalar_type(10**widest - 1), copy=False)
    values = digits.copy()
    for j in range(1, widest):
        values[j:] += digits[:-j] * runs[j] * 10**j
    return values[np.flatnonzero(last)]


def _plain_ints(raw: bytes) -> np.ndarray | None:
    """The k-ary values of a plain-alphabet file as int64, or None to leave it to the csv path."""
    if raw.translate(None, _KARY_BYTES):
        return None
    data = np.frombuffer(raw, np.uint8)
    parts = []
    start = 0
    while start < data.size:
        stop = start + _CHUNK_BYTES
        if stop < data.size:
            # cut after the chunk's last line break; none means a cell too wide
            stop = max(raw.rfind(b"\n", start, stop), raw.rfind(b"\r", start, stop)) + 1
            if stop <= start:
                return None
        cells = _chunk_ints(data[start:stop])
        if cells is None:
            return None
        parts.append(cells)
        start = stop
    if not parts:
        return None
    values = np.concatenate(parts, dtype=np.int64, casting="unsafe")
    return values if values.size else None


def _plain_vectors(raw: bytes) -> np.ndarray | None:
    """The rows of a plain-alphabet vector file in one numpy pass, else None."""
    if raw.translate(None, _VECTOR_BYTES):
        return None
    starts = np.flatnonzero(_line_starts(raw))
    commas_at = np.flatnonzero(np.frombuffer(raw, np.uint8) == ord(","))
    # the comma count of each nonblank line
    commas = np.bincount(np.searchsorted(starts, commas_at, side="right") - 1, minlength=starts.size)
    if commas.size == 0 or (commas != commas[0]).any():
        return None
    width = int(commas[0]) + 1
    cells = _cells(raw.translate(_COMMAS_TO_SPACES), np.float64)
    # a blank cell such as "1,,2" leaves the count short
    if cells is None or cells.size != commas.size * width:
        return None
    return cells.reshape(commas.size, width)


def _data_lines(raw: bytes, path) -> list[list[str]]:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        rows = [
            row for row in csv.reader(io.StringIO(text, newline=""))
            if row and any(cell.strip() for cell in row)
        ]
    except csv.Error as exc:
        raise ValidationError(f"malformed CSV in {path}: {exc}") from exc
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
    raw = _read_bytes(path)
    values = _plain_ints(raw)
    if values is None:
        rows = _data_lines(raw, path)
        try:
            ints = [int(row[0]) for row in rows]
        except ValueError as exc:
            raise ValidationError(f"non-integer value in k-ary dataset {path}: {exc}") from exc
        try:
            values = np.array(ints, dtype=np.int64)
        except OverflowError as exc:
            raise OutOfDomain(f"value outside the int64 range in k-ary dataset {path}") from exc
    if k is None:
        k = max(int(values.max()), 2)
    return KaryDataset(values=values, k=k)


def read_vector_csv(path) -> VectorDataset:
    """Read one comma-separated real vector per line."""
    raw = _read_bytes(path)
    rows = _plain_vectors(raw)
    if rows is None:
        lines = _data_lines(raw, path)
        try:
            vectors = [[float(cell) for cell in row] for row in lines]
        except ValueError as exc:
            raise ValidationError(f"non-numeric value in vector dataset {path}: {exc}") from exc
        widths = {len(v) for v in vectors}
        if len(widths) != 1:
            raise DimensionMismatch(f"inconsistent row widths {sorted(widths)} in {path}")
        rows = np.asarray(vectors)
    return VectorDataset(rows=rows)


def write_kary_csv(path, values) -> None:
    ints = tuple(map(int, np.asarray(values).ravel().tolist()))
    with open(path, "w", newline="") as fh:
        fh.write(("%d\n" * len(ints)) % ints)


def write_vector_csv(path, rows) -> None:
    arr = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    line = ",".join(["%r"] * arr.shape[1]) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write((line * arr.shape[0]) % tuple(arr.ravel().tolist()))
