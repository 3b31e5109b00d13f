"""Output checks for the benchmark's ops.

Every check tests a law or an invariant, never the bytes of a draw, so a
change that legitimately alters which random numbers are drawn does not
count as a failure.  Per-op checks return ``None`` when the output is good
and a short reason when it is not; per-run law checks do the same for
outputs pooled over the whole run.
"""

from __future__ import annotations

import json
import math

import numpy as np

# z-score of the per-run law bands: with at most a few dozen bands checked
# per run, a correct program trips one with probability below 1e-4
LAW_Z = 5.0


def kary_release(values, k: int, m: int) -> str | None:
    """m released values, each in [1..k]."""
    arr = np.asarray(values)
    if arr.shape != (m,):
        return f"expected {m} kary values, got shape {arr.shape}"
    if not np.issubdtype(arr.dtype, np.integer):
        return f"kary values have dtype {arr.dtype}"
    if arr.min() < 1 or arr.max() > k:
        return f"kary value outside [1..{k}]: range [{arr.min()}, {arr.max()}]"
    return None


def gaussian_release(x, d: int) -> str | None:
    """One finite release of shape (d,)."""
    arr = np.asarray(x)
    if arr.shape != (d,):
        return f"expected a Gaussian release of shape ({d},), got {arr.shape}"
    if not np.all(np.isfinite(arr)):
        return "Gaussian release is not finite"
    return None


def gaussian_releases(rows, count: int, d: int) -> str | None:
    """``count`` releases, each passing :func:`gaussian_release`."""
    if len(rows) != count:
        return f"expected {count} Gaussian releases, got {len(rows)}"
    for row in rows:
        reason = gaussian_release(row, d)
        if reason:
            return reason
    return None


def cli_report(code: int, stdout: str) -> tuple[str | None, dict]:
    """Exit code 0 and a RunReport that parses."""
    if code != 0:
        return f"CLI exit code {code}", {}
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"CLI report does not parse: {exc}", {}
    if not isinstance(report, dict) or report.get("exit_code") != 0:
        return "CLI report lacks exit_code 0", {}
    return None, report


def audit_verdict(report, expected: str) -> str | None:
    """An honest audit passes; a planted violation fails."""
    if report.verdict != expected:
        return f"audit verdict {report.verdict!r}, expected {expected!r}"
    return None


def tv_estimate(est) -> str | None:
    """A TV estimate in [0, 1] with a finite, nonnegative halfwidth."""
    if not (math.isfinite(est.estimate) and 0.0 <= est.estimate <= 1.0):
        return f"TV estimate {est.estimate} outside [0, 1]"
    if not (math.isfinite(est.halfwidth) and est.halfwidth >= 0.0):
        return f"TV halfwidth {est.halfwidth} is not a finite nonnegative number"
    return None


def tv_shifted_gaussians(d: int, shift: float) -> float:
    """Closed-form TV between N(0, I_d) and N(shift * 1, I_d): 2 Phi(|mu|/2) - 1."""
    return math.erf(shift * math.sqrt(d) / (2.0 * math.sqrt(2.0)))


def tv_covers(est, truth: float) -> bool:
    """Whether the reported interval estimate +- halfwidth holds the true TV."""
    return abs(est.estimate - truth) <= est.halfwidth


def pooled_frequencies(counts, probs) -> str | None:
    """Pooled category counts within LAW_Z binomial sds of the exact law."""
    counts = np.asarray(counts, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    total = counts.sum()
    if total == 0:
        return "no pooled kary outputs"
    sd = np.sqrt(probs * (1.0 - probs) / total)
    gap = np.abs(counts / total - probs)
    worst = int(np.argmax(gap - LAW_Z * sd))
    if gap[worst] > LAW_Z * sd[worst]:
        return (
            f"pooled frequency of {worst + 1} is {counts[worst] / total:.5f}, "
            f"exact law {probs[worst]:.5f} +- {LAW_Z * sd[worst]:.5f}"
        )
    return None


def pooled_mean(releases, expected_mean, variance: float) -> str | None:
    """Pooled release mean within LAW_Z sds of its expectation, per coordinate."""
    arr = np.asarray(releases, dtype=np.float64)
    if arr.shape[0] == 0:
        return "no pooled Gaussian releases"
    band = LAW_Z * math.sqrt(variance / arr.shape[0])
    gap = np.abs(arr.mean(axis=0) - np.asarray(expected_mean))
    if np.any(gap > band):
        return f"pooled Gaussian mean off by {gap.max():.5f}, band {band:.5f}"
    return None
