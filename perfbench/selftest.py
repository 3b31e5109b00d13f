"""Self-test of the benchmark's output checks: show that each can fail.

    python3 perfbench/selftest.py

Feeds the checks a kary release outside [1..k], a flipped audit verdict and
a NaN Gaussian row, runs them through the same measuring loop as the
benchmark, and exits non-zero unless each counts as a failed op while the
matching good outputs pass.  It also checks that the per-run law checks
reject pooled outputs drawn from the wrong law.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

import run

run.pin_threads()
run.import_library()

import numpy as np  # noqa: E402  (after pinning threads and finding the library)

import checks  # noqa: E402
from workloads import Op  # noqa: E402

K, M, D = 10, 5, 2
GOOD_KARY = np.array([1, 2, 10, 4, 5])
BAD_KARY = np.array([1, 2, 11, 4, 5])
GOOD_ROW = np.array([0.1, -0.2])
NAN_ROW = np.array([0.1, np.nan])


def _ops(kary, verdict, row):
    return [
        Op("kary", lambda i: kary, lambda out: checks.kary_release(out, K, M)),
        Op("audit", lambda i: SimpleNamespace(verdict=verdict),
           lambda out: checks.audit_verdict(out, "pass")),
        Op("gaussian", lambda i: row, lambda out: checks.gaussian_release(out, D)),
    ]


def main() -> int:
    problems = []
    good = run.measure(_ops(GOOD_KARY, "pass", GOOD_ROW), 0, 0.0)
    if good.failures:
        problems.append(f"good outputs counted as failures: {good.failures}")
    bad = run.measure(_ops(BAD_KARY, "fail", NAN_ROW), 0, 0.0)
    if sorted(f["kind"] for f in bad.failures) != ["audit", "gaussian", "kary"]:
        problems.append(f"expected 3 failed ops (kary, audit, gaussian), got {bad.failures}")

    probs = np.full(K, 1.0 / K)
    if checks.pooled_frequencies(np.full(K, 1000), probs) is not None:
        problems.append("exact-law frequencies rejected")
    if checks.pooled_frequencies(np.r_[np.full(K - 1, 1000), 2000], probs) is None:
        problems.append("frequencies off the law accepted")
    gen = np.random.default_rng(0)
    draws = gen.standard_normal((10_000, D))
    if checks.pooled_mean(draws, np.zeros(D), 1.0) is not None:
        problems.append("pooled mean at its expectation rejected")
    if checks.pooled_mean(draws + 0.5, np.zeros(D), 1.0) is None:
        problems.append("pooled mean off its expectation accepted")

    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
