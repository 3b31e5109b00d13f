"""Command-line entry point for reproducible private-sampling experiments.

Subcommands: ``sample-kary``, ``sample-gaussian``, ``elap``, ``complexity``,
``tvdist``, ``audit``, ``sweep``.  Every randomized command requires an
explicit ``--seed``; every run emits a JSON RunReport on stdout echoing the
config and all derived parameters, so any artifact can be regenerated from
its report.  Exit codes: 0 success/pass, 1 usage or data error, 2 audit
failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .audit import (
    audit_elap_mechanism,
    audit_rr_local,
    audit_shurr_marginal,
    audit_subrr_pure,
    audit_zcdp_gaussian,
)
from .core import (
    RandomSource,
    read_kary_csv,
    read_vector_csv,
    write_kary_csv,
    write_vector_csv,
)
from .divergences import tv_estimate_binned
from .elap import ELapParams, GammaParams, elap_sample, elap_tail_radius, gamma_exact_tail
from .errors import ConfigInvalid, DPSamplerError
from .gaussian import GAUSSIAN_CALIBRATIONS
from .kary import KARY_CALIBRATIONS, shurr_run, subrr_sample
from .multisampling import (
    gaussian_sampler,
    shurr_sampler,
    strong_via_both,
    strong_via_precision,
    subrr_sampler,
    weak_via_repetition,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One CLI task plus everything needed to reproduce it."""

    task: str
    params: dict = field(default_factory=dict)
    input_path: str | None = None
    output_path: str | None = None
    seed: int | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        try:
            return cls(
                task=raw["task"],
                params=dict(raw.get("params", {})),
                input_path=raw.get("input_path"),
                output_path=raw.get("output_path"),
                seed=raw.get("seed"),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigInvalid(f"malformed config: {exc}") from exc


@dataclass(frozen=True)
class RunReport:
    """Config echo, artifact summary, derived parameters, and provenance."""

    config: dict
    outputs: dict
    derived: dict
    wall_clock_seconds: float
    version: str
    exit_code: int


def _need(params: dict, *names):
    missing = [name for name in names if params.get(name) is None]
    if missing:
        raise ConfigInvalid(f"missing required parameter(s): {', '.join(missing)}")
    return [params[name] for name in names]


def _refuse_unread(params: dict, read, what: str) -> None:
    """Refuse the given (non-null) parameters outside ``read``, naming their flags."""
    unread = ["--" + name.replace("_", "-")
              for name, value in params.items() if name not in read and value is not None]
    if unread:
        raise ConfigInvalid(f"{what} does not read {', '.join(unread)}")


def _rng(config: ExperimentConfig) -> RandomSource:
    if config.seed is None:
        raise ConfigInvalid("this task is randomized; an explicit --seed is required")
    return RandomSource(config.seed)


# sample-kary mode -> the flags it reads besides --mode, --k and --eps
_KARY_FLAGS = {"sub": (), "shuffle": ("delta", "m"), "repeat": ("alpha", "m"),
               "precision": ("alpha", "m", "delta"), "both": ("alpha", "m")}


def _run_sample_kary(config: ExperimentConfig):
    if config.input_path is None:
        raise ConfigInvalid("sample-kary requires --in")
    params = config.params
    (mode, eps) = _need(params, "mode", "eps")
    if mode not in _KARY_FLAGS:
        raise ConfigInvalid(f"unknown sample-kary mode {mode!r}")
    _refuse_unread(params, ("mode", "k", "eps", *_KARY_FLAGS[mode]), f"sample-kary --mode {mode}")
    data = read_kary_csv(config.input_path, k=params.get("k"))
    rng = _rng(config)
    derived = {"k": data.k, "n": data.n}

    if mode in KARY_CALIBRATIONS:
        (delta, m) = _need(params, "delta", "m") if mode == "shuffle" else (None, None)
        outputs = (list(shurr_run(data, eps, delta, m, rng)) if mode == "shuffle"
                   else [subrr_sample(data, eps, rng)])
        derived.update(KARY_CALIBRATIONS[mode].derived(eps, delta, data.n, data.k))
    else:
        (alpha, m) = _need(params, "alpha", "m")
        if mode == "precision":
            (delta,) = _need(params, "delta")
            spec = shurr_sampler(data.k, eps, delta, m, alpha)
            derived["n_required"] = spec.n_per_call(alpha / m)
            outputs = strong_via_precision(spec, m, alpha, data, rng)
        else:
            spec = subrr_sampler(data.k, eps, alpha)
            derived["n_per_call"] = spec.n_per_call(alpha if mode == "repeat" else alpha / m)
            outputs = (weak_via_repetition(spec, m, data, rng) if mode == "repeat"
                       else strong_via_both(spec, m, alpha, data, rng))

    if config.output_path:
        write_kary_csv(config.output_path, outputs)
    summary = {"count": len(outputs), "path": config.output_path}
    if config.output_path is None:
        summary["values"] = [int(v) for v in outputs]
    return summary, derived, 0


def _run_sample_gaussian(config: ExperimentConfig):
    if config.input_path is None:
        raise ConfigInvalid("sample-gaussian requires --in")
    params = config.params
    (variant, mode, alpha, eps, R) = _need(params, "variant", "mode", "alpha", "eps", "R")
    data = read_vector_csv(config.input_path)
    if params.get("dim") is not None and params["dim"] != data.d:
        raise ConfigInvalid(f"--dim {params['dim']} does not match data dimension {data.d}")
    rng = _rng(config)
    spec = gaussian_sampler(variant, data.d, R, eps, alpha)
    derived = {"d": data.d, "n": data.n}

    if mode == "once":
        (count,) = _need(params, "count")
        if count < 1:
            raise ConfigInvalid(f"--count must be >= 1, got {count}")
        if params.get("m") is not None:
            raise ConfigInvalid("--m applies to --mode repeat and both only; once mode takes --count")
        cal = GAUSSIAN_CALIBRATIONS[variant]
        derived.update(B=cal.clip_bound(data.d, R, alpha),
                       sigma2=cal.sigma2(data.d, alpha, data.n))
        outputs = [spec.run(data, alpha, rng.child(i)) for i in range(int(count))]
    elif mode in ("repeat", "both"):
        # no weak Gaussian sampler exists, so there is no precision-only mode
        (m,) = _need(params, "m")
        # a combinator makes one run of m draws; --count repeats single runs in once mode
        if params.get("count") not in (None, 1):
            raise ConfigInvalid(f"--mode {mode} makes one run of --m draws, not --count {params['count']}")
        if mode == "repeat":
            derived["n_per_call"] = spec.n_per_call(alpha)
            outputs = weak_via_repetition(spec, int(m), data, rng)
        else:
            derived["n_per_call"] = spec.n_per_call(alpha / int(m))
            outputs = strong_via_both(spec, int(m), alpha, data, rng)
    else:
        raise ConfigInvalid(f"unknown sample-gaussian mode {mode!r}")

    rows = np.vstack(outputs)
    if config.output_path:
        write_vector_csv(config.output_path, rows)
    return {"count": int(rows.shape[0]), "path": config.output_path}, derived, 0


def _run_elap(config: ExperimentConfig):
    params = config.params
    (d, b) = _need(params, "dim", "scale")
    elap_params = ELapParams(d=int(d), b=b)
    if params.get("tail"):
        _refuse_unread(dict(params, seed=config.seed, out=config.output_path),
                       ("dim", "scale", "tail", "alpha"), "elap --tail")
        (alpha,) = _need(params, "alpha")
        radius = elap_tail_radius(elap_params, alpha)
        exact = gamma_exact_tail(GammaParams(shape=float(d), rate=1.0 / b), radius)
        return {}, {"tail_radius": radius, "exact_tail": float(exact), "alpha": alpha}, 0
    _refuse_unread(params, ("dim", "scale", "tail", "count"), "elap --count")
    (count,) = _need(params, "count")
    if count < 1:
        raise ConfigInvalid(f"--count must be >= 1, got {count}")
    rng = _rng(config)
    samples = elap_sample(elap_params, rng, size=int(count))
    if config.output_path:
        write_vector_csv(config.output_path, samples)
    return {"count": int(count), "path": config.output_path}, {"d": int(d), "scale": b}, 0


# family -> task -> (required parameters, calculator on the parameter dict);
# `sweep` names each task's column f"{family}_{task}" with dashes as underscores.
# Counts are cast to int, as JSON configs may carry floats.
_COMPLEXITY = {
    # the tasks of each k-ary mechanism, in table order: single, weak, strong
    "kary": {
        task: (cal.inputs, lambda p, cal=cal, calculate=calculate: calculate(
            *(int(p[name]) if name in ("k", "m") else p[name] for name in cal.inputs)))
        for cal in KARY_CALIBRATIONS.values() for task, calculate in cal.complexity.items()
    },
    # one task per Gaussian variant
    "gaussian": {
        variant: (("dim", "R", "alpha", "eps"), lambda p, cal=cal: cal.complexity(
            int(p["dim"]), p["R"], p["alpha"], p["eps"]))
        for variant, cal in GAUSSIAN_CALIBRATIONS.items()
    },
}


def _calculators(family: str) -> dict:
    if family not in _COMPLEXITY:
        raise ConfigInvalid(f"unknown family {family!r}")
    return _COMPLEXITY[family]


def _run_complexity(config: ExperimentConfig):
    params = config.params
    (family, task) = _need(params, "family", "task")
    calculators = _calculators(family)
    if task not in calculators:
        raise ConfigInvalid(f"unknown {family} task {task!r}")
    required, calculate = calculators[task]
    _refuse_unread({"out": config.output_path}, (), "complexity")
    _need(params, *required)
    report = calculate(params)
    return {"report": asdict(report)}, {"n_required": report.n_required}, 0


def _run_tvdist(config: ExperimentConfig):
    params = config.params
    (path_p, path_q, bins) = _need(params, "p", "q", "bins")
    _refuse_unread({"out": config.output_path}, (), "tvdist")
    rng = _rng(config)
    estimate = tv_estimate_binned(
        read_vector_csv(path_p), read_vector_csv(path_q), int(bins), rng
    )
    return {"report": asdict(estimate)}, asdict(estimate), 0


# mechanism -> the audit flags it reads (by parameter name); any other given
# flag exits 1.  Only the ELap audit draws random numbers, so only it reads
# --seed; no audit writes an artifact, so none reads --out.
_AUDIT_FLAGS = {
    "rr": ("k", "eps0", "claimed_eps"),
    "subrr": ("k", "n", "eps", "claimed_eps"),
    "shurr": ("k", "n", "eps", "delta", "eps0"),
    "elap": ("dim", "B", "eps", "seed"),
    "zcdp": ("variant", "dim", "R", "alpha", "eps"),
}


def _run_audit(config: ExperimentConfig):
    params = config.params
    (mechanism,) = _need(params, "mechanism")
    if mechanism not in _AUDIT_FLAGS:
        raise ConfigInvalid(f"unknown audit mechanism {mechanism!r}")
    _refuse_unread(dict(params, seed=config.seed, out=config.output_path),
                   ("mechanism", *_AUDIT_FLAGS[mechanism]), f"audit --mechanism {mechanism}")
    if mechanism == "rr":
        (k, eps0) = _need(params, "k", "eps0")
        report = audit_rr_local(int(k), eps0, claimed_eps=params.get("claimed_eps"))
    elif mechanism == "subrr":
        (k, n, eps) = _need(params, "k", "n", "eps")
        report = audit_subrr_pure(int(k), int(n), eps, claimed_eps=params.get("claimed_eps"))
    elif mechanism == "shurr":
        (k, n, eps, delta) = _need(params, "k", "n", "eps", "delta")
        report = audit_shurr_marginal(
            int(k), int(n), eps, delta, None, None, eps0=params.get("eps0")
        )
    elif mechanism == "elap":
        (d, B, eps) = _need(params, "dim", "B", "eps")
        report = audit_elap_mechanism(int(d), B, eps, None, _rng(config))
    else:
        (variant, d, R, alpha, eps) = _need(params, "variant", "dim", "R", "alpha", "eps")
        report = audit_zcdp_gaussian(variant, int(d), R, alpha, eps)

    code = 0 if report.verdict == "pass" else 2
    return {"report": asdict(report)}, report.details, code


def table_sweep(family: str, grid: dict) -> tuple[list[str], list[list]]:
    """Evaluate every applicable complexity calculator over a parameter grid.

    Returns a (header, rows) table with one row per grid cell and one column
    per calculator, labeled by calculator name.
    """
    if not grid or any(len(v) == 0 for v in grid.values()):
        raise ConfigInvalid("sweep grid must be nonempty")
    keys = sorted(grid)
    calculators = _calculators(family)
    needed = {name for required, _ in calculators.values() for name in required}
    if set(keys) != needed:
        raise ConfigInvalid(f"{family} sweep needs exactly the parameters {sorted(needed)}")
    columns = [f"{family}_{task.replace('-', '_')}" for task in calculators]

    rows = []
    for combo in itertools.product(*(grid[key] for key in keys)):
        cell = dict(zip(keys, combo))
        values = [calculate(cell).n_required for _, calculate in calculators.values()]
        rows.append([cell[key] for key in keys] + values)
    return keys + columns, rows


def _run_sweep(config: ExperimentConfig):
    params = config.params
    (family,) = _need(params, "family")
    grid = {k: v for k, v in params.items() if k != "family" and v is not None}
    header, rows = table_sweep(family, grid)
    if config.output_path:
        with open(config.output_path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(str(v) for v in row) + "\n")
    return {"rows": len(rows), "path": config.output_path, "header": header}, {}, 0


_TASKS = {
    "sample-kary": _run_sample_kary,
    "sample-gaussian": _run_sample_gaussian,
    "elap": _run_elap,
    "complexity": _run_complexity,
    "tvdist": _run_tvdist,
    "audit": _run_audit,
    "sweep": _run_sweep,
}


# ArgumentParser fields that are not config params: --in, --seed and --out
# have their own config fields, and --json only redirects the report
_NOT_PARAMS = {"command", "help", "input_path", "seed", "out", "json"}


@functools.cache
def _task_params(task: str) -> frozenset:
    """The params keys the task's parser defines."""
    (tasks,) = [action.choices for action in _PARSER._actions if action.dest == "command"]
    return frozenset(action.dest for action in tasks[task]._actions) - _NOT_PARAMS


def run(config: ExperimentConfig) -> RunReport:
    """Dispatch a validated config to its task and wrap the result in a report.

    A given params key that the task's parser does not define is refused, so a
    persisted config cannot name a parameter this version would ignore.
    """
    if config.task not in _TASKS:
        raise ConfigInvalid(f"unknown task {config.task!r}")
    _refuse_unread(config.params, _task_params(config.task), config.task)
    start = time.perf_counter()
    outputs, derived, exit_code = _TASKS[config.task](config)
    return RunReport(
        config=asdict(config),
        outputs=outputs,
        derived=derived,
        wall_clock_seconds=time.perf_counter() - start,
        version=__version__,
        exit_code=exit_code,
    )


class _Parser(argparse.ArgumentParser):
    # no abbreviations: a retired flag must not pass for a live one (--c for --count)
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def _build_parser() -> _Parser:
    parser = _Parser(prog="dpsampler", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_required: bool):
        p.add_argument("--seed", type=int, required=seed_required, default=None)
        p.add_argument("--out", default=None, help="artifact output path")
        p.add_argument("--json", default=None, help="also write the run report here")

    p = sub.add_parser("sample-kary", help="private samples from a finite-domain dataset")
    p.add_argument("--mode", required=True, choices=list(_KARY_FLAGS))
    p.add_argument("--in", dest="input_path", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    common(p, seed_required=True)

    p = sub.add_parser("sample-gaussian", help="private samples from a vector dataset")
    p.add_argument("--variant", required=True, choices=list(GAUSSIAN_CALIBRATIONS))
    p.add_argument("--mode", default="once", choices=["once", "repeat", "both"])
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--in", dest="input_path", required=True)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--count", type=int, default=1, help="independent runs on the same data")
    common(p, seed_required=True)

    p = sub.add_parser("elap", help="sample the Euclidean-Laplace distribution or query its tail")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--scale", type=float, required=True)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--tail", action="store_true")
    p.add_argument("--alpha", type=float, default=None)
    common(p, seed_required=False)

    p = sub.add_parser("complexity", help="sufficient sample counts for a sampling task")
    p.add_argument("--family", required=True, choices=["kary", "gaussian"])
    p.add_argument("--task", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--R", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--m", type=int, default=None)
    common(p, seed_required=False)

    p = sub.add_parser("tvdist", help="binned TV estimate between two CSV sample files")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--bins", type=int, required=True)
    common(p, seed_required=True)

    p = sub.add_parser("audit", help="privacy audits with pass/fail verdicts")
    p.add_argument("--mechanism", required=True, choices=["rr", "subrr", "shurr", "elap", "zcdp"])
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--eps0", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--claimed-eps", dest="claimed_eps", type=float, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--B", type=float, default=None)
    p.add_argument("--R", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--variant", default=None,
                   choices=[v for v, cal in GAUSSIAN_CALIBRATIONS.items() if cal.zcdp])
    common(p, seed_required=False)

    p = sub.add_parser("sweep", help="complexity tables over a parameter grid")
    p.add_argument("--family", required=True, choices=["kary", "gaussian"])
    p.add_argument("--k", type=_int_list, default=None)
    p.add_argument("--dim", type=_int_list, default=None)
    p.add_argument("--R", type=_float_list, default=None)
    p.add_argument("--alpha", type=_float_list, default=None)
    p.add_argument("--eps", type=_float_list, default=None)
    p.add_argument("--delta", type=_float_list, default=None)
    p.add_argument("--m", type=_int_list, default=None)
    common(p, seed_required=False)

    return parser


# built once: every default is immutable, so one parse cannot change the next
_PARSER = _build_parser()


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS}
    return ExperimentConfig(
        task=args.command,
        params=params,
        input_path=getattr(args, "input_path", None),
        output_path=args.out,
        seed=args.seed,
    )


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    config = _config_from_args(args)
    try:
        report = run(config)
    except DPSamplerError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    payload = json.dumps(asdict(report), sort_keys=True)
    print(payload)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(payload)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
