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
import numbers
import sys
import time
from dataclasses import asdict, dataclass, field
from types import GenericAlias, MappingProxyType
from typing import Callable, Mapping, NamedTuple

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


# Every runner takes the params of its (task, selector) row of `_COMMANDS`,
# checked and typed by `run`, with --in, --seed and --out among them; it reads
# each of them and no other.


def _run_sample_kary(params):
    (mode, eps) = (params["mode"], params["eps"])
    data = read_kary_csv(params["in"], k=params["k"])
    rng = RandomSource(params["seed"])
    derived = {"k": data.k, "n": data.n}

    if mode in KARY_CALIBRATIONS:
        delta = params["delta"] if mode == "shuffle" else None
        outputs = (list(shurr_run(data, eps, delta, params["m"], rng)) if mode == "shuffle"
                   else [subrr_sample(data, eps, rng)])
        derived.update(KARY_CALIBRATIONS[mode].derived(eps, delta, data.n, data.k))
    else:
        # each combinator refuses a bad m before the report divides alpha by it
        (alpha, m) = (params["alpha"], params["m"])
        if mode == "precision":
            spec = shurr_sampler(data.k, alpha=alpha, eps=eps, delta=params["delta"], m=m)
            outputs = strong_via_precision(spec, m, alpha, data, rng)
            derived["n_required"] = spec.n_per_call(alpha / m)
        else:
            spec = subrr_sampler(data.k, alpha=alpha, eps=eps)
            outputs = (weak_via_repetition(spec, m, data, rng) if mode == "repeat"
                       else strong_via_both(spec, m, alpha, data, rng))
            derived["n_per_call"] = spec.n_per_call(alpha if mode == "repeat" else alpha / m)

    out = params["out"]
    if out:
        write_kary_csv(out, outputs)
    summary = {"count": len(outputs), "path": out}
    if out is None:
        summary["values"] = [int(v) for v in outputs]
    return summary, derived, 0


def _run_sample_gaussian(params):
    (variant, mode, R, alpha) = (params["variant"], params["mode"], params["R"], params["alpha"])
    data = read_vector_csv(params["in"])
    if params["dim"] is not None and params["dim"] != data.d:
        raise ConfigInvalid(f"--dim {params['dim']} does not match data dimension {data.d}")
    rng = RandomSource(params["seed"])
    spec = gaussian_sampler(variant, data.d, R, alpha=alpha, eps=params["eps"])
    derived = {"d": data.d, "n": data.n}

    if mode == "once":
        cal = GAUSSIAN_CALIBRATIONS[variant]
        derived.update(B=cal.clip_bound(data.d, R, alpha),
                       sigma2=cal.sigma2(data.d, alpha, data.n))
        outputs = [spec.run(data, alpha, rng.child(i)) for i in range(params["count"])]
    else:
        # the combinator refuses a bad m before the report divides alpha by it
        m = params["m"]
        outputs = (weak_via_repetition(spec, m, data, rng) if mode == "repeat"
                   else strong_via_both(spec, m, alpha, data, rng))
        derived["n_per_call"] = spec.n_per_call(alpha if mode == "repeat" else alpha / m)

    rows = np.vstack(outputs)
    if params["out"]:
        write_vector_csv(params["out"], rows)
    return {"count": int(rows.shape[0]), "path": params["out"]}, derived, 0


def _run_elap(params):
    (d, b) = (params["dim"], params["scale"])
    elap_params = ELapParams(d=d, b=b)
    if params["tail"]:
        alpha = params["alpha"]
        radius = elap_tail_radius(elap_params, alpha)
        exact = gamma_exact_tail(GammaParams(shape=float(d), rate=1.0 / b), radius)
        return {}, {"tail_radius": radius, "exact_tail": float(exact), "alpha": alpha}, 0
    count = params["count"]
    samples = elap_sample(elap_params, RandomSource(params["seed"]), size=count)
    if params["out"]:
        write_vector_csv(params["out"], samples)
    return {"count": count, "path": params["out"]}, {"d": d, "scale": b}, 0


# family -> task -> (the calculator's inputs, in its argument order; the
# calculator); `sweep` names each task's column f"{family}_{task}" with dashes
# as underscores
_CALCULATORS = {
    # the tasks of each k-ary mechanism, in table order: single, weak, strong
    "kary": {task: (cal.inputs, functools.partial(cal.complexity, task))
             for cal in KARY_CALIBRATIONS.values() for task in cal.bounds},
    # one task per Gaussian variant
    "gaussian": {variant: (("dim", "R", "alpha", "eps"), cal.complexity)
                 for variant, cal in GAUSSIAN_CALIBRATIONS.items()},
}


def _grid_inputs(family: str) -> tuple[str, ...]:
    """The inputs of every calculator of a family, each once, in table order."""
    return tuple(dict.fromkeys(name for inputs, _ in _CALCULATORS[family].values()
                               for name in inputs))


def _run_complexity(params):
    (inputs, calculate) = _CALCULATORS[params["family"]][params["task"]]
    report = calculate(*(params[name] for name in inputs))
    return {"report": asdict(report)}, {"n_required": report.n_required}, 0


def _run_tvdist(params):
    estimate = tv_estimate_binned(read_vector_csv(params["p"]), read_vector_csv(params["q"]),
                                  params["bins"], RandomSource(params["seed"]))
    return {"report": asdict(estimate)}, asdict(estimate), 0


# mechanism -> its audit of the params of its row
_AUDITS = {
    "rr": lambda p: audit_rr_local(p["k"], p["eps0"], claimed_eps=p["claimed_eps"]),
    "subrr": lambda p: audit_subrr_pure(p["k"], p["n"], p["eps"], claimed_eps=p["claimed_eps"]),
    "shurr": lambda p: audit_shurr_marginal(p["k"], p["n"], p["eps"], p["delta"], None, None,
                                            eps0=p["eps0"]),
    "elap": lambda p: audit_elap_mechanism(p["dim"], p["B"], p["eps"], None,
                                           RandomSource(p["seed"])),
    "zcdp": lambda p: audit_zcdp_gaussian(p["variant"], p["dim"], p["R"], p["alpha"], p["eps"]),
}


def _run_audit(params):
    report = _AUDITS[params["mechanism"]](params)
    code = 0 if report.verdict == "pass" else 2
    return {"report": asdict(report)}, {"measured": report.measured, "bound": report.bound,
                                        **report.details}, code


def table_sweep(family: str, grid: dict) -> tuple[list[str], list[list]]:
    """Evaluate every applicable complexity calculator over a parameter grid.

    Returns a (header, rows) table with one row per grid cell and one column
    per calculator, labeled by calculator name.
    """
    if not grid or any(len(v) == 0 for v in grid.values()):
        raise ConfigInvalid("sweep grid must be nonempty")
    if family not in _CALCULATORS:
        raise ConfigInvalid(f"unknown family {family!r}")
    keys = sorted(grid)
    if set(keys) != set(_grid_inputs(family)):
        raise ConfigInvalid(f"{family} sweep needs exactly the parameters "
                            f"{sorted(_grid_inputs(family))}")
    calculators = _CALCULATORS[family]
    columns = [f"{family}_{task.replace('-', '_')}" for task in calculators]

    rows = []
    for combo in itertools.product(*(grid[key] for key in keys)):
        cell = dict(zip(keys, combo))
        values = [calculate(*(cell[name] for name in inputs)).n_required
                  for inputs, calculate in calculators.values()]
        rows.append([cell[key] for key in keys] + values)
    return keys + columns, rows


def _run_sweep(params):
    family = params["family"]
    header, rows = table_sweep(family, {name: params[name] for name in _grid_inputs(family)})
    if params["out"]:
        with open(params["out"], "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(str(v) for v in row) + "\n")
    return {"rows": len(rows), "path": params["out"], "header": header}, {}, 0


# --- the flag table ---------------------------------------------------------------


# named tuples, not dataclasses: they cost a sixth of a frozen dataclass at import
class _Flag(NamedTuple):
    """A flag's value type (a list type for comma-separated grids), default, choices
    and least value."""

    type: type = str
    default: object = None
    choices: tuple | None = None
    help: str | None = None
    minimum: int | None = None


class _Row(NamedTuple):
    """The flags one (task, selector) row requires, the further flags it may take,
    and, where its selector values do not name it, its name in messages."""

    requires: tuple[str, ...]
    takes: tuple[str, ...] = ()
    label: str | None = None

    @property
    def flags(self) -> tuple[str, ...]:
        return self.requires + self.takes


class _Command(NamedTuple):
    """One subcommand: its runner, the flags whose values pick its row, and its rows."""

    help: str
    run: Callable
    selectors: tuple[str, ...]
    rows: dict[tuple, _Row]
    own: Mapping[str, _Flag] = MappingProxyType({})  # flags it declares unlike `_FLAGS`

    @property
    def flags(self) -> tuple[str, ...]:
        """Every flag of the subcommand, in table order; all take --seed and --out."""
        return tuple(dict.fromkeys([*(name for row in self.rows.values() for name in row.flags),
                                    "seed", "out"]))

    def flag(self, name: str) -> _Flag:
        return self.own.get(name) or _FLAGS[name]


# --in, --seed and --out set these config fields, not params
_FIELDS = {"in": "input_path", "seed": "seed", "out": "output_path"}

# every flag, by params key, with the type and default it has wherever a
# command does not restate it
_FLAGS = {
    **dict.fromkeys(("in", "mode", "mechanism", "family", "task", "p", "q"), _Flag()),
    "out": _Flag(help="artifact output path"),
    "variant": _Flag(choices=tuple(GAUSSIAN_CALIBRATIONS)),
    "tail": _Flag(bool, False),
    "count": _Flag(int, minimum=1),
    **dict.fromkeys(("seed", "k", "n", "m", "dim", "bins"), _Flag(int)),
    **dict.fromkeys(("eps", "delta", "alpha", "R", "B", "eps0", "claimed_eps", "scale"),
                    _Flag(float)),
}

_COMMANDS = {
    "sample-kary": _Command(
        "private samples from a finite-domain dataset", _run_sample_kary, ("mode",), {
            (mode,): _Row(("mode", "in", "eps", *per_mode, "seed"), ("k", "out"))
            for mode, per_mode in {"sub": (), "shuffle": ("delta", "m"), "repeat": ("alpha", "m"),
                                   "precision": ("alpha", "m", "delta"),
                                   "both": ("alpha", "m")}.items()
        }),
    # once makes --count single runs; repeat and both make one run of --m draws (no
    # weak Gaussian sampler exists, so there is no precision-only mode)
    "sample-gaussian": _Command(
        "private samples from a vector dataset", _run_sample_gaussian, ("mode",), {
            (mode,): _Row(("variant", "mode", "in", "R", "alpha", "eps", per_mode, "seed"),
                          ("dim", "out"))
            for mode, per_mode in {"once": "count", "repeat": "m", "both": "m"}.items()
        }, own={"mode": _Flag(default="once"),
                "count": _Flag(int, 1, help="independent runs on the same data", minimum=1)}),
    "elap": _Command(
        "sample the Euclidean-Laplace distribution or query its tail", _run_elap, ("tail",), {
            (True,): _Row(("tail", "dim", "scale", "alpha"), label="--tail"),
            (False,): _Row(("tail", "dim", "scale", "count", "seed"), ("out",), label="--count"),
        }),
    "complexity": _Command(
        "sufficient sample counts for a sampling task", _run_complexity, ("family", "task"), {
            (family, task): _Row(("family", "task", *inputs))
            for family, tasks in _CALCULATORS.items() for task, (inputs, _) in tasks.items()
        }),
    "tvdist": _Command(
        "binned TV estimate between two CSV sample files", _run_tvdist, (), {
            (): _Row(("p", "q", "bins", "seed")),
        }),
    # only the ELap audit draws random numbers; no audit writes an artifact
    "audit": _Command(
        "privacy audits with pass/fail verdicts", _run_audit, ("mechanism",), {
            ("rr",): _Row(("mechanism", "k", "eps0"), ("claimed_eps",)),
            ("subrr",): _Row(("mechanism", "k", "n", "eps"), ("claimed_eps",)),
            ("shurr",): _Row(("mechanism", "k", "n", "eps", "delta"), ("eps0",)),
            ("elap",): _Row(("mechanism", "dim", "B", "eps", "seed")),
            ("zcdp",): _Row(("mechanism", "variant", "dim", "R", "alpha", "eps")),
        }, own={"variant": _Flag(choices=tuple(v for v, cal in GAUSSIAN_CALIBRATIONS.items()
                                               if cal.zcdp))}),
    "sweep": _Command(
        "complexity tables over a parameter grid", _run_sweep, ("family",), {
            (family,): _Row(("family", *_grid_inputs(family)), ("out",))
            for family in _CALCULATORS
        }, own={name: _Flag(list[_FLAGS[name].type])
                for family in _CALCULATORS for name in _grid_inputs(family)}),
}


def _option(name: str) -> str:
    return "--" + name.replace("_", "-")


def _refuse(message: str, names) -> None:
    if names:
        raise ConfigInvalid(f"{message} {', '.join(map(_option, names))}")


def _typed(name: str, flag: _Flag, value):
    """``value`` as its flag's type, or ConfigInvalid naming the flag.

    An integer flag also takes an integral float, as JSON configs may carry k = 4.0.
    """
    kind = flag.type
    if isinstance(kind, GenericAlias):
        if not isinstance(value, list):
            raise ConfigInvalid(f"{_option(name)} must be a list, got {value!r}")
        return [_typed(name, _Flag(kind.__args__[0]), item) for item in value]
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    abstract = {int: numbers.Integral, float: numbers.Real}.get(kind, kind)
    if not isinstance(value, abstract) or (isinstance(value, bool) and kind is not bool):
        raise ConfigInvalid(f"{_option(name)} must be of type {kind.__name__}, got {value!r}")
    if flag.minimum is not None and value < flag.minimum:
        raise ConfigInvalid(f"{_option(name)} must be >= {flag.minimum}, got {value}")
    return int(value) if kind is int else value


def run(config: ExperimentConfig) -> RunReport:
    """Check a config against its row of the flag table, run it and report.

    Refuses, before any file is read: a params key the task does not define, so
    a persisted config cannot name a parameter this version would ignore; a
    non-null flag the row does not read, unless it equals the flag's default; a
    missing required flag; and a value not of its flag's type.
    """
    command = _COMMANDS.get(config.task)
    if command is None:
        raise ConfigInvalid(f"unknown task {config.task!r}")
    flags = command.flags
    given = {name: value for name, value in config.params.items() if value is not None}
    _refuse(f"{config.task} does not read",
            [name for name in given if name in _FIELDS or name not in flags])
    given.update((name, getattr(config, attr)) for name, attr in _FIELDS.items()
                 if getattr(config, attr) is not None)
    given = {name: _typed(name, command.flag(name), value) for name, value in given.items()}

    key = tuple(given.get(name) for name in command.selectors)
    words = " ".join(f"{_option(name)} {value}" for name, value in zip(command.selectors, key))
    if key not in command.rows:
        raise ConfigInvalid(f"{config.task} has no row {words}")
    row = command.rows[key]
    what = f"{config.task} {row.label or words}".rstrip()
    _refuse(f"{what} does not read", [
        name for name, value in given.items()
        if name not in row.flags and value != command.flag(name).default])
    _refuse(f"{what}: missing required parameter(s):",
            [name for name in row.requires if name not in given])
    start = time.perf_counter()
    outputs, derived, exit_code = command.run({name: given.get(name) for name in row.flags})
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


def _comma_list(kind: type) -> Callable[[str], list]:
    return lambda text: [kind(v) for v in text.split(",")]


def _build_parser() -> _Parser:
    """One subparser per command of `_COMMANDS`, one option per flag of its rows."""
    parser = _Parser(prog="dpsampler", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for task, command in _COMMANDS.items():
        p = sub.add_parser(task, help=command.help)
        for name in command.flags:
            flag = command.flag(name)
            # argparse requires the selectors and the config fields that every row
            # requires and no default supplies; `run` checks each row's params
            required = (flag.default is None and (name in command.selectors or name in _FIELDS)
                        and all(name in row.requires for row in command.rows.values()))
            options = {"dest": name, "default": flag.default, "required": required,
                       "help": flag.help}
            if flag.type is bool:
                options["action"] = "store_true"
            else:
                options["type"] = (_comma_list(flag.type.__args__[0])
                                   if isinstance(flag.type, GenericAlias) else flag.type)
                # a selector's choices are its values in the rows
                options["choices"] = (list(dict.fromkeys(
                    key[command.selectors.index(name)] for key in command.rows))
                    if name in command.selectors else flag.choices)
            p.add_argument(_option(name), **options)
        p.add_argument("--json", default=None, help="also write the run report here")
    return parser


# built once: every default is immutable, so one parse cannot change the next
_PARSER = _build_parser()


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    # --json only redirects the report
    params = {k: v for k, v in vars(args).items() if k not in ("command", "json")}
    fields = {attr: params.pop(name, None) for name, attr in _FIELDS.items()}
    return ExperimentConfig(task=args.command, params=params, **fields)


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
