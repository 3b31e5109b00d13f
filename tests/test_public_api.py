import importlib
import inspect
import pkgutil
import tomllib
from pathlib import Path

import dpsampler


def test_public_functions_have_no_underscore_parameters():
    # test-only hooks stay out of production signatures; tests patch module
    # attributes instead
    offenders = []
    for info in pkgutil.iter_modules(dpsampler.__path__):
        module = importlib.import_module(f"dpsampler.{info.name}")
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if name.startswith("_") or fn.__module__ != module.__name__:
                continue
            offenders += [
                f"{module.__name__}.{name}({param})"
                for param in inspect.signature(fn).parameters
                if param.startswith("_")
            ]
    assert offenders == []


def test_no_public_function_defaults_its_rng():
    # seeded output is a contract: every randomized call names its stream
    offenders = []
    for info in pkgutil.iter_modules(dpsampler.__path__):
        module = importlib.import_module(f"dpsampler.{info.name}")
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if name.startswith("_") or fn.__module__ != module.__name__:
                continue
            rng = inspect.signature(fn).parameters.get("rng")
            if rng is not None and rng.default is not inspect.Parameter.empty:
                offenders.append(f"{module.__name__}.{name}(rng)")
    assert offenders == []


def test_version_matches_pyproject():
    # seeded output is versioned, so the package and its metadata move together
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        assert dpsampler.__version__ == tomllib.load(f)["project"]["version"]
