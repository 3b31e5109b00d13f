import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

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


def _project_version(toml: str) -> str:
    """The ``version`` key of the ``[project]`` table, read without tomllib (Python 3.11+)."""
    table = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", toml, re.M | re.S).group(1)
    return re.search(r'^version\s*=\s*"([^"]*)"', table, re.M).group(1)


def test_version_matches_pyproject():
    # seeded output is versioned, so the package and its metadata move together
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert dpsampler.__version__ == _project_version(pyproject.read_text())


def test_project_version_reads_only_the_project_table():
    toml = ('[tool.x]\nversion = "9"\n\n'
            '[project]\nname = "p"\nversion = "1.2.3"\n\n'
            '[y]\nversion = "8"\n')
    assert _project_version(toml) == "1.2.3"


def _calls_by_function(tree: ast.AST, matches) -> list[tuple[str | None, int]]:
    """(enclosing function, line) of each call node for which ``matches`` holds."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and matches(node):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def _row_norm_calls(tree: ast.AST):
    """(enclosing function, line) of each ``linalg.norm`` call that passes an axis."""
    return _calls_by_function(tree, lambda node: (
        isinstance(node.func, ast.Attribute)
        and node.func.attr == "norm"
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "linalg"
        and (len(node.args) >= 3 or any(k.arg == "axis" for k in node.keywords))
    ))


def test_row_norms_go_through_the_core_kernel():
    # np.linalg.norm(..., axis=1) is several times slower than core._row_norms
    # on narrow rows and gives the same bits; single-vector norms stay allowed
    source = Path(dpsampler.__file__).parent
    offenders = []
    for path in sorted(source.glob("*.py")):
        for function, line in _row_norm_calls(ast.parse(path.read_text())):
            if (path.name, function) != ("core.py", "_row_norms"):
                offenders.append(f"{path.name}:{line} in {function}")
    assert offenders == []


def test_row_norm_guard_sees_axis_calls():
    tree = ast.parse(
        "def f(x):\n"
        "    a = np.linalg.norm(x, axis=1)\n"
        "    b = numpy.linalg.norm(x, None, 1)\n"
        "    return np.linalg.norm(x[0]) + a + b\n"
    )
    assert _row_norm_calls(tree) == [("f", 2), ("f", 3)]


def _report_constructions(tree: ast.AST):
    """(enclosing function, line) of each ``AuditReport(...)`` call, bare or qualified."""
    return _calls_by_function(tree, lambda node: (
        getattr(node.func, "id", None) == "AuditReport"
        or getattr(node.func, "attr", None) == "AuditReport"
    ))


def test_audit_reports_are_built_in_one_place():
    # audit._report derives every verdict from its measured and bound, and
    # report_from_json rebuilds a persisted one; no audit builds its own
    source = Path(dpsampler.__file__).parent
    allowed = {("audit.py", "_report"), ("audit.py", "report_from_json")}
    offenders = [
        f"{path.name}:{line} in {function}"
        for path in sorted(source.glob("*.py"))
        for function, line in _report_constructions(ast.parse(path.read_text()))
        if (path.name, function) not in allowed
    ]
    assert offenders == []


def test_report_guard_sees_constructions():
    tree = ast.parse(
        "def audit_x(measured, bound):\n"
        "    a = AuditReport('x', None, measured, bound, 1, 'pass', {}, {})\n"
        "    return audit.AuditReport(**vars(a)), AuditReport\n"
    )
    assert _report_constructions(tree) == [("audit_x", 2), ("audit_x", 3)]


def _raw_mechanism_calls(tree: ast.AST):
    """(enclosing function, line) of each ``_bounded_cov_mechanism`` call, bare or qualified."""
    return _calls_by_function(tree, lambda node: (
        getattr(node.func, "id", None) == "_bounded_cov_mechanism"
        or getattr(node.func, "attr", None) == "_bounded_cov_mechanism"
    ))


def test_raw_bounded_mechanism_is_called_only_by_its_release():
    # the raw mechanism takes any B and sigma2, which no row count backs;
    # zcdp_bounded_cov_sample calls it with its entry's numbers after refusing
    # fewer rows than they are calibrated for, and only tests call it otherwise
    root = Path(dpsampler.__file__).parent
    offenders = [
        f"{path.name}:{line} in {function}"
        for path in sorted(root.glob("*.py")) + sorted(root.parents[1].glob("perfbench/*.py"))
        for function, line in _raw_mechanism_calls(ast.parse(path.read_text()))
        if (path.name, function) != ("gaussian.py", "zcdp_bounded_cov_sample")
    ]
    assert offenders == []


def test_raw_mechanism_guard_sees_calls():
    tree = ast.parse(
        "def release(data, B, s2, rng):\n"
        "    a = _bounded_cov_mechanism(data, B, s2, rng)\n"
        "    return gaussian._bounded_cov_mechanism(data, B, s2, rng), _bounded_cov_mechanism\n"
    )
    assert _raw_mechanism_calls(tree) == [("release", 2), ("release", 3)]


KARY_CALIBRATION_FUNCTIONS = {"shurr_eps0", "shurr_f", "fmt_eps1"}
COMPLEXITY_CALCULATORS = {"shurr_weak_complexity"}


def _calls(tree: ast.AST, names: set[str]):
    """(function name, line) of each call to one of ``names``, bare or qualified."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                found.append((name, node.lineno))
    return sorted(found, key=lambda call: call[1])


def _calls_outside(owners: set[str], names: set[str]) -> list[str]:
    """Calls to ``names`` in the package's modules other than ``owners``."""
    source = Path(dpsampler.__file__).parent
    return [
        f"{path.name}:{line} calls {name}"
        for path in sorted(source.glob("*.py")) if path.name not in owners
        for name, line in _calls(ast.parse(path.read_text()), names)
    ]


def test_kary_calibration_is_read_from_its_table():
    # eps0 and the certificate of each k-ary mechanism are stated in
    # kary.KARY_CALIBRATIONS; every other module reads them from there
    assert _calls_outside({"kary.py"}, KARY_CALIBRATION_FUNCTIONS) == []


def test_kary_calibration_guard_sees_calls():
    tree = ast.parse(
        "def f(eps, delta, n):\n"
        "    a = shurr_eps0(eps, delta, n)\n"
        "    b = kary.fmt_eps1(a, delta, n, 2)\n"
        "    c = shurr_eps0\n"
        "    return dpsampler.kary.shurr_f(eps) + shurr_eps0(eps, delta, n) + a + b\n"
    )
    assert _calls(tree, KARY_CALIBRATION_FUNCTIONS) == [
        ("shurr_eps0", 2), ("fmt_eps1", 3), ("shurr_f", 5), ("shurr_eps0", 5)
    ]


def test_samplers_are_sized_from_their_calibration_tables():
    # the rows one call takes are read from the complexity methods of
    # kary.KARY_CALIBRATIONS and gaussian.GAUSSIAN_CALIBRATIONS; only kary.py
    # names the module-level calculator kept for older callers
    assert _calls_outside({"kary.py"}, COMPLEXITY_CALCULATORS) == []


def test_complexity_guard_sees_calls():
    tree = ast.parse(
        "def f(k, alpha, eps):\n"
        "    a = lambda t: shurr_weak_complexity(k, t, eps, 0.01, 1).n_required\n"
        "    return kary.shurr_weak_complexity(k, alpha, eps, 0.01, 1), a\n"
    )
    assert _calls(tree, COMPLEXITY_CALCULATORS) == [
        ("shurr_weak_complexity", 2), ("shurr_weak_complexity", 3)
    ]


def _passed_name(node: ast.expr):
    """``x`` for an argument ``x``, ``*x`` for ``*x``, None for any other expression."""
    if isinstance(node, ast.Starred):
        return f"*{node.value.id}" if isinstance(node.value, ast.Name) else None
    return node.id if isinstance(node, ast.Name) else None


def _forwarding_lambdas(tree: ast.AST, table: str) -> list[int]:
    """Lines of the lambdas in ``table``'s assignment that pass their parameters on
    unchanged, in order and positionally: each could be the function it calls."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == table for target in node.targets)):
            continue
        for fn in ast.walk(node.value):
            if not (isinstance(fn, ast.Lambda) and isinstance(fn.body, ast.Call)):
                continue
            params = [arg.arg for arg in fn.args.args]
            if fn.args.vararg:
                params.append(f"*{fn.args.vararg.arg}")
            passed = [_passed_name(arg) for arg in fn.body.args]
            if not fn.body.keywords and passed == params:
                found.append(fn.lineno)
    return found


@pytest.mark.parametrize("module, table", [
    ("kary", "KARY_CALIBRATIONS"), ("gaussian", "GAUSSIAN_CALIBRATIONS"),
])
def test_calibration_entries_hold_no_forwarding_lambdas(module, table):
    # an entry holds a formula or the function itself, not a wrapper that
    # only forwards to a module function
    path = Path(dpsampler.__file__).parent / f"{module}.py"
    assert _forwarding_lambdas(ast.parse(path.read_text()), table) == []


def test_forwarding_lambda_guard_sees_wrappers():
    tree = ast.parse(
        "TABLE = {\n"
        "    'a': Entry(f=lambda *args: f(*args),\n"
        "               g=lambda eps, delta, n: g(eps, delta, n),\n"
        "               h=lambda eps, delta, n: h(eps, n),\n"
        "               i=lambda eps, n: math.log(eps * n),\n"
        "               j=lambda data, R: j(data, R=R),\n"
        "               k=lambda x: kary.k(x)),\n"
        "}\n"
        "OTHER = {'b': lambda *args: f(*args)}\n"
    )
    assert _forwarding_lambdas(tree, "TABLE") == [2, 3, 7]


# each module's public top-level functions and classes: adding or removing one
# is a deliberate edit of this list
PUBLIC_NAMES = {
    "__init__": set(),
    "audit": {"AuditReport", "report_to_json", "report_from_json", "reverify", "audit_rr_local",
              "audit_subrr_pure", "audit_shurr_marginal", "audit_elap_mechanism",
              "audit_zcdp_gaussian"},
    "cli": {"ExperimentConfig", "RunReport", "table_sweep", "run", "main"},
    "core": {"CategoricalDist", "validate_categorical", "KaryDataset", "VectorDataset",
             "empirical_dist", "PrivacyBudget", "RandomSource", "read_kary_csv",
             "read_vector_csv", "write_kary_csv", "write_vector_csv"},
    "divergences": {"ClosenessResult", "tv_distance_finite", "hockey_stick_finite",
                    "eps_delta_closeness", "hs_to_tv_bound", "TvEstimate", "tv_estimate_binned"},
    "elap": {"ELapParams", "GammaParams", "elap_log_constant", "elap_log_density",
             "elap_tail_radius", "gamma_tail_bound", "gamma_exact_tail", "gamma_sample",
             "elap_sample"},
    "errors": {"DPSamplerError", "ValidationError", "NegativeMass", "NotNormalized",
               "DomainTooSmall", "DomainMismatch", "DimensionMismatch", "EmptyDataset",
               "OutOfDomain", "InvalidAlpha", "NonIntegerShape", "BadSplit", "InsufficientData",
               "PrecisionLimit", "ConfigInvalid"},
    "gaussian": {"PureGaussianSamplerParams", "pure_gaussian_sample", "zcdp_known_cov_sample",
                 "zcdp_bounded_cov_sample", "GaussianCalibration", "gaussian_calibration"},
    "kary": {"RRParams", "rr_pmf", "rr_row", "rr_mixture_weight", "rr_sample", "subrr_sample",
             "rr_mixture_dist", "ComplexityReport", "shurr_f", "shurr_eps0", "fmt_eps1",
             "shurr_run", "shurr_weak_complexity", "KaryCalibration"},
    "multisampling": {"SamplerSpec", "weak_via_repetition", "strong_via_precision",
                      "strong_via_both", "repetition_complexity", "strong_both_complexity",
                      "subrr_sampler", "shurr_sampler", "gaussian_sampler",
                      "pure_gaussian_sampler", "zcdp_known_cov_sampler",
                      "zcdp_bounded_cov_sampler"},
}


def test_public_surface_is_the_listed_one():
    source = Path(dpsampler.__file__).parent
    defined = {
        path.stem: {node.name for node in ast.parse(path.read_text()).body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")}
        for path in sorted(source.glob("*.py"))
    }
    assert defined == PUBLIC_NAMES
