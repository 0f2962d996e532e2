"""The package's public surface, pinned so that changing it is deliberate.

Also the no-black-box rule: the runtime needs only numpy, and never its
transform; scipy, mpmath and numpy.fft are test oracles only.  And no
public function or class is kept alive by the tests alone, and every
module parses under the oldest Python that pyproject.toml admits.
"""

import ast
import importlib
import re
import types
from pathlib import Path

import pytest

import landen_kdv

PUBLIC_NAMES = [
    "A_constant",
    "AliasingWarning",
    "CheckResult",
    "ConservationReport",
    "ConsistencyError",
    "DnWaveParams",
    "DomainError",
    "EvolverConfig",
    "InstabilityError",
    "LandenMap",
    "PeriodMismatchError",
    "PeriodicGrid",
    "PmWaveParams",
    "ResidualReport",
    "TOLERANCES",
    "Trajectory",
    "TravelingProfile",
    "__version__",
    "complete_K",
    "conservation_report",
    "dn2_landen_rhs",
    "dn_landen_rhs",
    "equivalence_check",
    "evolve_trajectory",
    "fft",
    "jacobi_sn_cn_dn",
    "kdv_residual",
    "landen_map",
    "run_suite",
    "soliton_limit_check",
    "spectral_derivative",
    "transform_params",
    "translation_lag",
    "u_p",
    "u_pm",
]


def test_public_names_are_pinned():
    assert sorted(landen_kdv.__all__) == PUBLIC_NAMES
    assert all(hasattr(landen_kdv, name) for name in PUBLIC_NAMES)


def package_modules() -> list[types.ModuleType]:
    """Every module of the package, each imported once."""
    names = sorted(path.stem for path in Path(landen_kdv.__file__).parent.glob("*.py"))
    return [importlib.import_module("landen_kdv" if name == "__init__" else f"landen_kdv.{name}")
            for name in names]


def memo_caches() -> dict[str, object]:
    """Every functools cache bound at module level in the package, by qualified name.

    Found by shape (cache_clear plus cache_info), as bench/workloads.py
    memo_caches() finds them, so a cache that is renamed or bounded still counts.
    """
    found = {}
    for module in package_modules():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and \
                    callable(getattr(value, "cache_info", None)):
                found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


# one cache per key: K(m), E(m) and the Landen ladder share the modulus
# entry, the forward and inverse FFT plans share the size entry, and the
# dn and dn^2 identity gaps share the Landen map entry; the evolver's
# tables live for one evolve_trajectory call, not in a cache
MEMO_CACHES = [
    "landen_kdv.elliptic._modulus",
    "landen_kdv.fourier._plan",
    "landen_kdv.landen.landen_map",
    "landen_kdv.verify._identity_gaps",
]


def test_memo_caches_are_pinned():
    assert sorted(memo_caches()) == MEMO_CACHES


def test_submodules_are_not_shadowed():
    import landen_kdv.evolve as ev

    assert isinstance(ev, types.ModuleType)
    assert ev.evolve_trajectory is landen_kdv.evolve_trajectory


# packages only the tests may import; numpy.fft is checked on its own
_ORACLE_PACKAGES = ("scipy", "mpmath")


def oracle_uses(source: str) -> list[str]:
    """Imports of scipy, mpmath or numpy.fft, and numpy.fft reached as an attribute."""
    tree = ast.parse(source)
    found = []
    # "import numpy.linalg" binds numpy too, so numpy is always a candidate
    numpy_names = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy" and alias.asname:
                    numpy_names.add(alias.asname)
                top = alias.name.split(".")[0]
                if top in _ORACLE_PACKAGES or alias.name.startswith("numpy.fft"):
                    found.append(f"import {alias.name}")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            top = node.module.split(".")[0]
            names = {alias.name for alias in node.names}
            if top in _ORACLE_PACKAGES or node.module.startswith("numpy.fft") or (
                    node.module == "numpy" and "fft" in names):
                found.append(f"from {node.module} import {', '.join(sorted(names))}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "fft"
                and isinstance(node.value, ast.Name) and node.value.id in numpy_names):
            found.append(f"{node.value.id}.fft")
    return found


@pytest.mark.parametrize("source", [
    "import numpy as np\nnp.fft.fft(x)",
    "import numpy\ny = numpy.fft.ifft(x)",
    "import numpy.linalg\ny = numpy.fft.ifft(x)",
    "from numpy import fft",
    "from numpy.fft import rfft",
    "import numpy.fft",
    "import scipy.special as sps",
    "from scipy import fft",
    "import mpmath",
    "from mpmath import mp",
])
def test_oracle_use_is_detected(source):
    assert oracle_uses(source)


def test_runtime_uses_no_oracle():
    modules = sorted(Path(landen_kdv.__file__).parent.glob("*.py"))
    assert "fourier.py" in {path.name for path in modules}
    offenders = {path.name: oracle_uses(path.read_text()) for path in modules}
    assert {name: uses for name, uses in offenders.items() if uses} == {}


def fft_bindings(source: str) -> list[str]:
    """Where a module binds the name fft or reaches an attribute fft.

    Imports (under any alias), assignments, definitions and parameters
    bind it; fourier.fft or np.fft reaches it.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [f"import {alias.name}" for alias in node.names
                      if "fft" in (alias.name, alias.asname) or alias.name == "*"]
        elif isinstance(node, ast.Name) and node.id == "fft" and isinstance(node.ctx, ast.Store):
            found.append("fft =")
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == "fft":
            found.append(f"def {node.name}")
        elif isinstance(node, ast.arg) and node.arg == "fft":
            found.append("fft parameter")
        elif isinstance(node, ast.Attribute) and node.attr == "fft":
            found.append(".fft")
    return found


@pytest.mark.parametrize("source", [
    "from .fourier import fft",
    "from .fourier import PeriodicGrid, fft as transform",
    "from .fourier import *",
    "from . import fourier\nfourier.fft(x)",
    "import numpy as np\nnp.fft.fft(x)",
    "fft = None",
    "for fft in ():\n    pass",
    "def fft(a):\n    return a",
    "def f(fft):\n    return fft",
])
def test_fft_binding_is_detected(source):
    assert fft_bindings(source)


def test_only_fourier_holds_the_complex_transform():
    # every field the package transforms is real, and one half-spectrum
    # layout serves them all; fft stays public, so __init__.py re-exports
    # it and nothing else of the package binds or calls it
    modules = {path.name: path.read_text()
               for path in Path(landen_kdv.__file__).parent.glob("*.py")}
    assert {"fourier.py", "verify.py", "evolve.py"} <= set(modules)
    offenders = {name: fft_bindings(source) for name, source in modules.items()
                 if name not in ("fourier.py", "__init__.py")}
    assert {name: uses for name, uses in offenders.items() if uses} == {}
    assert fft_bindings(modules["__init__.py"]) == ["import fft"]


def uses_of(source: str | ast.AST, names: set[str]) -> list[str]:
    """Where a module, or a node of one, names one of ``names``: imports,
    names, attributes, definitions, parameters."""
    found = []
    for node in ast.walk(ast.parse(source) if isinstance(source, str) else source):
        if isinstance(node, ast.alias) and names & {node.name, node.asname}:
            found.append(f"import {node.name}")
        elif isinstance(node, ast.Name) and node.id in names:
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.append(f".{node.attr}")
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names:
            found.append(f"def {node.name}")
        elif isinstance(node, ast.arg) and node.arg in names:
            found.append(f"{node.arg} parameter")
    return found


@pytest.mark.parametrize("source", [
    "from .fourier import _plan",
    "from .fourier import PeriodicGrid, _plan as plans",
    "from . import fourier\nfourier._plan(256)[1]",
    "_, forward, inverse = _plan(n)",
    "_plan = None",
    "def _plan(n):\n    return n",
    "def f(_plan):\n    return _plan",
])
def test_plan_name_is_detected(source):
    assert uses_of(source, {"_plan"})


def plan_users(source: str) -> set[str]:
    """The top-level statements of a module, other than def _plan, that name _plan.

    A def or class is given by its name, any other statement by its line.
    """
    return {getattr(node, "name", f"line {node.lineno}") for node in ast.parse(source).body
            if uses_of(node, {"_plan"}) and getattr(node, "name", None) != "_plan"}


def test_plan_user_is_named():
    source = "def _plan(n):\n    return n\n\ndef fft(a):\n    return _plan(a.size)\n\nx = _plan(4)\n"
    assert plan_users(source) == {"fft", "line 7"}


def test_only_fourier_names_the_plans():
    # _rfft and _irfft look up their own plans, so no caller passes,
    # holds or indexes one, and fft is built from _rfft
    modules = {path.name: path.read_text()
               for path in Path(landen_kdv.__file__).parent.glob("*.py")}
    assert plan_users(modules["fourier.py"]) == {"_rfft", "_irfft"}
    offenders = {name: uses_of(source, {"_plan"}) for name, source in modules.items()
                 if name != "fourier.py"}
    assert {name: uses for name, uses in offenders.items() if uses} == {}


# what a real field is and how its spectrum is floored: fourier's one read
# of a sampled field, _floored_spectrum, states both
_FIELD_READ = {"_real_field", "drop_noise_floor", "DROP_FLOOR"}

# which entry of a half spectrum holds which mode, and what size of field
# it stands for: fourier states the layout, and no other module reads it
_LAYOUT = {"_half_modes", "_field_size", "_half_layout"}


@pytest.mark.parametrize("source, names", [
    ("from .fourier import _real_field", _FIELD_READ),
    ("from .fourier import PeriodicGrid, drop_noise_floor as floor", _FIELD_READ),
    ("from . import fourier\nu_hat = fourier.drop_noise_floor(fourier._rfft(u))", _FIELD_READ),
    ("level = DROP_FLOOR * eps", _FIELD_READ),
    ("def f(DROP_FLOOR):\n    return DROP_FLOOR", _FIELD_READ),
    ("from .fourier import _derivative_of_spectrum, _rfft", {"_rfft", "_irfft"}),
    ("from . import fourier\nu = fourier._irfft(u_hat)", {"_rfft", "_irfft"}),
    ("from .fourier import _half_modes as modes", _LAYOUT),
    ("from . import fourier\nn = fourier._field_size(u_hat.size)", _LAYOUT),
])
def test_field_read_name_is_detected(source, names):
    assert uses_of(source, names)


def test_only_fourier_reads_a_real_field():
    # every door reads a sampled field through fourier._floored_spectrum,
    # so no other module checks or floors a field itself, and verify,
    # which reads only the read's spectrum, transforms nothing; nor does
    # any other module read the half spectrum's layout
    modules = {path.name: path.read_text()
               for path in Path(landen_kdv.__file__).parent.glob("*.py")}
    assert {"def _real_field", "def drop_noise_floor", "DROP_FLOOR"} <= set(
        uses_of(modules["fourier.py"], _FIELD_READ))
    assert {f"def {name}" for name in _LAYOUT} <= set(uses_of(modules["fourier.py"], _LAYOUT))
    offenders = {name: uses_of(source, _FIELD_READ | _LAYOUT)
                 for name, source in modules.items() if name != "fourier.py"}
    assert {name: uses for name, uses in offenders.items() if uses} == {}
    assert uses_of(modules["verify.py"], {"_rfft", "_irfft"}) == []


# what a caller's number may be: errors.py states it once, in _require_real
# and _require_integer, and every door that takes a scalar calls them, so
# no other module names a number type to test one
_NUMBER_RULE = {"numbers", "Real", "Integral", "integer", "floating"}


@pytest.mark.parametrize("source", [
    "import numbers",
    "from numbers import Real",
    "from numbers import Integral as Whole",
    "ok = isinstance(value, numbers.Real)",
    "ok = isinstance(order, numbers.Integral)",
    "ok = isinstance(p, (int, np.integer))",
    "ok = isinstance(x, numpy.floating)",
])
def test_number_rule_name_is_detected(source):
    assert uses_of(source, _NUMBER_RULE)


def test_only_errors_states_the_number_rule():
    modules = {path.name: path.read_text()
               for path in Path(landen_kdv.__file__).parent.glob("*.py")}
    helpers = {"_require_real", "_require_integer", "_require_positive"}
    assert {f"def {name}" for name in helpers} <= set(uses_of(modules["errors.py"], helpers))
    assert uses_of(modules["errors.py"], _NUMBER_RULE)
    offenders = {name: uses_of(source, _NUMBER_RULE)
                 for name, source in modules.items() if name != "errors.py"}
    assert {name: uses for name, uses in offenders.items() if uses} == {}


# the private helpers of elliptic.py that landen.py shares: the domain
# check and the AGM behind K, E and the nome.  Every other private function
# there belongs to the kernel behind jacobi_sn_cn_dn: its front end and
# the dn-only ascent
_MODULUS_HELPERS = {"_check_m", "_agm", "_modulus"}


def elliptic_kernels(source: str) -> set[str]:
    """The private top-level functions of elliptic.py, less the modulus helpers."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")} - _MODULUS_HELPERS


@pytest.mark.parametrize("source", [
    "from .elliptic import _dn_ascent",
    "from .elliptic import jacobi_sn_cn_dn, _dn_ascent as ascent",
    "from . import elliptic\nx, z, ladder = elliptic._ladder_base(x, m)",
    "def f(_dn_ascent):\n    return _dn_ascent",
])
def test_elliptic_kernel_name_is_detected(source):
    assert uses_of(source, {"_ladder_base", "_dn_ascent"})


def test_only_elliptic_names_its_kernels():
    # every ascent is reached through jacobi_sn_cn_dn, the one kernel entry
    # and the one the benchmark's tracer times; a private dn kernel called
    # from another module would run unseen
    modules = {path.name: path.read_text()
               for path in Path(landen_kdv.__file__).parent.glob("*.py")}
    kernels = elliptic_kernels(modules["elliptic.py"])
    assert kernels == {"_ladder_base", "_dn_ascent"}
    offenders = {name: uses_of(source, kernels) for name, source in modules.items()
                 if name != "elliptic.py"}
    assert {name: uses for name, uses in offenders.items() if uses} == {}


REPO = Path(__file__).resolve().parents[1]


def public_definitions(path: Path) -> list[str]:
    """Top-level def and class names of a module that do not start with "_"."""
    return [node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def uses_outside_own_definition(path: Path) -> set[str]:
    """Names a module uses, leaving out each top-level definition's uses of itself.

    Identifiers, attributes, imported names and string constants all count:
    the benchmark looks some functions up by their name as a string.
    """
    used = set()
    for top in ast.parse(path.read_text()).body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):
                names = [node.name]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]
            else:
                continue
            used.update(name for name in names if name != own)
    return used


@pytest.mark.parametrize("source, expected", [
    ("def f():\n    return f()\n", set()),
    ("class C:\n    def g(self) -> 'C':\n        pass\n", set()),
    ("LAYERS = ('fft', 'spectral_derivative')\n", {"LAYERS", "fft", "spectral_derivative"}),
    ("from .fourier import fft\nimport numpy as np\nnp.linalg.norm(fft(x))\n",
     {"fft", "numpy", "np", "linalg", "norm", "x"}),
], ids=["recursion", "own-annotation", "string-lookup", "imports-and-attributes"])
def test_uses_are_detected(tmp_path, source, expected):
    path = tmp_path / "module.py"
    path.write_text(source)
    assert uses_outside_own_definition(path) == expected


def test_no_public_definition_is_used_only_by_tests():
    # a re-export in __init__.py is not a use: it only publishes the name
    package = sorted((REPO / "src" / "landen_kdv").glob("*.py"))
    users = [path for path in package if path.name != "__init__.py"]
    users += sorted((REPO / "bench").glob("*.py"))
    used = set().union(*(uses_outside_own_definition(path) for path in users))
    unused = {f"{path.name}:{name}" for path in package
              for name in public_definitions(path) if name not in used}
    assert unused == set()


def bench_layer_functions() -> dict[str, tuple[str, ...]]:
    """LAYER_FUNCTIONS from bench/tracing.py, read without importing the bench."""
    for node in ast.parse((REPO / "bench" / "tracing.py").read_text()).body:
        if (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                and node.target.id == "LAYER_FUNCTIONS"):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no LAYER_FUNCTIONS")


def test_bench_layer_functions_exist():
    # the tracer wraps these by name; a missing one stops the benchmark
    layers = bench_layer_functions()
    assert "landen" in layers and "transform_params" in layers["landen"]
    missing = [f"{layer}.{name}" for layer, names in layers.items() for name in names
               if not callable(getattr(importlib.import_module(f"landen_kdv.{layer}"),
                                       name, None))]
    assert missing == []


def python_floor() -> tuple[int, int]:
    """(major, minor) of requires-python; a regex, since 3.10 has no tomllib."""
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.M)
    assert found, "pyproject.toml declares no requires-python floor"
    return int(found[1]), int(found[2])


def test_floor_check_detects_newer_syntax():
    # an except* block needs 3.11, so a floor of 3.10 refuses it
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))


def test_sources_parse_at_the_python_floor():
    floor = python_floor()
    modules = sorted(Path(landen_kdv.__file__).parent.glob("*.py"))
    assert "cli.py" in {path.name for path in modules}
    for path in modules:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)
