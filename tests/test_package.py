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
    "ifft",
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
