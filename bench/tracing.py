"""Spans around calls into the landen_kdv layers, recorded from outside the package.

The tracer replaces each named layer function by a timing wrapper in every
loaded ``landen_kdv.*`` module that holds it.  Matching is by object
identity, so bindings made with ``from .fourier import fft`` in evolve.py
or verify.py are wrapped along with the defining module's own name, and a
module is looked up through ``sys.modules`` because the package attribute
``landen_kdv.evolve`` is the function, not the module.  A named function
that no longer exists is an error: an empty layer would read as "no work".

Each span records (id, parent id, item, name, start ns, end ns).  Spans are
kept in memory and written out by :meth:`Tracer.write`.  Self time is a
span's duration minus the time covered by its direct children.
"""

from __future__ import annotations

import gzip
import json
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# layer -> public functions timed as spans.  Unwrapped code called from a
# wrapped one counts toward the caller's self time.
LAYER_FUNCTIONS: dict[str, tuple[str, ...]] = {
    "elliptic": ("jacobi_sn_cn_dn", "complete_K"),
    "landen": ("landen_map", "transform_params", "dn_landen_rhs", "dn2_landen_rhs"),
    "waves": ("u_p", "u_pm"),
    "fourier": ("fft", "spectral_derivative", "fit_traveling_velocity"),
    "verify": ("run_suite", "kdv_residual", "equivalence_check"),
    "evolve": ("evolve_trajectory", "conservation_report", "translation_lag"),
    "cli": ("main",),
}

# Span names that differ from "<layer>.<function>".
_SPAN_NAMES = {
    ("elliptic", "jacobi_sn_cn_dn"): "elliptic.jacobi",
    ("waves", "u_p"): "waves.sample",
    ("waves", "u_pm"): "waves.sample",
    ("evolve", "evolve_trajectory"): "evolve.trajectory",
}

ROOT = "bench.item"


def layer_module(layer: str):
    """The module ``landen_kdv.<layer>``; raises if it is not loaded."""
    name = f"landen_kdv.{layer}"
    try:
        return sys.modules[name]
    except KeyError:
        raise RuntimeError(f"layer module {name} is not loaded") from None


def typed_errors() -> tuple:
    """The package's refusal types: an item raising one of these was refused."""
    errors = layer_module("errors")
    return (errors.DomainError, errors.ConsistencyError,
            errors.PeriodMismatchError, errors.InstabilityError)


def package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "landen_kdv" or name.startswith("landen_kdv."))]


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`.

    Counters kept next to the spans: ``points`` (array elements handed to
    jacobi and to the samplers), ``fft_flops`` (5 N log2 N per transform,
    computed, not measured), ``map_builds``/``map_hits`` (cache misses and
    hits seen across each landen_map call), ``refusals`` (typed errors
    leaving landen_map) and ``equivalence_margins`` (each
    equivalence_check result over the library's tolerance).
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: Counter = Counter()
        self.points: Counter = Counter()
        self.fft_flops = 0
        self.map_builds = 0
        self.map_hits = 0
        self.refusals = 0
        self.equivalence_margins: list[float] = []
        self.item = -1
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        self._next_id = 1
        self._typed = typed_errors()
        self._sites = self._resolve_sites()

    # -- patching ---------------------------------------------------------

    def _resolve_sites(self) -> list[tuple[object, str, object, object]]:
        modules = package_modules()
        sites = []
        for layer, names in LAYER_FUNCTIONS.items():
            home = layer_module(layer)
            for fname in names:
                original = getattr(home, fname, None)
                if original is None or not callable(original):
                    raise RuntimeError(
                        f"layer function landen_kdv.{layer}.{fname} is missing; "
                        "update the benchmark's layer list")
                wrapper = self._wrap(layer, fname, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            sites.append((mod, attr, original, wrapper))
        return sites

    def install(self) -> None:
        for mod, attr, _, wrapper in self._sites:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._sites:
            setattr(mod, attr, original)

    # -- spans ------------------------------------------------------------

    def _open(self) -> tuple[int, int, list[int]]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [sid, 0]
        self._stack.append(frame)
        return sid, parent, frame

    def _close(self, name: str, sid: int, parent: int, frame: list[int],
               start: int, end: int) -> None:
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.self_ns[name] += duration - frame[1]
        self.calls[name] += 1
        self.spans.append((sid, parent, self.item, name, start, end))

    def root(self, fn, *args):
        """Call fn(*args) inside the item's root span."""
        sid, parent, frame = self._open()
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self._close(ROOT, sid, parent, frame, start, time.perf_counter_ns())

    def _wrap(self, layer: str, fname: str, fn):
        if (layer, fname) == ("landen", "landen_map"):
            return self._wrap_landen_map(fn)
        name = _SPAN_NAMES.get((layer, fname), f"{layer}.{fname}")
        tracer = self

        def traced(*args, **kwargs):
            sid, parent, frame = tracer._open()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, sid, parent, frame, start, time.perf_counter_ns())
            tracer._count(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_landen_map(self, fn):
        # a miss in the memo cache is a build; without a cache every call is one
        cache_info = getattr(fn, "cache_info", None)
        tracer = self

        def traced(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            sid, parent, frame = tracer._open()
            start = time.perf_counter_ns()
            built = True
            try:
                return fn(*args, **kwargs)
            except tracer._typed:
                tracer.refusals += 1
                raise
            finally:
                end = time.perf_counter_ns()
                if cache_info:
                    built = cache_info().misses != misses
                tracer._close("landen.map_build" if built else "landen.map_hit",
                              sid, parent, frame, start, end)
                if built:
                    tracer.map_builds += 1
                else:
                    tracer.map_hits += 1

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, args: tuple, result) -> None:
        if name in ("elliptic.jacobi", "waves.sample"):
            self.points[name] += int(np.size(args[0]))
        elif name == "fourier.fft":
            n = int(np.size(args[0]))
            self.fft_flops += 5 * n * int(math.log2(n)) if n > 1 else 0
        elif name == "verify.equivalence_check":
            tol = layer_module("verify").TOLERANCES["equivalence"]
            self.equivalence_margins.append(float(result) / tol)

    # -- output -----------------------------------------------------------

    def write(self, path: str) -> None:
        """Gzipped JSON lines, one array per span: [id, parent, item, name, start_ns, end_ns]."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
