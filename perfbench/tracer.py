"""Span tracing of ``reachkit`` from outside the package.

:class:`Tracer` wraps every public function of every ``reachkit`` module in
each module namespace that binds it (names are bound at import, so
``reachkit.solvers.reachability_matrix`` must be wrapped as well as
``reachkit.system.reachability_matrix``).  It also wraps the numerical
primitives the package reaches through module attributes:
``numpy.linalg.svd``, ``numpy.linalg.lstsq``, ``scipy.linalg.expm`` and the
``simpson`` rule bound in ``reachkit.synth``; those record spans only when
called from inside a ``reachkit`` span.

Each wrapper records a span (name, start, end, parent span, task id) in
memory and counts calls.  A span's self time is its duration minus the time
its child spans cover.  Derived counters (subsets evaluated, Krylov blocks,
computed SVD flops, ...) come from the arguments and results seen at these
boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np
import scipy.linalg

import reachkit

# Frame layout on the tracer's stack: start time, time covered by child
# spans, span index.
_START, _CHILD, _SPAN = range(3)

EXACT = "solvers.exact_min_reach"
GREEDY = "solvers.greedy_min_reach"
VARSEL = "solvers.varsel_exact"
CHECKS = ("setfun.check_supermodular", "setfun.check_monotone")


def svd_flops(shape: tuple[int, int], compute_uv: bool, full_matrices: bool) -> float:
    """Flop estimate of a dense SVD from its shape, m >= n (Golub & Van Loan,
    *Matrix Computations*, 4th ed., Fig. 8.6.1): ``4mn^2 - 4n^3/3`` for the
    singular values alone, ``14mn^2 + 8n^3`` with thin U and V,
    ``4m^2 n + 8mn^2 + 9n^3`` with full U and V."""
    m, n = max(shape), min(shape)
    if not compute_uv:
        return 4.0 * m * n * n - 4.0 * n**3 / 3.0
    if not full_matrices:
        return 14.0 * m * n * n + 8.0 * n**3
    return 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n**3


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_task = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.active: Counter[str] = Counter()
        self.stack: list[list] = []
        self.task = -1
        self._patches: list[tuple[object, str, Callable, Callable]] = []

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, after=None, nested_only=False) -> Callable:
        name_id = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if nested_only and not tracer.stack:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span = len(tracer.span_start)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1][_SPAN] if stack else -1)
            tracer.span_task.append(tracer.task)
            tracer.active[name] += 1
            start = perf_counter()
            tracer.span_start.append(start)
            tracer.span_end.append(start)
            stack.append([start, 0.0, span])
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frame = stack.pop()
                duration = end - frame[_START]
                tracer.span_end[span] = end
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[_CHILD]
                tracer.active[name] -= 1
                if stack:
                    stack[-1][_CHILD] += duration
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def _build_patches(self) -> None:
        modules = [reachkit] + [
            importlib.import_module(f"reachkit.{info.name}")
            for info in pkgutil.iter_modules(reachkit.__path__)
        ]
        wrapped: dict[int, Callable] = {}
        for mod in modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{layer}.{attr}"
                    wrapped[id(obj)] = self.wrap(name, obj, _AFTER.get(name))
        for mod in modules:
            for attr, obj in vars(mod).items():
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patches.append((mod, attr, obj, wrapped[id(obj)]))
        prims = [
            (np.linalg, "svd", "linalg.svd"),
            (np.linalg, "lstsq", "linalg.lstsq"),
            (scipy.linalg, "expm", "linalg.expm"),
            (importlib.import_module("reachkit.synth"), "simpson", "synth.simpson"),
        ]
        for owner, attr, name in prims:
            fn = getattr(owner, attr)
            wrapper = self.wrap(name, fn, _AFTER.get(name), nested_only=True)
            self._patches.append((owner, attr, fn, wrapper))

    def install(self) -> None:
        """Bind the wrappers of the package's public functions, in every
        module namespace that binds them, and of the primitives it calls."""
        if not self._patches:
            self._build_patches()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(t for name, t in self.self_s.items() if name.startswith(layer + "."))

    def write(self, path: Path, meta: dict) -> None:
        """Write every span, columnar, with the name table and ``meta``."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            task=np.frombuffer(self.span_task, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            meta=np.array(repr(meta)),
        )


# -- derived counters, run after a wrapped call returns -----------------------


def _after_svd(tr: Tracer, args, kwargs, result) -> None:
    shape = np.shape(_arg(args, kwargs, 0, "a"))
    tr.counts["linalg.svd.flops_est"] += svd_flops(
        shape[-2:],
        bool(_arg(args, kwargs, 2, "compute_uv", True)),
        bool(_arg(args, kwargs, 1, "full_matrices", True)),
    )


def _after_lstsq(tr: Tracer, args, kwargs, result) -> None:
    if tr.active[VARSEL]:
        tr.counts["solvers.varsel.supports_evaluated"] += 1


def _after_reachability(tr: Tracer, args, kwargs, result) -> None:
    sys = _arg(args, kwargs, 0, "sys")
    nodes = sorted({int(i) for i in _arg(args, kwargs, 1, "S")})
    rows = sys.B[[i - 1 for i in nodes]]
    inputs = int(np.count_nonzero(np.any(rows != 0.0, axis=0)))
    tr.counts["system.reachability_matrix.krylov_blocks"] += (
        result.shape[1] / inputs if inputs else 1.0
    )
    if tr.active[EXACT]:
        tr.counts["solvers.exact.subsets_evaluated"] += 1
    if tr.active[GREEDY]:
        tr.counts["solvers.greedy.evals"] += 1


def _after_exact(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["solvers.exact.solutions"] += 1


def _after_greedy(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["solvers.greedy.selected_nodes"] += result.cardinality


def _after_varsel(tr: Tracer, args, kwargs, result) -> None:
    # the empty support is scanned first and needs no least-squares fit
    tr.counts["solvers.varsel.supports_evaluated"] += 1


def _after_evaluate(tr: Tracer, args, kwargs, result) -> None:
    if any(tr.active[name] for name in CHECKS):
        tr.counts["setfun.evaluate.in_checks"] += 1


def _after_load(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["instance_io.bytes_read"] += Path(_arg(args, kwargs, 0, "path")).stat().st_size


def _after_gramian(tr: Tracer, args, kwargs, result) -> None:
    N = int(_arg(args, kwargs, 2, "N", 1000))
    n = result.shape[0]
    stack_bytes = 2.0 * (N + 1) * n * n * 8
    key = "synth.gramian_stack_bytes"
    tr.counts[key] = max(tr.counts[key], stack_bytes)


_AFTER = {
    "linalg.svd": _after_svd,
    "linalg.lstsq": _after_lstsq,
    "system.reachability_matrix": _after_reachability,
    EXACT: _after_exact,
    GREEDY: _after_greedy,
    VARSEL: _after_varsel,
    "setfun.evaluate": _after_evaluate,
    "instance_io.load_instance": _after_load,
    "synth.reach_gramian": _after_gramian,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric name, unit) of every per-layer metric, in report order.
_TIMED = {
    "linalg": ("numerical_rank", "range_basis", "dist_sq_to_range", "mat_exp"),
    "system": ("reachability_matrix", "is_feasible", "transfer_offset"),
    "solvers": ("exact_min_reach", "greedy_min_reach", "varsel_exact"),
    "setfun": ("check_supermodular", "check_monotone", "evaluate"),
    "hardness": ("generate", "forward_map", "extract_solution"),
    "synth": ("reach_gramian", "min_energy_transfer"),
    "instance_io": ("load_instance", "write_instance"),
}


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit, base).

    ``base`` states what a ratio divides by, or that a value is computed
    rather than measured; it is empty for plain counts and times.
    """
    out: dict[str, tuple[float, str, str]] = {}
    c = tr.counts
    for layer, fns in _TIMED.items():
        for fn in fns:
            name = f"{layer}.{fn}"
            out[f"{name}.calls"] = (tr.calls[name], "count", "")
            out[f"{name}.self_s"] = (tr.self_s[name], "s", "")
        if layer == "linalg":
            for prim in ("svd", "lstsq", "expm"):
                name = f"linalg.{prim}"
                out[f"{name}.calls"] = (tr.calls[name], "count", "")
                out[f"{name}.self_s"] = (tr.self_s[name], "s", "")
            out["linalg.svd.flops_est"] = (
                c["linalg.svd.flops_est"], "flop", "computed from matrix shapes")
        elif layer == "system":
            out["system.reachability_matrix.krylov_blocks"] = (
                c["system.reachability_matrix.krylov_blocks"], "count",
                "output columns / nonzero input columns, summed over calls")
        elif layer == "solvers":
            subsets = c["solvers.exact.subsets_evaluated"]
            out["solvers.exact.subsets_evaluated"] = (subsets, "count", "")
            out["solvers.exact.subsets_per_solution"] = (
                _ratio(subsets, c["solvers.exact.solutions"]), "ratio",
                f"{subsets:.0f} subsets / {c['solvers.exact.solutions']:.0f} "
                "exact solves that returned a set")
            out["solvers.greedy.evals_per_selected_node"] = (
                _ratio(c["solvers.greedy.evals"], c["solvers.greedy.selected_nodes"]),
                "ratio",
                f"{c['solvers.greedy.evals']:.0f} evaluations / "
                f"{c['solvers.greedy.selected_nodes']:.0f} selected nodes")
            out["solvers.varsel.supports_evaluated"] = (
                c["solvers.varsel.supports_evaluated"], "count", "")
        elif layer == "setfun":
            checks = sum(tr.calls[name] for name in CHECKS)
            out["setfun.evaluate.per_check"] = (
                _ratio(c["setfun.evaluate.in_checks"], checks), "ratio",
                f"{c['setfun.evaluate.in_checks']:.0f} evaluations / {checks} checks")
        elif layer == "synth":
            out["synth.simpson.self_s"] = (tr.self_s["synth.simpson"], "s", "")
            out["synth.gramian_stack_bytes"] = (
                c["synth.gramian_stack_bytes"], "B",
                "computed as 2*(N+1)*n^2*8, largest call")
        elif layer == "instance_io":
            out["instance_io.bytes_read"] = (c["instance_io.bytes_read"], "B", "")
    out["cli.main.calls"] = (tr.calls["cli.main"], "count", "")
    out["cli.main.self_s"] = (
        tr.layer_self_s("cli"), "s", "time in cli functions outside other layers")
    out["cli.stdout_bytes"] = (c["cli.stdout_bytes"], "B", "")
    return out
