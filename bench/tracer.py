"""Per-layer tracing by wrapping public functions from outside the program.

``Tracer.install`` replaces every public function of the conducta modules
(``cli``, ``microstructure``, ``phases``, ``bounds``, ``cell_solver``,
``bmo``) and every transform of ``numpy.fft`` (and of ``scipy.fft`` once it
is imported) with a wrapper that records a span: id, parent id, name, layer,
start, end, invocation and a few attributes.  A function is replaced on its
defining module and on every conducta namespace that imported it by name, all
with the same wrapper, so a call is recorded once whichever name it went
through.  ``uninstall`` puts the originals back.

Only the outermost transform of a nest is recorded (numpy's ``hfft`` calls
``irfft``, for instance), so ``fft_calls`` counts transforms a caller asked
for.  Byte counts are computed from array sizes (input plus output of each
transform, the file size of a loaded grid); they are not measured memory
traffic.  The 3D working set of the benchmark (about 4 MB per array) fits in
the last-level cache of common server CPUs, so no memory-bandwidth claim can
rest on these numbers.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import statistics
import sys
import time
import types
from collections import defaultdict

LAYERS = ("cli", "microstructure", "phases", "bounds", "cell_solver", "bmo")
FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)
SOLVE = "cell_solver.solve_effective_tensor"
POTENTIAL = "cell_solver.build_optimal_potential"

# span record fields
ID, PARENT, NAME, LAYER, START, END, INVOCATION, ATTRS = range(8)


class Tracer:
    """Collects spans in memory while installed; write them out with ``dump``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.invocation = None
        self._stack: list[int] = []
        self._wrappers: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        targets: dict[int, tuple[object, str, str]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"conducta.{layer}"]
            for attr, obj in vars(mod).items():
                if isinstance(obj, types.FunctionType) and not attr.startswith("_") and obj.__module__ == mod.__name__:
                    targets[id(obj)] = (obj, f"{layer}.{attr}", layer)
        importlib.import_module("numpy.fft")  # numpy loads it lazily, on first use
        fft_modules = [sys.modules[m] for m in FFT_MODULES if m in sys.modules]
        for mod in fft_modules:
            for attr in FFT_NAMES:
                obj = getattr(mod, attr, None)
                if obj is not None:
                    targets[id(obj)] = (obj, f"{mod.__name__}.{attr}", "fft")
        namespaces = fft_modules + [m for n, m in sys.modules.items() if n == "conducta" or n.startswith("conducta.")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(ns, attr, self._wrapper(*hit))
                    self._patches.append((ns, attr, obj))

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches = []

    def _wrapper(self, fn, name: str, layer: str):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_fft = layer == "fft"
        attrs_of = _ATTRS.get(name) or (_fft_attrs if is_fft else None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_fft and stack and spans[stack[-1]][LAYER] == "fft":
                return fn(*args, **kwargs)  # count outermost transforms only
            rec = [len(spans), stack[-1] if stack else -1, name, layer, 0.0, 0.0, self.invocation, None]
            spans.append(rec)
            stack.append(rec[ID])
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[ATTRS] = {"error": type(exc).__name__}
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if attrs_of is not None:
                rec[ATTRS] = attrs_of(args, kwargs, result)
            return result

        self._wrappers[key] = wrapper
        return wrapper

    # ------------------------------------------------------------- output

    def dump(self, path, header: dict) -> None:
        """Write a header line, then one JSON object per span, gzipped."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for rec in self.spans:
                fh.write(json.dumps({
                    "id": rec[ID], "parent": rec[PARENT], "name": rec[NAME], "layer": rec[LAYER],
                    "start": rec[START], "end": rec[END], "invocation": rec[INVOCATION],
                    "attrs": rec[ATTRS],
                }) + "\n")


def _nbytes(x) -> int:
    return int(getattr(x, "nbytes", 0))


def _fft_attrs(args, kwargs, result):
    data = args[0] if args else kwargs.get("x", kwargs.get("a"))
    return {"bytes_computed": _nbytes(data) + _nbytes(result)}


def _load_grid_attrs(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _solve_attrs(args, kwargs, result):
    return {"cg_iterations": int(sum(result.iterations))}


_ATTRS = {"microstructure.load_grid": _load_grid_attrs, SOLVE: _solve_attrs}


# ---------------------------------------------------------------- metrics

# per-layer metric -> unit; the benchmark's per_layer list
LAYER_METRICS = {
    "cell_solver.solve.calls": "count",
    "cell_solver.solve.busy_s": "s",
    "cell_solver.solve.self_s": "s",
    "cell_solver.solve.cg_iterations": "count",
    "cell_solver.solve.fft_calls": "count",
    "cell_solver.solve.fft_busy_s": "s",
    "cell_solver.solve.fft_per_iteration": "fft/iter",
    "cell_solver.solve.fft_bytes_computed": "B",
    "cell_solver.solve.converge_failures": "count",
    "cell_solver.potential.calls": "count",
    "cell_solver.potential.busy_s": "s",
    "cell_solver.potential.fft_calls": "count",
    "cell_solver.potential.fft_busy_s": "s",
    "bmo.bmo_norm.busy_s": "s",
    "bmo.john_nirenberg_fit.busy_s": "s",
    "bmo.lemma1_ratio.calls": "count",
    "bmo.lemma1_ratio.busy_s": "s",
    "microstructure.generate_random.calls": "count",
    "microstructure.generate_random.busy_s": "s",
    "microstructure.load_grid.busy_s": "s",
    "microstructure.load_grid.bytes": "B",
    # empirical_phase_set is defined in microstructure; it builds the phase set
    "phases.empirical_phase_set.busy_s": "s",
    "bounds.busy_s": "s",
    "bounds.optimize_S.calls": "count",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def invocation_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of the spans of one invocation (except the overhead ratio).

    A function's calls and busy time count only its outermost spans, so a
    nested call (constructive_upper -> build_optimal_potential) is counted
    once; a layer's self time is its spans' durations minus their children's.
    """
    by_id = {rec[ID]: rec for rec in spans}
    child_time: dict[int, float] = defaultdict(float)
    for rec in spans:
        if rec[PARENT] in by_id:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    above: dict[int, frozenset] = {}  # names and layer tags of each span's ancestors
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    owned = {owner: [0, 0.0, 0] for owner in (SOLVE, POTENTIAL)}  # fft calls, busy, bytes
    iterations = failures = grid_bytes = 0
    for rec in spans:  # a parent precedes its children
        parent = by_id.get(rec[PARENT])
        ctx = above[parent[ID]] | {parent[NAME], "layer:" + parent[LAYER]} if parent else frozenset()
        above[rec[ID]] = ctx
        dur = rec[END] - rec[START]
        name, tag, attrs = rec[NAME], "layer:" + rec[LAYER], rec[ATTRS] or {}
        if name not in ctx:
            calls[name] += 1
            busy[name] += dur
            self_time[name] += dur - child_time[rec[ID]]
        if tag not in ctx:
            busy[tag] += dur
        self_time[tag] += dur - child_time[rec[ID]]
        if rec[LAYER] == "fft":
            for owner, acc in owned.items():
                if owner in ctx:
                    acc[0] += 1
                    acc[1] += dur
                    acc[2] += attrs["bytes_computed"]
        elif name == SOLVE:
            iterations += attrs.get("cg_iterations", 0)
            failures += attrs.get("error") == "ConvergenceError"
        elif name == "microstructure.load_grid":
            grid_bytes += attrs.get("bytes", 0)

    fft_calls, fft_busy, fft_bytes = owned[SOLVE]
    return {
        "cell_solver.solve.calls": calls[SOLVE],
        "cell_solver.solve.busy_s": busy[SOLVE],
        "cell_solver.solve.self_s": self_time[SOLVE],
        "cell_solver.solve.cg_iterations": iterations,
        "cell_solver.solve.fft_calls": fft_calls,
        "cell_solver.solve.fft_busy_s": fft_busy,
        "cell_solver.solve.fft_per_iteration": fft_calls / iterations if iterations else 0.0,
        "cell_solver.solve.fft_bytes_computed": fft_bytes,
        "cell_solver.solve.converge_failures": failures,
        "cell_solver.potential.calls": calls[POTENTIAL],
        "cell_solver.potential.busy_s": busy[POTENTIAL],
        "cell_solver.potential.fft_calls": owned[POTENTIAL][0],
        "cell_solver.potential.fft_busy_s": owned[POTENTIAL][1],
        "bmo.bmo_norm.busy_s": busy["bmo.bmo_norm"],
        "bmo.john_nirenberg_fit.busy_s": busy["bmo.john_nirenberg_fit"],
        "bmo.lemma1_ratio.calls": calls["bmo.lemma1_ratio"],
        "bmo.lemma1_ratio.busy_s": busy["bmo.lemma1_ratio"],
        "microstructure.generate_random.calls": calls["microstructure.generate_random"],
        "microstructure.generate_random.busy_s": busy["microstructure.generate_random"],
        "microstructure.load_grid.busy_s": busy["microstructure.load_grid"],
        "microstructure.load_grid.bytes": grid_bytes,
        "phases.empirical_phase_set.busy_s": busy["microstructure.empirical_phase_set"],
        "bounds.busy_s": busy["layer:bounds"],
        "bounds.optimize_S.calls": calls["bounds.optimize_S"],
        "cli.self_s": self_time["layer:cli"],
    }


def combine(per_invocation: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Counts from the first invocation (they must repeat exactly), times as medians."""
    first = per_invocation[0]
    combined, mismatched = {}, []
    for key, value in first.items():
        if LAYER_METRICS[key] == "s":
            combined[key] = statistics.median(m[key] for m in per_invocation)
        else:
            combined[key] = value
            if any(m[key] != value for m in per_invocation[1:]):
                mismatched.append(key)
    return combined, mismatched
