"""Self-test of the benchmark's tracer; exits 1 if any check fails.

    python3 bench/selftest.py

* The FFT count of one solve on a small grid must equal the count the
  current solver makes: one transform of sigma, then per load direction
  ``it*(2n+2)`` in the operator, ``2*(it-1)`` in the preconditioner and
  ``n+4`` for the right-hand side, the first preconditioning and the
  gradients, i.e. ``1 + sum_dir (it*(2n+2) + 2*(it-1) + n + 4)``.  A solver
  that changes its transforms fails this test on purpose; its new count is
  then read from ``fft_calls`` of a traced run, and the formula is updated in
  a benchmark change of its own, so the counter stays pinned.
* A transform nested in another (numpy's ``hfft`` calls ``irfft``) counts once.
* ``constructive_upper`` reaches ``build_optimal_potential`` by name: one
  potential call, counted once.
* The metrics run.py reports are the ones BENCHMARK.json lists, with the
  same units.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import tracer as tr
from run import END_TO_END
from worker import import_cli

ROOT = Path(__file__).resolve().parent.parent


def traced(tracer: tr.Tracer, call):
    tracer.spans.clear()
    tracer.install()
    try:
        call()
    finally:
        tracer.uninstall()
    return tr.invocation_metrics(tracer.spans)


def main() -> int:
    import_cli(ROOT)
    from conducta import cell_solver
    from conducta.microstructure import generate_random
    from conducta.phases import PhaseSet

    tracer = tr.Tracer()
    failures = []
    for shape, seed in (((64, 64), 11), ((16, 16, 16), 12)):
        n = len(shape)
        grid = generate_random(PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), n), shape, seed=seed)
        result = []
        m = traced(tracer, lambda: result.append(cell_solver.solve_effective_tensor(grid)))
        expected = 1 + sum(it * (2 * n + 2) + 2 * (it - 1) + n + 4 for it in result[0].iterations)
        got = m["cell_solver.solve.fft_calls"]
        print(f"solve {'x'.join(map(str, shape))}: iterations {result[0].iterations}, "
              f"fft_calls {got}, expected {expected}")
        if got != expected or m["cell_solver.solve.cg_iterations"] != sum(result[0].iterations):
            failures.append(f"solve {shape}")

    def potential_then_hfft():
        cell_solver.build_optimal_potential(grid, 2.0)
        np.fft.hfft(np.ones(8))

    m = traced(tracer, potential_then_hfft)
    ffts = sum(1 for rec in tracer.spans if rec[tr.LAYER] == "fft")
    potential_ffts = m["cell_solver.potential.fft_calls"]
    if ffts != potential_ffts + 1:
        failures.append(f"nested transform: {ffts} fft spans, expected {potential_ffts + 1}")

    m = traced(tracer, lambda: cell_solver.constructive_upper(grid, 2.0))
    if m["cell_solver.potential.calls"] != 1 or m["cell_solver.potential.fft_calls"] != potential_ffts:
        failures.append(f"constructive_upper: {m['cell_solver.potential.calls']} potential calls, expected 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section, reported in (("end_to_end", END_TO_END), ("per_layer", tr.LAYER_METRICS)):
        if {m["name"]: m["unit"] for m in bench[section]} != reported:
            failures.append(f"BENCHMARK.json {section} differs from the metrics run.py reports")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
