"""One benchmark process: imports conducta from the checkout and runs a workload.

Started by run.py in a fresh interpreter with BLAS/OpenMP threads pinned to 1.
Modes:

* ``setup``: import the CLI and build the workload's input files, then exit;
  run.py times the whole process.
* ``run``: check the reference invocation, then call ``conducta.cli.main`` in
  a closed loop (the next invocation starts when the previous one returned)
  until ``--seconds`` have passed.  With ``--trace 1`` the same invocation is
  repeated in untraced/traced pairs and the per-layer metrics come from the
  traced ones.
* ``reference``: print the physical values of the reference invocation.

The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def import_cli(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import conducta.cli

    if Path(conducta.cli.__file__).resolve().parent != src / "conducta":
        raise SystemExit(f"conducta was imported from {conducta.cli.__file__}, not from {src}")
    return conducta.cli


def invoke(cli, argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one CLI call; an uncaught exception gives -1."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:
        return -1, traceback.format_exc()
    return rc, out.getvalue()


def reference_values(cli, wl, work: Path) -> tuple[str | None, dict[str, float]]:
    """What is wrong with the reference invocation (or None), and its physical values."""
    rc, out = invoke(cli, wl.reference_argv(work))
    problem = wl.check(rc, out)
    return problem, ({} if problem else wl.physical_values(out))


def check_reference(cli, wl, work: Path) -> dict:
    problem, got = reference_values(cli, wl, work)
    if problem:
        return {"ok": False, "problems": [problem]}
    ref = json.loads(REFERENCE_FILE.read_text())
    rtol = ref["rtol"]
    expected = ref["workloads"][wl.name]
    scale = max(abs(v) for v in expected.values())
    problems = []
    for key, want in expected.items():
        have = got.get(key)
        if have is None or abs(have - want) > rtol * max(abs(want), 1e-3 * scale):
            problems.append(f"{key}: {have} != reference {want}")
    problems += [f"{key}: not in reference" for key in got.keys() - expected.keys()]
    return {"ok": not problems, "problems": problems[:10], "compared": len(expected), "rtol": rtol}


def measure(cli, wl, work: Path, seed: int, seconds: float) -> dict:
    times, problems = [], []
    failed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        argv = wl.argv(work, seed, i)
        t0 = time.perf_counter()
        rc, out = invoke(cli, argv)
        t1 = time.perf_counter()
        times.append(t1 - t0)
        problem = wl.check(rc, out)
        if problem:
            failed += 1
            problems.append(f"{' '.join(argv)}: {problem}")
        i += 1
        if t1 >= deadline:
            break
    return {"times": times, "grids": i * wl.grids_per_call, "attempted": i, "failed": failed,
            "problems": problems[:10]}


def measure_traced(cli, wl, work: Path, seed: int, seconds: float, spans_path: Path) -> dict:
    import tracer as tr

    tracer = tr.Tracer()
    argv = wl.argv(work, seed, 0)
    untraced, traced, problems = [], [], []
    attempted = failed = 0
    first_out = None
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        # alternate which of the pair runs first, so drift hits both alike
        for on in ((False, True) if k % 2 == 0 else (True, False)):
            if on:
                tracer.invocation = k
                tracer.install()
            t0 = time.perf_counter()
            rc, out = invoke(cli, argv)
            t1 = time.perf_counter()
            if on:
                tracer.uninstall()
            (traced if on else untraced).append(t1 - t0)
            attempted += 1
            first_out = out if first_out is None else first_out
            problem = wl.check(rc, out) or (None if out == first_out else "output differs from the first run")
            if problem:
                failed += 1
                problems.append(f"{'traced' if on else 'untraced'} run {k}: {problem}")
        k += 1
        if time.perf_counter() >= deadline:
            break

    groups: dict[int, list] = {}
    for rec in tracer.spans:
        groups.setdefault(rec[tr.INVOCATION], []).append(rec)
    layers, mismatched = tr.combine([tr.invocation_metrics(groups[j]) for j in range(k)])
    layers["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    if mismatched:
        failed += 1
        problems.append(f"counts differ between repeats of one input: {', '.join(mismatched)}")
    tracer.dump(spans_path, {
        "workload": wl.name, "seed": seed, "argv": argv, "clock": "time.perf_counter, seconds",
        "notes": "bytes are computed from array and file sizes, not measured traffic; "
                 "the 3D working set fits in L3, so no memory-bandwidth claim rests on them",
    })
    return {"times": traced, "untraced_times": untraced, "grids": k * wl.grids_per_call,
            "attempted": attempted, "failed": failed, "problems": problems[:10], "layers": layers}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "reference"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    cli = import_cli(args.root)
    wl = WORKLOADS[args.workload]
    wl.build_inputs(args.work, args.seed)
    if args.mode == "setup":
        return 0
    if args.mode == "reference":
        problem, values = reference_values(cli, wl, args.work)
        if problem:
            print(f"reference invocation failed: {problem}", file=sys.stderr)
            return 1
        print(json.dumps(values))
        return 0

    result = {"reference": check_reference(cli, wl, args.work)}
    if args.trace:
        result.update(measure_traced(cli, wl, args.work, args.seed, args.seconds, args.spans))
    else:
        result.update(measure(cli, wl, args.work, args.seed, args.seconds))
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
