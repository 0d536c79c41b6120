"""conducta benchmark: CLI workloads end to end, plus a traced per-layer run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify-2d --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # one row per workload
    python3 bench/run.py --record-reference        # rewrite reference.json
    python3 bench/selftest.py                      # FFT-count self-test

Each run starts fresh interpreters with BLAS/OpenMP threads pinned to 1 and
``CONDUCTA_WORKERS`` removed, importing conducta from ``src/`` of the
checkout.  Set-up (interpreter start, import, input files) is timed in
SETUP_REPEATS separate processes and reported as the median ``setup_s``.
A worker process then calls ``conducta.cli.main`` in a closed loop, one
invocation after another, for ``--seconds`` (see worker.py).

With ``--trace 0`` the last stdout line holds the end-to-end metrics:
``wall_s`` (median wall time of one CLI invocation), ``grids_per_s`` (grids
finished per second of invocation time), ``setup_s`` and ``peak_rss_mb``
(the worker's ru_maxrss).  ``--trace 1`` reports the per-layer metrics of
tracer.py instead.  Failed invocations (non-zero exit, including 2 for no
convergence and 3 for a bound violation; wrong row count or status; a
reference mismatch) are counted in ``failed`` against ``attempted``, and any
failure makes the run exit with code 1.  The full record of a run, including
the machine, library versions and source digest, goes to
``.bench_out/<workload>-seed<n>-trace<t>.json``; traced runs also write their
spans next to it as gzipped JSON lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import signal
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from tracer import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s
REFERENCE_RTOL = 1e-6
END_TO_END = {"wall_s": "s", "grids_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("CONDUCTA_WORKERS", "PYTHONPATH")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(mode: str, workload: str, seed: int, work: Path, *extra: str, timeout: float) -> str:
    """Run worker.py to completion and return its stdout (captured in reference mode only).

    The wait blocks in waitpid, with a timer to kill a hung child, because
    subprocess's own timeout polls in sleeps of up to 50 ms, which would
    quantize the set-up times.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--mode", mode,
           "--workload", workload, "--seed", str(seed), "--work", str(work), *extra]
    proc = subprocess.Popen(cmd, env=child_env(), text=True,
                            stdout=subprocess.PIPE if mode == "reference" else sys.stderr)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        out, _ = proc.communicate()
    finally:
        killer.cancel()
    if proc.returncode != 0:
        raise BenchError(f"{mode} process for {workload} exited with code {proc.returncode}"
                         + (f" (killed after {timeout:.0f} s)" if proc.returncode == -signal.SIGKILL else ""))
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns the full record."""
    started = time.perf_counter()
    stem = f"{name}-seed{seed}-trace{trace}"
    work = OUT / "work" / stem
    work.mkdir(parents=True, exist_ok=True)
    setup_times = []
    for _ in range(SETUP_REPEATS if not trace else 0):
        t0 = time.perf_counter()
        worker("setup", name, seed, work, timeout=60)
        setup_times.append(time.perf_counter() - t0)

    raw_path, spans_path = work / "worker.json", OUT / f"{stem}.spans.jsonl.gz"
    raw_path.unlink(missing_ok=True)
    worker("run", name, seed, work, "--seconds", str(seconds), "--trace", str(trace),
           "--result", str(raw_path), "--spans", str(spans_path),
           timeout=RUN_LIMIT_S - (time.perf_counter() - started))
    raw = json.loads(raw_path.read_text())

    ref_ok = raw["reference"]["ok"]
    attempted = raw["attempted"] + 1  # the reference invocation counts too
    failed = raw["failed"] + (not ref_ok)
    times = raw["times"]
    if trace:
        metrics = {k: raw["layers"][k] for k in LAYER_METRICS}
        units = LAYER_METRICS
    else:
        metrics = {
            "wall_s": statistics.median(times),
            "grids_per_s": raw["grids"] / sum(times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": raw["peak_rss_kib"] / 1024.0,
        }
        units = END_TO_END
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "loop": "closed: one worker process, next invocation after the previous returned",
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "invocation_wall_s": summarize(times),
        "untraced_invocation_wall_s": summarize(raw.get("untraced_times", [])),
        "setup_s_samples": setup_times,
        "reference": raw["reference"], "problems": raw["problems"],
        "environment": environment(),
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2))
    return record


def summarize(samples: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    if not samples:
        return {}
    out = {"n": len(samples), "median": statistics.median(samples)}
    for p in (99, 95, 90, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(samples, n=100)[p - 1]
            break
    return out


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": version("numpy"), "scipy": version("scipy"),
        "nproc": os.cpu_count(), "cpu_model": cpu_model, "caches": caches,
        "git_commit": commit, "source_sha256": digest.hexdigest(),
        "thread_env": {var: "1" for var in THREAD_VARS}, "workers": 1,
    }


def record_reference() -> None:
    workloads = {}
    for name in WORKLOADS:
        work = OUT / "work" / f"{name}-reference"
        work.mkdir(parents=True, exist_ok=True)
        out = worker("reference", name, 0, work, timeout=RUN_LIMIT_S)
        workloads[name] = json.loads(out.strip().splitlines()[-1])
    reference = {
        "rtol": REFERENCE_RTOL,
        "tolerance": "|x - ref| <= rtol * max(|ref|, 1e-3 * largest |ref| of the workload)",
        "workloads": workloads,
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be between 1 and 60")
    if not (ROOT / "src" / "conducta" / "cli.py").is_file():
        print(f"error: no conducta sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    try:
        if args.record_reference:
            record_reference()
            return 0
        if args.workload != "all":
            rec = run_workload(args.workload, args.seed, args.seconds, args.trace)
            print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}))
            return 0 if rec["correct"] else 1
        records = [run_workload(name, args.seed, args.seconds, args.trace) for name in WORKLOADS]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    columns = [*records[0]["metrics"], "failed_ratio"]
    units = {**{k: v["unit"] for k, v in records[0]["metrics"].items()}, "failed_ratio": "ratio"}
    print(f"{'workload':<12}" + "".join(f"{f'{c} ({units[c]})':>26}" for c in columns) + f"{'correct':>10}")
    for rec in records:
        values = {**{k: v["value"] for k, v in rec["metrics"].items()}, "failed_ratio": rec["failed_ratio"]}
        print(f"{rec['workload']:<12}" + "".join(f"{values[c]:>26.6g}" for c in columns) + f"{str(rec['correct']):>10}")
    return 0 if all(rec["correct"] for rec in records) else 1


if __name__ == "__main__":
    sys.exit(main())
