"""The benchmark's workloads: CLI argument lists, inputs and output checks.

Each workload is one `conducta` CLI command run repeatedly in one process.
Invocation ``i`` of a run with benchmark seed ``s`` gets inputs derived from
``(s, i)`` only, so the same seed always gives the same inputs.

Correctness of every invocation is judged here: the exit code must be 0 and
the output must hold the expected number of rows, each with a passing
status.  ``physical_values`` extracts the columns that are compared with the
recorded reference (``reference.json``); CG diagnostics (residuals,
flux_discrepancy, iterations) and the fitted tail constants b and B are left
out, because a correct solver or fit change may move them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

SEED_STRIDE = 1_000_000  # CLI seeds of one benchmark seed never overlap another's

# 3-phase iid medium of the solve-3d workload (conductivity, volume fraction)
SOLVE_SIGMA = (1.0, 2.0, 5.0)
SOLVE_FRACTIONS = (0.4, 0.4, 0.2)
SOLVE_SHAPE = (64, 64, 64)
REFERENCE_SOLVE_SHAPE = (32, 32, 32)  # the reference solve stays cheap enough to run every time

VERIFY_FLAGS = ["--dim", "2", "--shape", "128", "--num-phases", "3", "--sigma-min", "1", "--sigma-max", "100"]
BMO_FLAGS = ["--dim", "2", "--shape", "256", "--num-phases", "3"]

VERIFY_COLUMNS = (
    "seed,k,sigma_bar,trivial,hs,constructive,theorem1_opt,S_opt,"
    "slack_trivial,slack_hs,slack_constructive,status"
)
VERIFY_PHYSICAL = ("sigma_bar", "trivial", "hs", "constructive", "theorem1_opt")
SOLVE_PHYSICAL = ("I1", "I2", "I2_positive", "constructive")
BMO_PHYSICAL = {"bmo_norm": 2, "max_lemma1": 6, "osc_theta": 8, "osc_closed": 9}  # column index


@dataclass(frozen=True)
class Workload:
    name: str
    grids_per_call: int

    def argv(self, work: Path, seed: int, i: int) -> list[str]:
        """CLI arguments of invocation ``i`` of a run with benchmark seed ``seed``."""
        first = seed * SEED_STRIDE + i * self.grids_per_call
        if self.name == "verify-2d":
            return ["verify", *VERIFY_FLAGS, "--count", str(self.grids_per_call),
                    "--seed", str(first), "--workers", "1"]
        if self.name == "bmo-2d":
            return ["bmo", *BMO_FLAGS, "--count", str(self.grids_per_call), "--seed", str(first)]
        return ["solve", "--grid", str(work / "grid.cnda"), "--S", "auto"]

    def reference_argv(self, work: Path) -> list[str]:
        """The invocation whose output is compared with reference.json."""
        if self.name == "solve-3d":
            return ["solve", "--grid", str(work / "reference.cnda"), "--S", "auto"]
        return self.argv(work, 0, 0)

    def build_inputs(self, work: Path, seed: int) -> None:
        """Write the input files of a run; only solve-3d reads one."""
        if self.name != "solve-3d":
            return
        from conducta.microstructure import generate_random, save_grid
        from conducta.phases import PhaseSet

        ps = PhaseSet.from_pairs(SOLVE_SIGMA, SOLVE_FRACTIONS, 3)
        work.mkdir(parents=True, exist_ok=True)
        save_grid(generate_random(ps, SOLVE_SHAPE, seed=seed), work / "grid.cnda")
        save_grid(generate_random(ps, REFERENCE_SOLVE_SHAPE, seed=0), work / "reference.cnda")

    def check(self, rc: int, out: str) -> str | None:
        """None when the invocation's output is correct, else what is wrong."""
        if rc != 0:
            return f"exit code {rc}"
        try:
            if self.name == "verify-2d":
                return _check_rows(_verify_rows(out), self.grids_per_call, status_col=-1)
            if self.name == "bmo-2d":
                return _check_rows(_bmo_rows(out), self.grids_per_call, status_col=1)
            return _check_solve(out)
        except (ValueError, IndexError) as exc:
            return f"unparsable output: {exc}"

    def physical_values(self, out: str) -> dict[str, float]:
        """The physical columns of an output, keyed for the reference."""
        values: dict[str, float] = {}
        if self.name == "verify-2d":
            header = VERIFY_COLUMNS.split(",")
            for row in _verify_rows(out):
                for col in VERIFY_PHYSICAL:
                    values[f"seed{row[0]}.{col}"] = float(row[header.index(col)])
        elif self.name == "bmo-2d":
            for row in _bmo_rows(out):
                for col, idx in BMO_PHYSICAL.items():
                    values[f"{row[0]}.{col}"] = float(row[idx])
        else:
            values.update(_solve_values(out))
        return values


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-2d", grids_per_call=2),
        Workload("solve-3d", grids_per_call=1),
        Workload("bmo-2d", grids_per_call=4),
    )
}


def _verify_rows(out: str) -> list[list[str]]:
    lines = out.strip().splitlines()
    if not lines or lines[0] != VERIFY_COLUMNS:
        raise ValueError("missing verify CSV header")
    return [line.split(",") for line in lines[1:]]


def _bmo_rows(out: str) -> list[list[str]]:
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("field")) + 1
    rows = []
    for line in lines[start:]:
        if not line.strip():
            break
        rows.append(line.split())
    if not any(line.startswith("recommended_C:") for line in lines):
        raise ValueError("missing recommended_C line")
    return rows


def _check_rows(rows: list[list[str]], count: int, status_col: int) -> str | None:
    if len(rows) != count:
        return f"{len(rows)} rows, expected {count}"
    bad = [row[0] for row in rows if row[status_col] != "ok"]
    return f"status not ok for {', '.join(bad)}" if bad else None


def _check_solve(out: str) -> str | None:
    values = _solve_values(out)
    if "sigma_bar" not in values or not any(k.startswith("S=") for k in values):
        return "solve output lacks sigma_bar or the potential table"
    for name in ("trivial", "hashin_shtrikman"):
        if f"sigma_bar <= {name}: PASS" not in out:
            return f"sigma_bar <= {name} did not pass"
    return None


def _solve_values(out: str) -> dict[str, float]:
    values: dict[str, float] = {}
    lines = out.splitlines()
    for idx, line in enumerate(lines):
        if line.startswith("A["):
            row = line.split("=", 1)[0].strip()[2:-3]
            for j, v in enumerate(line.split("=", 1)[1].split()):
                values[f"A[{row},{j}]"] = float(v)
        elif line.startswith("sigma_bar:"):
            values["sigma_bar"] = float(line.split()[1])
        elif line.startswith("sigma_bar <= "):
            name = line[len("sigma_bar <= "):].split(":")[0]
            values[f"bound.{name}"] = float(line.split("bound=")[1].split(",")[0])
        elif line.split()[:1] == ["S"] and "constructive" in line:
            for row in lines[idx + 1:]:
                if not row.strip():
                    break
                cells = row.split()
                for col, v in zip(SOLVE_PHYSICAL, cells[1:]):
                    values[f"S={cells[0]}.{col}"] = float(v)
    return values
