"""Command-line front end: reproducible bound evaluations, sweeps, solves,
batch verification, and BMO reports.

Every run is determined by its manifest (command name plus canonical
options); rerunning a manifest reproduces output bodies byte for byte.
Exit codes: 0 success, 1 validation error, 2 solver non-convergence,
3 bound violation found by verify.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bmo import bmo_norm, full_dyadic_depth, john_nirenberg_fit, lemma1_ratio, superlevel_masks
from .bounds import (
    BoundConfig,
    BoundReport,
    hs_upper,
    optimize_S,
    theorem1_upper,
    three_phase_refined,
    trivial_upper,
)
from .cell_solver import (
    SolverConfig,
    build_optimal_potential,
    constructive_value,
    oscillation_closed_form,
    solve_effective_tensor,
    traceless_hessian,
)
from .errors import ConfigError, ConvergenceError, GridFormatError
from .microstructure import VoxelGrid, empirical_phase_set, generate_random, load_grid
from .phases import PhaseSet, read_phase_config

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NO_CONVERGENCE = 2
EXIT_VIOLATION = 3

_SLACK_TOL = 1e-6  # relative slack below which a bound counts as violated


def _g(x) -> str:
    """12 significant digits, the regression-diff format used everywhere."""
    if x is None:
        return "-"
    return format(float(x), ".12g")


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a run."""

    command: str
    options: dict

    def to_json(self) -> str:
        return json.dumps({"command": self.command, "options": self.options}, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        data = json.loads(text)
        return cls(command=data["command"], options=data["options"])


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _save_manifest(manifest: RunManifest) -> None:
    out = manifest.options.get("out")
    if out:
        Path(str(out) + ".manifest.json").write_text(manifest.to_json())


def _bound_cfg(options: dict) -> BoundConfig:
    return BoundConfig(
        C=float(options.get("C", 1.0)),
        use_simplified_E=not options.get("full_E", False),
        S_search_points=int(options.get("search_points", 64)),
        S_tolerance=float(options.get("S_tolerance", 1e-6)),
    )


def _solver_cfg(options: dict) -> SolverConfig:
    return SolverConfig(
        relative_tolerance=float(options.get("tolerance", 1e-8)),
        max_iterations=int(options.get("max_iterations", 1000)),
    )


# ----------------------------------------------------------------- bounds

_BOUND_COLUMNS = ("bound", "value", "S", "H_term", "E_term", "L", "C")


def _bound_row(report: BoundReport) -> str:
    cells = (
        report.bound_name,
        _g(report.value),
        _g(report.S_used),
        _g(report.H_term),
        _g(report.E_term),
        _g(report.L_value),
        _g(report.C_used),
    )
    return f"{cells[0]:<22}" + "".join(f"{c:>20}" for c in cells[1:])


def run_bounds(options: dict) -> int:
    ps = read_phase_config(options["config"])
    cfg = _bound_cfg(options)
    reports = [trivial_upper(ps), hs_upper(ps)]
    s_opt = options.get("S", "opt")
    if s_opt not in (None, "opt"):
        reports.append(theorem1_upper(ps, float(s_opt), cfg))
    reports.append(optimize_S(ps, cfg))
    if ps.num_phases == 3:
        reports.append(three_phase_refined(ps, cfg))
    lines = [
        "# conducta bounds",
        f"config: {options['config']}",
        f"dimension: {ps.dimension}",
        "phases: " + " ".join(f"({_g(s)}, {_g(m)})" for s, m in zip(ps.conductivities, ps.fractions)),
        "note: theorem1 values are modulo the dimensional constant C",
        "",
        f"{'bound':<22}" + "".join(f"{c:>20}" for c in _BOUND_COLUMNS[1:]),
    ]
    lines.extend(_bound_row(r) for r in reports)
    _emit("\n".join(lines) + "\n", options.get("out"))
    return EXIT_OK


# ----------------------------------------------------------------- sweep

def run_sweep(options: dict) -> int:
    ps = read_phase_config(options["config"])
    if ps.num_phases != 3:
        raise ConfigError(f"sweep needs a 3-phase config, got {ps.num_phases} phases")
    cfg = _bound_cfg(options)
    s1, s2, s3 = ps.conductivities
    base = ps.fractions[0] + ps.fractions[1]
    m1, m2 = ps.fractions[0] / base, ps.fractions[1] / base
    two_phase = PhaseSet.from_pairs((s1, s2), (m1, m2), ps.dimension)
    hs2 = hs_upper(two_phase).value

    mu3_values = list(
        np.geomspace(float(options["mu3_max"]), float(options["mu3_min"]), int(options["points"]))
    )
    if options.get("include_zero", True):
        mu3_values.append(0.0)

    rows = ["mu3,trivial,hs,theorem1_opt,S_opt,two_phase_hs,gap"]
    for mu3 in mu3_values:
        if mu3 > 0.0:
            sub = PhaseSet.from_pairs((s1, s2, s3), (m1 * (1 - mu3), m2 * (1 - mu3), mu3), ps.dimension)
            gap = three_phase_refined(sub, cfg).value - hs2
        else:
            sub, gap = two_phase, 0.0
        opt = optimize_S(sub, cfg)
        rows.append(
            ",".join(
                _g(v)
                for v in (
                    mu3,
                    trivial_upper(sub).value,
                    hs_upper(sub).value,
                    opt.value,
                    opt.S_used,
                    hs2,
                    gap,
                )
            )
        )
    _emit("\n".join(rows) + "\n", options.get("out"))
    return EXIT_OK


# ----------------------------------------------------------------- solve

def _resolve_s_list(s_spec: str, ps: PhaseSet) -> list[float]:
    if s_spec == "auto":
        lo, hi = ps.inf_sigma, ps.sup_sigma
        return [lo, 0.5 * (lo + hi), hi]
    return [float(s) for s in s_spec.split(",")]


def run_solve(options: dict) -> int:
    grid = load_grid(options["grid"])
    tensor = solve_effective_tensor(grid, _solver_cfg(options))
    emp = empirical_phase_set(grid)
    cfg = _bound_cfg(options)
    s_values = _resolve_s_list(options.get("S") or "auto", emp)

    lines = [
        "# conducta solve",
        f"grid: {options['grid']}",
        f"dimension: {grid.dimension}",
        f"shape: {'x'.join(str(n) for n in grid.shape)}",
        "empirical phases: "
        + " ".join(f"({_g(s)}, {_g(m)})" for s, m in zip(emp.conductivities, emp.fractions)),
        "",
    ]
    for i in range(tensor.dimension):
        lines.append("A[%d,:] = %s" % (i, "  ".join(_g(v) for v in tensor.matrix[i])))
    lines.append(f"sigma_bar: {_g(tensor.sigma_bar)}")
    lines.append(f"iterations: {','.join(str(i) for i in tensor.iterations)}")
    lines.append(f"residuals: {','.join(_g(r) for r in tensor.residuals)}")
    lines.append(f"flux_discrepancy: {_g(tensor.flux_discrepancy)}")
    lines.append("")
    lines.append(f"{'S':>16}{'I1':>20}{'I2':>20}{'I2_positive':>20}{'constructive':>20}")
    for s in s_values:
        pf = build_optimal_potential(grid, s)
        lines.append(
            f"{_g(s):>16}{_g(pf.I1):>20}{_g(pf.I2):>20}{_g(pf.I2_positive_part):>20}{_g(constructive_value(pf)):>20}"
        )
    lines.append("")
    checks = [
        ("trivial", trivial_upper(emp).value, True),
        ("hashin_shtrikman", hs_upper(emp).value, True),
        (f"theorem1_opt(C={_g(cfg.C)})", optimize_S(emp, cfg).value, False),
    ]
    for name, bound, hard in checks:
        slack = (bound - tensor.sigma_bar) / bound
        status = "PASS" if slack >= -_SLACK_TOL else ("FAIL" if hard else "EXCEEDED(C-dependent)")
        lines.append(f"sigma_bar <= {name}: {status} (bound={_g(bound)}, slack={_g(slack)})")
    _emit("\n".join(lines) + "\n", options.get("out"))
    return EXIT_OK


# ----------------------------------------------------------------- verify

def _checked_corpus(command: str, options: dict) -> dict:
    """Options with the corpus flags validated and made integers.

    Parsed flags and replayed manifests both pass through here, so a
    hand-written manifest is held to the command line's limits.  The corpus
    needs ``count >= 1`` and ``num_phases`` in [1, 100]: _corpus_grid redraws
    the conductivities until every gap is at least 1e-3 of the range, which
    past about 100 phases practically never happens.  Raises ConfigError.
    """
    if command not in ("verify", "bmo"):
        return options
    k = _as_int(options.get("num_phases"))
    if k is None or not 1 <= k <= 100:
        raise ConfigError(f"--num-phases must be an integer in [1, 100], got {options.get('num_phases')!r}")
    count = _as_int(options.get("count"))
    if count is None or count < 1:
        raise ConfigError(f"--count must be an integer >= 1, got {options.get('count')!r}")
    return {**options, "num_phases": k, "count": count}


def _as_int(value) -> int | None:
    try:
        return int(str(value))  # through str, so 2.5 and True are rejected, not truncated
    except ValueError:
        return None


def _corpus_grid(seed: int, options: dict) -> VoxelGrid:
    """Corpus member ``seed``: a phase set drawn from the seed, then its random grid.

    Conductivities are redrawn until every gap is at least 1e-3 of the range.
    """
    dim = int(options["dim"])
    k = int(options["num_phases"])
    lo, hi = float(options["sigma_min"]), float(options["sigma_max"])
    rng = np.random.default_rng(seed)
    sig = np.sort(rng.uniform(lo, hi, k))
    while k > 1 and float(np.diff(sig).min()) < 1e-3 * (hi - lo):
        sig = np.sort(rng.uniform(lo, hi, k))
    ps = PhaseSet.from_pairs(sig, rng.dirichlet(np.ones(k)), dim)
    return generate_random(ps, (int(options["shape"]),) * dim, seed=seed, mode=options.get("mode", "iid"))


_VERIFY_HEADER = (
    "seed,k,sigma_bar,trivial,hs,constructive,theorem1_opt,S_opt,slack_trivial,slack_hs,slack_constructive,status"
)


def _verify_one(seed: int, options: dict) -> tuple[str, bool]:
    """CSV row of one corpus grid, and whether a hard bound was violated."""
    grid = _corpus_grid(seed, options)
    tensor = solve_effective_tensor(grid, _solver_cfg(options))
    emp = empirical_phase_set(grid)
    triv = trivial_upper(emp).value
    hs = hs_upper(emp).value
    opt = optimize_S(emp, _bound_cfg(options))
    mid_s = 0.5 * (emp.inf_sigma + emp.sup_sigma)
    constructive = constructive_value(build_optimal_potential(grid, mid_s))
    sb = tensor.sigma_bar
    slacks = [(bound - sb) / bound for bound in (triv, hs, constructive)]
    violated = min(slacks) < -_SLACK_TOL
    values = [sb, triv, hs, constructive, opt.value, opt.S_used] + slacks
    cells = [str(seed), str(emp.num_phases)] + [_g(v) for v in values]
    return ",".join(cells + ["VIOLATION" if violated else "ok"]), violated


def run_verify(options: dict) -> int:
    count = int(options["count"])
    base_seed = int(options["seed"])
    seeds = [base_seed + i for i in range(count)]
    workers = int(options.get("workers") or 1)  # manifests may record 0 for "one"
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda s: _verify_one(s, options), seeds))
    else:
        results = [_verify_one(s, options) for s in seeds]

    _emit("\n".join([_VERIFY_HEADER] + [row for row, _ in results]) + "\n", options.get("out"))

    violations = sum(violated for _, violated in results)
    print(
        f"verify: {count} grids, {violations} violation(s)"
        f" (theorem1 reported with C={_g(options.get('C', 1.0))}, not enforced)",
        file=sys.stderr,
    )
    if violations:
        manifest = RunManifest("verify", options)
        print("replay manifest for the failing batch:", file=sys.stderr)
        print(manifest.to_json(), file=sys.stderr, end="")
        return EXIT_VIOLATION
    return EXIT_OK


# ----------------------------------------------------------------- bmo

def _bmo_one(grid: VoxelGrid, label: str, s_spec: str, sample_levels: int) -> tuple[str, float]:
    emp = empirical_phase_set(grid)
    s = 0.5 * (emp.inf_sigma + emp.sup_sigma) if s_spec == "mid" else float(s_spec)
    pf = build_optimal_potential(grid, s)
    osc = float(pf.theta.max() - pf.theta.min())
    osc_closed = oscillation_closed_form(grid, s)
    if osc == 0.0:
        return f"{label:<14}{'degenerate':>12}" + f"{'-':>20}" * 6 + f"{_g(osc):>20}{_g(osc_closed):>20}", 0.0
    field = traceless_hessian(pf)
    depth = full_dyadic_depth(grid.shape)
    est = bmo_norm(field, depth, spatial_ndim=grid.dimension)
    fit = john_nirenberg_fit(field, est, sample_levels=sample_levels, spatial_ndim=grid.dimension)
    sigma_field = grid.conductivity_field()
    masks = superlevel_masks(sigma_field)
    ratios = [lemma1_ratio(field, m, bmo=est, spatial_ndim=grid.dimension) for _, m in masks]
    ratios.append(lemma1_ratio(field, np.ones(grid.shape, bool), bmo=est, spatial_ndim=grid.dimension))
    max_ratio = max(ratios)
    row = (
        f"{label:<14}{'ok':>12}{_g(est.norm_value):>20}{_g(fit.b):>20}{_g(fit.B):>20}"
        f"{_g(fit.max_violation):>20}{_g(max_ratio):>20}{_g(est.norm_value / osc):>20}"
        f"{_g(osc):>20}{_g(osc_closed):>20}"
    )
    return row, max_ratio


def run_bmo(options: dict) -> int:
    s_spec = str(options.get("S") or "mid")
    sample_levels = int(options.get("sample_levels", 48))
    grids: list[tuple[str, VoxelGrid]] = []
    if options.get("grid"):
        grids.append((Path(options["grid"]).name, load_grid(options["grid"])))
    else:
        seeds = range(int(options["seed"]), int(options["seed"]) + int(options["count"]))
        grids.extend((f"seed{seed}", _corpus_grid(seed, options)) for seed in seeds)

    header = (
        f"{'field':<14}{'status':>12}{'bmo_norm':>20}{'b':>20}{'B':>20}"
        f"{'max_violation':>20}{'max_lemma1':>20}{'norm/osc':>20}{'osc_theta':>20}{'osc_closed':>20}"
    )
    lines = ["# conducta bmo", f"S: {s_spec}", "", header]
    overall = 0.0
    for label, grid in grids:
        row, max_ratio = _bmo_one(grid, label, s_spec, sample_levels)
        lines.append(row)
        overall = max(overall, max_ratio)
    lines.append("")
    lines.append(f"recommended_C: {_g(overall * 1.1)}  # max lemma1 ratio with a 10% margin")
    _emit("\n".join(lines) + "\n", options.get("out"))
    return EXIT_OK


# ----------------------------------------------------------------- replay

_RUNNERS = {
    "bounds": run_bounds,
    "sweep": run_sweep,
    "solve": run_solve,
    "verify": run_verify,
    "bmo": run_bmo,
}


def run_replay(options: dict) -> int:
    manifest = RunManifest.from_json(Path(options["manifest"]).read_text())
    if manifest.command not in _RUNNERS:
        raise ConfigError(f"manifest has unknown command {manifest.command!r}")
    return _RUNNERS[manifest.command](_checked_corpus(manifest.command, manifest.options))


# ----------------------------------------------------------------- parser

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for solver failures
        raise ConfigError(message)


def _add_bound_flags(p):
    p.add_argument("--C", type=float, default=1.0, help="dimensional constant in the E term")
    p.add_argument("--full-E", dest="full_E", action="store_true", help="use the non-simplified E term")
    p.add_argument("--search-points", dest="search_points", type=int, default=64)
    p.add_argument("--S-tolerance", dest="S_tolerance", type=float, default=1e-6)


def _add_corpus_flags(p, count: int):
    # --count and --num-phases are converted and bounded by _checked_corpus
    p.add_argument("--count", default=count)
    p.add_argument("--shape", type=int, default=64)
    p.add_argument("--dim", type=int, default=2, choices=(2, 3))
    p.add_argument("--num-phases", dest="num_phases", default=2)
    p.add_argument("--sigma-min", dest="sigma_min", type=float, default=1.0)
    p.add_argument("--sigma-max", dest="sigma_max", type=float, default=5.0)
    p.add_argument("--mode", choices=("iid", "smooth"), default="iid")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> _Parser:
    parser = _Parser(prog="conducta", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="evaluate all closed-form bounds for a phase config")
    p.add_argument("--config", required=True)
    p.add_argument("--S", default="opt", help="shift parameter: a number, or 'opt' (default)")
    _add_bound_flags(p)
    p.add_argument("--out")

    p = sub.add_parser("sweep", help="mu3 -> 0 sweep for a 3-phase config (CSV)")
    p.add_argument("--config", required=True)
    p.add_argument("--mu3-max", dest="mu3_max", type=float, default=1e-1)
    p.add_argument("--mu3-min", dest="mu3_min", type=float, default=1e-6)
    p.add_argument("--points", type=int, default=6)
    p.add_argument("--no-zero-row", dest="include_zero", action="store_false")
    _add_bound_flags(p)
    p.add_argument("--out")

    p = sub.add_parser("solve", help="solve the cell problem for a grid file")
    p.add_argument("--grid", required=True)
    p.add_argument("--S", default="auto", help="comma-separated shifts, or 'auto' (inf, mid, sup)")
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.add_argument("--max-iterations", dest="max_iterations", type=int, default=1000)
    _add_bound_flags(p)
    p.add_argument("--out")

    p = sub.add_parser("verify", help="generate -> solve -> bound-check a seeded corpus (CSV)")
    _add_corpus_flags(p, count=20)
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.add_argument("--max-iterations", dest="max_iterations", type=int, default=1000)
    p.add_argument("--workers", type=int, default=1)
    _add_bound_flags(p)
    p.add_argument("--out")

    p = sub.add_parser("bmo", help="BMO / tail-fit report for a grid or a seeded corpus")
    p.add_argument("--grid")
    p.add_argument("--S", default="mid", help="shift parameter: a number, or 'mid'")
    _add_corpus_flags(p, count=6)
    p.add_argument("--sample-levels", dest="sample_levels", type=int, default=48)
    p.add_argument("--out")

    p = sub.add_parser("replay", help="re-run a saved manifest")
    p.add_argument("manifest")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        command = args.command
        options = {k: v for k, v in vars(args).items() if k != "command"}
        if command == "replay":
            return run_replay(options)
        options = _checked_corpus(command, options)
        manifest = RunManifest(command, options)
        _save_manifest(manifest)
        return _RUNNERS[command](options)
    except (ConfigError, GridFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
