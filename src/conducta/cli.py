"""Command-line front end: reproducible bound evaluations, sweeps, solves,
batch verification, and BMO reports.

Every run is determined by its manifest (command name plus canonical
options); rerunning a manifest reproduces output bodies byte for byte.
Exit codes: 0 success, 1 validation error, 2 solver non-convergence,
3 bound violation found by verify.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bmo import bmo_norm, lemma1_ratio
from .bounds import (
    BoundConfig,
    BoundReport,
    hs_upper,
    optimize_S,
    theorem1_upper,
    trivial_upper,
)
from .cell_solver import (
    build_optimal_potential,
    constructive_value,
    solve_effective_tensor,
    traceless_hessian,
)
from .errors import ConfigError, ConvergenceError
from .microstructure import VoxelGrid, generate_random, load_grid
from .phases import PhaseSet, oscillation_closed_form, read_phase_config, shifted_harmonic_L

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NO_CONVERGENCE = 2
EXIT_VIOLATION = 3

_SLACK_TOL = 1e-6  # relative slack below which a bound counts as violated
_VOXEL_BUDGET = 2**24  # largest corpus grid, checked before anything is allocated
_MAX_SWEEP_POINTS = 10**6  # 10**4 rows took 7.2 s and 924 KB, so this is already ~12 minutes and ~92 MB of text

# removed options, with the one value old manifests can replay byte for byte
_RETIRED_OPTIONS = {"search_points": 64, "S_tolerance": 1e-6, "sample_levels": 48, "include_zero": True,
                    "tolerance": 1e-8, "max_iterations": 1000}


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
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"manifest is not valid JSON: {exc}") from exc
        if not (isinstance(data, dict) and isinstance(data.get("command"), str)
                and isinstance(data.get("options"), dict)):
            raise ConfigError('manifest must be a JSON object with a string "command" and an object "options"')
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
    return BoundConfig(C=options["C"], use_simplified_E=not options["full_E"])


def _representable(report: BoundReport, row: str = "") -> BoundReport:
    """``report`` itself; ValueError naming the bound, S and ``row`` if its value overflowed.

    H is a weighted mean of finite conductivities, so only E can overflow.
    """
    if not math.isfinite(report.value):
        raise ValueError(
            f"{report.bound_name} at S = {_g(report.S_used)}{row} is not representable:"
            f" its E term overflows to {_g(report.E_term)}"
        )
    return report


def _shift(text: str) -> float:
    """The shift parameter S written as ``text``; ConfigError unless finite and positive."""
    try:
        s = float(text)
    except ValueError:
        raise ConfigError(f"S must be finite and positive, got {text!r}") from None
    if not 0.0 < s < math.inf:
        raise ConfigError(f"S must be finite and positive, got {s}")
    return s


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
    s = None if options["S"] == "opt" else _shift(options["S"])
    ps = read_phase_config(options["config"])
    cfg = _bound_cfg(options)
    reports = [trivial_upper(ps), hs_upper(ps)]
    if s is not None:
        reports.append(theorem1_upper(ps, s, cfg))
    reports.append(optimize_S(ps, cfg))
    if ps.num_phases == 3:  # the three-phase refinement: theorem 1 at sigma_2, simplified E even under --full-E
        reports.append(theorem1_upper(ps, ps.conductivities[1], BoundConfig(C=cfg.C)))
    for r in reports:
        _representable(r)
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
    _emit("\n".join(lines) + "\n", options["out"])
    return EXIT_OK


# ----------------------------------------------------------------- sweep

def run_sweep(options: dict) -> int:
    if not 1 <= options["points"] <= _MAX_SWEEP_POINTS:
        raise ConfigError(f"--points must be an integer in [1, {_MAX_SWEEP_POINTS}], got {options['points']!r}")
    ps = read_phase_config(options["config"])
    if ps.num_phases != 3:
        raise ConfigError(f"sweep needs a 3-phase config, got {ps.num_phases} phases")
    cfg = _bound_cfg(options)
    lo, hi = options["mu3_min"], options["mu3_max"]
    if not sys.float_info.min <= lo <= hi < 1.0:  # a subnormal is not the value its flag names: 1e-320 is 9.99988867183e-321
        raise ConfigError(
            f"--mu3-min and --mu3-max must satisfy {sys.float_info.min!r} <= mu3_min <= mu3_max < 1,"
            f" got {lo!r} and {hi!r}"
        )
    s1, s2, s3 = ps.conductivities
    base = ps.fractions[0] + ps.fractions[1]
    m1, m2 = ps.fractions[0] / base, ps.fractions[1] / base
    two_phase = PhaseSet.from_pairs((s1, s2), (m1, m2), ps.dimension)
    hs2 = hs_upper(two_phase).value
    gap_cfg = BoundConfig(C=cfg.C)  # the gap keeps the simplified E under --full-E

    mu3_values = list(np.geomspace(hi, lo, options["points"])) + [0.0]

    rows = ["mu3,trivial,hs,theorem1_opt,S_opt,two_phase_hs,gap"]
    for mu3 in mu3_values:
        # at mu3 = 0 from_pairs drops the third phase: theorem 1 at the two-phase sup is HS2, and the gap 0
        sub = PhaseSet.from_pairs((s1, s2, s3), (m1 * (1 - mu3), m2 * (1 - mu3), mu3), ps.dimension)
        gap = _representable(theorem1_upper(sub, s2, gap_cfg), f" on the mu3 = {_g(mu3)} row").value - hs2
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
    _emit("\n".join(rows) + "\n", options["out"])
    return EXIT_OK


# ----------------------------------------------------------------- solve

def _resolve_s_list(s_spec: str, ps: PhaseSet) -> list[float]:
    if s_spec == "auto":
        lo, hi = ps.inf_sigma, ps.sup_sigma
        return [lo, 0.5 * (lo + hi), hi]
    shifts = [_shift(s) for s in s_spec.split(",")]
    for s in shifts:
        shifted_harmonic_L(ps, s)  # ValueError when sup sigma + (n-1) S overflows
    return shifts


def run_solve(options: dict) -> int:
    grid = load_grid(options["grid"])
    emp = grid.phase_set
    cfg = _bound_cfg(options)  # every flag is checked before the solve
    s_values = _resolve_s_list(options["S"], emp)
    tensor = solve_effective_tensor(grid)

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
        del pf  # one potential alive at a time: the next is built after this one's arrays are freed
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
    _emit("\n".join(lines) + "\n", options["out"])
    return EXIT_OK


# ----------------------------------------------------------------- verify

# the corpus flags and the type _checked_corpus parses each into
_CORPUS_KINDS = {
    "dim": int, "shape": int, "num_phases": int, "count": int, "seed": int, "sigma_min": float, "sigma_max": float,
}


def _checked_corpus(command: str, options: dict) -> dict:
    """Options with the corpus flags validated and made numbers.

    The parser leaves these flags as text, so parsed flags and replayed
    manifests both pass through here, and a hand-written manifest is held to
    the command line's limits.  The corpus needs ``dim >= 2``, a power-of-two
    ``shape >= 2`` with ``dim**2 * shape**dim <= 9 * _VOXEL_BUDGET`` (the solve
    keeps dim**2 gradient fields; checked before any array exists),
    ``count >= 1``, ``num_phases`` in [1, 100] (_corpus_grid redraws the
    conductivities until every gap is at least 1e-3 of the range, which past
    about 100 phases practically never happens, and with 3 or more phases never
    on a range of a few ulps), an integer ``seed`` and a finite conductivity
    range with ``2.2250738585072014e-308 <= sigma_min <= sigma_max``, so every
    drawn phase is a normal double, as PhaseSet requires.
    Raises ConfigError.
    """
    if command not in ("verify", "bmo"):
        return options
    checked = {key: _parsed(kind, options.get(key)) for key, kind in _CORPUS_KINDS.items()}
    dim, shape, k, count = checked["dim"], checked["shape"], checked["num_phases"], checked["count"]
    if dim is None or dim < 2:
        raise ConfigError(f"--dim must be an integer >= 2, got {options.get('dim')!r}")
    if shape is None or shape < 2 or shape & (shape - 1):
        raise ConfigError(f"--shape must be a power of two >= 2, got {options.get('shape')!r}")
    if dim > 24 or dim * dim * shape**dim > 9 * _VOXEL_BUDGET:  # shape >= 2: past 24 axes over budget, no power formed
        raise ConfigError(f"--shape {shape} in {dim}D exceeds the budget of dim^2 * voxels <= {9 * _VOXEL_BUDGET}")
    if k is None or not 1 <= k <= 100:
        raise ConfigError(f"--num-phases must be an integer in [1, 100], got {options.get('num_phases')!r}")
    if count is None or count < 1:
        raise ConfigError(f"--count must be an integer >= 1, got {options.get('count')!r}")
    if checked["seed"] is None:
        raise ConfigError(f"--seed must be an integer, got {options.get('seed')!r}")
    lo, hi = checked["sigma_min"], checked["sigma_max"]
    if lo is None or hi is None or not (math.isfinite(lo) and math.isfinite(hi) and sys.float_info.min <= lo <= hi):
        raise ConfigError(
            f"--sigma-min and --sigma-max must be finite with {sys.float_info.min!r} <= sigma_min <= sigma_max,"
            f" got {options.get('sigma_min')!r} and {options.get('sigma_max')!r}"
        )
    if k >= 3 and lo < hi and 1e-3 * (hi - lo) < 2**10 * math.ulp(hi):
        raise ConfigError(
            f"--sigma-min and --sigma-max must be equal, or 1e-3 of the range at least 2**10 ulps of sigma_max,"
            f" for {k} phases; got {options.get('sigma_min')!r} and {options.get('sigma_max')!r}"
        )
    return {**options, **checked}


def _parsed(kind, value):
    """``kind`` (int or float) parsed from ``str(value)``, or None; through str,
    so True is rejected rather than read as 1, and int rejects 2.5 rather than truncating."""
    try:
        return kind(str(value))
    except ValueError:
        return None


def _corpus_grid(seed: int, options: dict) -> VoxelGrid:
    """Corpus member ``seed``: a phase set drawn from the seed, then its random grid.

    Conductivities are redrawn until every gap is at least 1e-3 of the range.
    """
    dim, k = options["dim"], options["num_phases"]
    lo, hi = options["sigma_min"], options["sigma_max"]
    rng = np.random.default_rng(seed)
    sig = np.sort(rng.uniform(lo, hi, k))
    while k > 1 and float(np.diff(sig).min()) < 1e-3 * (hi - lo):
        sig = np.sort(rng.uniform(lo, hi, k))
    ps = PhaseSet.from_pairs(sig, rng.dirichlet(np.ones(k)), dim)
    return generate_random(ps, (options["shape"],) * dim, seed=seed, mode=options["mode"])


_VERIFY_HEADER = (
    "seed,k,sigma_bar,trivial,hs,constructive,theorem1_opt,S_opt,slack_trivial,slack_hs,slack_constructive,status"
)


def _verify_one(seed: int, options: dict, bound_cfg: BoundConfig) -> tuple[str, bool]:
    """CSV row of one corpus grid, and whether a hard bound was violated."""
    grid = _corpus_grid(seed, options)
    tensor = solve_effective_tensor(grid)
    emp = grid.phase_set
    triv = trivial_upper(emp).value
    hs = hs_upper(emp).value
    opt = optimize_S(emp, bound_cfg)
    mid_s = 0.5 * (emp.inf_sigma + emp.sup_sigma)
    constructive = constructive_value(build_optimal_potential(grid, mid_s))
    sb = tensor.sigma_bar
    slacks = [(bound - sb) / bound for bound in (triv, hs, constructive)]
    violated = min(slacks) < -_SLACK_TOL
    values = [sb, triv, hs, constructive, opt.value, opt.S_used] + slacks
    cells = [str(seed), str(emp.num_phases)] + [_g(v) for v in values]
    return ",".join(cells + ["VIOLATION" if violated else "ok"]), violated


def run_verify(options: dict) -> int:
    count, base_seed = options["count"], options["seed"]
    bound_cfg = _bound_cfg(options)  # checked before the first grid
    results = [_verify_one(base_seed + i, options, bound_cfg) for i in range(count)]

    _emit("\n".join([_VERIFY_HEADER] + [row for row, _ in results]) + "\n", options["out"])

    violations = sum(violated for _, violated in results)
    print(
        f"verify: {count} grids, {violations} violation(s)"
        f" (theorem1 reported with C={_g(options['C'])}, not enforced)",
        file=sys.stderr,
    )
    if violations:
        manifest = RunManifest("verify", options)
        print("replay manifest for the failing batch:", file=sys.stderr)
        print(manifest.to_json(), file=sys.stderr, end="")
        return EXIT_VIOLATION
    return EXIT_OK


# ----------------------------------------------------------------- bmo

def _bmo_one(grid: VoxelGrid, label: str, s: float | None) -> tuple[str, float]:
    """Report row of one grid at shift ``s`` (None: the grid's mid conductivity), and its Lemma-1 ratio."""
    emp = grid.phase_set
    if s is None:
        s = 0.5 * (emp.inf_sigma + emp.sup_sigma)
    pf = build_optimal_potential(grid, s)
    osc = float(pf.theta.max() - pf.theta.min())
    osc_closed = oscillation_closed_form(emp, s)
    # 2D: the row [a, b] of [[a, b], [b, -a]] gives the full stack's norm
    # and half its Frobenius mass 2 (a^2 + b^2); n >= 3: all n^2 components, the
    # norm a max over the upper triangle's rows T_ii..T_in, since T_ji = T_ij
    two_d = grid.dimension == 2
    field, mass_factor = traceless_hessian(pf, first_row=two_d), (2.0 if two_d else 1.0)
    del pf  # theta and p_hat are not read again
    if two_d:
        est = bmo_norm(field, spatial_ndim=2)
    else:
        est = max(bmo_norm(field[i, i:], spatial_ndim=grid.dimension) for i in range(grid.dimension))
    # a homogeneous grid, or a theta with only Nyquist content, which p drops
    if est == 0.0:
        return f"{label:<14}{'degenerate':>12}" + f"{'-':>20}" * 6 + f"{_g(osc):>20}{_g(osc_closed):>20}", 0.0
    # level labels from a uint8 rank table of the k <= 255 conductivities, gathered by phase_index:
    # equal conductivities share a rank, ordered as the conductivities, one byte a voxel
    ranks = np.unique(grid.phase_conductivities, return_inverse=True)[1].astype(np.uint8)
    labels = np.take(ranks, grid.phase_index)
    max_ratio = mass_factor * lemma1_ratio(field, labels, est, spatial_ndim=grid.dimension)
    # b, B and max_violation are not computed (no John-Nirenberg fit): their columns print "-"
    row = (
        f"{label:<14}{'ok':>12}{_g(est):>20}" + f"{'-':>20}" * 3
        + f"{_g(max_ratio):>20}{_g(est / osc):>20}{_g(osc):>20}{_g(osc_closed):>20}"
    )
    return row, max_ratio


def run_bmo(options: dict) -> int:
    s_spec = options["S"]
    s = None if s_spec == "mid" else _shift(s_spec)  # checked before any grid is read or drawn
    if options["grid"]:
        sources = [(Path(options["grid"]).name, functools.partial(load_grid, options["grid"]))]
    else:
        if s is not None:  # every drawn grid has sup sigma >= sigma_min, so an overflow fails here, before any draw
            shifted_harmonic_L(PhaseSet((options["sigma_min"],), (1.0,), options["dim"]), s)
        seeds = range(options["seed"], options["seed"] + options["count"])
        sources = [(f"seed{seed}", functools.partial(_corpus_grid, seed, options)) for seed in seeds]

    header = (
        f"{'field':<14}{'status':>12}{'bmo_norm':>20}{'b':>20}{'B':>20}"
        f"{'max_violation':>20}{'max_lemma1':>20}{'norm/osc':>20}{'osc_theta':>20}{'osc_closed':>20}"
    )
    lines = ["# conducta bmo", f"S: {s_spec}", "", header]
    overall = 0.0
    for label, make_grid in sources:  # one grid alive at a time
        row, max_ratio = _bmo_one(make_grid(), label, s)
        lines.append(row)
        overall = max(overall, max_ratio)
    lines.append("")
    lines.append(f"recommended_C: {_g(overall * 1.1)}  # max lemma1 ratio with a 10% margin")
    _emit("\n".join(lines) + "\n", options["out"])
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
    command, recorded = manifest.command, manifest.options
    if command not in _RUNNERS:
        raise ConfigError(f"manifest has unknown command {command!r}")
    for key in sorted(_RETIRED_OPTIONS.keys() & recorded.keys()):
        value, fixed = recorded[key], _RETIRED_OPTIONS[key]
        if type(value) is not type(fixed) or value != fixed:  # 1 is not true, nor 64.0 the int 64
            raise ConfigError(f"manifest records the removed option {key}={value!r}; only {fixed!r} replays")
    actions = build_parser()._option_actions[command]
    unknown = sorted(recorded.keys() - actions.keys() - _RETIRED_OPTIONS.keys())
    if unknown:
        raise ConfigError(f"{command} manifest records unknown option(s) {', '.join(unknown)}")
    # every option the runner reads must be recorded; the hidden --workers, which it does not read, may be absent
    missing = sorted(key for key, a in actions.items() if key not in recorded and a.help != argparse.SUPPRESS)
    if missing:
        raise ConfigError(f"{command} manifest lacks option(s) {', '.join(missing)}")
    for key, action in sorted(actions.items()):
        if key in recorded and key not in _CORPUS_KINDS and not _fits(action, recorded[key]):
            raise ConfigError(f"manifest records {key}={recorded[key]!r}, a value {action.option_strings[0]} cannot take")
    return _RUNNERS[command](_checked_corpus(command, recorded))


def _fits(action: argparse.Action, value) -> bool:
    """Whether ``value`` is one the parser can produce for ``action``."""
    if value is None:
        return action.default is None and not action.required
    if action.nargs == 0:  # a switch
        return isinstance(value, bool)
    if action.type is not None:  # int or float; an int is also a valid float
        return not isinstance(value, bool) and isinstance(value, (int, action.type))
    return isinstance(value, str) and (action.choices is None or value in action.choices)


# ----------------------------------------------------------------- parser

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for solver failures
        raise ConfigError(message)


def _add_bound_flags(p):
    p.add_argument("--C", type=float, default=1.0, help="dimensional constant in the E term")
    p.add_argument("--full-E", dest="full_E", action="store_true", help="use the non-simplified E term")


def _add_corpus_flags(p, count: int):
    # all but --mode stay text here: _checked_corpus converts and bounds them
    p.add_argument("--count", default=count)
    p.add_argument("--shape", default=64)
    p.add_argument("--dim", default=2)
    p.add_argument("--num-phases", dest="num_phases", default=2)
    p.add_argument("--sigma-min", dest="sigma_min", default=1.0)
    p.add_argument("--sigma-max", dest="sigma_max", default=5.0)
    p.add_argument("--mode", choices=("iid", "smooth"), default="iid")
    p.add_argument("--seed", default=0)


@functools.cache  # one parser per process: main and run_replay both read it
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
    _add_bound_flags(p)
    p.add_argument("--out")

    p = sub.add_parser("solve", help="solve the cell problem for a grid file")
    p.add_argument("--grid", required=True)
    p.add_argument("--S", default="auto", help="comma-separated shifts, or 'auto' (inf, mid, sup)")
    _add_bound_flags(p)
    p.add_argument("--out")

    p = sub.add_parser("verify", help="generate -> solve -> bound-check a seeded corpus (CSV)")
    _add_corpus_flags(p, count=20)
    # no effect: kept so that existing scripts passing --workers still parse
    p.add_argument("--workers", type=int, default=1, help=argparse.SUPPRESS)
    _add_bound_flags(p)
    p.add_argument("--out")

    p = sub.add_parser("bmo", help="BMO / Lemma-1 report")
    p.add_argument("--grid")
    p.add_argument("--S", default="mid", help="shift parameter: a number, or 'mid'")
    _add_corpus_flags(p, count=6)
    p.add_argument("--out")

    p = sub.add_parser("replay", help="re-run a saved manifest")
    p.add_argument("manifest")

    # every option of each command, the hidden --workers included, so replay can name an unknown,
    # missing or ill-typed one
    parser._option_actions = {
        name: {a.dest: a for a in cmd._actions if a.dest != "help"}
        for name, cmd in sub.choices.items()
    }
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
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, OSError) as exc:  # ConfigError and GridFormatError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
