import argparse
import importlib.util
import json
import math
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conducta import cell_solver, cli
from conducta.bounds import theorem1_upper
from conducta.cli import build_parser, main
from conducta.microstructure import VoxelGrid, generate_laminate, generate_random, save_grid
from conducta.phases import PhaseSet

from conftest import hessian_and_laplacian, peak_traced_bytes

THREE_CFG = """dimension = 3
phase = 1.0 0.4
phase = 2.0 0.4
phase = 5.0 0.2
"""

SINGLE_CFG = """dimension = 3
phase = 3.0 1.0
"""


@pytest.fixture
def three_cfg(tmp_path):
    p = tmp_path / "three.cfg"
    p.write_text(THREE_CFG)
    return str(p)


class TestBoundsCommand:
    def test_three_phase_table(self, three_cfg, capsys):
        assert main(["bounds", "--config", three_cfg]) == 0
        out = capsys.readouterr().out
        assert "trivial" in out and "2.2" in out
        assert "2.04379562044" in out          # hashin_shtrikman
        # the three-phase refinement, last: theorem 1 at S = sigma_2
        assert out.splitlines()[-1].split()[:3] == ["theorem1", "3.05277000867", "2"]
        assert "modulo the dimensional constant C" in out

    def test_three_phase_row_is_theorem1_at_sigma_2(self, three_cfg, capsys):
        # the sigma_2 row kept the E of earlier releases, 2.70546857999 here, whatever the optimizer row used
        assert main(["bounds", "--config", three_cfg, "--C", "0.3"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines() if line.startswith("theorem1")]
        assert [row[0] for row in rows] == ["theorem1", "theorem1"]  # optimizer, then S = sigma_2
        r = theorem1_upper(PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), 3), 2.0, 0.3)
        assert rows[1][1:] == [cli._g(v) for v in (r.value, 2.0, r.H_term, r.E_term, r.L_value, 0.3)]

    def test_single_phase_all_columns_equal_sigma(self, tmp_path, capsys):
        p = tmp_path / "one.cfg"
        p.write_text(SINGLE_CFG)
        assert main(["bounds", "--config", str(p)]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if line.startswith(("trivial", "hashin", "theorem1")):
                assert line.split()[1] == "3"

    def test_user_S_row(self, three_cfg, capsys):
        assert main(["bounds", "--config", three_cfg, "--S", "2.0"]) == 0
        out = capsys.readouterr().out
        rows = [line.split() for line in out.splitlines() if line.startswith("theorem1")]
        # user S row and optimizer row; the S = sigma_2 row would repeat the user's
        assert [(row[0], row[2]) for row in rows] == [("theorem1", "2"), ("theorem1", "5")]

    def test_huge_user_S_row_is_the_arithmetic_mean(self, three_cfg, capsys):
        # H = -(n-1) S + L cancelled every digit: the row printed -2.97403381696e+284
        assert main(["bounds", "--config", three_cfg, "--S", "1e300"]) == 0
        (row,) = [line.split() for line in capsys.readouterr().out.splitlines() if "1e+300" in line]
        assert row[:5] == ["theorem1", "2.2", "1e+300", "2.2", "0"]

    def test_malformed_fractions_exit_one(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("dimension = 3\nphase = 1 0.5\nphase = 2 0.4\n")
        assert main(["bounds", "--config", str(p)]) == 1
        assert "sum to 1" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["inf", "nan", "1e-310"])
    def test_non_finite_conductivity_named(self, sigma, tmp_path, capsys):
        # phase = inf 0.5 exited 1 with "S must be finite and nonnegative, got inf";
        # phases (1e-310, 0.5) (2e-310, 0.5) printed hashin_shtrikman 0 and exited 0
        p = tmp_path / "inf.cfg"
        p.write_text(f"dimension = 2\nphase = {sigma} 0.5\nphase = 1 0.5\n")
        assert main(["bounds", "--config", str(p)]) == 1
        assert capsys.readouterr().err == f"error: conductivity must be finite and positive, got {sigma}\n"

    def test_huge_contrast_hs_finite_with_zero_E(self, tmp_path, capsys):
        # squaring osc before dividing printed "hashin_shtrikman nan" and "theorem1 inf"
        p = tmp_path / "huge.cfg"
        p.write_text("dimension = 2\nphase = 1 0.5\nphase = 1e200 0.5\n")
        assert main(["bounds", "--config", str(p)]) == 0
        rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines() if line[:1].isalpha()}
        assert rows["hashin_shtrikman"][1] == "3.33333333333e+199"
        assert rows["hashin_shtrikman"][4] == "0"
        assert rows["theorem1"][1] == "3.33333333333e+199"
        # the optimize_S scan point sup * k / 64 overflowed from k = 9 on:
        # "S must be finite and nonnegative, got inf", an S nobody gave
        p.write_text("dimension = 2\nphase = 1e307 0.5\nphase = 2e307 0.5\n")
        assert main(["bounds", "--config", str(p)]) == 0
        rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines() if line[:1].isalpha()}
        assert rows["hashin_shtrikman"][1] == "1.42857142857e+307"
        assert rows["trivial"][1] == "1.5e+307"
        assert rows["theorem1"][1:5] == ["1.42857142857e+307", "2e+307", "1.42857142857e+307", "0"]

    @pytest.mark.parametrize("text, message", [
        ("dimension = 2\nphase 1 1\n", "line 2: expected 'key = value'"),
        ("dimension = two\nphase = 1 1\n", "line 1: dimension must be an integer, got 'two'"),
        ("dimension = 2\n\nphase = 1 0.5 7\n", "line 3: phase needs 'sigma mu', got '1 0.5 7'"),
        ("# no phases\ndimension = 2\n", "no 'phase' lines found"),
    ])
    def test_malformed_config_exit_one(self, text, message, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text(text)
        assert main(["bounds", "--config", str(p)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_overflowing_E_term_exits_one(self, tmp_path, capsys):
        # printed the sigma_2 row's value inf with E_term inf and exited 0: E at
        # S = sigma_2 is (osc theta / n)^2 = 54.5^2 times a tail of 1.02e306 here, about 3e309
        p = tmp_path / "huge.cfg"
        p.write_text("dimension = 3\nphase = 1 0.01\nphase = 2 0.01\nphase = 1e306 0.98\n")
        assert main(["bounds", "--config", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: theorem1 at S = 2 is not representable: its E term overflows to inf\n"

    def test_shift_parsed_before_config(self, three_cfg, monkeypatch, capsys):
        # --S x printed numpy's "could not convert string to float: 'x'"
        reads = []
        monkeypatch.setattr(cli, "read_phase_config", lambda path: reads.append(path))
        assert main(["bounds", "--config", three_cfg, "--S", "x"]) == 1
        assert capsys.readouterr().err == "error: S must be finite and positive, got 'x'\n"
        assert reads == []

    def test_unknown_flag_exit_one(self, three_cfg, capsys):
        assert main(["bounds", "--config", three_cfg, "--bogus"]) == 1

    def test_writes_manifest_next_to_out(self, three_cfg, tmp_path):
        out = tmp_path / "report.txt"
        assert main(["bounds", "--config", three_cfg, "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "report.txt.manifest.json").read_text())
        assert manifest["command"] == "bounds"
        assert manifest["options"]["config"] == three_cfg


class TestSweepCommand:
    def test_csv_columns_and_gap(self, three_cfg, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", three_cfg, "--mu3-max", "0.1",
                     "--mu3-min", "0.001", "--points", "3", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mu3,trivial,hs,theorem1_opt,S_opt,two_phase_hs,gap"
        rows = [line.split(",") for line in lines[1:]]
        gaps = [float(r[-1]) for r in rows]
        # strictly decreasing along the sweep, zero at the mu3 = 0 row
        assert all(b < a for a, b in zip(gaps[:-1], gaps[1:-1]))
        assert float(rows[-1][0]) == 0.0
        assert gaps[-1] == 0.0
        # Milton discontinuity: the 3-phase hs column does not approach the
        # 2-phase value even as mu3 -> 0
        last_nonzero = rows[-2]
        assert abs(float(last_nonzero[2]) - float(last_nonzero[5])) > 1e-3

    def test_huge_third_phase_bounds_stay_finite(self, tmp_path, capsys):
        # osc sigma^2 overflows here: squared before dividing, every mu3 > 0 row
        # printed hs nan and theorem1_opt inf
        p = tmp_path / "huge.cfg"
        p.write_text("dimension = 3\nphase = 1e150 0.4\nphase = 2e150 0.4\nphase = 1e200 0.2\n")
        assert main(["sweep", "--config", str(p), "--points", "3"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 4
        for row in rows:
            assert all(math.isfinite(float(v)) for v in row.split(","))

    def test_overflowing_gap_exits_one(self, tmp_path, capsys):
        # printed inf in every mu3 > 0 gap cell and exited 0, where bounds on
        # the same config exits 1
        p = tmp_path / "huge.cfg"
        p.write_text("dimension = 3\nphase = 1 0.4\nphase = 100 0.4\nphase = 1000 0.2\n")
        assert main(["sweep", "--config", str(p), "--C", "1e308"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: theorem1 at S = 100 on the mu3 = 0.1 row is not representable:"
            " its E term overflows to inf\n"
        )
        assert main(["bounds", "--config", str(p), "--C", "1e308"]) == 1
        assert capsys.readouterr().err == (
            "error: theorem1 at S = 100 is not representable: its E term overflows to inf\n"
        )

    @pytest.mark.parametrize("points", ["-2", "0"])
    def test_points_at_least_one(self, points, three_cfg, capsys):
        # -2 exited 1 with numpy's "Number of samples, -2, must be non-negative",
        # 0 exited 0 with no sweep row
        assert main(["sweep", "--config", three_cfg, "--points", points]) == 1
        assert capsys.readouterr().err == f"error: --points must be an integer in [1, 1000000], got {points}\n"

    @pytest.mark.parametrize("points", ["1000001", "1000000000000"])
    def test_points_at_most_a_million(self, points, three_cfg, monkeypatch, capsys):
        # 10**12 crashed in np.geomspace with numpy's _ArrayMemoryError (7.28 TiB)
        reads = []
        monkeypatch.setattr(cli, "read_phase_config", lambda path: reads.append(path))
        assert main(["sweep", "--config", three_cfg, "--points", points]) == 1
        assert capsys.readouterr().err == f"error: --points must be an integer in [1, 1000000], got {points}\n"
        assert reads == []

    @pytest.mark.parametrize("points", [-2, 0, 10**12])
    def test_replayed_points_at_least_one(self, points, three_cfg, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", three_cfg, "--points", "2", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        manifest["options"]["points"] = points
        out.unlink()
        path = tmp_path / "edited.manifest.json"
        path.write_text(json.dumps(manifest))
        assert main(["replay", str(path)]) == 1
        assert "--points must be an integer in [1, 1000000]" in capsys.readouterr().err and not out.exists()

    def test_replayed_subnormal_mu3_min_is_refused(self, three_cfg, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", three_cfg, "--points", "2", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        manifest["options"]["mu3_min"] = 1e-320
        out.unlink()
        path = tmp_path / "edited.manifest.json"
        path.write_text(json.dumps(manifest))
        assert main(["replay", str(path)]) == 1
        assert "--mu3-min and --mu3-max must satisfy" in capsys.readouterr().err and not out.exists()

    def test_rejects_two_phase_config(self, tmp_path, capsys):
        p = tmp_path / "two.cfg"
        p.write_text("dimension = 2\nphase = 1 0.5\nphase = 4 0.5\n")
        assert main(["sweep", "--config", str(p)]) == 1
        assert "3-phase" in capsys.readouterr().err


class TestSolveCommand:
    def test_laminate_report(self, tmp_path, capsys):
        ps = PhaseSet.from_pairs((1.0, 4.0), (0.5, 0.5), 2)
        grid_path = tmp_path / "lam.cnda"
        save_grid(generate_laminate(ps, 0, (64, 64)), grid_path)
        assert main(["solve", "--grid", str(grid_path)]) == 0
        out = capsys.readouterr().out
        assert "sigma_bar: 2.05" in out
        assert "A[0,:] = 1.6" in out          # anisotropic eigenvalues visible
        assert "PASS" in out and "FAIL" not in out

    def test_bad_magic_exit_one(self, tmp_path, capsys):
        p = tmp_path / "junk.cnda"
        p.write_bytes(b"JUNKJUNKJUNK")
        assert main(["solve", "--grid", str(p)]) == 1
        assert "magic" in capsys.readouterr().err

    def test_non_finite_conductivity_in_grid_file_exit_one(self, tmp_path, capsys):
        # an inf in the table ran 1000 NaN CG iterations and exited 2 with "residual nan"
        p = tmp_path / "inf.cnda"
        save_grid(generate_laminate(PhaseSet.from_pairs((1.0, 4.0), (0.5, 0.5), 2), 0, (8, 8)), p)
        raw = bytearray(p.read_bytes())
        raw[24:32] = np.array([np.inf], "<f8").tobytes()  # the second conductivity
        p.write_bytes(bytes(raw))
        assert main(["solve", "--grid", str(p)]) == 1
        assert "conductivities must be finite and positive, got inf" in capsys.readouterr().err

    def test_subnormal_conductivity_in_grid_file_exit_one(self, tmp_path, capsys):
        # (5e-324, 1e-323) was a ZeroDivisionError traceback: every bound was 0
        p = tmp_path / "tiny.cnda"
        save_grid(VoxelGrid(np.random.default_rng(0).integers(0, 2, (16, 16)).astype(np.uint8), (1.0, 2.0)), p)
        raw = bytearray(p.read_bytes())
        raw[16:32] = np.array([5e-324, 1e-323], "<f8").tobytes()  # the table, after the 8-byte header and 2D shape
        p.write_bytes(bytes(raw))
        assert main(["solve", "--grid", str(p)]) == 1
        assert capsys.readouterr().err == f"error: {p}: conductivities must be finite and positive, got 5e-324\n"

    def test_top_of_the_range_reports_the_unit_scale_digits(self, tmp_path, capsys):
        # (1e307, 2e307) finished the solve, then exited 1: the potential's I1
        # sum overflowed, and past it the optimize_S scan point sup * k / 64
        idx = np.random.default_rng(0).integers(0, 2, (32, 32)).astype(np.uint8)
        outs = []
        for lo in (1.0, 2.0**1019, 1e307):
            p = tmp_path / "g.cnda"
            save_grid(VoxelGrid(idx, (lo, 2 * lo)), p)
            assert main(["solve", "--grid", str(p)]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outs.append(captured.out.splitlines())
        number = r"(?<![\w.])-?\d+(?:\.\d*)?(?:e[-+]\d+)?"
        for unit, big in zip(*outs[:2], strict=True):
            if unit.startswith(("#", "grid", "dimension", "shape", "iterations", "residuals")):
                assert big == unit
                continue
            assert re.sub(number, "#", big).split() == re.sub(number, "#", unit).split()
            fields = [[float(v) for v in re.findall(number, line.split(":", 1)[-1])] for line in (unit, big)]
            # phase fractions and slacks do not scale; every other number is a conductivity
            free = {1, 3} if unit.startswith("empirical") else {1} if unit.startswith("sigma_bar <=") else set()
            for i, (u, b) in enumerate(zip(*fields, strict=True)):
                assert b == pytest.approx(u if i in free else math.ldexp(u, 1019), rel=5e-11)

    def test_each_quadrature_evaluated_once_per_shift(self, tmp_path, monkeypatch, capsys):
        potentials, i1_fields, i2_calls = [], [], []
        build, i1, i2 = cli.build_optimal_potential, cell_solver._i1_quadrature, cell_solver._i2_quadrature

        def spy_build(grid, s):
            potentials.append(build(grid, s))
            return potentials[-1]

        def spy_i1(sigma, lap, n, S):
            i1_fields.append(lap)
            return i1(sigma, lap, n, S)

        def spy_i2(sigma, q, n, S):
            i2_calls.append(S)
            return i2(sigma, q, n, S)

        monkeypatch.setattr(cli, "build_optimal_potential", spy_build)
        monkeypatch.setattr(cell_solver, "_i1_quadrature", spy_i1)
        monkeypatch.setattr(cell_solver, "_i2_quadrature", spy_i2)
        assert main(["solve", "--grid", small_grid(tmp_path), "--S", "1,2,3"]) == 0
        assert [pf.S for pf in potentials] == [1.0, 2.0, 3.0]
        # the quadratures run on S / 2^e, 2^e = 8 the least power of two above sup sigma + S = 4 + S
        assert i2_calls == [math.ldexp(S, -3) for S in (1.0, 2.0, 3.0)]
        # I1 integrates theta; constructive_value integrates the grid-resolved lap p
        for pf in potentials:
            _, lap = hessian_and_laplacian(pf.p_hat, pf.grid.shape)
            assert [f is pf.theta for f in i1_fields].count(True) == 1
            assert [np.array_equal(f, lap) for f in i1_fields].count(True) == 1
        assert len(i1_fields) == 6

    def test_one_conductivity_gather_per_solve_and_potential(self, tmp_path, monkeypatch, capsys):
        gathers = []
        gather = VoxelGrid.conductivity_field
        monkeypatch.setattr(VoxelGrid, "conductivity_field", lambda grid: gathers.append(grid) or gather(grid))
        path = tmp_path / "g.cnda"
        save_grid(generate_random(PhaseSet.from_pairs((1.0, 4.0), (0.5, 0.5), 2), (32, 32), seed=0), path)
        assert main(["solve", "--grid", str(path), "--S", "auto"]) == 0
        # the solve, then the quadratures at each of the 3 shifts; the potential reads the phase table
        assert len(gathers) == 4

    def test_overflow_exit_two_without_iterating(self, tmp_path, capsys):
        # (1, 1e308) overflowed in rfftn; 1000 NaN iterations took 1.56 s before exit 2,
        # and later five numpy warnings came first.  Now its contrast fails before
        # any transform.  A warning would fail this test.
        p = tmp_path / "huge.cnda"
        idx = np.random.default_rng(0).integers(0, 2, (128, 128)).astype(np.uint8)
        save_grid(VoxelGrid(idx, (1.0, 1e308)), p)
        assert main(["solve", "--grid", str(p)]) == 2
        assert capsys.readouterr().err == (
            "error: cell solve on conductivities in [1, 1e+308] cannot converge:"
            " the contrast 1e+308 exceeds 45035996.2737 (residual nan after 0 iterations)\n"
        )

    @staticmethod
    def solve_as_at_unit_scale(lo, tmp_path, capsys):
        """solve on a 32x32 iid grid with conductivities (lo, 2 lo) exits 0 and reports what (1, 2) does."""
        idx = np.random.default_rng(0).integers(0, 2, (32, 32)).astype(np.uint8)
        reports = []
        for c in (1.0, lo):
            p = tmp_path / "scaled.cnda"
            save_grid(VoxelGrid(idx, (c, 2 * c)), p)
            assert main(["solve", "--grid", str(p)]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            lines = dict(line.split(": ", 1) for line in captured.out.splitlines() if ": " in line)
            reports.append((float(lines["sigma_bar"]) / c, lines["iterations"], lines["residuals"]))
        assert reports[1][0] == pytest.approx(reports[0][0], rel=1e-11)
        assert reports[1][1:] == reports[0][1:]

    def test_underflow_exit_two(self, tmp_path, capsys):
        # the squared right-hand side norm underflowed to 0 and solve printed the
        # arithmetic mean as sigma_bar after 0 iterations, exit 0; then it exited 2.
        # On sigma / 2^e it solves as (1, 2) does.
        self.solve_as_at_unit_scale(1e-170, tmp_path, capsys)

    def test_tiny_conductivities_exit_zero(self, tmp_path, capsys):
        # at 1e-160 the squared residual norms were subnormal: residual 0 after 7 iterations
        self.solve_as_at_unit_scale(1e-160, tmp_path, capsys)

    def test_nonconvergence_exit_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cell_solver, "_iteration_cap", lambda contrast: 2)
        ps = PhaseSet.from_pairs((1.0, 4.0), (0.5, 0.5), 2)
        grid_path = tmp_path / "rnd.cnda"
        save_grid(generate_random(ps, (32, 32), seed=0), grid_path)
        code = main(["solve", "--grid", str(grid_path)])
        assert code == 2
        assert "did not converge" in capsys.readouterr().err


class TestRepeatRuns:
    @pytest.mark.parametrize("command", ["solve", "verify", "bmo"])
    def test_repeat_in_one_process_is_identical(self, command, three_cfg, tmp_path, fft_log, monkeypatch, capsys):
        # a run leaves no state behind: its output, its transforms, and the calls
        # and per-layer counts the benchmark's tracer records are the same the
        # second time, or the traced benchmark fails
        tr = load_bench_module(monkeypatch, "tracer")
        tracer = tr.Tracer()
        argv = COMMAND_ARGV[command](three_cfg, tmp_path)
        runs, spans = [], []
        for k in range(2):
            start = len(fft_log)
            tracer.invocation = k
            tracer.install()
            try:
                assert main(argv) == 0
            finally:
                tracer.uninstall()
            spans.append([rec for rec in tracer.spans if rec[tr.INVOCATION] == k])
            calls = [(rec[tr.NAME], rec[tr.ATTRS]) for rec in spans[-1]]
            runs.append((capsys.readouterr().out, fft_log[start:], calls))
        assert runs[0] == runs[1]
        assert all(runs[0]) and ("cell_solver.build_optimal_potential", None) in runs[0][2]
        assert tr.combine([tr.invocation_metrics(s) for s in spans])[1] == []


class TestPhaseSetBuilds:
    @pytest.mark.parametrize(
        "argv, builds",
        [
            # each corpus grid: the phase set it is drawn from, then the one it realizes
            (["bmo", "--count", "3", "--shape", "32"], 6),
            (["verify", "--count", "2", "--shape", "32"], 4),
            (["solve", "--S", "auto"], 1),  # one grid read from a file, three potentials
        ],
    )
    def test_each_grid_builds_its_phase_set_once(self, argv, builds, tmp_path, monkeypatch, capsys):
        # every potential rebuilt the phase set its command had built: 9, 6 and 4 builds
        if argv[0] == "solve":
            argv = [*argv, "--grid", small_grid(tmp_path)]
        made = []
        build = PhaseSet.from_pairs
        monkeypatch.setattr(PhaseSet, "from_pairs", classmethod(lambda cls, *a, **k: made.append(a) or build(*a, **k)))
        assert main(argv) == 0
        assert len(made) == builds


class TestVerifyCommand:
    ARGS = ["verify", "--count", "4", "--shape", "32", "--dim", "2", "--seed", "11"]

    def test_violation_exit_three_and_replay(self, tmp_path, capsys):
        # on an axis of 2 voxels every nonzero mode is Nyquist, so the solve
        # returns the arithmetic mean, which lies above Hashin-Shtrikman
        assert main(["verify", "--count", "1", "--shape", "2", "--num-phases", "3", "--seed", "0"]) == 3
        captured = capsys.readouterr()
        header, row = captured.out.splitlines()
        assert header.startswith("seed,") and row.startswith("0,") and row.endswith(",VIOLATION")
        summary, prompt, manifest = captured.err.split("\n", 2)
        assert summary.startswith("verify: 1 grids, 1 violation(s)")
        assert prompt == "replay manifest for the failing batch:"
        path = tmp_path / "failing.manifest.json"
        path.write_text(manifest)
        assert json.loads(manifest)["command"] == "verify"
        assert main(["replay", str(path)]) == 3
        replayed = capsys.readouterr()
        assert replayed.out == captured.out and replayed.err == captured.err

    def test_runs_clean(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        body = out.read_text()
        assert body.splitlines()[0].startswith("seed,")
        assert "VIOLATION" not in body
        assert "0 violation(s)" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--out", str(a)]) == 0
        assert main(self.ARGS + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_replay_from_manifest(self, tmp_path):
        a = tmp_path / "a.csv"
        assert main(self.ARGS + ["--out", str(a)]) == 0
        first = a.read_bytes()
        manifest = tmp_path / "a.csv.manifest.json"
        assert main(["replay", str(manifest)]) == 0
        assert a.read_bytes() == first

    def test_parser_built_once_per_process(self, tmp_path, monkeypatch):
        # replay built the parser twice, in main and again in run_replay
        a = tmp_path / "a.csv"
        build_parser.cache_clear()
        inits = []
        init = cli._Parser.__init__
        monkeypatch.setattr(cli._Parser, "__init__", lambda self, *a, **kw: inits.append(1) or init(self, *a, **kw))
        assert main(self.ARGS + ["--out", str(a)]) == 0
        one_build = len(inits)  # the parser and its subcommand parsers
        assert one_build > 0
        assert main(["replay", str(tmp_path / "a.csv.manifest.json")]) == 0
        assert len(inits) == one_build and build_parser() is build_parser()

    def test_workers_do_not_change_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--out", str(a), "--workers", "1"]) == 0
        assert main(self.ARGS + ["--out", str(b), "--workers", "4"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_replays_manifest_with_workers_zero(self, tmp_path):
        # manifests from before --workers defaulted to 1 record 0 for one worker
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--out", str(a)]) == 0
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        manifest["options"].update(workers=0, out=str(b))
        path = tmp_path / "old.manifest.json"
        path.write_text(json.dumps(manifest))
        assert main(["replay", str(path)]) == 0
        assert b.read_bytes() == a.read_bytes()

    def test_three_phase_smooth_corpus(self, tmp_path, capsys):
        out = tmp_path / "v3.csv"
        assert main(["verify", "--count", "3", "--shape", "32", "--dim", "2",
                     "--num-phases", "3", "--mode", "smooth", "--seed", "4",
                     "--out", str(out)]) == 0
        body = out.read_text()
        assert "VIOLATION" not in body
        # constructive admissibility is part of the checked columns
        assert "slack_constructive" in body.splitlines()[0]


class TestCorpusFlags:
    @pytest.mark.parametrize("command", ["verify", "bmo"])
    @pytest.mark.parametrize("k", ["0", "1000", "x"])
    def test_num_phases_out_of_range_exit_one(self, command, k, capsys):
        # the conductivity draw would never finish for 1000 phases
        assert main([command, "--count", "1", "--num-phases", k]) == 1
        assert "[1, 100]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "bmo"])
    @pytest.mark.parametrize("count", ["-1", "0", "x"])
    def test_count_below_one_exit_one(self, command, count, capsys):
        assert main([command, "--count", count, "--shape", "8"]) == 1
        assert ">= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad",
        [
            {"num_phases": 1000},
            {"num_phases": 2.5},
            {"count": -1},
            {"count": 0},
            # a null seed was a TypeError, and 1.5 silently ran seed 1
            {"seed": None},
            {"seed": 1.5},
            {"seed": "x"},
            {"seed": True},
        ],
    )
    def test_replay_holds_manifest_to_flag_limits(self, bad, tmp_path, capsys):
        out = tmp_path / "v.csv"
        assert main(["verify", "--count", "1", "--shape", "8", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "v.csv.manifest.json").read_text())
        assert manifest["options"]["num_phases"] == 2 and manifest["options"]["count"] == 1
        manifest["options"].update(bad)
        path = tmp_path / "bad.manifest.json"
        path.write_text(json.dumps(manifest))
        # 1000 phases would spin forever in the conductivity redraw
        assert main(["replay", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


    BAD_SIGMAS = [("nan", "5"), ("1", "inf"), ("5", "1"), ("-1", "5"), ("0", "5"), ("1", "x"), ("1e-310", "5")]

    @pytest.mark.parametrize("command", ["verify", "bmo"])
    @pytest.mark.parametrize("seed", ["x", "1.5", ""])
    def test_bad_seed_exit_one(self, command, seed, capsys):
        assert main([command, "--count", "1", "--shape", "8", "--seed", seed]) == 1
        assert "--seed must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "bmo"])
    @pytest.mark.parametrize("lo,hi", BAD_SIGMAS)
    def test_bad_sigma_range_exit_one(self, command, lo, hi, capsys):
        # a negative --sigma-min used to solve grids until a seed drew a negative phase
        code = main([command, "--count", "6", "--shape", "8", "--sigma-min", lo, "--sigma-max", hi])
        assert code == 1
        err = capsys.readouterr().err
        assert "sigma" in err and "Traceback" not in err

    @pytest.mark.parametrize("lo,hi", BAD_SIGMAS + [(True, 5.0), (None, 5.0)])
    def test_replay_holds_manifest_to_sigma_range(self, lo, hi, tmp_path, capsys):
        out = tmp_path / "b.txt"
        assert main(["bmo", "--count", "1", "--shape", "8", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "b.txt.manifest.json").read_text())
        manifest["options"].update(sigma_min=lo, sigma_max=hi)
        path = tmp_path / "bad.manifest.json"
        path.write_text(json.dumps(manifest))
        assert main(["replay", str(path)]) == 1
        assert "--sigma-min and --sigma-max" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "bmo"])
    @pytest.mark.parametrize("k, lo, hi, code", [
        # 3 conductivities 1e-3 of the range apart were redrawn forever from a range of two doubles
        ("3", "1", "1.0000000000000002", 1),
        ("3", "1e-300", "1.0000000000000002e-300", 1),
        ("3", "2", "2", 0),
        ("2", "1", "1.0000000000000002", 0),
    ])
    def test_narrow_range_rejected_when_gaps_cannot_be_drawn(self, command, k, lo, hi, code, tmp_path, capsys):
        argv = [command, "--count", "1", "--shape", "8", "--num-phases", k, "--sigma-min", lo, "--sigma-max", hi]
        assert main(argv) == code
        if code:
            assert "--sigma-min and --sigma-max" in capsys.readouterr().err
        out = tmp_path / "v.txt"
        assert main([command, "--count", "1", "--shape", "8", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "v.txt.manifest.json").read_text())
        manifest["options"].update(num_phases=int(k), sigma_min=float(lo), sigma_max=float(hi))
        path = tmp_path / "narrow.manifest.json"
        path.write_text(json.dumps(manifest))
        assert main(["replay", str(path)]) == code


    @pytest.mark.parametrize("command", ["verify", "bmo"])
    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--dim", "1"], "--dim"),
            (["--dim", "x"], "--dim"),
            # shape >= 2, so this is over budget; 2**(10**12) was formed and raised MemoryError
            (["--dim", "1000000000000", "--shape", "2"], "budget"),
            (["--shape", "48"], "power of two"),
            (["--shape", "1"], "power of two"),
            (["--shape", "0"], "power of two"),
            (["--shape", "8192"], "budget"),
            (["--shape", "512", "--dim", "3"], "budget"),
        ],
    )
    def test_bad_dim_or_shape_exit_one(self, command, flags, message, capsys):
        assert main([command, "--count", "1", *flags]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad,message",
        [
            ({"dim": 0}, "--dim"),
            ({"dim": 1}, "--dim"),
            ({"dim": 10**12, "shape": 2}, "budget"),
            ({"dim": 2.5}, "--dim"),
            ({"shape": 12}, "power of two"),
            ({"shape": True}, "power of two"),
            ({"shape": 2**30, "dim": 3}, "budget"),
            ({"shape": 2**13}, "budget"),
        ],
    )
    def test_replay_checks_dim_and_shape_before_allocating(self, bad, message, tmp_path, capsys):
        # a huge shape reached numpy's allocator, and a huge dim formed shape**dim
        out = tmp_path / "v.csv"
        assert main(["verify", "--count", "1", "--shape", "8", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "v.csv.manifest.json").read_text())
        manifest["options"].update(bad)
        path = tmp_path / "bad.manifest.json"
        path.write_text(json.dumps(manifest))
        assert main(["replay", str(path)]) == 1
        assert message in capsys.readouterr().err

    def test_voxel_budget_is_inclusive(self):
        # 256**3 is exactly the budget; only the validation runs, not the corpus
        from conducta.cli import _VOXEL_BUDGET, _checked_corpus

        options = vars(build_parser().parse_args(["verify", "--shape", "256", "--dim", "3"]))
        assert 256**3 == _VOXEL_BUDGET
        assert _checked_corpus("verify", options)["shape"] == 256

    @pytest.mark.parametrize("command", ["verify", "bmo"])
    def test_4d_corpus_runs_and_replays(self, command, tmp_path):
        out = tmp_path / "4d.txt"
        assert main([command, "--dim", "4", "--shape", "8", "--count", "2", "--out", str(out)]) == 0
        first = out.read_bytes()
        assert main(["replay", str(tmp_path / "4d.txt.manifest.json")]) == 0
        assert out.read_bytes() == first


class TestUnreadablePaths:
    def test_solve_missing_grid(self, capsys):
        assert main(["solve", "--grid", "/nonexistent.cnda"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "/nonexistent.cnda" in err

    def test_bounds_missing_config(self, capsys):
        assert main(["bounds", "--config", "/nonexistent.cfg"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "/nonexistent.cfg" in err

    def test_replay_missing_manifest(self, capsys):
        assert main(["replay", "/nonexistent.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "/nonexistent.json" in err

    def test_bmo_grid_is_a_directory(self, tmp_path, capsys):
        assert main(["bmo", "--grid", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path) in err

    def test_verify_out_in_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(["verify", "--count", "1", "--shape", "8", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "x.csv.manifest.json" in err


class TestReplayManifests:
    @pytest.fixture
    def bounds_manifest(self, three_cfg, tmp_path):
        out = tmp_path / "b.txt"
        assert main(["bounds", "--config", three_cfg, "--out", str(out)]) == 0
        return out, json.loads((tmp_path / "b.txt.manifest.json").read_text())

    def replay(self, tmp_path, manifest) -> int:
        path = tmp_path / "edited.manifest.json"
        path.write_text(manifest if isinstance(manifest, str) else json.dumps(manifest))
        return main(["replay", str(path)])

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",
            '{"options": {}}',
            '{"command": 3, "options": {}}',
            '{"command": "bounds", "options": [1]}',
            '"bounds"',
            "{not json",
        ],
    )
    def test_malformed_manifest_exit_one(self, text, tmp_path, capsys):
        assert self.replay(tmp_path, text) == 1
        assert "manifest" in capsys.readouterr().err

    def test_unknown_command_named(self, tmp_path, capsys):
        assert self.replay(tmp_path, {"command": "frobnicate", "options": {}}) == 1
        assert capsys.readouterr().err == "error: manifest has unknown command 'frobnicate'\n"

    def test_missing_config_key_named(self, tmp_path, capsys):
        assert self.replay(tmp_path, {"command": "bounds", "options": {}}) == 1
        err = capsys.readouterr().err
        assert "lacks" in err and "config" in err

    def test_verify_manifest_without_seed(self, tmp_path, capsys):
        out = tmp_path / "v.csv"
        assert main(["verify", "--count", "1", "--shape", "8", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "v.csv.manifest.json").read_text())
        del manifest["options"]["seed"]
        assert self.replay(tmp_path, manifest) == 1
        err = capsys.readouterr().err
        assert "lacks option(s) seed" in err and "Traceback" not in err

    def test_retired_search_keys_at_their_defaults_replay(self, bounds_manifest, tmp_path):
        out, manifest = bounds_manifest
        first = out.read_bytes()
        manifest["options"].update(search_points=64, S_tolerance=1e-6)
        assert self.replay(tmp_path, manifest) == 0
        assert out.read_bytes() == first

    @pytest.mark.parametrize(
        "key,value", [("search_points", 32), ("S_tolerance", 1e-3), ("search_points", "64"), ("search_points", 64.0)]
    )
    def test_retired_search_keys_at_other_values_exit_one(self, key, value, bounds_manifest, tmp_path, capsys):
        _, manifest = bounds_manifest
        manifest["options"][key] = value
        assert self.replay(tmp_path, manifest) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("value,code", [(48, 0), (24, 1)])
    def test_retired_sample_levels(self, value, code, tmp_path, capsys):
        out = tmp_path / "b.txt"
        assert main(["bmo", "--count", "1", "--shape", "8", "--out", str(out)]) == 0
        first = out.read_bytes()
        manifest = json.loads((tmp_path / "b.txt.manifest.json").read_text())
        manifest["options"]["sample_levels"] = value
        out.unlink()
        assert self.replay(tmp_path, manifest) == code
        if code == 0:
            assert out.read_bytes() == first
        else:
            assert "sample_levels" in capsys.readouterr().err and not out.exists()

    @pytest.mark.parametrize("value,code", [(True, 0), (False, 1), (None, 1), (1, 1)])
    def test_retired_include_zero(self, value, code, three_cfg, tmp_path, capsys):
        # sweep always writes the mu3 = 0 row since --no-zero-row was removed
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", three_cfg, "--points", "2", "--out", str(out)]) == 0
        first = out.read_bytes()
        manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        manifest["options"]["include_zero"] = value
        out.unlink()
        capsys.readouterr()
        assert self.replay(tmp_path, manifest) == code
        err = capsys.readouterr().err
        if code == 0:
            assert out.read_bytes() == first and err == ""
        else:
            assert "removed option include_zero=" in err and "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize(
        "command,value,code",
        [
            ("solve", 1e-8, 0),
            ("verify", 1e-8, 0),
            ("solve", 1e-10, 1),
            ("solve", "1e-8", 1),
            ("verify", None, 1),
            ("verify", True, 1),
        ],
    )
    def test_retired_tolerance(self, command, value, code, three_cfg, tmp_path, capsys):
        # --tolerance was removed: every cell solve stops at relative residual 1e-8
        self.check_retired_replay(command, "tolerance", value, code, three_cfg, tmp_path, capsys)

    @pytest.mark.parametrize(
        "command,value,code",
        [
            ("solve", 1000, 0),
            ("verify", 1000, 0),
            ("solve", 400, 1),
            ("solve", 1000.0, 1),
            ("verify", "1000", 1),
            ("solve", None, 1),
            ("verify", True, 1),
        ],
    )
    def test_retired_max_iterations(self, command, value, code, three_cfg, tmp_path, capsys):
        # --max-iterations was removed: the contrast decides each solve's iteration cap
        self.check_retired_replay(command, "max_iterations", value, code, three_cfg, tmp_path, capsys)

    def check_retired_replay(self, command, key, value, code, three_cfg, tmp_path, capsys):
        """A cheap run of ``command`` replays with ``key: value`` added: byte for byte, or exit ``code`` 1."""
        out = tmp_path / "run.out"
        assert main([*COMMAND_ARGV[command](three_cfg, tmp_path), "--out", str(out)]) == 0
        first = out.read_bytes()
        manifest = json.loads((tmp_path / "run.out.manifest.json").read_text())
        manifest["options"][key] = value
        out.unlink()
        capsys.readouterr()
        assert self.replay(tmp_path, manifest) == code
        err = capsys.readouterr().err
        if code == 0:
            assert out.read_bytes() == first
        else:
            assert f"removed option {key}=" in err and "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_tolerance_flag_is_gone(self, command, three_cfg, tmp_path, capsys):
        assert main([*COMMAND_ARGV[command](three_cfg, tmp_path), "--tolerance", "1e-8"]) == 1
        assert "--tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_max_iterations_flag_is_gone(self, command, three_cfg, tmp_path, capsys):
        assert main([*COMMAND_ARGV[command](three_cfg, tmp_path), "--max-iterations", "1000"]) == 1
        assert "unrecognized arguments: --max-iterations" in capsys.readouterr().err

    def test_retired_options_are_not_live(self):
        # replay would pin a retired key to one value even if its flag came back
        (commands,) = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        live = {a.dest for command in commands.values() for a in command._actions}
        assert live.isdisjoint(cli._RETIRED_OPTIONS)

    def test_no_zero_row_flag_is_gone(self, three_cfg, capsys):
        assert main(["sweep", "--config", three_cfg, "--no-zero-row"]) == 1
        assert "--no-zero-row" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,key,value",
        [
            ("bounds", "out", True),
            ("bounds", "out", 5),
            ("bounds", "config", 5),
            ("bounds", "config", None),
            ("bounds", "C", None),
            ("bounds", "C", True),
            ("bounds", "C", "2"),
            ("bounds", "S", None),
            ("bounds", "S", 2.0),
            ("sweep", "points", 2.5),
            ("sweep", "points", True),
            ("sweep", "mu3_max", "0.1"),
            ("solve", "grid", None),
            ("verify", "mode", "grid"),
            ("verify", "mode", None),
            ("verify", "workers", "many"),
            ("bmo", "S", None),
            ("bmo", "grid", 5),
            ("bmo", "mode", 1),
        ],
    )
    def test_ill_typed_option_exit_one(self, command, key, value, three_cfg, tmp_path, capsys):
        # at the parent "out": true wrote to fd 1 and closed it, and "config": 5 and
        # "C": null were TypeErrors
        out = tmp_path / "run.out"
        assert main([*COMMAND_ARGV[command](three_cfg, tmp_path), "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "run.out.manifest.json").read_text())
        manifest["options"][key] = value
        out.unlink()
        capsys.readouterr()
        assert self.replay(tmp_path, manifest) == 1
        captured = capsys.readouterr()
        assert f"manifest records {key}=" in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    def test_well_typed_values_replay(self, bounds_manifest, tmp_path):
        # an int for a float option, and null where the default is None
        out, manifest = bounds_manifest
        first = out.read_bytes()
        manifest["options"].update(C=1, S="opt")
        assert self.replay(tmp_path, manifest) == 0
        assert out.read_bytes() == first

    @pytest.mark.parametrize(
        "extra,named",
        [({"full-E": True}, "full-E"), ({"seeds": 7}, "seeds"), ({"full-E": True, "seeds": 7}, "full-E, seeds")],
    )
    def test_unknown_key_exit_one(self, extra, named, bounds_manifest, tmp_path, capsys):
        # a key no option has replayed with exit 0, without a word
        out, manifest = bounds_manifest
        manifest["options"].update(extra)
        out.unlink()
        capsys.readouterr()
        assert self.replay(tmp_path, manifest) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: bounds manifest records unknown option(s) {named}\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("command", ["bounds", "verify"])
    def test_full_E_is_refused(self, command, value, three_cfg, tmp_path, capsys):
        # --full-E is removed with the second E term, and no recorded value replays its output:
        # true kept that E in the sigma_2 row and the sweep gap only, false used it everywhere
        out = tmp_path / "run.out"
        assert main([*COMMAND_ARGV[command](three_cfg, tmp_path), "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "run.out.manifest.json").read_text())
        manifest["options"]["full_E"] = value
        out.unlink()
        capsys.readouterr()
        assert self.replay(tmp_path, manifest) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {command} manifest records unknown option(s) full_E\n"
        assert captured.out == "" and not out.exists()

    def test_fresh_verify_manifest_with_workers_replays(self, tmp_path):
        out = tmp_path / "v.csv"
        assert main(["verify", "--count", "1", "--shape", "8", "--workers", "3", "--out", str(out)]) == 0
        first = out.read_bytes()
        manifest = json.loads((tmp_path / "v.csv.manifest.json").read_text())
        assert manifest["options"]["workers"] == 3
        out.unlink()
        assert self.replay(tmp_path, manifest) == 0
        assert out.read_bytes() == first

    @pytest.mark.parametrize("flag", ["--search-points", "--S-tolerance"])
    def test_removed_flags_rejected(self, flag, three_cfg):
        assert main(["bounds", "--config", three_cfg, flag, "64"]) == 1


def small_grid(tmp_path) -> str:
    path = tmp_path / "small.cnda"
    save_grid(generate_random(PhaseSet.from_pairs((1.0, 4.0), (0.5, 0.5), 2), (8, 8), seed=0), path)
    return str(path)


# a cheap run of each command, given the three-phase config path and a directory
COMMAND_ARGV = {
    "bounds": lambda cfg, tmp: ["bounds", "--config", cfg],
    "sweep": lambda cfg, tmp: ["sweep", "--config", cfg, "--points", "2"],
    "solve": lambda cfg, tmp: ["solve", "--grid", small_grid(tmp)],
    "verify": lambda cfg, tmp: ["verify", "--count", "1", "--shape", "8"],
    "bmo": lambda cfg, tmp: ["bmo", "--count", "1", "--shape", "8"],
}


class TestNonFiniteInputs:
    @pytest.mark.parametrize("S", ["inf", "nan", "-1", "x"])
    @pytest.mark.parametrize("command", ["bounds", "solve", "bmo"])
    def test_shift_must_be_finite_and_positive(self, command, S, three_cfg, tmp_path, capsys):
        # --S inf was a ZeroDivisionError traceback
        assert main([*COMMAND_ARGV[command](three_cfg, tmp_path), "--S", S]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: S must be finite and positive") and "Traceback" not in err

    @pytest.mark.parametrize("C", ["inf", "nan", "0"])
    def test_C_must_be_finite_and_positive(self, C, three_cfg, capsys):
        # bounds --C inf printed inf bounds and exited 0
        assert main(["bounds", "--config", three_cfg, "--C", C]) == 1
        assert capsys.readouterr().err.startswith("error: C must be finite and positive")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--mu3-max", "nan"],
            ["--mu3-max", "inf"],
            ["--mu3-max", "1"],
            ["--mu3-min", "0"],
            ["--mu3-min=-1e-3"],
            ["--mu3-min", "nan"],
            ["--mu3-min", "0.2", "--mu3-max", "0.1"],
            # a subnormal: it printed its own value 9.99988867183e-321 and exited 0
            ["--mu3-min", "1e-320"],
        ],
    )
    def test_sweep_needs_finite_mu3_range_in_unit_interval(self, flags, three_cfg, capsys):
        # --mu3-max nan printed the mu3 = 0 row on every line and exited 0
        assert main(["sweep", "--config", three_cfg, *flags]) == 1
        assert capsys.readouterr().err.startswith("error: --mu3-min and --mu3-max must satisfy")

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--C", "inf"],
            ["solve", "--S", "inf"],
            ["solve", "--S", "x"],
            ["solve", "--S", ""],
            ["verify", "--C", "inf"],
            ["verify", "--C", "0"],
        ],
    )
    def test_rejected_before_any_solve(self, argv, tmp_path, monkeypatch, capsys):
        # each of these ran a whole cell solve (the first grid's, for verify) before exiting 1
        solves = []
        monkeypatch.setattr(cli, "solve_effective_tensor", lambda *args, **kwargs: solves.append(args))
        base = ["--grid", small_grid(tmp_path)] if argv[0] == "solve" else ["--count", "2", "--shape", "8"]
        assert main([argv[0], *base, *argv[1:]]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert solves == []


class TestShiftOverflow:
    MESSAGE = "error: S = 1e+308 overflows in dimension n = 3: sup sigma + (n-1) S is not finite\n"

    @pytest.mark.parametrize("argv", [
        ["bounds", "--config", "{cfg}"],
        ["solve", "--grid", "{grid}"],
        ["bmo", "--grid", "{grid}"],
        ["bmo", "--dim", "3", "--shape", "4"],
    ])
    def test_shift_exit_one_before_any_solve(self, argv, three_cfg, tmp_path, monkeypatch, capsys):
        # (n-1) S = 2e308 was a ZeroDivisionError traceback, after the whole cell solve for solve;
        # a bmo corpus drew its first grid before failing
        solves, drawn = [], []
        monkeypatch.setattr(cli, "solve_effective_tensor", lambda *args, **kwargs: solves.append(args))
        monkeypatch.setattr(cli, "_corpus_grid", lambda *args: drawn.append(args))
        grid = tmp_path / "g3.cnda"
        save_grid(generate_random(PhaseSet.from_pairs((1.0, 4.0), (0.5, 0.5), 3), (4, 4, 4), seed=0), grid)
        assert main([a.format(cfg=three_cfg, grid=grid) for a in argv] + ["--S", "1e308"]) == 1
        assert capsys.readouterr().err == self.MESSAGE
        assert solves == drawn == []

    @pytest.mark.parametrize("flags", [[], ["--C", "0.3"], ["--S", "2"]])
    def test_huge_phase_exit_one(self, flags, tmp_path, capsys):
        # the HS row at S = sup sigma = 1e308 was a ZeroDivisionError traceback
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("dimension = 3\nphase = 1 0.5\nphase = 1e308 0.5\n")
        assert main(["bounds", "--config", str(cfg), *flags]) == 1
        assert capsys.readouterr().err == self.MESSAGE


def load_bench_module(monkeypatch, name):
    """bench/<name>.py, imported by path and only read."""
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["verify-2d", "solve-3d", "bmo-2d"])
def test_benchmark_argv_parses(name, tmp_path, monkeypatch):
    # a CLI change that breaks an argument list of the benchmark fails here
    workloads = load_bench_module(monkeypatch, "workloads").WORKLOADS
    assert sorted(workloads) == ["bmo-2d", "solve-3d", "verify-2d"]
    workload = workloads[name]
    for argv in (workload.argv(tmp_path, 3, 2), workload.reference_argv(tmp_path)):
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]


@pytest.mark.parametrize(
    "name, argv",
    [
        ("bmo-2d", ["bmo", "--count", "4", "--shape", "32", "--num-phases", "3"]),
        ("verify-2d", ["verify", "--count", "2", "--shape", "32", "--num-phases", "3", "--sigma-max", "100"]),
        ("solve-3d", None),
    ],
)
def test_benchmark_parses_output(name, argv, tmp_path, monkeypatch, capsys):
    # a change to an output format that the benchmark's row checks or
    # physical-value columns can no longer read fails here, and so does a
    # column moved away from the position the benchmark reads it at
    bench = load_bench_module(monkeypatch, "workloads")
    workload = bench.WORKLOADS[name]
    if argv is None:  # the workload's medium on a 16^3 grid
        path = tmp_path / "grid.cnda"
        ps = PhaseSet.from_pairs(bench.SOLVE_SIGMA, bench.SOLVE_FRACTIONS, 3)
        save_grid(generate_random(ps, (16,) * 3, seed=0), path)
        argv = ["solve", "--grid", str(path), "--S", "auto"]
    rc = main(argv)
    out = capsys.readouterr().out
    assert workload.check(rc, out) is None
    assert workload.physical_values(out)
    lines = out.splitlines()
    if name == "bmo-2d":
        header = next(line for line in lines if line.startswith("field")).split()
        assert [header[idx] for idx in bench.BMO_PHYSICAL.values()] == list(bench.BMO_PHYSICAL)
    elif name == "verify-2d":
        assert cli._VERIFY_HEADER == bench.VERIFY_COLUMNS
    else:
        header = next(line for line in lines if line.split()[:1] == ["S"]).split()
        assert header[: 1 + len(bench.SOLVE_PHYSICAL)] == ["S", *bench.SOLVE_PHYSICAL]


class TestBmoCommand:
    def test_homogeneous_grid_flagged_degenerate(self, tmp_path, capsys):
        grid_path = tmp_path / "homog.cnda"
        save_grid(
            generate_laminate(PhaseSet.from_pairs((2.0,), (1.0,), 2), 0, (16, 16)),
            grid_path,
        )
        assert main(["bmo", "--grid", str(grid_path)]) == 0
        out = capsys.readouterr().out
        assert "degenerate" in out

    @pytest.mark.parametrize("shape", [(32, 32), (8, 8, 8)])
    def test_nyquist_checkerboard_flagged_degenerate(self, shape, tmp_path, capsys):
        # theta is a pure Nyquist mode, which p drops, so the traceless
        # Hessian is 0 although osc theta is not; this exited 1
        grid_path = tmp_path / "checkerboard.cnda"
        parity = np.indices(shape).sum(axis=0) % 2
        save_grid(VoxelGrid(parity.astype(np.uint8), (1.0, 4.0)), grid_path)
        assert main(["bmo", "--grid", str(grid_path)]) == 0
        row = capsys.readouterr().out.splitlines()[4].split()
        assert row[:2] == ["checkerboard.cnda", "degenerate"]
        assert float(row[-2]) > 0.0  # osc theta

    @pytest.mark.parametrize("dim, shape", [("2", "32"), ("3", "8")])
    def test_report_evaluates_no_quadrature(self, dim, shape, monkeypatch, capsys):
        # the report prints none of I1, I2, I2_positive_part, and the
        # traceless Hessian needs no Laplacian
        potentials, quadratures = [], []
        build = cli.build_optimal_potential

        def spy_build(grid, s):
            potentials.append(build(grid, s))
            return potentials[-1]

        monkeypatch.setattr(cli, "build_optimal_potential", spy_build)
        monkeypatch.setattr(cell_solver, "_i1_quadrature", lambda *a: quadratures.append("I1"))
        monkeypatch.setattr(cell_solver, "_i2_quadrature", lambda *a: quadratures.append("I2"))
        assert main(["bmo", "--dim", dim, "--shape", shape, "--count", "2"]) == 0
        assert len(potentials) == 2 and quadratures == []
        assert all(pf.__dict__.keys() == {"grid", "S", "theta", "p_hat"} for pf in potentials)

    def test_corpus_report(self, capsys):
        assert main(["bmo", "--count", "2", "--shape", "32", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "recommended_C" in out
        assert "osc_theta" in out

    @pytest.mark.parametrize("S", ["inf", "x", "0"])
    def test_bad_shift_rejected_before_any_grid(self, S, tmp_path, monkeypatch, capsys):
        # every corpus grid was drawn, or the grid file read, before --S was parsed
        drawn, loaded = [], []
        monkeypatch.setattr(cli, "_corpus_grid", lambda *args: drawn.append(args))
        monkeypatch.setattr(cli, "load_grid", lambda *args: loaded.append(args))
        assert main(["bmo", "--count", "6", "--shape", "64", "--S", S]) == 1
        assert capsys.readouterr().err.startswith("error: S must be finite and positive")
        assert main(["bmo", "--grid", small_grid(tmp_path), "--S", S]) == 1
        assert capsys.readouterr().err.startswith("error: S must be finite and positive")
        assert drawn == [] and loaded == []

    def test_corpus_grids_drawn_one_per_row(self, monkeypatch, capsys):
        events = []
        draw, row = cli._corpus_grid, cli._bmo_one
        monkeypatch.setattr(cli, "_corpus_grid", lambda seed, options: events.append("draw") or draw(seed, options))
        monkeypatch.setattr(cli, "_bmo_one", lambda *args: events.append("row") or row(*args))
        assert main(["bmo", "--count", "3", "--shape", "8", "--S", "2.5"]) == 0
        assert events == ["draw", "row"] * 3

    @pytest.mark.parametrize("dim, components", [(2, 2), (3, 6), (4, 10)])
    def test_norm_sees_distinct_components(self, dim, components, monkeypatch, capsys):
        # in 2D the traceless Hessian [[a, b], [b, -a]] reaches the norm as the pair [a, b];
        # n >= 3: as the rows T_ii..T_in of its upper triangle, one call each
        rows = [(2,)] if dim == 2 else [(dim - i,) for i in range(dim)]
        assert sum(math.prod(shape) for shape in rows) == components
        stacks = []
        norm = cli.bmo_norm

        def spy(field, spatial_ndim=None):
            stacks.append(field.shape[: field.ndim - spatial_ndim])
            return norm(field, spatial_ndim)

        monkeypatch.setattr(cli, "bmo_norm", spy)
        assert main(["bmo", "--dim", str(dim), "--count", "2", "--shape", "8"]) == 0
        assert stacks == rows * 2

    @pytest.mark.parametrize("mode", ["iid", "smooth"])
    def test_3d_norm_over_the_upper_triangle_is_the_full_stack_norm(self, mode, monkeypatch, capsys):
        # T_ji = T_ij, so the max over the rows T_ii..T_in is the nine-component norm, bit for bit;
        # lemma1_ratio still receives the full 3x3 stack with that norm
        seen = []
        lemma1 = cli.lemma1_ratio

        def spy(field, labels, bmo, spatial_ndim=None):
            seen.append((bmo, cli.bmo_norm(field, spatial_ndim=spatial_ndim), field.shape[:2]))
            return lemma1(field, labels, bmo, spatial_ndim)

        monkeypatch.setattr(cli, "lemma1_ratio", spy)
        argv = ["bmo", "--dim", "3", "--shape", "16", "--num-phases", "3", "--count", "3", "--mode", mode]
        assert main(argv) == 0
        assert len(seen) == 3
        for est, full, components in seen:
            assert components == (3, 3) and est == full > 0.0

    @pytest.mark.parametrize("shape, fields", [((256, 256), 8.0), ((32, 32, 32), 30.5)])
    def test_row_peak_memory(self, shape, fields):
        # tracemalloc peak of one report row, in real fields of the grid, on a second call.
        # 2D holds the pair [a, b] alone; with the (2, 2) stack behind it the peak was 10.6
        g = generate_random(PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), len(shape)), shape, seed=1)
        cli._bmo_one(g, "g", None)
        assert peak_traced_bytes(lambda: cli._bmo_one(g, "g", None)) <= fields * 8 * g.phase_index.size

    def test_level_labels_are_one_byte_ranks(self, monkeypatch):
        # equal conductivities share a rank; the ratio is that of the int64 labels np.unique gave
        ratios = []
        lemma1 = cli.lemma1_ratio

        def spy(field, labels, bmo, spatial_ndim=None):
            assert labels.dtype == np.uint8
            wide = np.unique(g.phase_conductivities, return_inverse=True)[1][g.phase_index]
            assert np.array_equal(labels, wide)
            ratios.append((lemma1(field, labels, bmo, spatial_ndim), lemma1(field, wide, bmo, spatial_ndim)))
            return ratios[-1][0]

        monkeypatch.setattr(cli, "lemma1_ratio", spy)
        idx = generate_random(PhaseSet.from_pairs((1.0, 2.0, 3.0, 4.0), (0.25,) * 4, 2), (32, 32), seed=3).phase_index
        g = VoxelGrid(idx, (5.0, 1.0, 5.0, 2.0))
        cli._bmo_one(g, "g", None)
        assert len(ratios) == 1 and ratios[0][0] == ratios[0][1]

    def test_2d_row_makes_one_forward_and_two_inverse_transforms(self, fft_log):
        g = generate_random(PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), 2), (32, 32), seed=1)
        cli._bmo_one(g, "g", None)
        # rfftn of theta, then T_00 and T_01, each numpy's irfftn passes: one ifft and one irfft
        assert Counter(name for name, _ in fft_log) == {"rfftn": 1, "ifft": 2, "irfft": 2}

    def test_near_constant_field_has_an_ok_row(self, capsys):
        # the traceless Hessian's norm is 7.7e-14 here; the Lemma-1 ratio does
        # not depend on the field's scale, and this exited 1 with
        # "degenerate (near-constant) field"
        argv = ["bmo", "--count", "1", "--shape", "32", "--num-phases", "2", "--sigma-min", "1"]
        rows = []
        for sigma_max in ("1.000000000001", "1.0000000001"):
            assert main(argv + ["--sigma-max", sigma_max]) == 0
            rows.append(capsys.readouterr().out.splitlines()[4].split())
        for row in rows:
            assert row[1] == "ok"
            assert row[3:7] == ["-", "-", "-", "0.953897590329"]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_ok_rows_print_dashes_for_the_tail_constants(self, dim, tmp_path, capsys):
        # b, B and max_violation are not computed; every other value cell is a finite number
        if dim == 2:
            argv, count = ["bmo", "--shape", "32", "--count", "3", "--num-phases", "3"], 3
        else:
            path = tmp_path / "grid.cnda"
            ps = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), 3)
            save_grid(generate_random(ps, (16,) * 3, seed=1), path)
            argv, count = ["bmo", "--grid", str(path)], 1
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        header, rows = lines[3].split(), [line.split() for line in lines[4 : 4 + count]]
        assert [header[i] for i in (3, 4, 5)] == ["b", "B", "max_violation"]
        for row in rows:
            assert row[1] == "ok" and len(row) == len(header) == 10
            assert [i for i, cell in enumerate(row) if cell == "-"] == [3, 4, 5]
            assert all(math.isfinite(float(row[i])) for i in (2, 6, 7, 8, 9))

    @pytest.mark.parametrize("hi, code, message", [
        (1e308, 0, ""),
        (1e200, 0, ""),
    ])
    def test_huge_conductivities_fail_once_or_report_finite_values(self, hi, code, message, tmp_path, capsys):
        # at (1, 1e200) osc_closed was nan on an ok row; at (1, 1e308) the
        # potential printed four warnings, then exited 1 on the I1 quadrature,
        # which the report never prints and no longer evaluates.  A warning
        # would fail this test.
        p = tmp_path / "huge.cnda"
        idx = np.random.default_rng(0).integers(0, 2, (32, 32)).astype(np.uint8)
        save_grid(VoxelGrid(idx, (1.0, hi)), p)
        assert main(["bmo", "--grid", str(p)]) == code
        captured = capsys.readouterr()
        assert captured.err == (f"error: {message}\n" if message else "")
        if code == 0:
            row = captured.out.splitlines()[4].split()
            assert row[1] == "ok" and row[3:6] == ["-", "-", "-"]
            assert all(math.isfinite(float(v)) for v in row[2:3] + row[6:])
