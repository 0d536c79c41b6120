import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from conducta import cli
from conducta.cli import build_parser, main
from conducta.microstructure import VoxelGrid, generate_laminate, generate_random, save_grid
from conducta.phases import PhaseSet

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
        assert "4.53577245962" in out          # three_phase_refined at S = sigma_2
        assert "three_phase_refined" in out
        assert "modulo the dimensional constant C" in out

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
        assert out.count("theorem1_simplified") == 2  # user S row + optimizer row

    def test_malformed_fractions_exit_one(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("dimension = 3\nphase = 1 0.5\nphase = 2 0.4\n")
        assert main(["bounds", "--config", str(p)]) == 1
        assert "sum to 1" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["inf", "nan"])
    def test_non_finite_conductivity_named(self, sigma, tmp_path, capsys):
        # phase = inf 0.5 exited 1 with "S must be finite and nonnegative, got inf"
        p = tmp_path / "inf.cfg"
        p.write_text(f"dimension = 2\nphase = {sigma} 0.5\nphase = 1 0.5\n")
        assert main(["bounds", "--config", str(p)]) == 1
        assert capsys.readouterr().err == f"error: conductivity must be finite and positive, got {sigma}\n"

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

    @pytest.mark.parametrize("points", ["-2", "0"])
    def test_points_at_least_one(self, points, three_cfg, capsys):
        # -2 exited 1 with numpy's "Number of samples, -2, must be non-negative",
        # 0 exited 0 with no sweep row
        assert main(["sweep", "--config", three_cfg, "--points", points]) == 1
        assert capsys.readouterr().err == f"error: --points must be an integer >= 1, got {points}\n"

    @pytest.mark.parametrize("points", [-2, 0])
    def test_replayed_points_at_least_one(self, points, three_cfg, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", three_cfg, "--points", "2", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        manifest["options"]["points"] = points
        out.unlink()
        path = tmp_path / "edited.manifest.json"
        path.write_text(json.dumps(manifest))
        assert main(["replay", str(path)]) == 1
        assert "--points must be an integer >= 1" in capsys.readouterr().err and not out.exists()

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

    def test_overflow_exit_two_without_iterating(self, tmp_path, capsys):
        # (1, 1e308) overflows in rfftn; 1000 NaN iterations took 1.56 s before exit 2
        p = tmp_path / "huge.cnda"
        idx = np.random.default_rng(0).integers(0, 2, (128, 128)).astype(np.uint8)
        save_grid(VoxelGrid(idx, (1.0, 1e308)), p)
        with pytest.warns(RuntimeWarning):
            assert main(["solve", "--grid", str(p)]) == 2
        assert "non-finite right-hand side (residual nan after 0 iterations)" in capsys.readouterr().err

    def test_nonconvergence_exit_two(self, tmp_path, capsys):
        ps = PhaseSet.from_pairs((1.0, 4.0), (0.5, 0.5), 2)
        grid_path = tmp_path / "rnd.cnda"
        save_grid(generate_random(ps, (32, 32), seed=0), grid_path)
        code = main(["solve", "--grid", str(grid_path),
                     "--tolerance", "1e-14", "--max-iterations", "2"])
        assert code == 2
        assert "did not converge" in capsys.readouterr().err


class TestVerifyCommand:
    ARGS = ["verify", "--count", "4", "--shape", "32", "--dim", "2", "--seed", "11"]

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


    BAD_SIGMAS = [("nan", "5"), ("1", "inf"), ("5", "1"), ("-1", "5"), ("0", "5"), ("1", "x")]

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
    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--dim", "4"], "--dim"),
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
            ({"dim": 4}, "--dim"),
            ({"dim": 1}, "--dim"),
            ({"dim": 2.5}, "--dim"),
            ({"shape": 12}, "power of two"),
            ({"shape": True}, "power of two"),
            ({"shape": 2**30, "dim": 3}, "budget"),
            ({"shape": 2**13}, "budget"),
        ],
    )
    def test_replay_checks_dim_and_shape_before_allocating(self, bad, message, tmp_path, capsys):
        # a replayed dim 4 used to build the 4-D grid, and a huge shape reached numpy's allocator
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

    @pytest.mark.parametrize("key,value", [("search_points", 32), ("S_tolerance", 1e-3), ("search_points", "64")])
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
            ("bounds", "full_E", "yes"),
            ("bounds", "full_E", 1),
            ("bounds", "S", None),
            ("bounds", "S", 2.0),
            ("sweep", "points", 2.5),
            ("sweep", "points", True),
            ("sweep", "mu3_max", "0.1"),
            ("sweep", "include_zero", None),
            ("solve", "grid", None),
            ("solve", "max_iterations", 10.0),
            ("solve", "tolerance", "1e-8"),
            ("verify", "tolerance", None),
            ("verify", "full_E", 0),
            ("verify", "mode", "grid"),
            ("verify", "mode", None),
            ("bmo", "S", None),
            ("bmo", "grid", 5),
            ("bmo", "mode", 1),
        ],
    )
    def test_ill_typed_option_exit_one(self, command, key, value, three_cfg, tmp_path, capsys):
        # at the parent "out": true wrote to fd 1 and closed it, "config": 5 and
        # "C": null were TypeErrors and "full_E": "yes" selected the full E
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
        monkeypatch.setattr(cli, "solve_effective_tensor", lambda *args: solves.append(args))
        base = ["--grid", small_grid(tmp_path)] if argv[0] == "solve" else ["--count", "2", "--shape", "8"]
        assert main([argv[0], *base, *argv[1:]]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert solves == []


def load_bench_workloads(monkeypatch):
    """bench/workloads.py, imported by path and only read."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["verify-2d", "solve-3d", "bmo-2d"])
def test_benchmark_argv_parses(name, tmp_path, monkeypatch):
    # a CLI change that breaks an argument list of the benchmark fails here
    workloads = load_bench_workloads(monkeypatch).WORKLOADS
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
    # physical-value columns can no longer read fails here
    bench = load_bench_workloads(monkeypatch)
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

    @pytest.mark.parametrize("dim, components", [(2, 2), (3, 9)])
    def test_norm_sees_distinct_components(self, dim, components, monkeypatch, capsys):
        # in 2D the traceless Hessian [[a, b], [b, -a]] reaches the statistics as the pair [a, b]
        stacks = []
        norm = cli.bmo_norm

        def spy(field, depth, spatial_ndim=None):
            stacks.append(field.shape[: field.ndim - spatial_ndim])
            return norm(field, depth, spatial_ndim)

        monkeypatch.setattr(cli, "bmo_norm", spy)
        assert main(["bmo", "--dim", str(dim), "--count", "2", "--shape", "8"]) == 0
        assert [math.prod(shape) for shape in stacks] == [components] * 2
