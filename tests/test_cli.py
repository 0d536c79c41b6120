import json

import numpy as np
import pytest

from conducta.cli import main
from conducta.microstructure import generate_laminate, generate_random, save_grid
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
        "bad", [{"num_phases": 1000}, {"num_phases": 2.5}, {"count": -1}, {"count": 0}]
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

    def test_corpus_report(self, capsys):
        assert main(["bmo", "--count", "2", "--shape", "32", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "recommended_C" in out
        assert "osc_theta" in out
