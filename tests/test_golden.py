"""Golden-output regression: CLI output bodies compared byte for byte.

Every command prints 12 significant digits, so these files pin the numbers of
the whole pipeline (bounds, sweep, corpus generation, cell solve, potential,
BMO analysis).  Inputs are rebuilt in a temporary directory and passed by
relative path, so the recorded bodies do not depend on where the suite runs.

The files were recorded with numpy 2.4 on x86-64.  A refactor must leave
them unchanged; a change that is meant to move the numbers re-records them
on purpose, in a commit of its own, with

    PYTHONPATH=src python tests/test_golden.py bounds_default solve_2d

which rewrites only the named cases' files; with no name it rewrites all of
them, and an unknown name rewrites nothing.
"""

import os
import sys
from pathlib import Path

import pytest

from conducta.cli import main
from conducta.microstructure import generate_random, save_grid
from conducta.phases import PhaseSet

GOLDEN = Path(__file__).resolve().parent / "golden"

THREE_CFG = """dimension = 3
phase = 1.0 0.4
phase = 2.0 0.4
phase = 5.0 0.2
"""

CASES = {
    "bounds_default": ["bounds", "--config", "three.cfg"],
    "bounds_S2_C03": ["bounds", "--config", "three.cfg", "--S", "2.0", "--C", "0.3"],
    "sweep_default": ["sweep", "--config", "three.cfg"],
    "verify_2d_smooth": ["verify", "--count", "3", "--shape", "32", "--dim", "2",
                         "--num-phases", "3", "--mode", "smooth", "--seed", "4"],
    "verify_3d": ["verify", "--count", "2", "--shape", "16", "--dim", "3", "--seed", "7"],
    "bmo_corpus_2d": ["bmo", "--count", "2", "--shape", "32", "--seed", "5"],
    "bmo_corpus_3d_smooth": ["bmo", "--count", "2", "--shape", "16", "--dim", "3",
                             "--num-phases", "3", "--mode", "smooth", "--seed", "2"],
    "bmo_grid": ["bmo", "--grid", "medium2d.cnda", "--S", "2.5"],
    "solve_2d": ["solve", "--grid", "medium2d.cnda"],
    "solve_3d": ["solve", "--grid", "medium3d.cnda", "--S", "1.0,2.5,4.0"],
}


def write_inputs(directory: Path) -> None:
    (directory / "three.cfg").write_text(THREE_CFG)
    ps2 = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), 2)
    save_grid(generate_random(ps2, (64, 64), seed=3), directory / "medium2d.cnda")
    ps3 = PhaseSet.from_pairs((1.0, 4.0), (0.5, 0.5), 3)
    save_grid(generate_random(ps3, (16, 16, 16), seed=9, mode="smooth"), directory / "medium3d.cnda")


def run_case(name: str) -> tuple[int, bytes]:
    """Run one case in the current directory; returns (exit code, output body)."""
    out = f"{name}.out"
    code = main(CASES[name] + ["--out", out])
    return code, Path(out).read_bytes()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    write_inputs(d)
    return d


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    code, body = run_case(name)
    assert code == 0
    assert body == (GOLDEN / f"{name}.txt").read_bytes()


def test_record_writes_only_the_named_cases(tmp_path, monkeypatch):
    committed = GOLDEN
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", tmp_path)
    record(["solve_2d", "bounds_default"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bounds_default.txt", "solve_2d.txt"]
    for p in tmp_path.iterdir():
        assert p.read_bytes() == (committed / p.name).read_bytes()
    with pytest.raises(SystemExit, match="unknown golden case"):
        record(["bounds_default", "bounds_typo"])
    assert len(list(tmp_path.iterdir())) == 2


def record(names: list[str]) -> None:
    """Rewrite the golden files of the named cases, or of every case when ``names`` is empty."""
    import tempfile

    unknown = sorted(set(names) - CASES.keys())
    if unknown:
        raise SystemExit(f"unknown golden case(s) {', '.join(unknown)}; the cases are {', '.join(sorted(CASES))}")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as d:
        cwd = os.getcwd()
        os.chdir(d)
        try:
            write_inputs(Path(d))
            for name in sorted(names or CASES):
                code, body = run_case(name)
                if code != 0:
                    raise SystemExit(f"{name}: exit code {code}")
                (GOLDEN / f"{name}.txt").write_bytes(body)
                print(f"recorded {name}")
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    record(sys.argv[1:])
    sys.exit(0)
