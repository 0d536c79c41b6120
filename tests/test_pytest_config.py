"""The project's pytest configuration lets a failing property test report itself."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_below_five(x):
    assert x < 5
"""


def test_failing_hypothesis_test_shows_its_example(tmp_path):
    # Hypothesis's failure report imports libcst, whose import warns
    # DeprecationWarning; under error::DeprecationWarning that ended the run in
    # INTERNALERROR without the falsifying example
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output and "INTERNALERROR" not in output
