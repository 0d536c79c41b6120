"""The package metadata names the dependency versions the code needs."""

import re
from pathlib import Path

PYPROJECT = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()


def test_numpy_floor_has_fft_out():
    # the solve passes out= to rfftn, and spectral.irfftn_into to ifft and irfft:
    # numpy added those parameters in 2.0, so on 1.x every solve raises TypeError
    (floor,) = re.findall(r'"numpy>=(\d+)(?:\.(\d+))?[^"]*"', PYPROJECT)
    assert (int(floor[0]), int(floor[1] or 0)) >= (2, 0)
