"""Wavenumbers of the periodic unit cell on the ``numpy.fft.rfftn`` half spectrum,
shared by every Fourier multiplier: the cell solve, the potential and the smooth-noise filter."""

from __future__ import annotations

import numpy as np


def half_wavenumbers(shape: tuple[int, ...], zero_nyquist: bool) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-axis 2*pi*xi arrays shaped for broadcasting, and |k|^2, on the half spectrum.

    xi are the integer modes of numpy's FFT ordering (``fftfreq``); the last
    axis keeps its first ``shape[-1] // 2 + 1`` modes, the columns ``rfftn``
    returns.  With zero_nyquist the Nyquist mode of every even axis is set to
    zero, as an odd (first derivative) multiplier requires for a real result.
    Without it, the Nyquist column of an even last axis keeps fftfreq's sign
    (-n/2); only even multipliers such as k2 or k_i k_j may be nonzero there.
    """
    half = shape[:-1] + (shape[-1] // 2 + 1,)
    ks = []
    for ax, n in enumerate(shape):
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n)
        if zero_nyquist and n % 2 == 0:
            k[n // 2] = 0.0
        sl = [np.newaxis] * len(shape)
        sl[ax] = slice(None)
        ks.append(k[: half[ax]][tuple(sl)])
    # summed axis by axis from zero: the smooth corpus thresholds a field
    # filtered with this k2, so its rounding is part of every generated grid
    k2 = np.zeros(half)
    for k in ks:
        k2 = k2 + k * k
    return ks, k2
