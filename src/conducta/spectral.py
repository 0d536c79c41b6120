"""Wavenumbers of the periodic unit cell, shared by every Fourier multiplier."""

from __future__ import annotations

import numpy as np


def wavenumbers(shape: tuple[int, ...], zero_nyquist: bool) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-axis 2*pi*xi arrays shaped for broadcasting, and |k|^2 on the grid.

    xi are the integer modes of numpy's FFT ordering.  With zero_nyquist the
    Nyquist mode of every even axis is set to zero, as an odd (first
    derivative) multiplier requires for a real result.
    """
    ks = []
    for ax, n in enumerate(shape):
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n)
        if zero_nyquist and n % 2 == 0:
            k[n // 2] = 0.0
        sl = [np.newaxis] * len(shape)
        sl[ax] = slice(None)
        ks.append(k[tuple(sl)])
    # summed axis by axis from zero: the smooth corpus thresholds a field
    # filtered with this k2, so its rounding is part of every generated grid
    k2 = np.zeros(shape)
    for k in ks:
        k2 = k2 + k * k
    return ks, k2


def half_wavenumbers(shape: tuple[int, ...], zero_nyquist: bool) -> tuple[list[np.ndarray], np.ndarray]:
    """``wavenumbers`` restricted to the ``numpy.fft.rfftn`` half spectrum.

    The last axis keeps its first ``shape[-1] // 2 + 1`` modes; the values are
    sliced from the full arrays, so k2 is summed in the same order.  On an even
    last axis the Nyquist column keeps fftfreq's sign (-n/2); only even
    multipliers such as k2 or k_i k_j may be nonzero there.
    """
    ks, k2 = wavenumbers(shape, zero_nyquist)
    half = slice(0, shape[-1] // 2 + 1)
    return [k[..., half] for k in ks], k2[..., half]
