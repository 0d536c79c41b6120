"""The spectral kernel: wavenumbers of the periodic unit cell on the
``numpy.fft.rfftn`` half spectrum, and the inverse transform back to the grid,
shared by every Fourier multiplier: the cell solve, the potential and the
smooth-noise filter.  No other module builds wavenumbers or runs an inverse
transform.

``half_wavenumbers`` builds fresh, writable arrays.  ``shared_wavenumbers``
is the one table without Nyquist zeroing, ``half_wavenumbers(shape,
zero_nyquist=False)`` of the last shape asked for, built once and kept
read-only: the smooth-noise filter of a drawn grid, the potentials of that
grid, their quadratures and their traceless Hessian share it, and nothing
writes to it.  The cell solve never holds it: it builds its own
Nyquist-zeroed table, whose |k|^2 is freed once the Green operator is
formed, and clears the shared one on entry, so no shared table is alive
during a CG solve.
"""

from __future__ import annotations

import functools

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


@functools.lru_cache(maxsize=1)
def shared_wavenumbers(shape: tuple[int, ...]) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """``half_wavenumbers(shape, zero_nyquist=False)`` of the last shape asked for, built once and read-only."""
    ks, k2 = half_wavenumbers(shape, zero_nyquist=False)
    for a in (*ks, k2):
        a.setflags(write=False)
    return tuple(ks), k2


def irfftn_into(spec: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.fft.irfftn(spec, s=out.shape, axes=all)`` written into ``out``, bit for bit.

    Runs numpy's own passes in numpy's order: ``ifft`` in place over axes
    0..n-2, then ``irfft`` of length ``out.shape[-1]`` on the last axis into
    ``out``.  ``spec`` is overwritten.
    """
    for ax in range(spec.ndim - 1):
        np.fft.ifft(spec, axis=ax, out=spec)
    return np.fft.irfft(spec, n=out.shape[-1], axis=-1, out=out)
