"""Shared strategies and helpers for the test suite."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from conducta.phases import PhaseSet

# property tests double as regression tests; keep them reproducible
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@st.composite
def phase_sets(draw, min_phases=1, max_phases=5, dims=(2, 3)):
    """Valid phase sets with distinct conductivities and normalized fractions."""
    k = draw(st.integers(min_phases, max_phases))
    sigmas = draw(
        st.lists(
            st.floats(0.1, 50.0, allow_nan=False, allow_infinity=False),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    sigmas = sorted(sigmas)
    # keep the conductivities separated so merging never kicks in
    for a, b in zip(sigmas, sigmas[1:]):
        if b - a < 1e-6:
            sigmas = [s + 1e-3 * i for i, s in enumerate(sigmas)]
            break
    weights = draw(
        st.lists(st.floats(0.05, 1.0, allow_nan=False), min_size=k, max_size=k)
    )
    total = sum(weights)
    fractions = [w / total for w in weights]
    dimension = draw(st.sampled_from(dims))
    return PhaseSet.from_pairs(sigmas, fractions, dimension)


def random_phase_set(rng, k, dimension, sigma_range=(0.5, 8.0)):
    lo, hi = sigma_range
    sig = np.sort(rng.uniform(lo, hi, k))
    while k > 1 and float(np.diff(sig).min()) < 1e-3 * (hi - lo):
        sig = np.sort(rng.uniform(lo, hi, k))
    mu = rng.dirichlet(np.ones(k))
    return PhaseSet.from_pairs(sig, mu, dimension)


def level_labels(levels):
    """Integer labels of a float level field in level order, as lemma1_ratio takes them."""
    levels = np.asarray(levels)
    # numpy 1.x returns a flat inverse, numpy 2.x one of the input's shape
    return np.unique(levels, return_inverse=True)[1].reshape(levels.shape)


def hessian_and_laplacian(p_hat, shape):
    """(D^2 p, lap p) of the rfftn half spectrum ``p_hat``, by numpy alone.

    An oracle independent of ``conducta.spectral``: per-axis 2 pi fftfreq
    modes, the last axis halved as rfftn halves it, |k|^2 summed axis by axis
    from zero, and each entry numpy's irfftn of the multiplier -k_i k_j (or
    -|k|^2) times p_hat, so it is bit for bit what the same multiplier gives
    in the library.  D^2 p is the (n, n, *shape) stack.
    """
    n, axes = len(shape), tuple(range(len(shape)))
    ks = []
    for ax, m in enumerate(shape):
        k = 2.0 * np.pi * np.fft.fftfreq(m, d=1.0 / m)
        if ax == n - 1:
            k = k[: m // 2 + 1]
        ks.append(k.reshape([-1 if a == ax else 1 for a in axes]))
    k2 = 0.0
    for k in ks:
        k2 = k2 + k * k
    hessian = np.empty((n, n) + tuple(shape))
    for i in range(n):
        for j in range(i, n):
            hessian[i, j] = hessian[j, i] = np.fft.irfftn(-ks[i] * ks[j] * p_hat, s=shape, axes=axes)
    return hessian, np.fft.irfftn(-k2 * p_hat, s=shape, axes=axes)


def peak_traced_bytes(fn) -> int:
    """Peak bytes tracemalloc traced while ``fn()`` ran, counted from the call."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


@pytest.fixture
def fft_log(monkeypatch):
    """Records (name, given out=) for each numpy.fft transform called through the public namespace."""
    log = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            log.append((name, kwargs.get("out") is not None))
            return fn(*args, **kwargs)
        return wrapper

    for name in FFT_NAMES:
        monkeypatch.setattr(np.fft, name, recording(name, getattr(np.fft, name)))
    return log
