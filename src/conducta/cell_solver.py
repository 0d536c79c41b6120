"""Spectral periodic cell-problem solver and the optimal-potential pipeline.

Two jobs live here.  First, the effective tensor A: for each unit direction
e_i the periodic corrector u_i minimizes the cell energy

    mean( sigma |e_i + grad u_i|^2 )

over grid potentials.  Conjugate gradients run in Fourier space on the
``numpy.fft.rfftn`` half spectrum of u_i, with the wavenumbers of
``spectral.half_wavenumbers``: the right-hand side i k_i sigma_hat needs no
transform, the Green operator of a homogeneous reference medium is a
diagonal multiply by 1 / (sigma_0 |k|^2), and only the operator
-div(sigma grad .) visits real space, with 2n real transforms per iteration.
The reported tensor uses the energy bilinear form, which is variationally
one-sided; the mismatch against the flux average is kept as a convergence
diagnostic.

Second, the constructive upper bound: the scalar potential p whose Laplacian
equals the pointwise optimal field

    theta = n L / (sigma + (n-1) S) - n,

inverted spectrally, with the Hessian obtained from the multiplier
-k (x) k / |k|^2 applied to the rfftn half spectrum of theta, which is also
where PotentialField.p_hat lives.  The split value I1 + I2 of the energy of
the test field I + D^2 p is then a certified upper bound for sigma_bar on the
same grid.

Differentiation conventions (these are constraints, not taste):

* Derivatives are exact Fourier multipliers of the trigonometric interpolant,
  never finite differences, so mean|D^2 p|^2 = mean|lap p|^2 holds to
  round-off and tr(D^2 p) equals lap p pointwise.
* First-derivative multipliers zero the Nyquist frequency on even axes; an
  odd multiplier there cannot produce a real field.
* The potential p is supported on modes with no Nyquist component (and zero
  mean).  laplacian_p is therefore theta with its Nyquist-plane content
  removed, i.e. theta at grid resolution; the raw theta field is stored
  separately and is what PotentialField.I1 integrates, matching the closed form
  -(n-1)S + L to round-off.  constructive_value integrates the grid-resolved
  fields instead, so its admissibility (value >= sigma_bar) is exact at the
  discrete level; on band-limited media such as laminates and checkerboards
  the two quadratures coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .microstructure import VoxelGrid
from .spectral import half_wavenumbers

__all__ = [
    "SolverConfig",
    "EffectiveTensor",
    "PotentialField",
    "solve_effective_tensor",
    "build_optimal_potential",
    "constructive_upper",
    "constructive_value",
    "traceless_hessian",
    "oscillation_closed_form",
]

def _subnyquist_mask(shape: tuple[int, ...]) -> np.ndarray:
    """Half-spectrum modes with no Nyquist component, excluding the mean."""
    mask = np.ones(shape[:-1] + (shape[-1] // 2 + 1,), dtype=bool)
    for ax, n in enumerate(shape):
        if n % 2 == 0:
            sl = [slice(None)] * len(shape)
            sl[ax] = n // 2
            mask[tuple(sl)] = False
    mask[(0,) * len(shape)] = False
    return mask


@dataclass(frozen=True)
class SolverConfig:
    relative_tolerance: float = 1e-8
    max_iterations: int = 1000

    def __post_init__(self):
        if not 0.0 < self.relative_tolerance < 1.0:
            raise ValueError(f"relative_tolerance must be in (0, 1), got {self.relative_tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(frozen=True)
class EffectiveTensor:
    """Effective tensor from the cell problem, with solve diagnostics."""

    dimension: int
    matrix: np.ndarray
    sigma_bar: float
    iterations: tuple[int, ...]
    residuals: tuple[float, ...]
    flux_discrepancy: float

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)  # an owned copy: freezing it leaves the caller's array writable
        if m.shape != (self.dimension, self.dimension):
            raise ValueError(f"matrix shape {m.shape} does not match dimension {self.dimension}")
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-10 * max(1.0, float(np.abs(m).max()))):
            raise ValueError("effective tensor must be symmetric")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def _half_spectrum_dot(shape: tuple[int, ...]):
    """Real part of the Hermitian-weighted sum over rfftn half spectra.

    Interior columns of the last axis stand for themselves and their
    conjugates (weight 2); column 0 and, on an even axis, the Nyquist column
    are their own conjugates (weight 1).  By Parseval the value is the
    real-space dot product times the number of voxels.
    """
    last = shape[-1]
    self_conjugate = [0] + ([last // 2] if last % 2 == 0 else [])

    def dot(a: np.ndarray, b: np.ndarray) -> float:
        total = 2.0 * np.vdot(a, b).real
        for c in self_conjugate:
            total -= np.vdot(a[..., c], b[..., c]).real
        return float(total)

    return dot


def _spectral_cg(apply_op, green: np.ndarray, dot, b: np.ndarray, rel_tol: float, max_iter: int, label: str):
    """Green-preconditioned conjugate gradients on half spectra; returns (x, iterations, residual).

    Raises ConvergenceError after max_iter iterations, or as soon as the
    right-hand side norm or a residual is not finite (an overflow would
    otherwise run every remaining iteration on NaNs).
    """
    b_norm = float(np.sqrt(dot(b, b)))
    if not math.isfinite(b_norm):
        raise ConvergenceError(f"cell solve for {label} has a non-finite right-hand side", math.nan, 0)
    if b_norm == 0.0:
        return np.zeros_like(b), 0, 0.0
    x = np.zeros_like(b)
    r = b.copy()
    z = green * r
    p = z.copy()
    rz = dot(r, z)
    residual = 1.0
    for it in range(1, max_iter + 1):
        ap = apply_op(p)
        alpha = rz / dot(p, ap)
        x += alpha * p
        r -= alpha * ap
        residual = float(np.sqrt(dot(r, r))) / b_norm
        if residual <= rel_tol:
            return x, it, residual
        if not math.isfinite(residual):
            raise ConvergenceError(f"cell solve for {label} hit a non-finite residual", residual, it)
        z = green * r
        rz_new = dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise ConvergenceError(f"cell solve for {label} did not converge", residual, max_iter)


def solve_effective_tensor(grid: VoxelGrid, config: SolverConfig | None = None) -> EffectiveTensor:
    """Effective tensor of the grid by Fourier-preconditioned CG.

    A homogeneous grid needs no correction: the right-hand side vanishes and
    the solve returns after zero iterations with A = sigma I exactly.
    Raises ConvergenceError when max_iterations is hit or a value overflows.
    """
    config = config or SolverConfig()
    sigma = grid.conductivity_field()
    n = grid.dimension
    shape = sigma.shape
    axes = tuple(range(n))
    ks, k2 = half_wavenumbers(shape, zero_nyquist=True)
    sigma0 = 0.5 * (float(sigma.min()) + float(sigma.max()))
    green = np.where(k2 > 0.0, 1.0 / (sigma0 * np.where(k2 > 0.0, k2, 1.0)), 0.0)
    dot = _half_spectrum_dot(shape)

    def gradient(u_hat, k):
        return np.fft.irfftn(1j * k * u_hat, s=shape, axes=axes)

    def apply_operator(u_hat):
        div_hat = np.zeros_like(u_hat)
        for k in ks:
            div_hat += 1j * k * np.fft.rfftn(sigma * gradient(u_hat, k))
        return -div_hat

    sigma_hat = np.fft.rfftn(sigma)
    total_gradients: list[list[np.ndarray]] = []
    iterations: list[int] = []
    residuals: list[float] = []
    for i in range(n):
        u_hat, its, res = _spectral_cg(
            apply_operator,
            green,
            dot,
            1j * ks[i] * sigma_hat,
            config.relative_tolerance,
            config.max_iterations,
            label=f"direction {i}",
        )
        grads = [gradient(u_hat, k) for k in ks]
        grads[i] = grads[i] + 1.0
        total_gradients.append(grads)
        iterations.append(its)
        residuals.append(res)

    matrix = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            grad_dot = np.zeros(shape)
            for ax in range(n):
                grad_dot += total_gradients[i][ax] * total_gradients[j][ax]
            matrix[i, j] = matrix[j, i] = float(np.mean(sigma * grad_dot))
    flux = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            flux[i, j] = float(np.mean(sigma * total_gradients[j][i]))
    sigma_bar = float(np.trace(matrix)) / n
    return EffectiveTensor(
        dimension=n,
        matrix=matrix,
        sigma_bar=sigma_bar,
        iterations=tuple(iterations),
        residuals=tuple(residuals),
        flux_discrepancy=float(np.abs(matrix - flux).max()),
    )


@dataclass(frozen=True)
class PotentialField:
    """Optimal-Laplacian potential and its derived fields on one grid.

    I1 is the quadrature of the raw theta field and agrees with the closed
    form -(n-1)S + L of the empirical phase set to round-off.  I2 is never
    above I2_positive_part, which uses the positive part of sigma - S and
    vanishes identically at S = sup sigma.
    """

    grid: VoxelGrid
    S: float
    theta: np.ndarray
    p_hat: np.ndarray
    laplacian_p: np.ndarray
    hessian_p: np.ndarray
    I1: float
    I2: float
    I2_positive_part: float

    def __post_init__(self):
        for name in ("theta", "p_hat", "laplacian_p", "hessian_p"):
            arr = getattr(self, name)
            arr.setflags(write=False)


def _i1_quadrature(sigma: np.ndarray, lap: np.ndarray, n: int, S: float) -> float:
    lap2 = lap * lap
    return float(np.mean(sigma * n + 2.0 * sigma * lap + S * lap2 + (sigma - S) * lap2 / n)) / n


def _traceless_square(hessian: np.ndarray, lap: np.ndarray, n: int) -> np.ndarray:
    q = -lap * lap / n
    square = np.empty_like(q)
    for i in range(n):
        for j in range(n):
            q += np.multiply(hessian[i, j], hessian[i, j], out=square)
    # |M|^2 - (tr M)^2 / n >= 0 pointwise; clip float noise
    return np.maximum(q, 0.0, out=q)


def build_optimal_potential(grid: VoxelGrid, S: float) -> PotentialField:
    """Construct theta, p, lap p, D^2 p and the split values I1, I2.

    theta has zero mean by construction of L (the grid harmonic mean), and
    the zero-frequency coefficient of p is set to zero.
    """
    if not 0.0 < S < np.inf:
        raise ValueError(f"S must be finite and positive, got {S}")
    sigma = grid.conductivity_field()
    n = grid.dimension
    shape = sigma.shape
    w = sigma + (n - 1) * S
    L = 1.0 / float(np.mean(1.0 / w))
    theta = n * L / w - n

    theta_hat = np.fft.rfftn(theta)
    ks, k2 = half_wavenumbers(shape, zero_nyquist=False)
    mask = _subnyquist_mask(shape)
    p_hat = np.zeros_like(theta_hat)
    p_hat[mask] = -theta_hat[mask] / k2[mask]

    axes = tuple(range(n))
    laplacian = np.fft.irfftn(-k2 * p_hat, s=shape, axes=axes)
    hessian = np.empty((n, n) + shape)
    for i in range(n):
        for j in range(i, n):
            h = np.fft.irfftn(-ks[i] * ks[j] * p_hat, s=shape, axes=axes)
            hessian[i, j] = h
            if i != j:
                hessian[j, i] = h

    i1 = _i1_quadrature(sigma, theta, n, S)
    i2, i2_pos = _i2_quadrature(sigma, hessian, laplacian, n, S)
    return PotentialField(
        grid=grid,
        S=float(S),
        theta=theta,
        p_hat=p_hat,
        laplacian_p=laplacian,
        hessian_p=hessian,
        I1=i1,
        I2=i2,
        I2_positive_part=i2_pos,
    )


def _i2_quadrature(sigma, hessian, lap, n, S) -> tuple[float, float]:
    q = _traceless_square(hessian, lap, n)
    weight = sigma - S
    i2 = float(np.mean(weight * q)) / n
    i2_pos = float(np.mean(np.maximum(weight, 0.0) * q)) / n
    return i2, i2_pos


def constructive_value(pf: PotentialField) -> float:
    """Upper bound carried by the test field I + D^2 p.

    Evaluates I1 with the grid-resolved Laplacian plus the positive-part I2,
    which dominates the exact energy mean(sigma |I + D^2 p|^2) / n of an
    admissible competitor, so the result is >= sigma_bar of the same grid up
    to solver tolerance.
    """
    sigma = pf.grid.conductivity_field()
    n = pf.grid.dimension
    i1_grid = _i1_quadrature(sigma, pf.laplacian_p, n, pf.S)
    return i1_grid + pf.I2_positive_part


def constructive_upper(grid: VoxelGrid, S: float) -> float:
    """Constructive upper bound for sigma_bar at shift parameter S."""
    return constructive_value(build_optimal_potential(grid, S))


def traceless_hessian(pf: PotentialField) -> np.ndarray:
    """D^2 p - (lap p / n) I as an (n, n, *grid) component stack.

    In 2D the stack is [[a, b], [b, -a]] with a = (h00 - h11) / 2 and
    b = h01, the traceless part of the Hessian matrix itself: its trace is 0
    exactly, and a agrees with h00 - lap p / 2 to round-off.
    """
    n = pf.grid.dimension
    h = pf.hessian_p
    if n == 2:
        a, b = (h[0, 0] - h[1, 1]) / 2, h[0, 1]
        return np.array([[a, b], [b, -a]])
    out = h.copy()
    for i in range(n):
        out[i, i] -= pf.laplacian_p / n
    return out


def _distinct_traceless(pf: PotentialField) -> tuple[np.ndarray, float]:
    """The distinct components of traceless_hessian(pf) as one stack, and the
    factor taking the sum of their squares to the full Frobenius square.

    In 2D the first row [a, b] of [[a, b], [b, -a]] holds every distinct
    component, each standing for two, so statistics that are a maximum over
    components or a fraction of all component values (bmo_norm,
    john_nirenberg_fit) come out the same on it, and the quadratic mass is
    2 (a^2 + b^2).  In 3D the full stack of 9 is returned with factor 1.
    """
    full = traceless_hessian(pf)
    if pf.grid.dimension == 2:
        return full[0], 2.0
    return full, 1.0


def oscillation_closed_form(grid: VoxelGrid, S: float) -> float:
    """osc theta = n L osc sigma / ((inf sigma + (n-1)S)(sup sigma + (n-1)S))."""
    sigma = grid.conductivity_field()
    n = grid.dimension
    w = sigma + (n - 1) * S
    L = 1.0 / float(np.mean(1.0 / w))
    lo = float(sigma.min())
    hi = float(sigma.max())
    return n * L * (hi - lo) / ((lo + (n - 1) * S) * (hi + (n - 1) * S))
