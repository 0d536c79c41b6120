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
The solve has no settings.  Each direction stops at whichever exit comes
first: a relative residual of 1e-8, or a certified energy error of at most
1e-14 times the harmonic mean of sigma, which is below every A_ii.  The
certificate is the CG energy-error bound (sigma_0 / inf sigma) (r, G r):
-div(sigma grad .) is at least inf sigma / sigma_0 times the reference
operator -sigma_0 lap, so its inverse is at most sigma_0 / inf sigma times
G.  A direction gives up after a cap set by the contrast
kappa = sup / inf sigma, which bounds the preconditioned spectrum, naming
the certified error reached; past kappa = 1e-8 / eps round-off reaches the
target, so the solve fails before any transform.
The reported tensor uses the energy bilinear form, which is variationally
one-sided; the mismatch against the flux average is kept as a convergence
diagnostic.  Each direction's corrector is kept as its half spectrum and
the last right-hand side is formed in the buffer of sigma's transform, so
CG holds two real fields, the Green operator and n + 4 half spectra
(scratch, div sigma grad, x, r, p and n - 1 correctors).  A and the flux
are then assembled one axis at a time from the n total gradients
(e_j + grad u_j) along it, in n reused real buffers and one scratch, so the
n^2 gradients never exist at once: the assembly holds n + 2 real fields and
n + 1 half spectra, less than CG in 3D, about as much in 4D and more from
5D on.  A zero corrector's gradients need no transform.

Past the one forward transform of sigma (or theta), whose result is kept,
every transform writes into buffers allocated once per call: a forward one
through ``rfftn(..., out=)``, an inverse one through
``spectral.irfftn_into``.  Both are bit for bit numpy's allocating
transforms, without a fresh array per pass.

Second, the constructive upper bound: the scalar potential p whose Laplacian
equals the pointwise optimal field

    theta = n L / (sigma + (n-1) S) - n,

with L = ``phases.shifted_harmonic_L`` of ``grid.phase_set``, inverted
spectrally on the rfftn half spectrum of theta, which is also where
PotentialField.p_hat lives.  The split value I1 + I2 of the energy of
the test field I + D^2 p is then a certified upper bound for sigma_bar on the
same grid.  build_optimal_potential builds theta and p_hat.  theta is
evaluated once per entry of the grid's conductivity table and gathered by
phase_index, so the potential builds no conductivity field; p_hat is
-theta_hat / |k|^2 with the mean and the Nyquist planes zeroed.  The
quadratures I1, I2 and I2_positive_part are computed when first read and
kept, from one conductivity gather; the Laplacian they need is transformed
there and not kept.  I2 and the BMO report see p only through its
traceless Hessian T = D^2 p - (lap p / n) I, the exact Fourier multiplier
-(k_i k_j - delta_ij |k|^2 / n) of p_hat, and both take its distinct
entries from one generator: n(n+1)/2 - 1 transforms, the last diagonal
entry being minus the sum of the others.  The quadratures stream the
entries one at a time into the square |T|^2, a sum of squares and so
nonnegative; traceless_hessian fills the (n, n) stack, or only its first
row, which in 2D holds every entry.  A p_hat with no nonzero entry makes no
transform.  The BMO report reads no quadrature, so it computes no Laplacian.
Every potential-path multiplier reads ``spectral.shared_wavenumbers``, which
the solve clears on entry.

Both jobs follow one scale rule: compute on sigma / 2^e and S / 2^e (S = 0
for the solve), 2^e the least power of two above sup sigma + (n-1) S, sup
sigma read from ``grid.phase_set`` like every range this module names, and
scale A or the quadratures back by 2^e, both exactly: at 2^m sigma and 2^m S
they scale by 2^m, theta, p and D^2 p not at all, unless a value is subnormal.

Differentiation conventions (these are constraints, not taste):

* Derivatives are exact Fourier multipliers of the trigonometric interpolant,
  never finite differences, so mean|D^2 p|^2 = mean|lap p|^2 holds to
  round-off and tr(D^2 p) equals lap p pointwise.
* First-derivative multipliers zero the Nyquist frequency on even axes; an
  odd multiplier there cannot produce a real field.
* The potential p is supported on modes with no Nyquist component (and zero
  mean).  lap p is therefore theta with its Nyquist-plane content
  removed, i.e. theta at grid resolution; the raw theta field is stored
  separately and is what PotentialField.I1 integrates, matching theorem 1's
  H(S), the weighted mean L sum mu_i sigma_i / (sigma_i + (n-1)S) of
  ``bounds``, to round-off: its integrand sigma (n + theta)^2 / n +
  (n-1)/n S theta^2 has no cancelling terms.  constructive_value integrates
  the grid-resolved fields instead, so its admissibility (value >= sigma_bar)
  is exact at the discrete level; on band-limited media such as laminates
  and checkerboards the two quadratures coincide.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .microstructure import VoxelGrid
from .phases import shifted_harmonic_L
from .spectral import half_wavenumbers, irfftn_into, shared_wavenumbers

__all__ = [
    "EffectiveTensor",
    "PotentialField",
    "solve_effective_tensor",
    "build_optimal_potential",
    "constructive_upper",
    "constructive_value",
    "traceless_hessian",
]

_RELATIVE_TOLERANCE = 1e-8  # CG stops once |r| / |b| is at most this, in every direction,
_ENERGY_TOLERANCE = 1e-14  # or once the certified energy error is at most this times the harmonic mean
_MAX_CONTRAST = _RELATIVE_TOLERANCE / np.finfo(float).eps  # past it, round-off in the operator reaches the target


def _iteration_cap(contrast: float) -> int:
    """Twice the k at which CG's residual bound 2 sqrt(kappa) exp(-2k / sqrt(kappa)) reaches 1e-8, kappa = contrast."""
    root = math.sqrt(contrast)
    return math.ceil(root * math.log(2.0 * root / _RELATIVE_TOLERANCE))


def _zero_nyquist_and_mean(spec: np.ndarray, shape: tuple[int, ...]) -> None:
    """Zero the half-spectrum modes with a Nyquist component, and the mean, in place."""
    for ax, n in enumerate(shape):
        if n % 2 == 0:
            sl = [slice(None)] * len(shape)
            sl[ax] = n // 2
            spec[tuple(sl)] = 0.0
    spec[(0,) * len(shape)] = 0.0


def _scale_exponent(grid: VoxelGrid, S: float = 0.0) -> int:
    """e of the module's scale rule: 2^e is the least power of two above sup sigma + (n-1) S."""
    return math.frexp(grid.phase_set.sup_sigma + (grid.dimension - 1) * S)[1]


def _scale_down(grid: VoxelGrid, S: float = 0.0) -> tuple[np.ndarray, float, int]:
    """The grid's conductivity field and S, divided by 2^e of the module's scale rule, and e."""
    e = _scale_exponent(grid, S)
    sigma = grid.conductivity_field()
    np.ldexp(sigma, -e, out=sigma)
    return sigma, math.ldexp(S, -e), e


@contextlib.contextmanager
def _overflow_raises(make_error):
    """Raise ``make_error()`` at the first numpy overflow, division by zero or invalid value in the block."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise make_error() from None


def _record(cls, **fields):
    """A ``cls`` holding ``fields``, made past the class's __init__, which refuses every caller."""
    record = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(record, name, value)
    return record


@dataclass(frozen=True, init=False, eq=False)
class EffectiveTensor:
    """Effective tensor from the cell problem, with solve diagnostics.

    Only solve_effective_tensor makes one, over the read-only, exactly
    symmetric matrix it has just assembled, with one iteration count and one
    residual per direction; calling the class raises TypeError.
    dimension and sigma_bar = tr A / n are read off the matrix.  Equality
    and hashing go by identity.
    """

    matrix: np.ndarray
    iterations: tuple[int, ...]
    residuals: tuple[float, ...]
    flux_discrepancy: float

    def __init__(self, *args, **kwargs):
        raise TypeError("an EffectiveTensor is made only by solve_effective_tensor")

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def sigma_bar(self) -> float:
        return float(np.trace(self.matrix)) / self.dimension

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


def _spectral_cg(apply_op, green: np.ndarray, dot, b: np.ndarray, max_iter: int, label: str, energy_error):
    """Green-preconditioned conjugate gradients on half spectra; returns (x, iterations, residual).

    Stops once the relative residual is at most _RELATIVE_TOLERANCE or
    ``energy_error(rz)``, the certified relative energy error of an iterate
    whose residual r has rz = (r, G r), is at most _ENERGY_TOLERANCE.  A
    right-hand side of norm 0 returns a zero corrector after 0 iterations.
    Raises ConvergenceError after max_iter iterations, naming the certified
    error reached, or as soon as a residual is not finite (an overflow would
    otherwise run every remaining iteration on NaNs).  ``b`` is overwritten:
    it becomes the residual.  The loop holds x, r, p and the array
    ``apply_op`` returns, which CG then overwrites as its scratch: alpha ap,
    alpha p and z = G r pass through it in turn, before the next call.
    """
    b_norm = float(np.sqrt(dot(b, b)))
    if b_norm == 0.0:
        return np.zeros_like(b), 0, 0.0
    x = np.zeros_like(b)
    r = b
    p = green * r  # z = G r, the first search direction
    rz = dot(r, p)
    residual, error = 1.0, energy_error(rz)
    for it in range(1, max_iter + 1):
        ap = apply_op(p)
        alpha = rz / dot(p, ap)
        r -= np.multiply(alpha, ap, out=ap)
        x += np.multiply(alpha, p, out=ap)
        residual = float(np.sqrt(dot(r, r))) / b_norm
        if residual <= _RELATIVE_TOLERANCE:
            return x, it, residual
        if not math.isfinite(residual):
            raise ConvergenceError(f"cell solve for {label} hit a non-finite residual", residual, it)
        z = np.multiply(green, r, out=ap)
        rz_new = dot(r, z)
        error = energy_error(rz_new)
        if error <= _ENERGY_TOLERANCE:
            return x, it, residual
        np.add(z, np.multiply(rz_new / rz, p, out=p), out=p)
        rz = rz_new
    raise ConvergenceError(
        f"cell solve for {label} did not converge within its iteration cap,"
        f" with certified relative energy error {error:.3e}",
        residual,
        max_iter,
    )


def solve_effective_tensor(grid: VoxelGrid) -> EffectiveTensor:
    """Effective tensor of the grid by Fourier-preconditioned CG.

    A homogeneous grid needs no correction: the right-hand side vanishes and
    the solve returns after zero iterations with A = sigma I exactly.
    Raises ConvergenceError naming the conductivity range and the contrast
    when the contrast exceeds _MAX_CONTRAST, or when a direction has met
    neither exit within ``_iteration_cap(contrast)`` iterations.
    """
    lo, hi = grid.phase_set.inf_sigma, grid.phase_set.sup_sigma
    span, contrast = f"[{lo:.12g}, {hi:.12g}]", hi / lo
    if contrast > _MAX_CONTRAST:
        message = f"cell solve on conductivities in {span} cannot converge: the contrast {contrast:.12g}"
        raise ConvergenceError(f"{message} exceeds {_MAX_CONTRAST:.12g}", math.nan, 0)
    shared_wavenumbers.cache_clear()  # the solve holds its own, Nyquist-zeroed table and no other
    sigma, _, e = _scale_down(grid)
    with _overflow_raises(lambda: ConvergenceError(f"cell solve overflows on conductivities in {span}", math.nan, 0)):
        n = grid.dimension
        shape = sigma.shape
        ks, k2 = half_wavenumbers(shape, zero_nyquist=True)
        sigma_lo = math.ldexp(lo, -e)
        sigma0 = 0.5 * (sigma_lo + math.ldexp(hi, -e))
        green = np.where(k2 > 0.0, 1.0 / (sigma0 * np.where(k2 > 0.0, k2, 1.0)), 0.0)
        del k2
        dot = _half_spectrum_dot(shape)
        cap = _iteration_cap(contrast)
        harm = math.ldexp(shifted_harmonic_L(grid.phase_set, 0.0), -e)  # below every A_ii
        squared_voxels = sigma.size**2  # dot is that times a real-space mean, by Parseval

        def energy_error(rz):
            # bounds (energy of the iterate - A_ii) / harm, r its residual and rz = (r, G r)
            return sigma0 / sigma_lo * rz / squared_voxels / harm

        # owned by this call: every transform writes into them, never into a fresh array;
        # apply_operator returns div_hat itself, which CG reads and then uses as scratch before the next call
        real = np.empty(shape)
        spec = np.empty(green.shape, dtype=complex)
        div_hat = np.empty_like(spec)
        grad_multipliers = [1j * k for k in ks]
        div_multipliers = [-1j * k for k in ks]

        def gradient(u_hat, axis, out):
            np.multiply(grad_multipliers[axis], u_hat, out=spec)
            return irfftn_into(spec, out)

        def apply_operator(u_hat):
            for axis in range(n):
                np.multiply(sigma, gradient(u_hat, axis, real), out=real)
                np.fft.rfftn(real, out=spec)
                if axis == 0:
                    np.multiply(div_multipliers[0], spec, out=div_hat)
                else:
                    np.add(div_hat, np.multiply(div_multipliers[axis], spec, out=spec), out=div_hat)
            return div_hat

        sigma_hat = np.fft.rfftn(sigma)
        correctors: list[np.ndarray | None] = []  # half spectra; None for a zero corrector
        iterations: list[int] = []
        residuals: list[float] = []
        for i in range(n):
            # the last right-hand side is formed in sigma_hat's buffer, so sigma_hat
            # is never held beside the n - 1 kept correctors
            b = np.multiply(grad_multipliers[i], sigma_hat, out=sigma_hat if i == n - 1 else None)
            u_hat, its, res = _spectral_cg(
                apply_operator,
                green,
                dot,
                b,
                cap,
                f"direction {i} on conductivities in {span} of contrast {contrast:.12g}",
                energy_error,
            )
            correctors.append(u_hat if its else None)
            iterations.append(its)
            residuals.append(res)

        # the n total gradients (e_j + grad u_j) along one axis at a time, in n reused buffers
        del green, sigma_hat, b, u_hat, div_hat
        grads, tmp = [real] + [np.empty(shape) for _ in range(n - 1)], np.empty(shape)
        matrix, flux = np.zeros((n, n)), np.empty((n, n))
        for ax in range(n):
            for j, (g, u_hat) in enumerate(zip(grads, correctors)):
                if u_hat is None:
                    g.fill(0.0)  # a zero corrector's gradients need no transform
                else:
                    gradient(u_hat, ax, g)
                if j == ax:
                    g += 1.0
                flux[ax, j] = float(np.mean(np.multiply(sigma, g, out=tmp)))
            for i in range(n):
                for j in range(i, n):
                    np.multiply(grads[i], grads[j], out=tmp)
                    matrix[i, j] += float(np.mean(np.multiply(sigma, tmp, out=tmp)))
        matrix = np.triu(matrix) + np.triu(matrix, 1).T  # mirrored: nothing below the diagonal was added to
        matrix, flux = np.ldexp(matrix, e), np.ldexp(flux, e)
        matrix.setflags(write=False)
        return _record(EffectiveTensor, matrix=matrix, iterations=tuple(iterations), residuals=tuple(residuals),
                       flux_discrepancy=float(np.abs(matrix - flux).max()))


@dataclass(frozen=True, init=False, eq=False)
class PotentialField:
    """Optimal-Laplacian potential and its derived fields on one grid.

    Only build_optimal_potential makes one, over the theta and p_hat it has
    just built, frozen in place; calling the class raises TypeError.
    Equality and hashing go by identity.
    I1, I2 and I2_positive_part are computed on first read, once: a caller
    that never reads them never pays for them.  The quadratures read the
    traceless Hessian entry by entry.  I1 is the quadrature of the
    raw theta field and agrees with theorem 1's H(S) of ``grid.phase_set``,
    the weighted mean ``bounds`` evaluates, to round-off.  I2 is never above
    I2_positive_part, which uses the positive part of sigma - S and vanishes
    identically at S = sup sigma.  The quadratures follow the module's scale
    rule; reading one raises the ValueError naming the conductivity range on
    overflow.  Arrays are read-only.
    """

    grid: VoxelGrid
    S: float
    theta: np.ndarray
    p_hat: np.ndarray

    def __init__(self, *args, **kwargs):
        raise TypeError("a PotentialField is made only by build_optimal_potential")

    @functools.cached_property
    def _quadratures(self) -> tuple[float, float, float, float]:
        """(I1, I2, I2_positive_part, constructive_value), from one conductivity gather."""
        n = self.grid.dimension
        with _potential_overflow_raises(self.grid, self.S):
            # streamed before the gather, so sigma is not held at the streaming's peak
            q = _streamed_traceless_square(self.p_hat, self.grid.shape)
            sigma, S, e = _scale_down(self.grid, self.S)
            i1 = _i1_quadrature(sigma, self.theta, n, S)
            i2, i2_pos = _i2_quadrature(sigma, q, n, S)
            _, k2 = shared_wavenumbers(self.grid.shape)
            lap = irfftn_into(-k2 * self.p_hat, np.empty(self.grid.shape))  # lap p, the grid-resolved theta
            constructive = _i1_quadrature(sigma, lap, n, S) + i2_pos
            return tuple(np.ldexp((i1, i2, i2_pos, constructive), e).tolist())

    I1 = property(lambda self: self._quadratures[0])
    I2 = property(lambda self: self._quadratures[1])
    I2_positive_part = property(lambda self: self._quadratures[2])


def _potential_overflow_raises(grid: VoxelGrid, S: float):
    """``_overflow_raises`` with the potential's message, naming the conductivity range of the grid."""
    span = f"[{grid.phase_set.inf_sigma:.12g}, {grid.phase_set.sup_sigma:.12g}]"
    return _overflow_raises(
        lambda: ValueError(f"the optimal potential at S = {S:.12g} overflows on conductivities in {span}")
    )


def _i1_quadrature(sigma: np.ndarray, lap: np.ndarray, n: int, S: float) -> float:
    return float(np.mean(sigma * (n + lap) ** 2 / n + (n - 1) / n * S * lap**2)) / n


def _traceless_entries(p_hat: np.ndarray, shape: tuple[int, ...], out_for, rows: int | None = None):
    """Yield (i, j, T_ij) for i <= j in row-major order, each written into ``out_for(i, j)``.

    T = D^2 p - (lap p / n) I.  Each entry but the last diagonal one is the
    inverse transform of -(k_i k_j - delta_ij |k|^2 / n) p_hat, through one
    spectral scratch buffer; T_{n-1,n-1} is minus the sum of the other
    diagonal entries, so the trace is 0 exactly and the 2D stack is
    [[a, b], [b, -a]].  The diagonal entries are summed as they are made,
    before the caller sees them; with ``rows`` below n only the entries of
    the first ``rows`` rows are made, and no sum is kept.  A p_hat with no
    nonzero entry (theta with only Nyquist content) makes no transform: the
    buffers, zero-filled by the caller, already hold the result.
    """
    n = len(shape)
    rows = n if rows is None else rows
    ks, k2 = shared_wavenumbers(shape)
    k2 = k2 / n  # the trace part of each diagonal multiplier; the shared table stays as it is
    spec = np.empty_like(p_hat) if p_hat.any() else None
    trace = np.zeros(shape) if spec is not None and rows == n else None  # the diagonal entries made so far
    for i in range(rows):
        for j in range(i, n):
            out = out_for(i, j)
            if spec is not None and i == j == n - 1:
                np.negative(trace, out=out)
            elif spec is not None:
                multiplier = k2 - ks[i] * ks[i] if i == j else -ks[i] * ks[j]
                irfftn_into(np.multiply(multiplier, p_hat, out=spec), out)
                if trace is not None and i == j:
                    trace += out
            yield i, j, out


def _streamed_traceless_square(p_hat: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """|T|^2 = sum_i T_ii^2 + 2 sum_{i<j} T_ij^2 pointwise, T the traceless Hessian, never held whole.

    The distinct entries arrive one at a time, in the row-major order of
    ``_traceless_entries``, in one buffer; the square is a sum of squares,
    so it is nonnegative with no clip.
    """
    q = np.zeros(shape)
    entry = np.zeros(shape)
    for i, j, t in _traceless_entries(p_hat, shape, lambda i, j: entry):
        square = np.multiply(t, t, out=t)
        if i != j:
            square *= 2.0
        q += square
    return q


def build_optimal_potential(grid: VoxelGrid, S: float) -> PotentialField:
    """Construct theta and p; the split values I1, I2 follow on first read.

    L is ``phases.shifted_harmonic_L`` of ``grid.phase_set``, so theta has
    zero mean up to round-off, and the zero-frequency coefficient of p is set
    to zero.  Raises ValueError when S is not finite and positive or sup
    sigma + (n-1) S overflows, or naming the conductivity range when a value
    overflows.
    """
    if not 0.0 < S < np.inf:
        raise ValueError(f"S must be finite and positive, got {S}")
    L = shifted_harmonic_L(grid.phase_set, S)
    n, shape = grid.dimension, grid.shape
    e = _scale_exponent(grid, S)
    # theta of each table entry; one no voxel carries gets sup sigma's, so it can neither raise nor be read
    carried = set(grid.phase_set.conductivities)
    table = [c if c in carried else grid.phase_set.sup_sigma for c in grid.phase_conductivities]
    sigma = np.ldexp(table, -e)
    with _potential_overflow_raises(grid, S):
        theta = np.take(n * math.ldexp(L, -e) / (sigma + (n - 1) * math.ldexp(S, -e)) - n, grid.phase_index)
        # p_hat = -theta_hat / k2 off the Nyquist planes and the mean, formed in theta_hat's buffer;
        # every mode but the mean (flat index 0, where k2 is 0) is divided through flat views, which
        # write into p_hat as rfftn returns it C-contiguous; the mean is zeroed below
        p_hat = np.fft.rfftn(theta)
        _, k2 = shared_wavenumbers(shape)
        np.negative(p_hat, out=p_hat)
        modes = p_hat.reshape(-1)[1:]
        np.divide(modes, k2.reshape(-1)[1:], out=modes)
        _zero_nyquist_and_mean(p_hat, shape)
    theta.setflags(write=False)
    p_hat.setflags(write=False)
    return _record(PotentialField, grid=grid, S=float(S), theta=theta, p_hat=p_hat)


def _i2_quadrature(sigma: np.ndarray, q: np.ndarray, n: int, S: float) -> tuple[float, float]:
    """I2 and its positive part, from the traceless square q of the Hessian."""
    weight = sigma - S
    i2 = float(np.mean(weight * q)) / n
    i2_pos = float(np.mean(np.maximum(weight, 0.0) * q)) / n
    return i2, i2_pos


def constructive_value(pf: PotentialField) -> float:
    """Upper bound carried by the test field I + D^2 p.

    Evaluates I1 with the grid-resolved Laplacian plus the positive-part I2,
    which dominates the exact energy mean(sigma |I + D^2 p|^2) / n of an
    admissible competitor, so the result is >= sigma_bar of the same grid up
    to solver tolerance.  Raises the potential's ValueError naming the
    conductivity range when a value overflows.
    """
    return pf._quadratures[3]


def constructive_upper(grid: VoxelGrid, S: float) -> float:
    """Constructive upper bound for sigma_bar at shift parameter S."""
    return constructive_value(build_optimal_potential(grid, S))


def traceless_hessian(pf: PotentialField, first_row: bool = False) -> np.ndarray:
    """D^2 p - (lap p / n) I as an (n, n, *grid) component stack, or with
    ``first_row`` only its row T_0j as an (n, *grid) stack.

    Built from the same entries as the quadratures: each off-diagonal entry
    is the inverse transform of -k_i k_j p_hat, and the last diagonal entry
    is minus the sum of the others, so the trace is 0 exactly and the 2D
    stack is [[a, b], [b, -a]] with a = T_00.  In 2D the first row [a, b]
    holds every entry, from 2 transforms; it is the full stack's row 0 to the
    bit.  Raises the potential's
    ValueError naming the conductivity range when a value overflows.
    """
    n, shape = pf.grid.dimension, pf.grid.shape
    if first_row:
        out = np.zeros((n,) + shape)
        entries = _traceless_entries(pf.p_hat, shape, lambda i, j: out[j], rows=1)
    else:
        out = np.zeros((n, n) + shape)
        entries = _traceless_entries(pf.p_hat, shape, lambda i, j: out[i, j])
    with _potential_overflow_raises(pf.grid, pf.S):
        for i, j, t in entries:
            if i != j and not first_row:
                out[j, i] = t
    return out
