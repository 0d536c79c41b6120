import math

import numpy as np
import pytest

from conducta.cell_solver import (
    EffectiveTensor,
    SolverConfig,
    _half_spectrum_dot,
    _spectral_cg,
    _traceless_square,
    build_optimal_potential,
    constructive_upper,
    constructive_value,
    oscillation_closed_form,
    solve_effective_tensor,
    traceless_hessian,
)
from conducta.errors import ConvergenceError
from conducta.microstructure import (
    VoxelGrid,
    empirical_phase_set,
    generate_checkerboard,
    generate_laminate,
    generate_random,
)
from conducta.phases import PhaseSet, shifted_harmonic_L
from conducta.spectral import half_wavenumbers

from conftest import random_phase_set

TWO_14 = PhaseSet.from_pairs((1.0, 4.0), (0.5, 0.5), 2)


def homogeneous(c=3.0, shape=(8, 8)):
    return VoxelGrid(np.zeros(shape, np.uint8), (c,))


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(relative_tolerance=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)

    def test_result_arrays_are_read_only(self):
        g = generate_random(TWO_14, (8, 8), seed=2)
        pf = build_optimal_potential(g, 2.0)
        arrays = [pf.p_hat, pf.theta, pf.hessian_p, solve_effective_tensor(g).matrix, g.phase_index]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1

    def test_tensor_owns_its_matrix(self):
        # the tensor kept the caller's float array and froze it
        m = np.eye(2)
        tensor = EffectiveTensor(2, m, 1.0, (1, 1), (0.0, 0.0), 0.0)
        m[0, 0] = 5.0  # the caller's array stays writable
        assert tensor.matrix[0, 0] == 1.0

    def test_tensor_symmetry_enforced(self):
        with pytest.raises(ValueError, match="symmetric"):
            EffectiveTensor(2, np.array([[1.0, 0.5], [0.0, 1.0]]), 1.0, (1, 1), (0.0, 0.0), 0.0)


class TestWavenumbers:
    def test_modes_nyquist_and_k2(self):
        ks, k2 = half_wavenumbers((4, 6), zero_nyquist=False)
        assert ks[0].shape == (4, 1) and ks[1].shape == (1, 4) and k2.shape == (4, 4)
        assert np.array_equal(ks[0].ravel() / (2 * np.pi), [0, 1, -2, -1])
        # the halved axis keeps fftfreq's sign at its Nyquist column
        assert np.array_equal(ks[1].ravel() / (2 * np.pi), [0, 1, 2, -3])
        assert np.array_equal(k2, ks[0] ** 2 + ks[1] ** 2)
        ks, k2 = half_wavenumbers((4, 6), zero_nyquist=True)
        assert np.array_equal(ks[0].ravel() / (2 * np.pi), [0, 1, 0, -1])
        assert np.array_equal(ks[1].ravel() / (2 * np.pi), [0, 1, 2, 0])
        assert np.array_equal(k2[2], ks[1].ravel() ** 2)
        ks, _ = half_wavenumbers((4, 5), zero_nyquist=True)
        assert np.array_equal(ks[1].ravel() / (2 * np.pi), [0, 1, 2])  # odd axis: no Nyquist mode

    @pytest.mark.parametrize("shape", [(4, 6), (4, 5), (6, 4, 4), (8, 32), (5, 7, 9), (16, 16, 16)])
    def test_half_spectrum_is_a_slice(self, shape):
        # of full fftfreq grids built here, with |k|^2 summed axis by axis from
        # zero; same values and order, so equal bit for bit
        m = shape[-1] // 2 + 1
        for zero_nyquist in (False, True):
            modes = []
            for n in shape:
                k = 2 * np.pi * np.fft.fftfreq(n, d=1.0 / n)
                if zero_nyquist and n % 2 == 0:
                    k[n // 2] = 0.0
                modes.append(k)
            grids = np.meshgrid(*modes, indexing="ij")
            k2 = np.zeros(shape)
            for g in grids:
                k2 = k2 + g * g
            hks, hk2 = half_wavenumbers(shape, zero_nyquist)
            assert hk2.shape == shape[:-1] + (m,)
            assert np.array_equal(hk2, k2[..., :m])
            for g, hk in zip(grids, hks):
                assert np.array_equal(np.broadcast_to(hk, hk2.shape), g[..., :m])


class TestEffectiveTensor:
    def test_homogeneous_exact_no_iterations(self):
        t = solve_effective_tensor(homogeneous(3.0))
        assert np.array_equal(t.matrix, 3.0 * np.eye(2))
        assert t.iterations == (0, 0)
        assert t.sigma_bar == 3.0

    # every normal axis, the last (the halved rfftn axis) included; axes of
    # length 2 carry only the mean and Nyquist modes, so no corrector exists
    # along them and they are left out
    @pytest.mark.parametrize(
        "shape, normal",
        [(shape, axis) for shape in ((64, 64), (4, 64), (64, 4), (16, 16, 16), (8, 4, 4))
         for axis in range(len(shape))],
        ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else f"axis{v}",
    )
    def test_laminate_oracle(self, shape, normal):
        n = len(shape)
        g = generate_laminate(PhaseSet.from_pairs((1.0, 4.0), (0.5, 0.5), n), normal, shape)
        t = solve_effective_tensor(g)
        # along the lamination normal: harmonic mean, across: arithmetic
        expected = np.full(n, 2.5)
        expected[normal] = 1.6
        assert np.diag(t.matrix) == pytest.approx(expected, rel=1e-9)
        assert np.abs(t.matrix - np.diag(np.diag(t.matrix))).max() < 1e-10
        assert t.sigma_bar == pytest.approx((1.6 + (n - 1) * 2.5) / n, rel=1e-9)
        pf = build_optimal_potential(g, 2.0)
        assert pf.p_hat.shape == shape[:-1] + (shape[-1] // 2 + 1,)
        # p varies along the normal only: D^2 p has one entry, lap p
        hessian = pf.hessian_p.copy()
        assert np.abs(hessian[normal, normal] - pf.laplacian_p).max() < 1e-12
        hessian[normal, normal] = 0.0
        assert np.abs(hessian).max() < 1e-12

    def test_checkerboard_geometric_mean(self):
        g = generate_checkerboard(1.0, 4.0, (64, 64))
        t = solve_effective_tensor(g)
        assert t.sigma_bar == pytest.approx(2.0, rel=2e-2)

    def test_high_contrast_converges(self):
        ps = PhaseSet.from_pairs((1.0, 100.0), (0.5, 0.5), 2)
        g = generate_random(ps, (32, 32), seed=0)
        t = solve_effective_tensor(g, SolverConfig(max_iterations=400))
        assert max(t.iterations) <= 400
        assert all(r <= 1e-8 for r in t.residuals)
        emp = empirical_phase_set(g)
        harm = 1.0 / math.fsum(m / s for s, m in zip(emp.conductivities, emp.fractions))
        arit = math.fsum(m * s for s, m in zip(emp.conductivities, emp.fractions))
        assert harm * (1 - 1e-9) <= t.sigma_bar <= arit * (1 + 1e-9)

    def test_axis_permutation_equivariance(self):
        g = generate_random(TWO_14, (32, 32), seed=11)
        gp = VoxelGrid(np.ascontiguousarray(g.phase_index.T), g.phase_conductivities)
        a = solve_effective_tensor(g).matrix
        b = solve_effective_tensor(gp).matrix
        perm = b[::-1, ::-1].T
        assert np.abs(a - perm).max() < 1e-12

    def test_wiener_sandwich(self):
        rng = np.random.default_rng(0)
        for seed in range(3):
            ps = random_phase_set(rng, 3, 2)
            g = generate_random(ps, (32, 32), seed=seed)
            emp = empirical_phase_set(g)
            t = solve_effective_tensor(g)
            harm = 1.0 / math.fsum(m / s for s, m in zip(emp.conductivities, emp.fractions))
            arit = math.fsum(m * s for s, m in zip(emp.conductivities, emp.fractions))
            eigs = t.eigenvalues
            assert eigs.min() >= harm * (1 - 1e-9)
            assert eigs.max() <= arit * (1 + 1e-9)

    def test_flux_discrepancy_small_at_convergence(self):
        g = generate_random(TWO_14, (32, 32), seed=1)
        t = solve_effective_tensor(g, SolverConfig(relative_tolerance=1e-10))
        assert t.flux_discrepancy < 1e-8

    def test_nonconvergence_raises_with_residual(self):
        g = generate_random(TWO_14, (32, 32), seed=1)
        with pytest.raises(ConvergenceError) as err:
            solve_effective_tensor(g, SolverConfig(relative_tolerance=1e-14, max_iterations=2))
        assert err.value.iterations == 2
        assert err.value.residual > 0.0

    def test_overflow_raises_before_iterating(self):
        # rfftn of (1, 1e308) overflows; the solve ran 1000 NaN iterations before raising
        idx = np.random.default_rng(0).integers(0, 2, (128, 128)).astype(np.uint8)
        g = VoxelGrid(idx, (1.0, 1e308))
        with pytest.raises(ConvergenceError, match="non-finite right-hand side") as err:
            with pytest.warns(RuntimeWarning) as warned:
                solve_effective_tensor(g)
        assert err.value.iterations == 0
        assert any("overflow" in str(w.message) for w in warned)

    def test_non_finite_residual_stops_cg_at_once(self):
        calls = []

        def nan_operator(p):
            calls.append(p)
            return p * np.nan

        b = np.ones((4, 3), dtype=complex)
        with pytest.raises(ConvergenceError, match="non-finite residual") as err:
            _spectral_cg(nan_operator, np.ones((4, 3)), _half_spectrum_dot((4, 4)), b, 1e-8, 1000, "nan")
        assert err.value.iterations == 1 and len(calls) == 1


FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts the numpy.fft transforms called through the public namespace."""
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in FFT_NAMES:
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    return calls


class TestTransformBudget:
    @pytest.mark.parametrize("shape", [(64, 64), (16, 16, 16)])
    def test_solve_uses_2n_real_transforms_per_iteration(self, shape, fft_calls):
        n = len(shape)
        ps = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), n)
        g = generate_random(ps, shape, seed=11)
        t = solve_effective_tensor(g)
        assert min(t.iterations) > 0
        # rfftn(sigma) once; per direction 2n per iteration and n gradients
        assert sum(fft_calls.values()) == 1 + sum(it * 2 * n + n for it in t.iterations)
        assert set(fft_calls) == {"rfftn", "irfftn"}

    @pytest.mark.parametrize("shape", [(32, 32), (16, 16, 16)])
    def test_smooth_generation_uses_one_real_transform_pair(self, shape, fft_calls):
        ps = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), len(shape))
        generate_random(ps, shape, seed=3, mode="smooth")
        assert fft_calls == {"rfftn": 1, "irfftn": 1}

    @pytest.mark.parametrize("shape", [(32, 32), (8, 8, 8)])
    def test_potential_uses_real_transforms(self, shape, fft_calls):
        n = len(shape)
        g = generate_random(PhaseSet.from_pairs((1.0, 4.0), (0.5, 0.5), n), shape, seed=2)
        build_optimal_potential(g, 2.0)
        # rfftn(theta), then one irfftn for lap p and each Hessian entry
        assert fft_calls == {"rfftn": 1, "irfftn": 1 + n * (n + 1) // 2}


class TestOptimalPotential:
    def test_rejects_nonpositive_S(self):
        for S in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="finite and positive"):
                build_optimal_potential(homogeneous(), S)

    def test_homogeneous_all_zero(self):
        pf = build_optimal_potential(homogeneous(3.0), 1.0)
        assert np.abs(pf.theta).max() == 0.0
        assert np.abs(pf.hessian_p).max() == 0.0
        assert pf.I2 == 0.0 and pf.I2_positive_part == 0.0
        assert pf.I1 == pytest.approx(3.0, rel=1e-14)

    def test_two_phase_theta_values_and_oscillation(self):
        # sigma=(1,2) at 50/50, n=2, S=1: theta = +-0.4, osc = 0.8
        ps = PhaseSet.from_pairs((1.0, 2.0), (0.5, 0.5), 2)
        g = generate_laminate(ps, 0, (8, 8))
        pf = build_optimal_potential(g, 1.0)
        sigma = g.conductivity_field()
        assert pf.theta[sigma == 1.0] == pytest.approx(0.4, rel=1e-12)
        assert pf.theta[sigma == 2.0] == pytest.approx(-0.4, rel=1e-12)
        assert (pf.theta.max() - pf.theta.min()) == pytest.approx(0.8, rel=1e-12)
        assert oscillation_closed_form(g, 1.0) == pytest.approx(0.8, rel=1e-12)

    def test_theta_zero_mean_and_p_zero_frequency(self):
        g = generate_random(TWO_14, (32, 32), seed=2)
        pf = build_optimal_potential(g, 2.0)
        assert abs(pf.theta.mean()) < 1e-10
        assert pf.p_hat[0, 0] == 0.0

    def test_hessian_trace_is_laplacian_pointwise(self):
        g = generate_random(TWO_14, (32, 32), seed=3)
        pf = build_optimal_potential(g, 2.0)
        trace = pf.hessian_p[0, 0] + pf.hessian_p[1, 1]
        assert np.abs(trace - pf.laplacian_p).max() < 1e-10

    def test_hessian_laplacian_energy_identity(self):
        for seed, S in ((4, 1.0), (5, 2.5)):
            g = generate_random(TWO_14, (64, 64), seed=seed)
            pf = build_optimal_potential(g, S)
            h2 = float(np.sum(pf.hessian_p**2, axis=(0, 1)).mean())
            l2 = float((pf.laplacian_p**2).mean())
            assert abs(h2 - l2) <= 1e-8 * max(1.0, l2)

    def test_pointwise_matrix_inequality(self):
        g = generate_random(TWO_14, (32, 32), seed=6)
        pf = build_optimal_potential(g, 1.5)
        raw = np.sum(pf.hessian_p**2, axis=(0, 1)) - pf.laplacian_p**2 / 2
        assert raw.min() > -1e-12

    def test_traceless_energy_below_theta_energy(self):
        g = generate_random(TWO_14, (64, 64), seed=7)
        pf = build_optimal_potential(g, 2.0)
        tr = traceless_hessian(pf)
        lhs = float(np.sum(tr**2, axis=(0, 1)).mean())
        rhs = 0.5 * float((pf.theta**2).mean())
        assert lhs <= rhs + 1e-8 * max(1.0, rhs)

    def test_oscillation_closed_form_matches(self):
        g = generate_random(PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), 2), (32, 32), seed=8)
        for S in (1.0, 3.0, 5.0):
            pf = build_optimal_potential(g, S)
            assert abs((pf.theta.max() - pf.theta.min()) - oscillation_closed_form(g, S)) < 1e-10


class TestI1I2:
    def test_i1_quadrature_matches_closed_form(self):
        for seed in (0, 1):
            g = generate_random(TWO_14, (64, 64), seed=seed)
            emp = empirical_phase_set(g)
            for S in (1.0, 2.5, 4.0):
                pf = build_optimal_potential(g, S)
                closed = -(emp.dimension - 1) * S + shifted_harmonic_L(emp, S)
                assert pf.I1 == pytest.approx(closed, rel=1e-8)

    def test_i1_closed_form_on_dyadic_laminate(self):
        ps = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.25, 0.25, 0.5), 3)
        g = generate_laminate(ps, 0, (16, 16, 16))
        pf = build_optimal_potential(g, 2.0)
        closed = -2 * 2.0 + shifted_harmonic_L(ps, 2.0)
        assert pf.I1 == pytest.approx(closed, rel=1e-12)

    def test_i2_laminate_closed_form(self):
        # 1D Hessian: the traceless square is (1 - 1/n) theta^2
        g = generate_laminate(TWO_14, 0, (64, 64))
        pf = build_optimal_potential(g, 1.0)
        n, S = 2, 1.0
        L = shifted_harmonic_L(TWO_14, S)
        expected = 0.0
        for s, m in zip(TWO_14.conductivities, TWO_14.fractions):
            theta = n * L / (s + (n - 1) * S) - n
            expected += m * (s - S) * (1 - 1 / n) * theta**2 / n
        i2, i2_pos = pf.I2, pf.I2_positive_part
        assert i2 == pytest.approx(expected, rel=1e-6)
        assert i2 == pytest.approx(27.0 / 98.0, rel=1e-6)

    @pytest.mark.parametrize("shape", [(16, 16), (8, 8, 8)])
    def test_traceless_square_matches_reference_loop(self, shape):
        # accumulated in place, in the order of the out-of-place loop it replaced
        ps = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), len(shape))
        pf = build_optimal_potential(generate_random(ps, shape, seed=4), 2.0)
        n, h, lap = len(shape), pf.hessian_p, pf.laplacian_p
        q = -lap * lap / n
        for i in range(n):
            for j in range(n):
                q = q + h[i, j] * h[i, j]
        assert np.array_equal(_traceless_square(h, lap, n), np.maximum(q, 0.0))

    def test_i2_below_positive_part_and_zero_at_sup(self):
        g = generate_random(TWO_14, (32, 32), seed=9)
        for S in (1.0, 2.0, 4.0):
            pf = build_optimal_potential(g, S)
            i2, i2_pos = pf.I2, pf.I2_positive_part
            assert i2 <= i2_pos
        assert build_optimal_potential(g, 4.0).I2_positive_part == 0.0

    def test_i2_positive_part_layer_cake_identity(self):
        # pointwise (sigma - S)^+ = integral over t > S of 1_{sigma > t},
        # so the positive-part I2 equals the integral of the superlevel-set
        # energies of the traceless square; this is the step that converts
        # the bound into a statement about the distribution function alone
        ps = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), 2)
        g = generate_random(ps, (32, 32), seed=12)
        sigma = g.conductivity_field()
        n = g.dimension
        for S in (0.7, 1.5, 3.0):
            pf = build_optimal_potential(g, S)
            q = np.sum(pf.hessian_p**2, axis=(0, 1)) - pf.laplacian_p**2 / n
            thresholds = [S] + [t for t in np.unique(sigma) if t > S]
            integral = 0.0
            for lo, hi in zip(thresholds, thresholds[1:]):
                integral += (hi - lo) * float(q[sigma > lo].sum()) / q.size
            assert pf.I2_positive_part == pytest.approx(integral / n, rel=1e-12)


class TestConstructiveBound:
    def test_homogeneous_equals_conductivity(self):
        assert constructive_upper(homogeneous(3.0), 1.0) == pytest.approx(3.0, rel=1e-14)

    def test_checkerboard_at_sup_matches_hs(self):
        g = generate_checkerboard(1.0, 4.0, (64, 64))
        hs = -4 + 1.0 / (0.5 / 5 + 0.5 / 8)
        assert constructive_upper(g, 4.0) == pytest.approx(hs, abs=1e-3)

    def test_admissibility_on_random_grids(self):
        rng = np.random.default_rng(123)
        for seed in range(6):
            ps = random_phase_set(rng, 2, 2, sigma_range=(1.0, 5.0))
            g = generate_random(ps, (32, 32), seed=seed)
            sb = solve_effective_tensor(g).sigma_bar
            emp = empirical_phase_set(g)
            for S in (emp.inf_sigma, emp.sup_sigma):
                assert constructive_upper(g, S) >= sb * (1 - 1e-9)

    def test_constructive_value_reuses_field(self):
        g = generate_random(TWO_14, (32, 32), seed=4)
        pf = build_optimal_potential(g, 2.0)
        assert constructive_value(pf) == constructive_upper(g, 2.0)
