import dataclasses
import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conducta import cell_solver, spectral
from conducta.bounds import hs_upper, theorem1_upper
from conducta.cell_solver import (
    EffectiveTensor,
    PotentialField,
    _half_spectrum_dot,
    _spectral_cg,
    _streamed_traceless_square,
    build_optimal_potential,
    constructive_upper,
    constructive_value,
    solve_effective_tensor,
    traceless_hessian,
)
from conducta.errors import ConvergenceError
from conducta.microstructure import (
    VoxelGrid,
    generate_checkerboard,
    generate_laminate,
    generate_random,
)
from conducta.phases import PhaseSet, oscillation_closed_form, shifted_harmonic_L
from conducta.spectral import half_wavenumbers, irfftn_into, shared_wavenumbers

from conftest import hessian_and_laplacian, peak_traced_bytes, random_phase_set

TWO_14 = PhaseSet.from_pairs((1.0, 4.0), (0.5, 0.5), 2)
THREE_3D = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), 3)


def homogeneous(c=3.0, shape=(8, 8)):
    return VoxelGrid(np.zeros(shape, np.uint8), (c,))


@pytest.fixture
def certificates(monkeypatch):
    """Per CG direction, the certified relative energy errors it computed.

    The first is that of the zero corrector; each iteration that does not
    stop at the residual exit adds its own.
    """
    log = []
    spectral_cg = cell_solver._spectral_cg

    def recording(*args):
        energy_error = args[-1]
        errors = []
        log.append(errors)

        def recorded(rz):
            errors.append(energy_error(rz))
            return errors[-1]

        return spectral_cg(*args[:-1], recorded)

    monkeypatch.setattr(cell_solver, "_spectral_cg", recording)
    return log


def met_an_exit(t, certificates) -> bool:
    """Each direction stopped at relative residual 1e-8 or at certified relative energy error 1e-14."""
    return all(r <= 1e-8 or errors[-1] <= 1e-14 for r, errors in zip(t.residuals, certificates, strict=True))


class TestSolverConfig:
    def test_validation(self):
        # the solve has no setting: the contrast decides its iteration cap
        g = homogeneous()
        with pytest.raises(TypeError):
            solve_effective_tensor(g, max_iterations=1000)
        with pytest.raises(TypeError):
            solve_effective_tensor(g, 5)

    def test_result_arrays_are_read_only(self):
        g = generate_random(TWO_14, (8, 8), seed=2)
        pf = build_optimal_potential(g, 2.0)
        arrays = [pf.p_hat, pf.theta, solve_effective_tensor(g).matrix, g.phase_index]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1

    def test_tensor_owns_its_matrix(self):
        matrix = solve_effective_tensor(generate_random(TWO_14, (8, 8), seed=2)).matrix
        assert matrix.flags.owndata and not matrix.flags.writeable

    def test_tensor_reads_dimension_and_sigma_bar_off_its_matrix(self):
        # a tensor took sigma_bar 5.0 beside a matrix of trace / n 1.0, and a float dimension
        tensor = solve_effective_tensor(generate_random(THREE_3D, (8, 8, 8), seed=3))
        assert tensor.dimension == 3 and type(tensor.dimension) is int
        assert tensor.sigma_bar == float(np.trace(tensor.matrix)) / 3
        assert [f.name for f in dataclasses.fields(EffectiveTensor)] == [
            "matrix", "iterations", "residuals", "flux_discrepancy"
        ]

    def test_tensor_is_made_only_by_the_solve(self):
        # a tensor made directly took 1 iteration and 3 residuals beside a 2 x 2 matrix
        for args in [(np.eye(2), (1,), (0.0, 0.0, 0.0), 0.0), ()]:
            with pytest.raises(TypeError, match="made only by solve_effective_tensor"):
                EffectiveTensor(*args)

    @pytest.mark.parametrize("S", [-1.0, 0.0, math.nan, math.inf, -math.inf])
    def test_potential_rejects_a_shift_that_is_not_finite_and_positive(self, S):
        # NaN gave I1 = I2 = nan, and inf gave I1 = inf, I2 = -inf
        with pytest.raises(ValueError, match=re.escape(f"S must be finite and positive, got {S}")):
            build_optimal_potential(generate_random(TWO_14, (8, 8), seed=2), S)

    def test_potential_keeps_seven_public_attributes(self):
        pf = build_optimal_potential(generate_random(TWO_14, (8, 8), seed=2), 2.0)
        public = {name for name in dir(pf) if not name.startswith("_")}
        assert public == {"grid", "S", "theta", "p_hat", "I1", "I2", "I2_positive_part"}
        constructive_value(pf)
        assert {name for name in vars(pf) if not name.startswith("_")} == {"grid", "S", "theta", "p_hat"}

    def test_potential_is_built_over_its_own_arrays(self):
        # a field made directly took an S its theta and p_hat were not built at:
        # on a 16^2 iid (1, 4) grid, S = 1 over the arrays of S = 4 gave I1 2.12449,
        # neither H(1) = 1.97674 nor H(4) = 2.28993
        g = generate_random(TWO_14, (16, 16), seed=0)
        built = build_optimal_potential(g, 4.0)
        for args in [(g, 1.0, built.theta, built.p_hat), ()]:
            with pytest.raises(TypeError, match="made only by build_optimal_potential"):
                PotentialField(*args)
        assert built.theta.flags.owndata and built.p_hat.flags.owndata
        assert not built.theta.flags.writeable and not built.p_hat.flags.writeable
        assert built.I1 == pytest.approx(2.28993, abs=5e-6)
        assert build_optimal_potential(g, 1.0).I1 == pytest.approx(1.97674, abs=5e-6)

    @pytest.mark.parametrize(
        "grid",
        [
            generate_laminate(PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.5, 0.25, 0.25), 3), 1, (4, 8, 4)),
            generate_random(THREE_3D, (8, 8, 8), seed=3),
        ],
        ids=["laminate", "iid"],
    )
    def test_tensor_symmetry_enforced(self, grid):
        # the solve assigns each entry to [i, j] and [j, i], so A is symmetric exactly, with one
        # iteration count and one residual per direction
        tensor = solve_effective_tensor(grid)
        assert np.array_equal(tensor.matrix, tensor.matrix.T)
        assert len(tensor.iterations) == len(tensor.residuals) == 3

    @pytest.mark.parametrize("build", [solve_effective_tensor, lambda g: build_optimal_potential(g, 2.0)],
                             ids=["EffectiveTensor", "PotentialField"])
    def test_records_compare_and_hash_by_identity(self, build):
        # == raised "truth value of an array is ambiguous", and hash raised "unhashable type"
        g = generate_random(TWO_14, (8, 8), seed=2)
        a, b = build(g), build(g)
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, a, b}) == 2


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


class TestPotentialTable:
    """spectral's one shared wavenumber table: read-only, built once a shape, never held by a solve."""

    def test_table_is_read_only_and_equal_to_half_wavenumbers(self):
        ks, k2 = shared_wavenumbers((8, 16))
        want_ks, want_k2 = half_wavenumbers((8, 16), zero_nyquist=False)
        assert np.array_equal(k2, want_k2) and all(np.array_equal(a, b) for a, b in zip(ks, want_ks))
        for a in (*ks, k2):
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 1.0

    @pytest.fixture
    def table_builds(self, monkeypatch):
        """The shapes ``shared_wavenumbers`` built a table for, from an empty cache."""
        calls = []

        def counting(shape, zero_nyquist):
            calls.append((shape, zero_nyquist))
            return half_wavenumbers(shape, zero_nyquist)

        shared_wavenumbers.cache_clear()
        monkeypatch.setattr(spectral, "half_wavenumbers", counting)
        yield calls
        shared_wavenumbers.cache_clear()

    def test_two_potentials_on_one_shape_build_the_table_once(self, table_builds):
        g = generate_random(PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), 2), (32, 32), seed=1)
        for S in (2.0, 3.0):
            pf = build_optimal_potential(g, S)
            constructive_value(pf)
            traceless_hessian(pf)
        assert table_builds == [((32, 32), False)]

    @pytest.mark.parametrize("shape", [(32, 32), (8, 8, 8)])
    def test_smooth_draw_and_its_potentials_build_the_table_once(self, shape, table_builds):
        ps = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), len(shape))
        g = generate_random(ps, shape, seed=1, mode="smooth")
        for S in (2.0, 3.0):
            pf = build_optimal_potential(g, S)
            constructive_value(pf)
            traceless_hessian(pf)
        assert table_builds == [(shape, False)]

    def test_no_potential_table_is_cached_after_a_solve(self):
        g = generate_random(TWO_14, (16, 16), seed=1)
        constructive_value(build_optimal_potential(g, 2.0))
        assert shared_wavenumbers.cache_info().currsize == 1
        solve_effective_tensor(g)
        assert shared_wavenumbers.cache_info().currsize == 0


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
        [(shape, axis) for shape in ((64, 64), (4, 64), (64, 4), (16, 16, 16), (8, 4, 4), (8, 4, 4, 4))
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
        hessian, lap = hessian_and_laplacian(pf.p_hat, shape)
        assert np.abs(hessian[normal, normal] - lap).max() < 1e-12
        hessian[normal, normal] = 0.0
        assert np.abs(hessian).max() < 1e-12

    def test_checkerboard_geometric_mean(self):
        g = generate_checkerboard(1.0, 4.0, (64, 64))
        t = solve_effective_tensor(g)
        assert t.sigma_bar == pytest.approx(2.0, rel=2e-2)

    def test_high_contrast_converges(self, certificates):
        ps = PhaseSet.from_pairs((1.0, 100.0), (0.5, 0.5), 2)
        g = generate_random(ps, (32, 32), seed=0)
        t = solve_effective_tensor(g)
        assert max(t.iterations) <= cell_solver._iteration_cap(100)
        assert met_an_exit(t, certificates)
        emp = g.phase_set
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
            emp = g.phase_set
            t = solve_effective_tensor(g)
            harm = 1.0 / math.fsum(m / s for s, m in zip(emp.conductivities, emp.fractions))
            arit = math.fsum(m * s for s, m in zip(emp.conductivities, emp.fractions))
            eigs = t.eigenvalues
            assert eigs.min() >= harm * (1 - 1e-9)
            assert eigs.max() <= arit * (1 + 1e-9)

    def test_flux_discrepancy_small_at_convergence(self):
        g = generate_random(TWO_14, (32, 32), seed=1)
        t = solve_effective_tensor(g)
        assert t.flux_discrepancy < 1e-8

    def test_nonconvergence_raises_with_residual(self, monkeypatch):
        monkeypatch.setattr(cell_solver, "_iteration_cap", lambda contrast: 2)
        g = generate_random(TWO_14, (32, 32), seed=1)
        with pytest.raises(ConvergenceError) as err:
            solve_effective_tensor(g)
        assert err.value.iterations == 2
        assert err.value.residual > 0.0

    def test_overflow_raises_before_iterating(self):
        # (1, 1e308) overflowed in the Green operator and in rfftn, with five
        # warnings first; now its contrast fails first.  A warning would fail this test.
        idx = np.random.default_rng(0).integers(0, 2, (128, 128)).astype(np.uint8)
        with pytest.raises(ConvergenceError, match=re.escape("on conductivities in [1, 1e+308]")) as err:
            solve_effective_tensor(VoxelGrid(idx, (1.0, 1e308)))
        assert err.value.iterations == 0

    def test_overflowing_right_hand_side_norm_names_the_range(self):
        # at (1, 1e150) only the squared norm of the right-hand side
        # overflowed; now its contrast fails first
        idx = np.random.default_rng(0).integers(0, 2, (128, 128)).astype(np.uint8)
        with pytest.raises(ConvergenceError, match=re.escape("on conductivities in [1, 1e+150]")) as err:
            solve_effective_tensor(VoxelGrid(idx, (1.0, 1e150)))
        assert err.value.iterations == 0

    def test_underflowing_right_hand_side_norm_names_the_range(self):
        # at (1e-170, 2e-170) the squared norm of the right-hand side was 0 and
        # CG returned a zero corrector (sigma_bar the arithmetic mean, 1.5351 lo);
        # on sigma / 2^e it solves as (1, 2) does
        idx = np.random.default_rng(0).integers(0, 2, (32, 32)).astype(np.uint8)
        t = solve_effective_tensor(VoxelGrid(idx, (1e-170, 2e-170)))
        assert t.sigma_bar / 1e-170 == pytest.approx(1.4507188228461896, rel=1e-15, abs=0.0)
        assert t.iterations == (9, 9)

    def test_nyquist_checkerboard_right_hand_side_is_exactly_zero(self):
        # sigma varies only at the Nyquist mode, which the first-derivative multipliers zero
        i, j = np.indices((8, 8))
        t = solve_effective_tensor(VoxelGrid(((i + j) % 2).astype(np.uint8), (1e-170, 2e-170)))
        assert t.iterations == (0, 0) and t.residuals == (0.0, 0.0)
        assert t.sigma_bar == 1.5e-170

    def test_tiny_conductivities_scale_out(self):
        idx = np.random.default_rng(0).integers(0, 2, (32, 32)).astype(np.uint8)
        ratios = [solve_effective_tensor(VoxelGrid(idx, (lo, 2 * lo))).sigma_bar / lo for lo in (1.0, 1e-150)]
        assert ratios[1] == pytest.approx(ratios[0], rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("lo", [1e-160, 1e-170, 1e150])
    def test_extreme_conductivities_scale_out(self, lo):
        # 1e-160 drifted by 1.1e-12 (its squared residual norms were subnormal),
        # 1e-170 gave the arithmetic mean and 1e150 overflowed on a contrast of 2
        idx = np.random.default_rng(0).integers(0, 2, (32, 32)).astype(np.uint8)
        ratios = [solve_effective_tensor(VoxelGrid(idx, (c, 2 * c))).sigma_bar / c for c in (1.0, lo)]
        assert ratios[1] == pytest.approx(ratios[0], rel=1e-15, abs=0.0)

    def test_non_finite_residual_stops_cg_at_once(self):
        calls = []

        def nan_operator(p):
            calls.append(p)
            return p * np.nan

        b = np.ones((4, 3), dtype=complex)
        with pytest.raises(ConvergenceError, match="non-finite residual") as err:
            _spectral_cg(nan_operator, np.ones((4, 3)), _half_spectrum_dot((4, 4)), b, 1000, "nan", lambda rz: 1.0)
        assert err.value.iterations == 1 and len(calls) == 1


@st.composite
def labels_on_small_grids(draw):
    """Phase labels 0..2 on an 8x8, 4x4x4 or 4x4x4x4 grid."""
    shape = draw(st.sampled_from([(8, 8), (4, 4, 4), (4, 4, 4, 4)]))
    size = math.prod(shape)
    return np.array(draw(st.lists(st.integers(0, 2), min_size=size, max_size=size)), np.uint8).reshape(shape)


class TestScaleAndContrast:
    @settings(max_examples=40, deadline=None)
    @given(idx=labels_on_small_grids(), m=st.integers(-1000, 1000))
    def test_power_of_two_scaling_is_exact(self, idx, m):
        base = solve_effective_tensor(VoxelGrid(idx, (1.0, 2.0, 5.0)))
        scaled = solve_effective_tensor(VoxelGrid(idx, tuple(math.ldexp(c, m) for c in (1.0, 2.0, 5.0))))
        assert np.array_equal(scaled.matrix, np.ldexp(base.matrix, m))
        assert scaled.iterations == base.iterations and scaled.residuals == base.residuals

    @settings(max_examples=40, deadline=None)
    @given(idx=labels_on_small_grids(), m=st.integers(-1000, 1000), S=st.sampled_from([0.7, 2.5, 6.0]))
    def test_potential_power_of_two_scaling_is_exact(self, idx, m, S):
        base = build_optimal_potential(VoxelGrid(idx, (1.0, 2.0, 5.0)), S)
        scaled_grid = VoxelGrid(idx, tuple(math.ldexp(c, m) for c in (1.0, 2.0, 5.0)))
        scaled = build_optimal_potential(scaled_grid, math.ldexp(S, m))
        assert np.array_equal(scaled.theta, base.theta)
        for a, b in zip(hessian_and_laplacian(scaled.p_hat, idx.shape), hessian_and_laplacian(base.p_hat, idx.shape)):
            assert np.array_equal(a, b)
        for value in (lambda pf: pf.I1, lambda pf: pf.I2, lambda pf: pf.I2_positive_part, constructive_value):
            assert value(scaled) == np.ldexp(value(base), m)

    def test_contrast_above_the_limit_fails_before_any_transform(self, fft_log):
        idx = np.random.default_rng(1).integers(0, 2, (8, 8)).astype(np.uint8)
        hi = cell_solver._MAX_CONTRAST * (1 + 1e-12)
        with pytest.raises(ConvergenceError, match=re.escape(f"on conductivities in [1, {hi:.12g}]")) as err:
            solve_effective_tensor(VoxelGrid(idx, (1.0, hi)))
        assert f"the contrast {hi:.12g} exceeds {cell_solver._MAX_CONTRAST:.12g}" in str(err.value)
        assert err.value.iterations == 0 and fft_log == []

    def test_contrast_just_below_the_limit_solves(self, certificates):
        idx = np.random.default_rng(1).integers(0, 2, (8, 8)).astype(np.uint8)
        t = solve_effective_tensor(VoxelGrid(idx, (1.0, cell_solver._MAX_CONTRAST * (1 - 1e-12))))
        assert min(t.iterations) > 0 and met_an_exit(t, certificates)

    @pytest.mark.parametrize("contrast", [1.5, 100.0, 1e4])
    @pytest.mark.parametrize("mode", ["iid", "smooth"])
    @pytest.mark.parametrize("shape", [(32, 32), (8, 8, 8)])
    def test_iterations_stay_below_half_the_cap(self, shape, mode, contrast):
        g = generate_random(PhaseSet.from_pairs((1.0, contrast), (0.5, 0.5), len(shape)), shape, seed=0, mode=mode)
        emp = g.phase_set
        t = solve_effective_tensor(g)
        assert 0 < max(t.iterations) <= cell_solver._iteration_cap(emp.sup_sigma / emp.inf_sigma) / 2


class TestCertifiedStopping:
    @pytest.mark.parametrize("contrast", [1.5, 100.0, 1e4])
    @pytest.mark.parametrize("shape", [(64, 64), (16, 16, 16)])
    def test_certificate_bounds_the_energy_error(self, shape, contrast, certificates, monkeypatch):
        n = len(shape)
        g = generate_random(PhaseSet.from_pairs((1.0, contrast), (0.5, 0.5), n), shape, seed=0)
        t = solve_effective_tensor(g)
        monkeypatch.setattr(cell_solver, "_RELATIVE_TOLERANCE", 1e-13)
        monkeypatch.setattr(cell_solver, "_ENERGY_TOLERANCE", 0.0)
        ref = solve_effective_tensor(g)
        harm = shifted_harmonic_L(g.phase_set, 0.0)
        for i, (errors, residual) in enumerate(zip(certificates[:n], t.residuals)):
            excess = t.matrix[i, i] - ref.matrix[i, i]
            ulps = 4 * np.spacing(ref.matrix[i, i])
            # A_ii - A_ii_ref is the energy error, which CG never increases, so
            # the last certificate bounds it at either exit
            assert -ulps <= excess <= errors[-1] * harm + ulps
            if residual > 1e-8:
                assert excess <= 1e-14 * harm + ulps

    @pytest.mark.parametrize("contrast", [1.5, 100.0, 1e4])
    @pytest.mark.parametrize("mode", ["iid", "smooth"])
    @pytest.mark.parametrize("shape", [(32, 32), (8, 8, 8)])
    def test_energy_exit_never_adds_iterations(self, shape, mode, contrast, monkeypatch):
        g = generate_random(PhaseSet.from_pairs((1.0, contrast), (0.5, 0.5), len(shape)), shape, seed=0, mode=mode)
        t = solve_effective_tensor(g)
        monkeypatch.setattr(cell_solver, "_ENERGY_TOLERANCE", 0.0)
        residual_only = solve_effective_tensor(g)
        assert all(a <= b for a, b in zip(t.iterations, residual_only.iterations, strict=True))

    def test_cap_names_the_certified_error_reached(self, certificates, monkeypatch):
        monkeypatch.setattr(cell_solver, "_iteration_cap", lambda contrast: 2)
        with pytest.raises(ConvergenceError) as err:
            solve_effective_tensor(generate_random(TWO_14, (32, 32), seed=1))
        [errors] = certificates
        assert len(errors) == 3 and errors[-1] > 1e-14
        assert f"with certified relative energy error {errors[-1]:.3e} (residual" in str(err.value)


def fft_counts(log) -> dict[str, int]:
    return dict(Counter(name for name, _ in log))


class TestAssembly:
    """The tensor assembled one axis at a time, against the energy form of all n^2 total gradients."""

    @pytest.fixture
    def correctors(self, monkeypatch):
        """Each CG direction's corrector half spectrum, as _spectral_cg returns it."""
        log = []
        spectral_cg = cell_solver._spectral_cg

        def capturing(*args, **kwargs):
            result = spectral_cg(*args, **kwargs)
            log.append(result[0])
            return result

        monkeypatch.setattr(cell_solver, "_spectral_cg", capturing)
        return log

    @pytest.mark.parametrize("shape", [(64, 64), (16, 16, 16), (8, 8, 8, 8)])
    def test_matrix_is_the_energy_form_of_all_gradients(self, shape, correctors):
        n, axes = len(shape), tuple(range(len(shape)))
        g = generate_random(PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), n), shape, seed=11)
        t = solve_effective_tensor(g)
        assert len(correctors) == n and min(t.iterations) > 0
        sigma = g.conductivity_field()
        ks, _ = half_wavenumbers(shape, zero_nyquist=True)
        # total[i][ax] = (e_i + grad u_i)_ax, every one held at once
        total = [[np.fft.irfftn(1j * ks[ax] * u_hat, s=shape, axes=axes) + float(i == ax) for ax in range(n)]
                 for i, u_hat in enumerate(correctors)]
        energy, flux = np.empty((n, n)), np.empty((n, n))
        for i in range(n):
            for j in range(n):
                grad_dot = np.zeros(shape)
                for ax in range(n):
                    grad_dot += total[i][ax] * total[j][ax]
                energy[i, j] = np.mean(sigma * grad_dot)
                flux[i, j] = np.mean(sigma * total[j][i])
        # the per-axis means are summed in another order: last bits only
        assert np.abs(t.matrix - energy).max() <= 8 * np.spacing(np.abs(energy).max())
        # the flux is today's operation on the same gradients, so it keeps its bits
        assert t.flux_discrepancy == np.abs(t.matrix - flux).max()

    @pytest.mark.parametrize("shape", [(8, 8), (16, 4), (4, 4, 4), (2, 2, 2, 2)])
    def test_homogeneous_grid_gives_sigma_identity_without_a_transform(self, shape, correctors, fft_log):
        t = solve_effective_tensor(homogeneous(3.0, shape))
        assert len(correctors) == len(shape) and not any(u.any() for u in correctors)
        assert fft_log == [("rfftn", False)]
        assert np.array_equal(t.matrix, 3.0 * np.eye(len(shape))) and t.flux_discrepancy == 0.0


class TestIrfftnInto:
    @pytest.mark.parametrize("shape", [(8, 8), (6, 10), (7, 9), (64, 64), (4, 6, 8), (5, 7, 9), (16, 16, 16)])
    def test_equals_numpy_irfftn_bit_for_bit(self, shape):
        rng = np.random.default_rng(sum(shape))
        half = shape[:-1] + (shape[-1] // 2 + 1,)
        spec = rng.standard_normal(half) + 1j * rng.standard_normal(half)
        expected = np.fft.irfftn(spec, s=shape, axes=tuple(range(len(shape))))
        out = np.empty(shape)
        assert irfftn_into(spec.copy(), out) is out
        assert np.array_equal(out, expected)


class TestHalfSpectrumDot:
    @pytest.mark.parametrize("shape", [(8, 8), (6, 5), (4, 6, 2), (5, 1), (3, 4, 7)])
    def test_is_the_real_space_dot_by_parseval(self, shape):
        rng = np.random.default_rng(sum(shape))
        x, y = rng.standard_normal(shape), rng.standard_normal(shape)
        value = _half_spectrum_dot(shape)(np.fft.rfftn(x), np.fft.rfftn(y))
        assert value == pytest.approx(x.size * float(np.sum(x * y)), rel=1e-12, abs=1e-12 * x.size**2)


class TestTransformBudget:
    @pytest.mark.parametrize("shape", [(64, 64), (16, 16, 16), (8, 8, 8, 8)])
    def test_solve_uses_2n_real_transforms_per_iteration(self, shape, fft_log):
        n = len(shape)
        ps = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), n)
        g = generate_random(ps, shape, seed=11)
        t = solve_effective_tensor(g)
        assert min(t.iterations) > 0
        # rfftn(sigma) once; per direction and iteration n forward and n
        # inverse transforms, then n inverse ones for the gradients.  Each
        # inverse is numpy's irfftn passes: n - 1 ifft and one irfft.
        inverse = sum(it * n + n for it in t.iterations)
        assert fft_counts(fft_log) == {
            "rfftn": 1 + n * sum(t.iterations),
            "irfft": inverse,
            "ifft": (n - 1) * inverse,
        }

    @pytest.mark.parametrize("shape", [(64, 64), (16, 16, 16)])
    def test_cg_transforms_write_into_owned_buffers(self, shape, fft_log, monkeypatch):
        inside = []
        spectral_cg = cell_solver._spectral_cg

        def marking(*args, **kwargs):
            start = len(fft_log)
            result = spectral_cg(*args, **kwargs)
            inside.extend(fft_log[start:])
            return result

        monkeypatch.setattr(cell_solver, "_spectral_cg", marking)
        ps = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), len(shape))
        solve_effective_tensor(generate_random(ps, shape, seed=11))
        assert inside and all(given_out for _, given_out in inside)
        # outside CG only rfftn(sigma) allocates; the gradients reuse the buffers too
        assert [call for call in fft_log if not call[1]] == [("rfftn", False)]

    @pytest.mark.parametrize("shape", [(32, 32), (16, 16, 16)])
    def test_smooth_generation_uses_one_real_transform_pair(self, shape, fft_log):
        ps = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), len(shape))
        generate_random(ps, shape, seed=3, mode="smooth")
        # the inverse is numpy's irfftn passes, into the noise field's buffer
        assert fft_counts(fft_log) == {"rfftn": 1, "irfft": 1, "ifft": len(shape) - 1}
        assert fft_log[-1] == ("irfft", True)

    @pytest.mark.parametrize("shape", [(32, 32), (8, 8, 8), (4, 4, 4, 4)])
    def test_potential_uses_real_transforms(self, shape, fft_log):
        n = len(shape)
        g = generate_random(PhaseSet.from_pairs((1.0, 4.0), (0.5, 0.5), n), shape, seed=2)
        pf = build_optimal_potential(g, 2.0)
        # the build transforms theta only
        assert fft_counts(fft_log) == {"rfftn": 1}
        # the quadratures stream the n(n+1)/2 - 1 transformed traceless entries
        # (the last diagonal one is minus the others) and transform lap p; each
        # inverse is n - 1 ifft passes and one irfft
        entries = n * (n + 1) // 2
        pf.I1, pf.I2, constructive_value(pf), pf.I2_positive_part
        inverse = (entries - 1) + 1
        assert fft_counts(fft_log) == {"rfftn": 1, "irfft": inverse, "ifft": (n - 1) * inverse}
        assert all(given_out for name, given_out in fft_log if name != "rfftn")

    @pytest.mark.parametrize("shape", [(8, 8), (4, 4, 4), (2, 2, 2, 2)])
    def test_homogeneous_solve_transforms_sigma_only(self, shape, fft_log):
        # every corrector is zero, so every gradient is known without a transform
        t = solve_effective_tensor(homogeneous(3.0, shape))
        assert t.iterations == (0,) * len(shape)
        assert fft_log == [("rfftn", False)]
        assert np.array_equal(t.matrix, 3.0 * np.eye(len(shape))) and t.flux_discrepancy == 0.0

    def test_zero_corrector_directions_make_no_gradient_transform(self, fft_log):
        # a laminate along axis 0 needs a corrector in direction 0 only
        t = solve_effective_tensor(generate_laminate(PhaseSet.from_pairs((1.0, 4.0), (0.5, 0.5), 3), 0, (8, 8, 8)))
        its = t.iterations[0]
        assert its > 0 and t.iterations[1:] == (0, 0)
        inverse = its * 3 + 3
        assert fft_counts(fft_log) == {"rfftn": 1 + 3 * its, "irfft": inverse, "ifft": 2 * inverse}

    @pytest.mark.parametrize("shape", [(8, 8), (4, 4, 4), (2, 2, 2, 2)])
    def test_nyquist_only_theta_makes_no_hessian_transform(self, shape, fft_log):
        # on a voxel checkerboard theta is its mean plus the all-Nyquist mode, which p drops
        n = len(shape)
        idx = (np.indices(shape).sum(axis=0) % 2).astype(np.uint8)
        pf = build_optimal_potential(VoxelGrid(idx, (1.0, 4.0)), 2.0)
        assert not pf.p_hat.any()
        # p = 0: the test field is I, whose energy is the arithmetic mean
        assert (pf.I2, pf.I2_positive_part, constructive_value(pf)) == (0.0, 0.0, 2.5)
        assert fft_counts(fft_log) == {"rfftn": 1, "irfft": 1, "ifft": n - 1}  # lap p only
        assert traceless_hessian(pf).shape == (n, n) + shape and not traceless_hessian(pf).any()
        assert fft_counts(fft_log) == {"rfftn": 1, "irfft": 1, "ifft": n - 1}  # neither stack made one
        assert not any(field.any() for field in hessian_and_laplacian(pf.p_hat, shape))


class TestOptimalPotential:
    def test_rejects_nonpositive_S(self):
        for S in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="finite and positive"):
                build_optimal_potential(homogeneous(), S)

    def test_derived_fields_computed_once_on_first_read(self, monkeypatch):
        g = generate_random(TWO_14, (16, 16), seed=2)
        pf = build_optimal_potential(g, 2.0)
        gathers = []
        field = VoxelGrid.conductivity_field
        monkeypatch.setattr(VoxelGrid, "conductivity_field", lambda grid: gathers.append(1) or field(grid))
        first = [pf.I1, pf.I2, pf.I2_positive_part, constructive_value(pf)]
        assert len(gathers) == 1  # the three quadratures share one conductivity gather
        assert [pf.I1, pf.I2, pf.I2_positive_part, constructive_value(pf)] == first
        assert len(gathers) == 1

    @pytest.mark.parametrize("shape", [(32, 32), (8, 8, 8), (4, 4, 4, 4)])
    def test_hessian_read_before_or_after_the_quadratures(self, shape):
        n = len(shape)
        g = generate_random(PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), n), shape, seed=3)
        early, late = build_optimal_potential(g, 2.5), build_optimal_potential(g, 2.5)
        hessian = traceless_hessian(early)
        values = [(pf.I1, pf.I2, pf.I2_positive_part, constructive_value(pf)) for pf in (early, late)]
        assert values[0] == values[1]
        assert traceless_hessian(late).tobytes() == hessian.tobytes()

    @pytest.mark.parametrize("shape", [(16, 16), (8, 8, 8), (4, 4, 4, 4)])
    def test_first_row_is_the_stacks_row_bit_for_bit(self, shape, fft_log):
        n = len(shape)
        ps = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), n)
        pf = build_optimal_potential(generate_random(ps, shape, seed=5), 2.0)
        start = len(fft_log)
        row = traceless_hessian(pf, first_row=True)
        # one inverse transform per entry of the row, each numpy's irfftn passes
        assert fft_counts(fft_log[start:]) == {"irfft": n, "ifft": n * (n - 1)}
        assert row.shape == (n,) + shape and np.array_equal(row, traceless_hessian(pf)[0])

    def test_theta_ignores_a_conductivity_no_voxel_carries(self):
        # at S = 1e-300 the unused 1e-300 scales to sigma / 2^e = 0 and S / 2^e = 0: its theta would divide by 0
        idx = np.random.default_rng(0).integers(0, 2, (8, 8)).astype(np.uint8)
        carried = build_optimal_potential(VoxelGrid(idx, (1e300, 4e300)), 1e-300)
        pf = build_optimal_potential(VoxelGrid(idx, (1e300, 4e300, 1e-300)), 1e-300)
        assert np.array_equal(pf.theta, carried.theta) and np.array_equal(pf.p_hat, carried.p_hat)

    @pytest.mark.parametrize("shape", [(16, 16), (8, 16), (4, 4, 8)])
    def test_theta_is_the_formula_on_the_conductivity_field(self, shape):
        # the phase table's theta, gathered, is the pointwise formula bit for bit
        n = len(shape)
        g = generate_random(PhaseSet.from_pairs((0.3, 2.0, 7.0), (0.4, 0.4, 0.2), n), shape, seed=6)
        S = 1.7
        e = math.frexp(7.0 + (n - 1) * S)[1]
        L = shifted_harmonic_L(g.phase_set, S)
        sigma = np.ldexp(g.conductivity_field(), -e)
        expected = n * math.ldexp(L, -e) / (sigma + (n - 1) * math.ldexp(S, -e)) - n
        assert np.array_equal(build_optimal_potential(g, S).theta, expected)

    def test_2d_traceless_hessian_is_the_stack_of_its_components(self):
        pf = build_optimal_potential(generate_random(TWO_14, (32, 32), seed=5), 2.0)
        full = traceless_hessian(pf)
        assert np.array_equal(full[1, 1], -full[0, 0]) and np.array_equal(full[1, 0], full[0, 1])
        h, _ = hessian_and_laplacian(pf.p_hat, (32, 32))
        assert np.array_equal(full[0, 1], h[0, 1])
        assert np.abs(full[0, 0] - (h[0, 0] - h[1, 1]) / 2).max() <= 1e-12

    @pytest.mark.parametrize("shape", [(8, 8, 8), (4, 4, 4, 4)])
    def test_traceless_hessian_is_symmetric_and_traceless(self, shape):
        # beyond 2D too: the trace summed in row-major order is 0 exactly, each
        # off-diagonal entry is numpy's D^2 p entry to the bit, and each
        # diagonal entry is h_ii - lap p / n to round-off
        n = len(shape)
        ps = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), n)
        pf = build_optimal_potential(generate_random(ps, shape, seed=4), 2.0)
        t, (h, lap) = traceless_hessian(pf), hessian_and_laplacian(pf.p_hat, shape)
        trace = t[0, 0]
        for i in range(1, n):
            trace = trace + t[i, i]
        assert not trace.any()
        for i in range(n):
            assert np.abs(t[i, i] - (h[i, i] - lap / n)).max() <= 1e-12 * np.abs(h).max()
            for j in range(i + 1, n):
                assert np.array_equal(t[i, j], h[i, j]) and np.array_equal(t[j, i], h[i, j])

    def test_homogeneous_all_zero(self):
        pf = build_optimal_potential(homogeneous(3.0), 1.0)
        assert np.abs(pf.theta).max() == 0.0
        assert not any(field.any() for field in hessian_and_laplacian(pf.p_hat, (8, 8)))
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
        assert oscillation_closed_form(g.phase_set, 1.0) == pytest.approx(0.8, rel=1e-12)

    @pytest.mark.parametrize("shape, S", [((32, 32), 2.5), ((8, 16, 8), 0.7)])
    def test_theta_uses_the_phase_set_L(self, shape, S):
        n = len(shape)
        g = generate_random(PhaseSet.from_pairs((1.0, 4.0, 9.0), (0.3, 0.5, 0.2), n), shape, seed=9)
        L = shifted_harmonic_L(g.phase_set, S)
        theta = n * L / (g.conductivity_field() + (n - 1) * S) - n
        assert np.array_equal(build_optimal_potential(g, S).theta, theta)

    def test_theta_zero_mean_and_p_zero_frequency(self):
        g = generate_random(TWO_14, (32, 32), seed=2)
        pf = build_optimal_potential(g, 2.0)
        assert abs(pf.theta.mean()) < 1e-10
        assert pf.p_hat[0, 0] == 0.0

    @pytest.mark.parametrize("shape", [(32, 32), (8, 16, 8)])
    def test_fields_equal_numpy_inverse_of_the_multipliers(self, shape, monkeypatch):
        # the off-diagonal traceless entries and the Laplacian the constructive
        # value integrates are numpy's inverses of their multipliers, bit for bit
        n = len(shape)
        g = generate_random(PhaseSet.from_pairs((1.0, 4.0, 9.0), (0.3, 0.5, 0.2), n), shape, seed=8)
        pf = build_optimal_potential(g, 2.5)
        integrated = []
        i1 = cell_solver._i1_quadrature
        monkeypatch.setattr(cell_solver, "_i1_quadrature", lambda sigma, lap, *a: integrated.append(lap) or i1(sigma, lap, *a))
        constructive_value(pf)
        h, lap = hessian_and_laplacian(pf.p_hat, shape)
        assert len(integrated) == 2 and integrated[0] is pf.theta and np.array_equal(integrated[1], lap)
        t = traceless_hessian(pf)
        for i in range(n):
            for j in range(n):
                assert i == j or np.array_equal(t[i, j], h[i, j])

    def test_hessian_trace_is_laplacian_pointwise(self):
        g = generate_random(TWO_14, (32, 32), seed=3)
        pf = build_optimal_potential(g, 2.0)
        h, lap = hessian_and_laplacian(pf.p_hat, (32, 32))
        assert np.abs(h[0, 0] + h[1, 1] - lap).max() < 1e-10

    def test_hessian_laplacian_energy_identity(self):
        for seed, S in ((4, 1.0), (5, 2.5)):
            g = generate_random(TWO_14, (64, 64), seed=seed)
            h, lap = hessian_and_laplacian(build_optimal_potential(g, S).p_hat, (64, 64))
            h2 = float(np.sum(h**2, axis=(0, 1)).mean())
            l2 = float((lap**2).mean())
            assert abs(h2 - l2) <= 1e-8 * max(1.0, l2)

    def test_pointwise_matrix_inequality(self):
        g = generate_random(TWO_14, (32, 32), seed=6)
        h, lap = hessian_and_laplacian(build_optimal_potential(g, 1.5).p_hat, (32, 32))
        raw = np.sum(h**2, axis=(0, 1)) - lap**2 / 2
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
            osc = pf.theta.max() - pf.theta.min()
            assert abs(osc - oscillation_closed_form(g.phase_set, S)) < 1e-10

    def test_oscillation_closed_form_at_huge_conductivities(self):
        # n L osc sigma and the product of the two shifted extremes overflowed
        # to inf / inf = nan at (1, 1e200)
        idx = np.random.default_rng(0).integers(0, 2, (32, 32)).astype(np.uint8)
        g = VoxelGrid(idx, (1.0, 1e200))
        S = 5e199
        pf = build_optimal_potential(g, S)
        osc = float(pf.theta.max() - pf.theta.min())
        assert oscillation_closed_form(g.phase_set, S) == pytest.approx(osc, rel=1e-12)

    @pytest.mark.parametrize("hi", [1e308, 1e305])
    def test_potential_overflow_names_the_range(self, hi):
        # at (1, 1e308) the potential returned I1 = nan after four warnings,
        # later it raised; on sigma / 2^e that range now has values (see
        # test_formerly_overflowing_ranges_have_exact_values).  At (1e-20, hi)
        # and S = 1e-20, inf sigma + S divided by 2^e underflows to 0, so theta
        # divides by zero.  A warning would fail this test.
        idx = np.random.default_rng(0).integers(0, 2, (128, 128)).astype(np.uint8)
        span = f"[1e-20, {hi:.12g}]"
        with pytest.raises(ValueError, match=re.escape(f"potential at S = 1e-20 overflows on conductivities in {span}")):
            build_optimal_potential(VoxelGrid(idx, (1e-20, hi)), 1e-20)

    @pytest.mark.parametrize("shape, sigmas, S", [
        ((128, 128), (1.0, 1e308), 2.5),
        ((128, 128), (1.0, 1e305), 2.5),
        ((16, 16), (1.0, 1e308), 1.0),
        ((16, 16), (1e300, 1e307), 1.0),
    ])
    def test_formerly_overflowing_ranges_have_exact_values(self, shape, sigmas, S):
        # each of these raised "overflows": the unscaled quadrature sums passed
        # the largest double.  Now each value is 2^1000 times the value at
        # 2^-1000 sigma and 2^-1000 S, and no numpy warning is raised.
        idx = np.random.default_rng(0).integers(0, 2, shape).astype(np.uint8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pf = build_optimal_potential(VoxelGrid(idx, sigmas), S)
            small = build_optimal_potential(VoxelGrid(idx, tuple(math.ldexp(c, -1000) for c in sigmas)), math.ldexp(S, -1000))
            for value in (lambda pf: pf.I1, lambda pf: pf.I2, lambda pf: pf.I2_positive_part, constructive_value):
                assert math.isfinite(value(pf)) and value(pf) == np.ldexp(value(small), 1000)


class TestI1I2:
    def test_i1_quadrature_matches_closed_form(self):
        for seed in (0, 1):
            g = generate_random(TWO_14, (64, 64), seed=seed)
            emp = g.phase_set
            for S in (1.0, 2.5, 4.0):
                pf = build_optimal_potential(g, S)
                closed = -(emp.dimension - 1) * S + shifted_harmonic_L(emp, S)
                assert pf.I1 == pytest.approx(closed, rel=1e-8)

    @pytest.mark.parametrize("contrast", [1e4, 1e12, 1e20])
    def test_i1_keeps_its_digits_at_high_contrast(self, contrast):
        # I1 summed sigma n + 2 sigma lap + S lap^2 + (sigma - S) lap^2 / n, whose
        # large terms cancel: 3.26 against H = 4.51 at contrast 1e20
        g = VoxelGrid(np.random.default_rng(0).integers(0, 2, (128, 128)), (1.0, contrast))
        H = theorem1_upper(g.phase_set, 2.5).H_term
        assert abs(build_optimal_potential(g, 2.5).I1 - H) <= 4 * math.ulp(H)

    @pytest.mark.parametrize("shape, mode", [((8, 8, 8, 8), "iid"), ((8, 8, 8, 8), "smooth"), ((8, 8, 4, 4, 4), "iid")])
    def test_beyond_3d_i1_is_h_and_sigma_bar_below_both_bounds(self, shape, mode):
        ps = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), len(shape))
        g = generate_random(ps, shape, seed=1, mode=mode)
        emp = g.phase_set
        S = 0.5 * (emp.inf_sigma + emp.sup_sigma)
        pf = build_optimal_potential(g, S)
        H = theorem1_upper(emp, S).H_term
        assert abs(pf.I1 - H) <= 4 * math.ulp(H)
        assert solve_effective_tensor(g).sigma_bar <= min(hs_upper(emp).value, constructive_value(pf))

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

    @pytest.mark.parametrize("shape", [(16, 16), (8, 8, 8), (4, 4, 4, 4)])
    def test_traceless_square_matches_reference_loop(self, shape):
        # streamed entry by entry, in the row-major order of the distinct entries of the stack
        ps = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), len(shape))
        pf = build_optimal_potential(generate_random(ps, shape, seed=4), 2.0)
        n, t = len(shape), traceless_hessian(pf)
        q = np.zeros(shape)
        for i in range(n):
            for j in range(i, n):
                q = q + (1.0 if i == j else 2.0) * (t[i, j] * t[i, j])
        streamed = _streamed_traceless_square(pf.p_hat, shape)
        assert np.array_equal(streamed, q) and streamed.min() >= 0.0
        # the clipped |D^2 p|^2 - (lap p)^2 / n it replaces, to round-off
        h, lap = hessian_and_laplacian(pf.p_hat, shape)
        old = np.maximum(np.sum(h * h, axis=(0, 1)) - lap * lap / n, 0.0)
        assert np.abs(streamed - old).max() <= 1e-12 * old.max()

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
            h, lap = hessian_and_laplacian(pf.p_hat, (32, 32))
            q = np.sum(h**2, axis=(0, 1)) - lap**2 / n
            thresholds = [S] + [t for t in np.unique(sigma) if t > S]
            integral = 0.0
            for lo, hi in zip(thresholds, thresholds[1:]):
                integral += (hi - lo) * float(q[sigma > lo].sum()) / q.size
            assert pf.I2_positive_part == pytest.approx(integral / n, rel=1e-12)


class TestMemory:
    """tracemalloc peaks, in real fields of the grid (8 bytes a voxel), on a second call:
    the first transforms of a process and a grid's phase set allocate once."""

    @pytest.mark.parametrize("shape", [(32, 32, 32), (8, 8, 8, 8)])
    def test_solve_peak(self, shape):
        n = len(shape)
        g = generate_random(PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), n), shape, seed=1)
        solve_effective_tensor(g)
        real, half = 8 * g.phase_index.size, 16 * math.prod(shape[:-1]) * (shape[-1] // 2 + 1)
        # CG: sigma and the real scratch, the Green operator (a real half spectrum),
        # n + 4 half spectra (scratch, div_hat, x, r, p and n - 1 correctors) and
        # numpy's cast buffer of G r, at most one more; the assembly: sigma, n
        # gradients and a scratch, n correctors and the spectral scratch; and
        # 64 KiB of small arrays.  O(n): the n^2 total gradients would not fit.
        cg = 2 * real + half // 2 + (n + 5) * half
        bound = max(cg, (n + 2) * real + (n + 1) * half) + 2**16
        assert peak_traced_bytes(lambda: solve_effective_tensor(g)) <= bound

    @pytest.mark.parametrize("shape", [(32, 32, 32), (8, 8, 8, 8)])
    def test_potential_and_quadratures_peak(self, shape):
        n = len(shape)
        g = generate_random(PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), n), shape, seed=1)
        constructive_value(build_optimal_potential(g, 3.0))
        # theta, p_hat, lap p, the square, one traceless entry, its spectrum and
        # the running trace; never the stack
        peak = peak_traced_bytes(lambda: constructive_value(build_optimal_potential(g, 3.0)))
        assert peak <= 11 * 8 * g.phase_index.size

    @pytest.mark.parametrize("shape", [(32, 32, 32), (8, 8, 8, 8)])
    def test_traceless_hessian_peak(self, shape):
        n = len(shape)
        g = generate_random(PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), n), shape, seed=1)
        traceless_hessian(build_optimal_potential(g, 3.0))
        # the n^2 components and a few buffers; no Laplacian
        peak = peak_traced_bytes(lambda: traceless_hessian(build_optimal_potential(g, 3.0)))
        assert peak <= (n * n + 8) * 8 * g.phase_index.size


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
            emp = g.phase_set
            for S in (emp.inf_sigma, emp.sup_sigma):
                assert constructive_upper(g, S) >= sb * (1 - 1e-9)

    @pytest.mark.parametrize("sigmas", [(1e-20, 1e308), (1.0, 1.7e308)])
    def test_overflow_raises_one_error_without_warning(self, sigmas):
        # the grid-resolved I1 ran outside the overflow guard: four numpy
        # warnings, or "overflow encountered in reduce", before the ValueError.
        # On sigma / 2^e, (1, 1e308) and (1e300, 1e307) at S = 1 have values;
        # these do not.  At S = 1e-20 theta divides by an underflowed 0; at
        # (1, 1.7e308) on this grid the constructive value, I1 of the
        # grid-resolved lap p plus I2_positive_part, passes the largest double.
        g = VoxelGrid(np.random.default_rng(0).integers(0, 2, (8, 8, 8)).astype(np.uint8), sigmas)
        span = f"[{sigmas[0]:.12g}, {sigmas[1]:.12g}]"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"overflows on conductivities in {span}")):
                constructive_value(build_optimal_potential(g, sigmas[0]))

    def test_constructive_value_reuses_field(self):
        g = generate_random(TWO_14, (32, 32), seed=4)
        pf = build_optimal_potential(g, 2.0)
        assert constructive_value(pf) == constructive_upper(g, 2.0)
