import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conducta import bmo, cli
from conducta.bmo import bmo_norm, lemma1_ratio
from conducta.cell_solver import build_optimal_potential, traceless_hessian
from conducta.microstructure import VoxelGrid, generate_random
from conducta.phases import PhaseSet

from conftest import hessian_and_laplacian, level_labels, peak_traced_bytes, random_phase_set

TWO_14 = PhaseSet.from_pairs((1.0, 4.0), (0.5, 0.5), 2)


def sign_field(shape=(32, 32)):
    f = np.ones(shape)
    f[shape[0] // 2 :, :] = -1.0
    return f


def brute_force_bmo(components):
    """Max over every component and every dyadic cube, one cube at a time."""
    best = 0.0
    for comp in components:
        for k in range(min(comp.shape).bit_length()):
            sides = [n >> k for n in comp.shape]
            for corner in itertools.product(range(1 << k), repeat=comp.ndim):
                cube = comp[tuple(slice(i * s, (i + 1) * s) for i, s in zip(corner, sides))]
                best = max(best, float(np.abs(cube - cube.mean()).mean()))
    return best


def per_level_bmo(components):
    """bmo_norm one level at a time: every component in dyadic order with the
    coarse bits outermost, so a cube is a contiguous run, summed along the last axis."""
    m, spatial = components.shape[0], components.shape[1:]
    dim, depth = len(spatial), min(spatial).bit_length() - 1
    split = [m]
    for n in spatial:
        split.extend((2,) * depth + (n >> depth,))
    bits = [1 + d * (depth + 1) + j for j in range(depth) for d in range(dim)]
    remainders = [1 + d * (depth + 1) + depth for d in range(dim)]
    view = components.reshape(split).transpose([0, *bits, *remainders])
    mean = components.mean(axis=tuple(range(1, components.ndim)))
    z = np.empty(view.shape)
    np.subtract(view, mean.reshape((m,) + (1,) * (view.ndim - 1)), out=z)

    def block_sums(blocks):  # short rows are added column by column
        if blocks.shape[-1] >= 8:
            return blocks.sum(axis=-1)
        total = blocks[..., 0].copy()
        for j in range(1, blocks.shape[-1]):
            total += blocks[..., j]
        return total

    best = 0.0
    for k in range(depth + 1):
        cubes = z.reshape(m, 1 << (k * dim), -1)
        size = cubes.shape[-1]
        if size > 1:
            deviation = np.abs(cubes - (block_sums(cubes) / size)[..., None])
            best = max(best, float(block_sums(deviation).max()) / size)
    return best


# 2D to 4D; (8, 32), (32, 8), (8, 24), (4, 16, 8) and (2, 4, 4, 8) have axes whose remainder n >> depth exceeds 1
ORACLE_SHAPES = [
    (8, 8), (16, 16), (8, 32), (32, 8), (8, 24), (4, 4, 4), (4, 16, 8), (8, 8, 8), (4, 4, 4, 4), (2, 4, 4, 8),
]


class TestBmoNormOracle:
    """bmo_norm against the per-level reference it replaced, which sums each cube in another order."""

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(ORACLE_SHAPES), st.sampled_from([1, 2, 9]), st.data())
    def test_within_4_ulp_of_the_per_level_reference(self, shape, m, data):
        elements = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
        f = data.draw(arrays(np.float64, (m,) + shape, elements=elements))
        expected = per_level_bmo(f)
        assert abs(bmo_norm(f, spatial_ndim=len(shape)) - expected) <= 4 * math.ulp(expected)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(ORACLE_SHAPES), st.sampled_from([1, 2, 9]), st.floats(-1e300, 1e300, allow_nan=False))
    def test_constant_fields_are_exactly_zero(self, shape, m, value):
        f = np.full((m,) + shape, value)
        assert per_level_bmo(f) == 0.0
        assert bmo_norm(f, spatial_ndim=len(shape)) == 0.0

    def test_reference_matches_brute_force(self):
        f = np.random.default_rng(3).standard_normal((2, 8, 16))
        assert per_level_bmo(f) == pytest.approx(brute_force_bmo(f), rel=1e-12)


def every_level_norm(f, spatial_ndim):
    """bmo_norm with every level's bound infinite, so that every level is measured."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bmo, "_level_bound", lambda *args: math.inf)
        return bmo_norm(f, spatial_ndim=spatial_ndim)


class TestLevelBounds:
    """bmo_norm measures only the levels whose bound can beat the running maximum."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(ORACLE_SHAPES + [(64, 64), (16, 16, 16)]),
        st.sampled_from([1, 2, 9]),
        st.sampled_from(["normal", "ties", "sign"]),
        st.integers(-1000, 1000),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_the_every_level_norm_bit_for_bit(self, shape, m, kind, k, seed):
        rng = np.random.default_rng(seed)
        if kind == "sign":  # the maximum is the whole cube's
            f = np.stack([(j + 1) * sign_field(shape) for j in range(m)])
        elif kind == "ties":  # few distinct values, so cube means and deviations tie
            f = np.round(2.0 * rng.standard_normal((m,) + shape))
        else:
            f = rng.standard_normal((m,) + shape)
        f = np.ldexp(f, k)
        assert bmo_norm(f, spatial_ndim=len(shape)) == every_level_norm(f, len(shape))

    @pytest.mark.parametrize("kind", ["cube_sum_overflows", "huge"])
    def test_every_level_measured_where_a_cube_sum_could_overflow(self, kind):
        if kind == "cube_sum_overflows":  # mean 0, but one 2 x 2 cube sums to inf
            f = np.zeros((16, 16))
            f[0:2, 0:2], f[0:2, 8:10] = 1e308, -1e308
        else:  # 2 N max|f - mean f| overflows, though no cube sum does
            f = np.ldexp(np.random.default_rng(1).standard_normal((16, 16)), 1015)
        with np.errstate(over="ignore", invalid="ignore"):
            assert bmo_norm(f) == every_level_norm(f, None)
            assert (bmo_norm(f) == math.inf) == (kind == "cube_sum_overflows")

    def test_bmo_2d_row_measures_at_most_two_levels(self, monkeypatch):
        # a row of the bmo-2d benchmark (--dim 2 --shape 256 --num-phases 3, first corpus seed 1000000):
        # the maximum sits at the 2 x 2 cubes, and every other level's bound is below it
        args = vars(cli.build_parser().parse_args(["bmo", "--dim", "2", "--shape", "256", "--num-phases", "3"]))
        options = cli._checked_corpus("bmo", {key: value for key, value in args.items() if key != "command"})
        g = cli._corpus_grid(1_000_000, options)
        ps = g.phase_set
        field = traceless_hessian(build_optimal_potential(g, 0.5 * (ps.inf_sigma + ps.sup_sigma)), first_row=True)
        measured = []
        oscillation = bmo._level_oscillation

        def spy(flat, cube_counts, scratch):
            measured.append(cube_counts[-1])
            return oscillation(flat, cube_counts, scratch)

        monkeypatch.setattr(bmo, "_level_oscillation", spy)
        est = bmo_norm(field, spatial_ndim=2)
        assert 1 <= len(measured) <= 2  # of 2 components x 8 levels
        monkeypatch.undo()
        assert est == every_level_norm(field, 2)


class TestNonFiniteFields:
    """A NaN or inf is rejected by a ValueError, from numbers each statistic computes anyway."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejected_by_both_statistics(self, bad):
        # rejected from the means, before any centering computes inf - inf, so nothing warns
        f = np.random.default_rng(0).standard_normal((16, 16))
        f[3, 4] = bad
        with pytest.raises(ValueError, match="component 0 .*non-finite mean"):
            bmo_norm(f)
        with pytest.raises(ValueError, match="component 0 .*non-finite mean"):
            lemma1_ratio(f, level_labels(np.ones((16, 16))), 1.0)

    def test_overflowing_centering_rejected(self):
        # every value is finite and so is the mean, but 1.7e308 - mean f overflows
        f = np.array([[1.7e308, -1.7e308], [-1.7e308, -0.05e308]])
        with np.errstate(over="ignore", invalid="ignore"):
            for statistic in (
                lambda: bmo_norm(f),
                lambda: lemma1_ratio(f, np.zeros((2, 2), np.uint8), 1.0),
            ):
                with pytest.raises(ValueError, match="non-finite"):
                    statistic()

    def test_second_component_rejected(self):
        f = np.random.default_rng(0).standard_normal((2, 16, 16))
        f[1, 5, 5] = math.inf
        with pytest.raises(ValueError, match=r"component 1 .*non-finite"):
            bmo_norm(f, spatial_ndim=2)
        with pytest.raises(ValueError, match=r"component 1 .*non-finite"):
            lemma1_ratio(f, level_labels(np.ones((16, 16))), 1.0, spatial_ndim=2)


class TestBmoNorm:
    def test_constant_field_is_zero(self):
        assert bmo_norm(np.full((16, 16), 7.3)) == 0.0

    def test_sign_pattern_norm_one(self):
        # the whole cube has oscillation 1, and every smaller dyadic cube at most 1
        assert bmo_norm(sign_field()) == 1.0

    def test_scale_covariance(self):
        rng = np.random.default_rng(5)
        f = rng.standard_normal((16, 16))
        base = bmo_norm(f)
        assert bmo_norm(2.0 * f) == 2.0 * base
        assert bmo_norm(-1.7 * f) == pytest.approx(1.7 * base, rel=1e-13)

    def test_bounded_by_twice_sup(self):
        rng = np.random.default_rng(8)
        f = rng.uniform(-3.0, 5.0, (32, 32))
        centered = f - f.mean()
        assert bmo_norm(f) <= 2.0 * np.abs(centered).max() + 1e-12

    def test_depth_must_divide_every_axis(self):
        # the depth is log2 of the smallest axis: 2 on (6, 6), 3 on (8, 12)
        with pytest.raises(ValueError, match=r"depth 2\) does not divide.*\(6, 6\)"):
            bmo_norm(np.zeros((6, 6)))
        with pytest.raises(ValueError, match=r"depth 3\) does not divide.*\(8, 12\)"):
            bmo_norm(np.zeros((8, 12)))
        with pytest.raises(ValueError, match=r"depth 3\) does not divide.*\(12, 8\)"):
            bmo_norm(np.zeros((2, 12, 8)), spatial_ndim=2)
        assert bmo_norm(np.zeros((8, 16))) == 0.0

    @pytest.mark.parametrize("shape", [(16, 16), (8, 32), (8, 8, 16)])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_matches_brute_force_over_every_cube(self, shape, stacked):
        rng = np.random.default_rng(sum(shape) + stacked)
        lead = (2, 3) if stacked else ()
        f = rng.standard_normal(lead + shape) + 0.3
        spatial_ndim = len(shape) if stacked else None
        expected = brute_force_bmo(f.reshape((-1,) + shape))
        assert bmo_norm(f, spatial_ndim=spatial_ndim) == pytest.approx(expected, rel=1e-12)

    def test_scratch_memory_below_three_fields(self):
        # one centered component in dyadic order plus one scratch buffer of its size, for all four
        f = np.random.default_rng(2).standard_normal((2, 2, 256, 256))
        assert peak_traced_bytes(lambda: bmo_norm(f, spatial_ndim=2)) <= 3 * f[0, 0].nbytes

    def test_matrix_field_component_wise_max(self):
        f = sign_field((16, 16))
        stack = np.stack([np.zeros((16, 16)), 3.0 * f])
        est = bmo_norm(stack, spatial_ndim=2)
        assert est == pytest.approx(3.0 * bmo_norm(f), rel=1e-13)


def brute_force_lemma1(field, levels, bmo):
    """Max ratio over {levels > t} for every level t but the top, and the
    whole cube, one boolean mask at a time."""
    comp = np.asarray(field, dtype=float).reshape((-1,) + levels.shape)
    square = (comp - comp.mean(axis=tuple(range(1, comp.ndim)), keepdims=True)) ** 2
    masks = [levels > t for t in np.unique(levels)[:-1]] + [np.ones(levels.shape, bool)]
    ratios = []
    for mask in masks:
        measure = float(mask.mean())
        quad = float(square[:, mask].sum()) / mask.size
        ratios.append(quad / (bmo**2 * (1.0 - math.log(measure)) ** 2 * measure))
    return max(ratios)


class TestLemma1Ratio:
    @pytest.mark.parametrize("scale", [2.0**45, 2.0**-45])
    def test_statistics_independent_of_scale(self, scale):
        # scaling by a power of two is exact, so the norm scales and the
        # Lemma-1 ratio comes out bit for bit; at 2**-45 the norm (2.6e-14)
        # was rejected as a "degenerate (near-constant) field"
        ps = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), 2)
        g = generate_random(ps, (64, 64), seed=3)
        field = traceless_hessian(build_optimal_potential(g, 2.0))
        labels = level_labels(g.conductivity_field())
        est = bmo_norm(field, spatial_ndim=2)
        assert bmo_norm(scale * field, spatial_ndim=2) == scale * est
        assert lemma1_ratio(scale * field, labels, scale * est, spatial_ndim=2) == lemma1_ratio(
            field, labels, est, spatial_ndim=2
        )

    def test_field_left_unchanged(self):
        f = np.random.default_rng(6).standard_normal((2, 2, 16, 16))
        before = f.copy()
        lemma1_ratio(f, level_labels(np.ones((16, 16))), bmo_norm(f, spatial_ndim=2), spatial_ndim=2)
        assert np.array_equal(f, before)

    def test_ratio_scale_invariant(self):
        # a scale that is not a power of two rounds, so the ratio agrees to round-off
        g = generate_random(TWO_14, (64, 64), seed=1)
        field = traceless_hessian(build_optimal_potential(g, 2.5))
        labels = level_labels(g.conductivity_field())
        scaled = 3.7 * field
        ratio = lemma1_ratio(field, labels, bmo_norm(field, spatial_ndim=2), spatial_ndim=2)
        ratio_s = lemma1_ratio(scaled, labels, bmo_norm(scaled, spatial_ndim=2), spatial_ndim=2)
        assert ratio_s == pytest.approx(ratio, rel=1e-12)

    def test_degenerate_field_rejected(self):
        f = np.zeros((16, 16))
        est = bmo_norm(f)
        assert est == 0.0
        for norm in (est, -1.0):
            with pytest.raises(ValueError, match="zero BMO norm"):
                lemma1_ratio(f, level_labels(np.ones((16, 16))), norm)

    def test_spike_set_outweighs_the_whole_cube(self):
        # one voxel of 1 in 32^2 zeros: its 2x2 cube gives the norm 3/8, and
        # the set {f > 0} of measure 1/N has the larger ratio
        f = np.zeros((32, 32))
        f[0, 0] = 1.0
        n = f.size
        est = bmo_norm(f)
        assert est == 0.375
        spike = (1 - 1 / n) ** 2 / (est**2 * (1 + math.log(n)) ** 2)
        whole = (n - 1) / n**2 / est**2
        assert spike > 10 * whole
        assert lemma1_ratio(f, (f > 0).astype(np.uint8), est) == pytest.approx(spike, rel=1e-12)

    def test_full_cube_ratio(self):
        f = sign_field()
        est = bmo_norm(f)
        ratio = lemma1_ratio(f, level_labels(np.zeros((32, 32))), bmo=est)
        # one level: the only set is the cube, |A| = 1, and the ratio is the
        # quadratic mass over the squared norm
        assert ratio == pytest.approx(float((f**2).mean()) / est**2, rel=1e-12)

    def test_mask_shape_checked(self):
        with pytest.raises(ValueError, match=r"labels shape \(8, 8\)"):
            lemma1_ratio(sign_field(), level_labels(np.ones((8, 8))), bmo_norm(sign_field()))

    @pytest.mark.parametrize("shape", [(16, 16), (8, 8, 8)])
    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("num_levels", [1, 2, 3, 4, 5])
    def test_matches_mask_by_mask_oracle(self, shape, stacked, num_levels):
        rng = np.random.default_rng(10 * num_levels + len(shape) + stacked)
        lead = (2, 2) if stacked else ()
        f = rng.standard_normal(lead + shape) + 0.5
        spatial_ndim = len(shape) if stacked else None
        # unsorted, non-contiguous level values, one of them negative
        values = np.array([7.5, -2.0, 3.0, 100.0, 0.25])[:num_levels]
        levels = values[rng.integers(0, num_levels, shape)]
        assert np.unique(levels).size == num_levels
        est = bmo_norm(f, spatial_ndim=spatial_ndim)
        got = lemma1_ratio(f, level_labels(levels), est, spatial_ndim=spatial_ndim)
        assert got == pytest.approx(brute_force_lemma1(f, levels, est), rel=1e-12)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    def test_negative_labels_rejected(self, dtype):
        f = sign_field()
        labels = np.zeros((32, 32), dtype)
        labels[7, 9] = -3
        with pytest.raises(ValueError, match="labels must be nonnegative, got minimum -3"):
            lemma1_ratio(f, labels, bmo_norm(f))

    def test_float_labels_rejected(self):
        f = sign_field()
        with pytest.raises(ValueError, match="integer array, got dtype float64"):
            lemma1_ratio(f, np.zeros((32, 32)), bmo_norm(f))

    @pytest.mark.parametrize("conductivities", [
        (5.0, 1.0, 3.0, 2.0),  # phase 3 (conductivity 2) has no voxel
        (2.0, 1.0, 2.0),  # phases 0 and 2 share one level
    ])
    @pytest.mark.parametrize("shape", [(32, 32), (8, 8, 8)])
    def test_labels_from_the_phase_index(self, conductivities, shape):
        # what conducta bmo passes: labels of the k-entry table gathered by
        # phase index, bit for bit the ratio of the labels of the voxel field
        idx = np.random.default_rng(len(shape)).integers(0, 3, shape).astype(np.uint8)
        g = VoxelGrid(idx, conductivities)
        field = traceless_hessian(build_optimal_potential(g, 2.0))
        est = bmo_norm(field, spatial_ndim=len(shape))
        sigma = g.conductivity_field()
        labels = np.unique(g.phase_conductivities, return_inverse=True)[1][g.phase_index]
        got = lemma1_ratio(field, labels, est, spatial_ndim=len(shape))
        assert got == lemma1_ratio(field, level_labels(sigma), est, spatial_ndim=len(shape))
        assert got == pytest.approx(brute_force_lemma1(field, sigma, est), rel=1e-12)

    def test_superlevel_masks_of_theorem_pipeline(self):
        ps = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), 2)
        g = generate_random(ps, (64, 64), seed=3)
        pf = build_optimal_potential(g, 2.0)
        field = traceless_hessian(pf)
        est = bmo_norm(field, spatial_ndim=2)
        sigma = g.conductivity_field()
        assert np.unique(sigma).size == 3
        ratio = lemma1_ratio(field, level_labels(sigma), bmo=est, spatial_ndim=2)
        whole = lemma1_ratio(field, level_labels(np.ones(g.shape)), bmo=est, spatial_ndim=2)
        assert np.isfinite(ratio) and ratio >= whole > 0
        assert ratio == pytest.approx(brute_force_lemma1(field, sigma, est), rel=1e-12)

    def test_corpus_norm_bounded_by_fitted_constant_times_osc(self):
        # the reported C_fit is the corpus max of bmo_norm / osc theta; every
        # field then satisfies bmo_norm <= C_fit * osc theta by construction,
        # and the ratio itself stays finite and positive
        records = []
        for seed in range(4):
            g = generate_random(TWO_14, (32, 32), seed=seed)
            pf = build_optimal_potential(g, 2.5)
            field = traceless_hessian(pf)
            est = bmo_norm(field, spatial_ndim=2)
            records.append((est, pf.theta.max() - pf.theta.min()))
        c_fit = max(norm / osc for norm, osc in records)
        assert 0.0 < c_fit < np.inf
        for norm, osc in records:
            assert norm <= c_fit * osc * (1 + 1e-12)

    def test_nested_shrinking_masks_stay_bounded(self):
        # the (1 - log|A|)^2 |A| normalization is the whole point: the ratio
        # must not blow up as the subset shrinks
        g = generate_random(TWO_14, (64, 64), seed=4)
        field = traceless_hessian(build_optimal_potential(g, 2.0))
        est = bmo_norm(field, spatial_ndim=2)
        # the number of nested squares [0, 64 >> k)^2, k = 1..5, holding each
        # voxel: its superlevel sets are those squares, and the whole cube
        levels = np.zeros((64, 64))
        for k in range(1, 6):
            levels[: 64 >> k, : 64 >> k] += 1
        assert lemma1_ratio(field, level_labels(levels), bmo=est, spatial_ndim=2) < 50.0


class TestDistinctTraceless:
    """The 2D row [a, b] of the traceless Hessian [[a, b], [b, -a]], which is
    what ``conducta bmo`` measures, stands for all four components."""

    @pytest.mark.parametrize("mode", ["iid", "smooth"])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_statistics_match_full_stack(self, n, k, mode):
        rng = np.random.default_rng(100 * n + 10 * k + (mode == "smooth"))
        ps = random_phase_set(rng, k, 2)
        g = generate_random(ps, (n, n), seed=n + k, mode=mode)
        levels = level_labels(g.conductivity_field())
        for S in (ps.inf_sigma, 0.5 * (ps.inf_sigma + ps.sup_sigma), ps.sup_sigma, 2.0 * ps.sup_sigma):
            pf = build_optimal_potential(g, S)
            full = traceless_hessian(pf)
            pair = traceless_hessian(pf, first_row=True)  # what conducta bmo passes in 2D
            assert pair.shape == (2, n, n) and np.array_equal(pair, full[0])
            est = bmo_norm(full, spatial_ndim=2)
            assert est > 0.0
            assert bmo_norm(pair, spatial_ndim=2) == est
            assert 2.0 * lemma1_ratio(pair, levels, est, spatial_ndim=2) == pytest.approx(
                lemma1_ratio(full, levels, est, spatial_ndim=2), rel=1e-12
            )

    def test_2d_stack_is_exactly_traceless_and_symmetric(self):
        pf = build_optimal_potential(generate_random(TWO_14, (32, 32), seed=3), 2.0)
        full = traceless_hessian(pf)
        assert np.array_equal(full[1, 1], -full[0, 0])
        assert np.array_equal(full[0, 1], full[1, 0])
        # the traceless part of D^2 p, with lap p the separately transformed Laplacian
        h, lap = hessian_and_laplacian(pf.p_hat, (32, 32))
        assert np.allclose(full[0, 0], h[0, 0] - lap / 2, rtol=0.0, atol=1e-12)

    def test_3d_keeps_the_full_stack(self):
        # in 3D all nine components reach lemma1_ratio
        ps = PhaseSet.from_pairs((1.0, 4.0), (0.5, 0.5), 3)
        pf = build_optimal_potential(generate_random(ps, (8, 8, 8), seed=3), 2.0)
        full = traceless_hessian(pf)
        assert full.shape == (3, 3, 8, 8, 8)
        assert np.array_equal(full, full.transpose(1, 0, 2, 3, 4))
        h, _ = hessian_and_laplacian(pf.p_hat, (8, 8, 8))
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert np.array_equal(full[i, j], h[i, j])
        assert np.allclose(np.einsum("ii...", full), 0.0, rtol=0.0, atol=1e-12)
