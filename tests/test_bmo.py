import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conducta.bmo import (
    bmo_norm,
    full_dyadic_depth,
    john_nirenberg_fit,
    lemma1_ratio,
    superlevel_masks,
)
from conducta.cell_solver import build_optimal_potential, traceless_hessian
from conducta.microstructure import generate_random
from conducta.phases import PhaseSet

TWO_14 = PhaseSet.from_pairs((1.0, 4.0), (0.5, 0.5), 2)


def sign_field(shape=(32, 32)):
    f = np.ones(shape)
    f[shape[0] // 2 :, :] = -1.0
    return f


def brute_force_bmo(components, depth):
    """Max over every component and every dyadic cube, one cube at a time."""
    best = 0.0
    for comp in components:
        for k in range(depth + 1):
            sides = [n >> k for n in comp.shape]
            for corner in itertools.product(range(1 << k), repeat=comp.ndim):
                cube = comp[tuple(slice(i * s, (i + 1) * s) for i, s in zip(corner, sides))]
                best = max(best, float(np.abs(cube - cube.mean()).mean()))
    return best


class TestBmoNorm:
    def test_constant_field_is_zero(self):
        assert bmo_norm(np.full((16, 16), 7.3), 4).norm_value == 0.0

    def test_sign_pattern_norm_one(self):
        f = sign_field()
        assert bmo_norm(f, 0).norm_value == 1.0
        for depth in range(1, 6):
            assert bmo_norm(f, depth).norm_value <= 1.0 + 1e-15

    def test_nondecreasing_in_depth(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((32, 32))
        norms = [bmo_norm(f, d).norm_value for d in range(6)]
        assert all(b >= a - 1e-15 for a, b in zip(norms, norms[1:]))

    def test_scale_covariance(self):
        rng = np.random.default_rng(5)
        f = rng.standard_normal((16, 16))
        base = bmo_norm(f, 3).norm_value
        assert bmo_norm(2.0 * f, 3).norm_value == 2.0 * base
        assert bmo_norm(-1.7 * f, 3).norm_value == pytest.approx(1.7 * base, rel=1e-13)

    def test_bounded_by_twice_sup(self):
        rng = np.random.default_rng(8)
        f = rng.uniform(-3.0, 5.0, (32, 32))
        centered = f - f.mean()
        assert bmo_norm(f, 5).norm_value <= 2.0 * np.abs(centered).max() + 1e-12

    def test_depth_validation(self):
        with pytest.raises(ValueError, match="depth"):
            bmo_norm(np.zeros((8, 8)), 4)
        with pytest.raises(ValueError, match="depth"):
            bmo_norm(np.zeros((8, 8)), -1)

    def test_depth_must_divide_every_axis(self):
        with pytest.raises(ValueError, match=r"does not divide.*\(6, 6\)"):
            bmo_norm(np.zeros((6, 6)), 2)
        with pytest.raises(ValueError, match=r"depth 3.*\(8, 12\)"):
            bmo_norm(np.zeros((8, 12)), 3)
        assert bmo_norm(np.zeros((8, 12)), 2).norm_value == 0.0

    @pytest.mark.parametrize("shape", [(16, 16), (8, 32), (8, 8, 16)])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_matches_brute_force_over_every_cube(self, shape, stacked):
        rng = np.random.default_rng(sum(shape) + stacked)
        lead = (2, 3) if stacked else ()
        f = rng.standard_normal(lead + shape) + 0.3
        spatial_ndim = len(shape) if stacked else None
        for depth in range(full_dyadic_depth(shape) + 1):
            expected = brute_force_bmo(f.reshape((-1,) + shape), depth)
            got = bmo_norm(f, depth, spatial_ndim=spatial_ndim).norm_value
            assert got == pytest.approx(expected, rel=1e-12)

    def test_scratch_memory_below_three_fields(self):
        # one centered copy in dyadic order plus one scratch buffer of its size
        f = np.random.default_rng(2).standard_normal((2, 2, 256, 256))
        tracemalloc.start()
        try:
            bmo_norm(f, 8, spatial_ndim=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * f.nbytes

    def test_matrix_field_component_wise_max(self):
        f = sign_field((16, 16))
        stack = np.stack([np.zeros((16, 16)), 3.0 * f])
        est = bmo_norm(stack, 2, spatial_ndim=2)
        assert est.norm_value == pytest.approx(3.0 * bmo_norm(f, 2).norm_value, rel=1e-13)

    def test_full_depth(self):
        assert full_dyadic_depth((64, 32)) == 5


class TestJohnNirenberg:
    def test_two_valued_field_finite_fit(self):
        f = sign_field()
        est = bmo_norm(f, 5)
        fit = john_nirenberg_fit(f, est)
        assert fit.b > 0.0
        assert np.isfinite(fit.B)
        assert fit.max_violation <= 0.0
        # any b works as long as B >= exp(b * s / norm) over the support
        assert fit.B >= math.exp(fit.b * 0.999 / est.norm_value) * (1 - 1e-9)

    def test_traceless_hessian_has_exponential_tail(self):
        g = generate_random(TWO_14, (64, 64), seed=1)
        pf = build_optimal_potential(g, 2.5)
        field = traceless_hessian(pf)
        est = bmo_norm(field, 6, spatial_ndim=2)
        fit = john_nirenberg_fit(field, est, spatial_ndim=2)
        assert fit.b > 0.0
        assert fit.max_violation <= 0.0

    def test_fitted_b_scale_invariant(self):
        g = generate_random(TWO_14, (64, 64), seed=1)
        field = traceless_hessian(build_optimal_potential(g, 2.5))
        fit = john_nirenberg_fit(field, bmo_norm(field, 6, spatial_ndim=2), spatial_ndim=2)
        scaled = 3.7 * field
        fit_s = john_nirenberg_fit(scaled, bmo_norm(scaled, 6, spatial_ndim=2), spatial_ndim=2)
        assert fit_s.b == pytest.approx(fit.b, rel=1e-9)

    def test_field_left_unchanged(self):
        f = np.random.default_rng(6).standard_normal((2, 2, 16, 16))
        before = f.copy()
        john_nirenberg_fit(f, bmo_norm(f, 4, spatial_ndim=2), spatial_ndim=2)
        lemma1_ratio(f, np.ones((16, 16), bool), bmo_norm(f, 4, spatial_ndim=2), spatial_ndim=2)
        assert np.array_equal(f, before)

    def test_degenerate_field_rejected(self):
        f = np.zeros((16, 16))
        est = bmo_norm(f, 3)
        with pytest.raises(ValueError, match="degenerate"):
            john_nirenberg_fit(f, est)


class TestLemma1Ratio:
    def test_full_cube_ratio(self):
        f = sign_field()
        est = bmo_norm(f, 5)
        ratio = lemma1_ratio(f, np.ones((32, 32), bool), bmo=est)
        # |A| = 1: the ratio is the quadratic mass over the squared norm
        assert ratio == pytest.approx(float((f**2).mean()) / est.norm_value**2, rel=1e-12)

    def test_empty_mask_rejected(self):
        f = sign_field()
        with pytest.raises(ValueError, match="empty"):
            lemma1_ratio(f, np.zeros((32, 32), bool), bmo_norm(f, 5))

    def test_mask_shape_checked(self):
        with pytest.raises(ValueError, match="mask shape"):
            lemma1_ratio(sign_field(), np.ones((8, 8), bool), bmo_norm(sign_field(), 5))

    def test_superlevel_masks_of_theorem_pipeline(self):
        ps = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), 2)
        g = generate_random(ps, (64, 64), seed=3)
        pf = build_optimal_potential(g, 2.0)
        field = traceless_hessian(pf)
        est = bmo_norm(field, 6, spatial_ndim=2)
        sigma = g.conductivity_field()
        masks = superlevel_masks(sigma)
        assert len(masks) == 2
        ratios = [lemma1_ratio(field, m, bmo=est, spatial_ndim=2) for _, m in masks]
        assert all(np.isfinite(r) and r > 0 for r in ratios)

    def test_corpus_norm_bounded_by_fitted_constant_times_osc(self):
        # the reported C_fit is the corpus max of bmo_norm / osc theta; every
        # field then satisfies bmo_norm <= C_fit * osc theta by construction,
        # and the ratio itself stays finite and positive
        records = []
        for seed in range(4):
            g = generate_random(TWO_14, (32, 32), seed=seed)
            pf = build_optimal_potential(g, 2.5)
            field = traceless_hessian(pf)
            est = bmo_norm(field, full_dyadic_depth(g.shape), spatial_ndim=2)
            records.append((est.norm_value, pf.theta.max() - pf.theta.min()))
        c_fit = max(norm / osc for norm, osc in records)
        assert 0.0 < c_fit < np.inf
        for norm, osc in records:
            assert norm <= c_fit * osc * (1 + 1e-12)

    def test_nested_shrinking_masks_stay_bounded(self):
        # the (1 - log|A|)^2 |A| normalization is the whole point: the ratio
        # must not blow up as the subset shrinks
        g = generate_random(TWO_14, (64, 64), seed=4)
        field = traceless_hessian(build_optimal_potential(g, 2.0))
        est = bmo_norm(field, 6, spatial_ndim=2)
        ratios = []
        for k in range(1, 6):
            mask = np.zeros((64, 64), bool)
            mask[: 64 >> k, : 64 >> k] = True
            ratios.append(lemma1_ratio(field, mask, bmo=est, spatial_ndim=2))
        assert max(ratios) < 50.0
