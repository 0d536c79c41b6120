import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conducta.bounds import (
    BoundConfig,
    BoundReport,
    h_term,
    hs_upper,
    milton_gap,
    optimize_S,
    theorem1_upper,
    three_phase_refined,
    trivial_upper,
)
from conducta.phases import PhaseSet, tail_integral

from conftest import phase_sets

THREE = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), 3)
TWO_14 = PhaseSet.from_pairs((1.0, 4.0), (0.5, 0.5), 2)


def scaled(ps, lam):
    return PhaseSet.from_pairs([lam * s for s in ps.conductivities], ps.fractions, ps.dimension)


class TestConfigAndReport:
    def test_config_validation(self):
        for C in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite and positive"):
                BoundConfig(C=C)

    def test_report_validation(self):
        with pytest.raises(ValueError, match="name"):
            BoundReport("nope", 1.0)
        with pytest.raises(ValueError, match="E term"):
            BoundReport("theorem1", 1.0, H_term=2.0, E_term=-1.0)
        with pytest.raises(ValueError, match="H_term"):
            BoundReport("theorem1", 1.0, H_term=2.0, E_term=3.0)
        BoundReport("theorem1", 5.0, H_term=2.0, E_term=3.0)


class TestTrivial:
    def test_single_phase(self):
        assert trivial_upper(PhaseSet.from_pairs((3.0,), (1.0,), 2)).value == 3.0

    def test_hand_values(self):
        assert trivial_upper(THREE).value == pytest.approx(2.2, rel=1e-14)
        assert trivial_upper(TWO_14).value == pytest.approx(2.5, rel=1e-14)


class TestHTermAndHS:
    def test_h_term_hand_values(self):
        assert h_term(THREE, 2.0) == pytest.approx(-4 + 225.0 / 38.0, rel=1e-13)
        two = PhaseSet.from_pairs((1.0, 2.0), (0.5, 0.5), 2)
        assert h_term(two, 2.0) == pytest.approx(-2 + 24.0 / 7.0, rel=1e-13)

    def test_h_term_single_phase_is_constant(self):
        ps = PhaseSet.from_pairs((3.0,), (1.0,), 3)
        for s in (0.0, 1.0, 7.0):
            assert h_term(ps, s) == pytest.approx(3.0, rel=1e-13)

    def test_hs_hand_values(self):
        assert hs_upper(THREE).value == pytest.approx(280.0 / 137.0, rel=1e-12)
        assert hs_upper(TWO_14).value == pytest.approx(28.0 / 13.0, rel=1e-12)
        r = hs_upper(THREE)
        assert r.E_term == 0.0 and r.S_used == 5.0

    @given(phase_sets(), st.floats(0.01, 1.0))
    def test_ordering_h_below_hs_below_trivial(self, ps, frac):
        S = frac * ps.sup_sigma
        tol = 1e-10 * max(1.0, ps.sup_sigma)
        assert h_term(ps, S) <= hs_upper(ps).value + tol
        assert hs_upper(ps).value <= trivial_upper(ps).value + tol

    @given(phase_sets(), st.floats(0.1, 5.0), st.booleans())
    def test_hs_is_theorem1_at_sup(self, ps, C, simplified):
        r = hs_upper(ps)
        t = theorem1_upper(ps, ps.sup_sigma, BoundConfig(C=C, use_simplified_E=simplified))
        assert (r.value, r.S_used, r.H_term, r.E_term, r.L_value) == (t.value, t.S_used, t.H_term, t.E_term, t.L_value)
        assert r.E_term == 0.0 and r.C_used is None

    @given(phase_sets(), st.floats(0.0, 10.0), st.floats(1e-6, 10.0))
    def test_h_term_nondecreasing(self, ps, S, dS):
        assert h_term(ps, S + dS) >= h_term(ps, S) - 1e-10


class TestTheorem1:
    def test_equals_hs_at_sup(self):
        for cfg in (BoundConfig(), BoundConfig(use_simplified_E=False)):
            r = theorem1_upper(THREE, THREE.sup_sigma, cfg)
            assert r.E_term == 0.0
            assert r.value == pytest.approx(hs_upper(THREE).value, rel=1e-15)

    def test_hand_value_simplified(self):
        cfg = BoundConfig(C=1.0, use_simplified_E=True)
        r = theorem1_upper(THREE, 2.0, cfg)
        tail = 0.2 * (1 - math.log(0.2)) ** 2 * 3
        assert r.H_term == pytest.approx(-4 + 225.0 / 38.0, rel=1e-13)
        assert r.E_term == pytest.approx(16 * tail / 25, rel=1e-13)
        assert r.value == pytest.approx(-4 + 225.0 / 38.0 + 16 * tail / 25, rel=1e-13)

    def test_single_phase_any_S_any_C(self):
        ps = PhaseSet.from_pairs((3.0,), (1.0,), 3)
        for s in (0.5, 3.0, 9.0):
            r = theorem1_upper(ps, s, BoundConfig(C=123.0))
            assert r.E_term == 0.0
            assert r.value == pytest.approx(3.0, rel=1e-13)

    def test_rejects_nonpositive_S(self):
        for S in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite and positive"):
                theorem1_upper(THREE, S)

    def test_full_E_below_simplified(self):
        full = theorem1_upper(THREE, 2.0, BoundConfig(use_simplified_E=False))
        simp = theorem1_upper(THREE, 2.0, BoundConfig(use_simplified_E=True))
        assert 0.0 < full.E_term <= simp.E_term
        assert full.bound_name == "theorem1"
        assert simp.bound_name == "theorem1_simplified"

    @given(phase_sets(), st.floats(0.02, 1.0), st.floats(0.1, 10.0))
    def test_scaling_covariance(self, ps, frac, lam):
        S = frac * ps.sup_sigma
        cfg = BoundConfig(C=0.7)
        base = theorem1_upper(ps, S, cfg).value
        scaled_value = theorem1_upper(scaled(ps, lam), lam * S, cfg).value
        assert scaled_value == pytest.approx(lam * base, rel=1e-11)
        assert trivial_upper(scaled(ps, lam)).value == pytest.approx(
            lam * trivial_upper(ps).value, rel=1e-11
        )
        assert hs_upper(scaled(ps, lam)).value == pytest.approx(
            lam * hs_upper(ps).value, rel=1e-11
        )


class TestThreePhaseRefined:
    def test_matches_theorem1_at_sigma2(self):
        r = three_phase_refined(THREE, BoundConfig(C=1.0))
        t = theorem1_upper(THREE, 2.0, BoundConfig(C=1.0, use_simplified_E=True))
        assert (r.value, r.H_term, r.E_term, r.L_value) == (t.value, t.H_term, t.E_term, t.L_value)

    @given(phase_sets(min_phases=3, max_phases=3), st.floats(0.1, 5.0), st.booleans())
    def test_matches_theorem1_randomized(self, ps, C, simplified):
        # the refinement always takes the simplified E, whatever the config says
        r = three_phase_refined(ps, BoundConfig(C=C, use_simplified_E=simplified))
        t = theorem1_upper(ps, ps.conductivities[1], BoundConfig(C=C, use_simplified_E=True))
        assert (r.value, r.H_term, r.E_term, r.L_value, r.C_used) == (t.value, t.H_term, t.E_term, t.L_value, C)

    def test_rejects_wrong_phase_count(self):
        with pytest.raises(ValueError, match="3 phases"):
            three_phase_refined(TWO_14)

    def test_mu3_to_zero_convergence_rate(self):
        two = PhaseSet.from_pairs((1.0, 2.0), (0.5, 0.5), 3)
        hs2 = hs_upper(two).value
        prev = None
        for mu3 in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            ps = PhaseSet.from_pairs(
                (1.0, 2.0, 5.0), (0.5 * (1 - mu3), 0.5 * (1 - mu3), mu3), 3
            )
            diff = abs(three_phase_refined(ps, BoundConfig(C=1.0)).value - hs2)
            bound = 16 * 3 * mu3 * (1 - math.log(mu3)) ** 2 / 25
            assert diff <= 2.0 * bound + 10.0 * mu3
            if prev is not None:
                assert diff < prev
            prev = diff


class TestOptimizeS:
    def test_single_phase_constant(self):
        ps = PhaseSet.from_pairs((3.0,), (1.0,), 3)
        r = optimize_S(ps)
        assert r.value == pytest.approx(3.0, rel=1e-13)

    def test_huge_C_falls_back_to_hs(self):
        r = optimize_S(THREE, BoundConfig(C=1e6))
        assert r.S_used == THREE.sup_sigma
        assert r.value == pytest.approx(hs_upper(THREE).value, rel=1e-15)

    def test_regression_interior_optimum(self):
        # dense 1e5-point grid + ternary refinement oracle, frozen:
        # C=0.1, sigma=(1,2,5), mu=(0.499,0.499,0.002), n=3 ->
        #   S* = 2.5015652..., V* = 1.4776812665...
        ps = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.499, 0.499, 0.002), 3)
        r = optimize_S(ps, BoundConfig(C=0.1))
        assert r.value == pytest.approx(1.4776812665380568, abs=1e-8)
        assert abs(r.S_used - 2.5015652049982746) < 1e-3
        assert r.S_used < ps.sup_sigma
        assert r.value < hs_upper(ps).value

    def test_same_set_with_unit_C_stays_at_hs(self):
        # at C=1 the tail term outweighs the H gain everywhere below sup sigma
        ps = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.499, 0.499, 0.002), 3)
        r = optimize_S(ps, BoundConfig(C=1.0))
        assert r.S_used == ps.sup_sigma
        assert r.value == pytest.approx(hs_upper(ps).value, rel=1e-15)

    @given(phase_sets(max_phases=4), st.floats(0.1, 3.0))
    def test_never_above_probed_values(self, ps, C):
        cfg = BoundConfig(C=C)
        r = optimize_S(ps, cfg)
        tol = 1e-12 * max(1.0, r.value)
        assert r.value <= hs_upper(ps).value + tol
        for frac in (0.25, 0.5, 0.75, 1.0):
            assert r.value <= theorem1_upper(ps, frac * ps.sup_sigma, cfg).value + tol


class TestMiltonGap:
    def test_hand_value(self):
        ps2 = PhaseSet.from_pairs((1.0, 2.0), (0.5, 0.5), 3)
        assert milton_gap(ps2, 5.0) == pytest.approx(6.0 / 253.0, rel=1e-12)

    def test_zero_at_sigma2(self):
        ps2 = PhaseSet.from_pairs((1.0, 2.0), (0.5, 0.5), 3)
        assert milton_gap(ps2, 2.0) == 0.0

    def test_rejects_below_sigma2(self):
        ps2 = PhaseSet.from_pairs((1.0, 2.0), (0.5, 0.5), 3)
        with pytest.raises(ValueError):
            milton_gap(ps2, 1.5)
        with pytest.raises(ValueError, match="2 phases"):
            milton_gap(THREE, 6.0)

    @pytest.mark.parametrize("sigma3", [math.inf, math.nan])
    def test_rejects_non_finite_sigma3(self, sigma3):
        # inf was a ZeroDivisionError, nan returned nan
        ps2 = PhaseSet.from_pairs((1.0, 2.0), (0.5, 0.5), 3)
        with pytest.raises(ValueError, match=f"sigma3 must be finite.*got {sigma3}"):
            milton_gap(ps2, sigma3)

    def test_monotone_in_sigma3(self):
        # sweep sigma3 over [sigma2, 10 sigma2]
        ps2 = PhaseSet.from_pairs((1.0, 2.0), (0.5, 0.5), 3)
        gaps = [milton_gap(ps2, 2.0 + 0.5 * i) for i in range(37)]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))

    @given(phase_sets(min_phases=2, max_phases=2), st.floats(1e-3, 30.0))
    def test_strictly_positive_above_sigma2(self, ps2, ds):
        assert milton_gap(ps2, ps2.sup_sigma + ds) > 0.0


class TestTailAtSupExactness:
    @given(phase_sets())
    def test_tail_is_exactly_zero_at_sup(self, ps):
        assert tail_integral(ps, ps.sup_sigma) == 0.0
