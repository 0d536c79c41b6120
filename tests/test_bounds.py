import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conducta import bounds
from conducta.bounds import (
    BoundConfig,
    BoundReport,
    hs_upper,
    optimize_S,
    theorem1_upper,
    trivial_upper,
)
from conducta.phases import PhaseSet, oscillation_closed_form, shifted_harmonic_L, tail_integral

from conftest import phase_sets, random_phase_set

THREE = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), 3)
TWO_14 = PhaseSet.from_pairs((1.0, 4.0), (0.5, 0.5), 2)


def h_term(ps, S):
    """H(S) = -(n-1) S + L(S) as theorem 1 reports it; at S = 0 it is L(0)."""
    return theorem1_upper(ps, S).H_term if S > 0.0 else shifted_harmonic_L(ps, 0.0)


def scaled(ps, lam):
    return PhaseSet.from_pairs([lam * s for s in ps.conductivities], ps.fractions, ps.dimension)


class TestConfigAndReport:
    def test_config_validation(self):
        for C in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite and positive"):
                BoundConfig(C=C)

    def test_report_validation(self):
        # BoundReport("theorem1", 5.0, H_term=2.0, E_term=3.0) was accepted: a theorem-1 report with no S, L or C
        for args, kwargs in [(("theorem1", 5.0), {"H_term": 2.0, "E_term": 3.0}), (("trivial", 1.0), {}), ((), {})]:
            with pytest.raises(TypeError, match="made only by trivial_upper, hs_upper and theorem1_upper"):
                BoundReport(*args, **kwargs)
        rng = np.random.default_rng(29)
        for k in range(1, 6):
            for n in range(2, 6):
                ps = random_phase_set(rng, k, n)
                S = float(rng.uniform(0.1, 1.2)) * ps.sup_sigma
                for cfg in (BoundConfig(C=0.3), BoundConfig(C=0.3, use_simplified_E=False)):
                    trivial, hs = trivial_upper(ps), hs_upper(ps)
                    at_S, best = theorem1_upper(ps, S, cfg), optimize_S(ps, cfg)
                    for r in (trivial, hs, at_S, best):
                        assert r.bound_name in ("trivial", "hashin_shtrikman", "theorem1", "theorem1_simplified")
                        if r.H_term is not None and r.E_term is not None:
                            assert r.E_term >= 0.0 and r.value == r.H_term + r.E_term
                    name = "theorem1_simplified" if cfg.use_simplified_E else "theorem1"
                    assert at_S.bound_name == best.bound_name == name and at_S.C_used == best.C_used == 0.3
                    assert trivial.S_used is None and hs.C_used is None


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


    @given(phase_sets(), st.floats(0.0, 1e300, exclude_min=True))
    def test_h_term_is_a_weighted_mean_of_sigma(self, ps, S):
        # as -(n-1) S + L, H lost every digit at large S and went negative
        H = h_term(ps, S)
        am = trivial_upper(ps).value
        assert ps.inf_sigma - 4 * math.ulp(ps.inf_sigma) <= H <= am + 4 * math.ulp(am)

    @pytest.mark.parametrize("S", [1e300, 9.99999999998e299])
    def test_h_term_at_a_huge_shift_is_exact_to_round_off(self, S):
        # the sweep's mu3 = 1e-6 row on (1, 2, 1e300); -(n-1) S + L was 1e-10 off
        ps = PhaseSet.from_pairs((1.0, 2.0, 1e300), (0.5 * (1 - 1e-6), 0.5 * (1 - 1e-6), 1e-6), 3)
        shift = 2 * Fraction(S)
        pairs = [(Fraction(s), Fraction(m)) for s, m in zip(ps.conductivities, ps.fractions)]
        exact = sum(m * s / (s + shift) for s, m in pairs) / sum(m / (s + shift) for s, m in pairs)
        assert abs(Fraction(h_term(ps, S)) - exact) <= Fraction(1e-15) * exact


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

    @pytest.mark.parametrize("C", [1.0, 0.3])
    @pytest.mark.parametrize("ps", [THREE, TWO_14], ids=["three-3d", "two-2d"])
    def test_full_E_is_C_osc_theta_over_n_squared_times_tail(self, ps, C):
        n = ps.dimension
        for S in (0.5, 1.0, 2.5, 3.9):
            r = oscillation_closed_form(ps, S) / n
            E = theorem1_upper(ps, S, BoundConfig(C=C, use_simplified_E=False)).E_term
            assert E == C * r * r * tail_integral(ps, S)

    def test_rejects_a_shift_whose_sum_overflows(self):
        # (n-1) S = 2e308 made the harmonic sum 0, a ZeroDivisionError
        for cfg in (BoundConfig(), BoundConfig(use_simplified_E=False)):
            with pytest.raises(ValueError, match="S = 1e\\+308 overflows in dimension n = 3"):
                theorem1_upper(THREE, 1e308, cfg)

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
    """The three-phase refinement: theorem 1 at S = sigma_2 with the simplified E."""

    def test_mu3_to_zero_convergence_rate(self):
        two = PhaseSet.from_pairs((1.0, 2.0), (0.5, 0.5), 3)
        hs2 = hs_upper(two).value
        prev = None
        for mu3 in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            ps = PhaseSet.from_pairs(
                (1.0, 2.0, 5.0), (0.5 * (1 - mu3), 0.5 * (1 - mu3), mu3), 3
            )
            diff = abs(theorem1_upper(ps, 2.0, BoundConfig(C=1.0)).value - hs2)
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

    @pytest.mark.parametrize(
        "ps,C",
        [
            (PhaseSet.from_pairs((3.0,), (1.0,), 3), 1.0),  # every value H = 3 up to round-off
            (PhaseSet.from_pairs((3.0,), (1.0,), 2), 1.0),
            (THREE, 1.0),
            (THREE, 0.05),
            (TWO_14, 0.3),
            (PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.499, 0.499, 0.002), 3), 0.1),  # an interior optimum
        ],
    )
    def test_result_is_the_best_evaluated_S(self, ps, C, monkeypatch):
        # one rule picks the result among every evaluated S: the least value, ties toward the larger S
        calls = []
        terms = bounds._theorem1_terms

        def spy(ps, S, cfg):
            H, E, L = terms(ps, S, cfg)
            calls.append((S, H + E))
            return H, E, L

        monkeypatch.setattr(bounds, "_theorem1_terms", spy)
        r = optimize_S(ps, BoundConfig(C=C))
        *evaluated, final = calls  # the last call is theorem1_upper's, at the S chosen
        least = min(v for _, v in evaluated)
        assert r.S_used == final[0] == max(S for S, v in evaluated if v == least)
        assert r.value == least

    @given(phase_sets(max_phases=4), st.floats(0.1, 3.0))
    def test_never_above_probed_values(self, ps, C):
        cfg = BoundConfig(C=C)
        r = optimize_S(ps, cfg)
        tol = 1e-12 * max(1.0, r.value)
        assert r.value <= hs_upper(ps).value + tol
        for frac in (0.25, 0.5, 0.75, 1.0):
            assert r.value <= theorem1_upper(ps, frac * ps.sup_sigma, cfg).value + tol


def milton_jump(ps2: PhaseSet, sigma3: float) -> float:
    """H(sigma3) - H(sigma2): the three-phase HS bound as mu_3 -> 0+ minus the two-phase one."""
    return theorem1_upper(ps2, sigma3).H_term - hs_upper(ps2).H_term


class TestMiltonGap:
    def test_hand_value(self):
        ps2 = PhaseSet.from_pairs((1.0, 2.0), (0.5, 0.5), 3)
        assert milton_jump(ps2, 5.0) == pytest.approx(6.0 / 253.0, rel=1e-12)

    def test_zero_at_sigma2(self):
        ps2 = PhaseSet.from_pairs((1.0, 2.0), (0.5, 0.5), 3)
        assert milton_jump(ps2, 2.0) == 0.0

    def test_monotone_in_sigma3(self):
        # sweep sigma3 over [sigma2, 10 sigma2]
        ps2 = PhaseSet.from_pairs((1.0, 2.0), (0.5, 0.5), 3)
        gaps = [milton_jump(ps2, 2.0 + 0.5 * i) for i in range(37)]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))

    @given(phase_sets(min_phases=2, max_phases=2), st.floats(1e-3, 30.0))
    def test_strictly_positive_above_sigma2(self, ps2, ds):
        assert milton_jump(ps2, ps2.sup_sigma + ds) > 0.0

    @pytest.mark.parametrize("sigma3", [2.5, 5.0, 20.0])
    def test_is_the_limit_of_the_three_phase_hs_bound(self, sigma3):
        # adjoin a third phase of fraction mu at sigma3: its HS bound exceeds the
        # two-phase one by the jump plus O(mu), so the jump is the mu -> 0+ limit
        ps2 = PhaseSet.from_pairs((1.0, 2.0), (0.5, 0.5), 3)
        jump = milton_jump(ps2, sigma3)
        for mu in (1e-4, 1e-6, 1e-8):
            ps3 = PhaseSet.from_pairs((1.0, 2.0, sigma3), (0.5 - mu / 2, 0.5 - mu / 2, mu), 3)
            assert abs(hs_upper(ps3).value - hs_upper(ps2).value - jump) <= sigma3 * mu


class TestTailAtSupExactness:
    @given(phase_sets())
    def test_tail_is_exactly_zero_at_sup(self, ps):
        assert tail_integral(ps, ps.sup_sigma) == 0.0
