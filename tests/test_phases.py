import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conducta.errors import ConfigError
from conducta.phases import (
    PhaseSet,
    distribution_weight,
    oscillation_closed_form,
    parse_phase_config,
    shifted_harmonic_L,
    tail_integral,
)

from conftest import phase_sets

THREE = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), 3)


def reference_breakpoints(ps):
    """F as (t, F(t)) jump pairs, accumulated from the top phase down."""
    suffix = 0.0
    rev = []
    for s, m in reversed(list(zip(ps.conductivities, ps.fractions))):
        rev.append((s, suffix))
        suffix += m
    return list(reversed(rev))


def reference_tail_integral(ps, S):
    """The tail integral summed over the breakpoint intervals of F."""
    bps = reference_breakpoints(ps)
    parts = []
    if S < bps[0][0]:
        parts.append(bps[0][0] - S)
    for (t_lo, value), (t_hi, _) in zip(bps, bps[1:]):
        lo = max(S, t_lo)
        if t_hi > lo and value > 0.0:
            parts.append(distribution_weight(value) * (t_hi - lo))
    return math.fsum(parts)


def step_weight(ps, t_lo, t_hi):
    """F (1 - log F)^2 on a step [t_lo, t_hi) of F, read back from the tail integral."""
    return (tail_integral(ps, t_lo) - tail_integral(ps, t_hi)) / (t_hi - t_lo)


class TestPhaseValidation:
    def test_phase_rejects_nonpositive_conductivity(self):
        # inf and nan were accepted: inf failed later as "S must be finite";
        # a subnormal one made a term m / (sigma + (n-1) S) of L overflow
        for sigma in (0.0, -1.0, math.inf, math.nan, 1e-310, 5e-324):
            with pytest.raises(ValueError, match=f"conductivity must be finite and positive, got {sigma}"):
                PhaseSet((sigma, 2.0), (0.5, 0.5), 2)

    def test_least_normal_conductivity_gives_a_finite_L(self):
        ps = PhaseSet((sys.float_info.min, 1.0), (0.5, 0.5), 2)
        assert 0.0 < shifted_harmonic_L(ps, 0.0) < math.inf

    def test_phase_rejects_bad_fraction(self):
        for mu in (0.0, 1.5, math.nan):
            with pytest.raises(ValueError, match="fraction"):
                PhaseSet((1.0,), (mu,), 2)

    def test_lengths_must_match(self):
        with pytest.raises(ValueError, match="equal length"):
            PhaseSet((1.0, 2.0), (1.0,), 2)
        with pytest.raises(ValueError, match="equal length"):
            PhaseSet.from_pairs((1.0,), (0.5, 0.5), 2)

    def test_stores_owned_float_tuples(self):
        sig, mu = [1, 2.0], np.array([0.5, 0.5])
        ps = PhaseSet(sig, mu, 2)
        sig[0], mu[0] = 9.0, 0.9
        assert ps.conductivities == (1.0, 2.0) and ps.fractions == (0.5, 0.5)
        assert all(type(v) is float for v in ps.conductivities + ps.fractions)
        with pytest.raises(TypeError):
            ps.conductivities[0] = 3.0
        assert hash(ps) == hash(PhaseSet((1.0, 2.0), (0.5, 0.5), 2))

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            PhaseSet.from_pairs((1.0, 2.0), (0.5, 0.4), 2)

    def test_dimension_at_least_two(self):
        with pytest.raises(ValueError, match="dimension"):
            PhaseSet.from_pairs((1.0,), (1.0,), 1)

    def test_conductivities_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            PhaseSet((2.0, 1.0), (0.5, 0.5), 2)

    def test_from_pairs_sorts_merges_and_drops(self):
        ps = PhaseSet.from_pairs((5.0, 1.0, 5.0, 3.0), (0.1, 0.4, 0.2, 0.3), 2)
        assert ps.conductivities == (1.0, 3.0, 5.0)
        assert ps.fractions == pytest.approx((0.4, 0.3, 0.3), abs=1e-15)
        ps0 = PhaseSet.from_pairs((1.0, 2.0, 9.0), (0.5, 0.5, 0.0), 2)
        assert ps0.num_phases == 2


class TestDistribution:
    """F as the tail integral sees it: steps read straight off the phase set."""

    def test_single_phase_step(self):
        ps = PhaseSet.from_pairs((3.0,), (1.0,), 2)
        assert tail_integral(ps, 2.0) == 1.0  # F = 1 below sigma_1
        assert tail_integral(ps, 3.0) == 0.0  # and 0 from sigma_1 on
        assert tail_integral(ps, 10.0) == 0.0

    def test_three_phase_values(self):
        assert step_weight(THREE, 1.0, 2.0) == pytest.approx(distribution_weight(0.6), rel=1e-14)
        assert step_weight(THREE, 1.5, 2.0) == pytest.approx(distribution_weight(0.6), rel=1e-14)
        assert step_weight(THREE, 2.0, 5.0) == pytest.approx(distribution_weight(0.2), rel=1e-14)
        assert tail_integral(THREE, 5.0) == 0.0

    def test_right_continuity_at_breakpoint(self):
        # F at sigma_i is the fraction strictly above sigma_i, not including mu_i
        ps = PhaseSet.from_pairs((1.0, 2.0), (0.5, 0.5), 2)
        assert tail_integral(ps, 1.0) == distribution_weight(0.5)

    @given(phase_sets())
    def test_layer_cake_moment_identity(self, ps):
        bps = reference_breakpoints(ps)
        step_sum = math.fsum(
            v * (t_hi - t_lo) for (t_lo, v), (t_hi, _) in zip(bps, bps[1:])
        )
        mean = math.fsum(m * s for s, m in zip(ps.conductivities, ps.fractions))
        assert abs(mean - (step_sum + ps.inf_sigma)) < 1e-12 * max(1.0, mean)


class TestShiftedHarmonicL:
    def test_hand_values(self):
        ps = PhaseSet.from_pairs((1.0, 2.0), (0.5, 0.5), 2)
        assert shifted_harmonic_L(ps, 2.0) == pytest.approx(24.0 / 7.0, rel=1e-14)
        assert shifted_harmonic_L(THREE, 2.0) == pytest.approx(225.0 / 38.0, rel=1e-14)

    def test_single_phase(self):
        ps = PhaseSet.from_pairs((3.0,), (1.0,), 4)
        assert shifted_harmonic_L(ps, 1.5) == pytest.approx(3.0 + 3 * 1.5, rel=1e-14)

    def test_rejects_negative_S(self):
        with pytest.raises(ValueError):
            shifted_harmonic_L(THREE, -0.1)

    @pytest.mark.parametrize("S", [math.inf, math.nan])
    def test_rejects_non_finite_S(self, S):
        # S = inf was a ZeroDivisionError, S = nan returned nan
        with pytest.raises(ValueError, match=f"finite and nonnegative, got {S}"):
            shifted_harmonic_L(THREE, S)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rejects_a_shift_whose_sum_overflows(self, n):
        # an infinite sup sigma + (n-1) S made the harmonic sum 0 or subnormal:
        # a ZeroDivisionError, or L = inf
        ps = PhaseSet.from_pairs((1.0, 1e308), (0.5, 0.5), n)
        with pytest.raises(ValueError, match=re.escape(f"S = 1e+308 overflows in dimension n = {n}")):
            shifted_harmonic_L(ps, 1e308)

    def test_a_finite_sum_near_the_range_is_accepted(self):
        ps = PhaseSet.from_pairs((1.0, 2.0), (0.5, 0.5), 3)
        assert math.isfinite(shifted_harmonic_L(ps, 8e307))

    @given(phase_sets(), st.floats(0.0, 40.0))
    def test_bounds_and_range(self, ps, S):
        L = shifted_harmonic_L(ps, S)
        shift = (ps.dimension - 1) * S
        assert ps.inf_sigma + shift <= L * (1 + 1e-12)
        assert L <= (ps.sup_sigma + shift) * (1 + 1e-12)
        if S <= ps.sup_sigma:
            assert shift <= L * (1 + 1e-12)
            assert L <= shift + ps.sup_sigma * (1 + 1e-12) + 1e-12

    @given(phase_sets(), st.floats(0.0, 20.0), st.floats(1e-6, 10.0))
    def test_monotone_in_S(self, ps, S, dS):
        assert shifted_harmonic_L(ps, S + dS) >= shifted_harmonic_L(ps, S) - 1e-12

    @given(phase_sets(min_phases=2))
    def test_invariant_under_merging_equal_conductivities(self, ps):
        sig = list(ps.conductivities)
        mu = list(ps.fractions)
        # split the first phase into two equal-conductivity halves
        split_sig = [sig[0], sig[0]] + sig[1:]
        split_mu = [mu[0] / 2, mu[0] / 2] + mu[1:]
        merged = PhaseSet.from_pairs(split_sig, split_mu, ps.dimension)
        assert shifted_harmonic_L(merged, 1.0) == pytest.approx(
            shifted_harmonic_L(ps, 1.0), rel=1e-12
        )


class TestOscillationClosedForm:
    @given(phase_sets(), st.floats(0.0, 40.0))
    def test_is_the_spread_of_theta_over_the_phases(self, ps, S):
        n, L = ps.dimension, shifted_harmonic_L(ps, S)
        theta = [n * L / (s + (n - 1) * S) - n for s in ps.conductivities]
        assert oscillation_closed_form(ps, S) == pytest.approx(max(theta) - min(theta), rel=1e-12, abs=1e-12)


class TestTailIntegral:
    def test_hand_values(self):
        expect_2 = 0.2 * (1 - math.log(0.2)) ** 2 * 3
        assert tail_integral(THREE, 2.0) == pytest.approx(expect_2, rel=1e-14)
        expect_1 = 0.6 * (1 - math.log(0.6)) ** 2 * 1 + expect_2
        assert tail_integral(THREE, 1.0) == pytest.approx(expect_1, rel=1e-14)

    def test_zero_above_sup(self):
        assert tail_integral(THREE, 5.0) == 0.0
        assert tail_integral(THREE, 7.3) == 0.0

    @pytest.mark.parametrize("S", [math.inf, math.nan])
    def test_rejects_non_finite_S(self, S):
        # S = nan returned 0.0
        with pytest.raises(ValueError, match=f"finite and nonnegative, got {S}"):
            tail_integral(THREE, S)

    def test_below_inf_includes_unit_plateau(self):
        assert tail_integral(THREE, 0.5) == pytest.approx(0.5 + tail_integral(THREE, 1.0), rel=1e-14)

    @given(phase_sets(), st.floats(0.0, 60.0), st.floats(0.0, 10.0))
    def test_nonincreasing_in_S(self, ps, S, dS):
        assert tail_integral(ps, S + dS) <= tail_integral(ps, S) + 1e-12

    @given(phase_sets(max_phases=6), st.data())
    def test_equals_breakpoint_reference_exactly(self, ps, data):
        S = data.draw(st.one_of(st.sampled_from(ps.conductivities), st.floats(0.0, 1.2 * ps.sup_sigma)))
        assert tail_integral(ps, S) == reference_tail_integral(ps, S)

    def test_weight_extension_at_zero(self):
        assert distribution_weight(0.0) == 0.0
        assert distribution_weight(1.0) == 1.0
        with pytest.raises(ValueError):
            distribution_weight(-0.1)


class TestConfigParsing:
    GOOD = """
# three phases
dimension = 3
phase = 1.0 0.4
phase = 2.0, 0.4
phase = 5.0 0.2
"""

    def test_parse_good(self):
        ps = parse_phase_config(self.GOOD)
        assert ps.dimension == 3
        assert ps.conductivities == (1.0, 2.0, 5.0)

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_phase_config("dimension = 2\nbogus = 1\n")

    def test_bad_number_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_phase_config("dimension = 2\nphase = a b\n")

    def test_second_dimension_reports_line(self):
        # the last dimension line won: this ran bounds in 2D and exited 0
        with pytest.raises(ConfigError, match="line 2: 'dimension' is given twice"):
            parse_phase_config("dimension = 3\ndimension = 2\nphase = 1.0 1.0\n")

    def test_missing_dimension(self):
        with pytest.raises(ConfigError, match="dimension"):
            parse_phase_config("phase = 1.0 1.0\n")

    def test_fraction_sum_named(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            parse_phase_config("dimension = 2\nphase = 1 0.5\nphase = 2 0.4\n")
