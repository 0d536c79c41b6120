import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conducta.errors import ConfigError
from conducta.phases import (
    DistributionFunction,
    Phase,
    PhaseSet,
    distribution_from_phases,
    distribution_weight,
    parse_phase_config,
    shifted_harmonic_L,
    tail_integral,
)

from conftest import phase_sets

THREE = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), 3)


class TestPhaseValidation:
    def test_phase_rejects_nonpositive_conductivity(self):
        with pytest.raises(ValueError, match="conductivity"):
            Phase(0.0, 0.5)
        with pytest.raises(ValueError, match="conductivity"):
            Phase(-1.0, 0.5)

    def test_phase_rejects_bad_fraction(self):
        with pytest.raises(ValueError, match="fraction"):
            Phase(1.0, 0.0)
        with pytest.raises(ValueError, match="fraction"):
            Phase(1.0, 1.5)

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            PhaseSet.from_pairs((1.0, 2.0), (0.5, 0.4), 2)

    def test_dimension_at_least_two(self):
        with pytest.raises(ValueError, match="dimension"):
            PhaseSet.from_pairs((1.0,), (1.0,), 1)

    def test_conductivities_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            PhaseSet((Phase(2.0, 0.5), Phase(1.0, 0.5)), 2)

    def test_from_pairs_sorts_merges_and_drops(self):
        ps = PhaseSet.from_pairs((5.0, 1.0, 5.0, 3.0), (0.1, 0.4, 0.2, 0.3), 2)
        assert ps.conductivities == (1.0, 3.0, 5.0)
        assert ps.fractions == pytest.approx((0.4, 0.3, 0.3), abs=1e-15)
        ps0 = PhaseSet.from_pairs((1.0, 2.0, 9.0), (0.5, 0.5, 0.0), 2)
        assert ps0.num_phases == 2


class TestDistribution:
    def test_single_phase_step(self):
        d = distribution_from_phases(PhaseSet.from_pairs((3.0,), (1.0,), 2))
        assert d.value_at(2.999) == 1.0
        assert d.value_at(3.0) == 0.0
        assert d.value_at(10.0) == 0.0

    def test_three_phase_values(self):
        d = distribution_from_phases(THREE)
        assert d.value_at(1.5) == pytest.approx(0.6, abs=1e-15)
        assert d.value_at(3.0) == pytest.approx(0.2, abs=1e-15)
        assert d.value_at(5.0) == 0.0

    def test_right_continuity_at_breakpoint(self):
        d = distribution_from_phases(PhaseSet.from_pairs((1.0, 2.0), (0.5, 0.5), 2))
        assert d.value_at(1.0) == 0.5

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            DistributionFunction(((1.0, 0.2), (2.0, 0.5), (3.0, 0.0)))
        with pytest.raises(ValueError, match="vanish"):
            DistributionFunction(((1.0, 0.5),))

    @given(phase_sets())
    def test_layer_cake_moment_identity(self, ps):
        d = distribution_from_phases(ps)
        bps = d.breakpoints
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


class TestTailIntegral:
    def test_hand_values(self):
        d = distribution_from_phases(THREE)
        expect_2 = 0.2 * (1 - math.log(0.2)) ** 2 * 3
        assert tail_integral(d, 2.0) == pytest.approx(expect_2, rel=1e-14)
        expect_1 = 0.6 * (1 - math.log(0.6)) ** 2 * 1 + expect_2
        assert tail_integral(d, 1.0) == pytest.approx(expect_1, rel=1e-14)

    def test_zero_above_sup(self):
        d = distribution_from_phases(THREE)
        assert tail_integral(d, 5.0) == 0.0
        assert tail_integral(d, 7.3) == 0.0

    @pytest.mark.parametrize("S", [math.inf, math.nan])
    def test_rejects_non_finite_S(self, S):
        # S = nan returned 0.0
        with pytest.raises(ValueError, match=f"finite and nonnegative, got {S}"):
            tail_integral(distribution_from_phases(THREE), S)

    def test_below_inf_includes_unit_plateau(self):
        d = distribution_from_phases(THREE)
        assert tail_integral(d, 0.5) == pytest.approx(0.5 + tail_integral(d, 1.0), rel=1e-14)

    @given(phase_sets(), st.floats(0.0, 60.0), st.floats(0.0, 10.0))
    def test_nonincreasing_in_S(self, ps, S, dS):
        d = distribution_from_phases(ps)
        assert tail_integral(d, S + dS) <= tail_integral(d, S) + 1e-12

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

    def test_missing_dimension(self):
        with pytest.raises(ConfigError, match="dimension"):
            parse_phase_config("phase = 1.0 1.0\n")

    def test_fraction_sum_named(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            parse_phase_config("dimension = 2\nphase = 1 0.5\nphase = 2 0.4\n")
