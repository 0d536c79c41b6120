"""Closed-form upper bounds on the trace-averaged effective conductivity.

Every refined value comes from one formula, theorem 1's H(S) + E(S) with a
free shift parameter S > 0, where the E term controls the contribution of the
phases above S through the tail of the distribution function, which
``phases.tail_integral`` reads straight off the phase set:

* the trivial bound (arithmetic mean of sigma) needs no shift,
* the Hashin-Shtrikman upper bound is theorem 1 at S = sup sigma, where the
  tail integral and hence E vanish,
* the three-phase refinement is theorem 1 at S = sigma_2 with the simplified
  E form.

E carries a dimensional constant C that is not known explicitly; it defaults
to 1 and is always recorded in the report, so every refined value is to be
read "modulo the constant C".  The simplified E form (default) drops the
L^2 / (sup sigma + (n-1)S)^2 factor, which is how the three-phase
specialization at S = sigma_2 is usually written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .phases import PhaseSet, shifted_harmonic_L, tail_integral

__all__ = [
    "BOUND_NAMES",
    "BoundConfig",
    "BoundReport",
    "trivial_upper",
    "h_term",
    "hs_upper",
    "theorem1_upper",
    "three_phase_refined",
    "optimize_S",
    "milton_gap",
]

BOUND_NAMES = (
    "trivial",
    "hashin_shtrikman",
    "theorem1",
    "theorem1_simplified",
    "three_phase_refined",
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_S_SEARCH_POINTS = 64  # grid points of optimize_S's scan of (0, sup sigma]
_S_TOLERANCE = 1e-6  # width at which optimize_S's golden-section search stops


@dataclass(frozen=True)
class BoundConfig:
    """Evaluation settings for the refined bound.

    C is the dimensional constant in the E term, finite and positive;
    use_simplified_E drops the L^2 / (sup sigma + (n-1)S)^2 factor of E (see
    the module docstring).
    """

    C: float = 1.0
    use_simplified_E: bool = True

    def __post_init__(self):
        if not 0.0 < self.C < math.inf:
            raise ValueError(f"C must be finite and positive, got {self.C}")


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound; value = H_term + E_term whenever both are present."""

    bound_name: str
    value: float
    S_used: float | None = None
    H_term: float | None = None
    E_term: float | None = None
    L_value: float | None = None
    C_used: float | None = None

    def __post_init__(self):
        if self.bound_name not in BOUND_NAMES:
            raise ValueError(f"unknown bound name {self.bound_name!r}")
        if self.E_term is not None and self.E_term < 0.0:
            raise ValueError(f"E term must be nonnegative, got {self.E_term}")
        if self.H_term is not None and self.E_term is not None:
            if abs(self.value - (self.H_term + self.E_term)) > 1e-12 * max(1.0, abs(self.value)):
                raise ValueError("value must equal H_term + E_term")


def trivial_upper(ps: PhaseSet) -> BoundReport:
    """Arithmetic mean of sigma: the bound from the zero test field."""
    value = math.fsum(m * s for s, m in zip(ps.conductivities, ps.fractions))
    return BoundReport("trivial", value)


def h_term(ps: PhaseSet, S: float) -> float:
    """H(S) = -(n-1) S + L(S), nondecreasing in S and below the arithmetic mean."""
    return -(ps.dimension - 1) * S + shifted_harmonic_L(ps, S)


def hs_upper(ps: PhaseSet) -> BoundReport:
    """Hashin-Shtrikman upper bound: theorem 1 at S = sup sigma.

    The tail integral is exactly 0 from sup sigma on, so E = 0 whatever C is,
    and the value is H(sup sigma).  The report records S, H, E and L, no C.
    """
    S = ps.sup_sigma
    H, E, L = _theorem1_terms(ps, S, BoundConfig())
    return BoundReport("hashin_shtrikman", H + E, S_used=S, H_term=H, E_term=E, L_value=L)


def _theorem1_terms(ps: PhaseSet, S: float, cfg: BoundConfig) -> tuple[float, float, float]:
    shift = (ps.dimension - 1) * S
    L = shifted_harmonic_L(ps, S)
    H = -shift + L
    tail = tail_integral(ps, S)
    osc = ps.osc_sigma
    w_lo = ps.inf_sigma + shift
    if cfg.use_simplified_E:
        E = cfg.C * osc * osc * tail / (w_lo * w_lo)
    else:
        w_hi = ps.sup_sigma + shift
        E = cfg.C * osc * osc * L * L * tail / (w_lo * w_lo * w_hi * w_hi)
    return H, E, L


def theorem1_upper(ps: PhaseSet, S: float, cfg: BoundConfig | None = None) -> BoundReport:
    """Refined upper bound H(S) + E(S) at a given shift parameter S > 0.

    Any finite S > 0 is accepted; for S >= sup sigma the tail integral
    vanishes, so E = 0 and the value reduces to H(S) (equal to the
    Hashin-Shtrikman bound at S = sup sigma exactly).  The report records S,
    H, E, L and C.
    """
    if not 0.0 < S < math.inf:
        raise ValueError(f"S must be finite and positive, got {S}")
    cfg = cfg or BoundConfig()
    H, E, L = _theorem1_terms(ps, S, cfg)
    name = "theorem1_simplified" if cfg.use_simplified_E else "theorem1"
    return BoundReport(name, H + E, S_used=S, H_term=H, E_term=E, L_value=L, C_used=cfg.C)


def three_phase_refined(ps: PhaseSet, cfg: BoundConfig | None = None) -> BoundReport:
    """Three-phase refinement: theorem 1 at S = sigma_2 with the simplified E.

    Whatever cfg.use_simplified_E says, E is the simplified form
    C osc^2 (sigma_3 - sigma_2) mu_3 (1 - log mu_3)^2 / (sigma_1 + (n-1) sigma_2)^2,
    so the value converges to the two-phase Hashin-Shtrikman bound of the
    first two phases as mu_3 goes to zero.
    """
    C = (cfg or BoundConfig()).C
    if ps.num_phases != 3:
        raise ValueError(f"three_phase_refined needs exactly 3 phases, got {ps.num_phases}")
    S = ps.conductivities[1]
    H, E, L = _theorem1_terms(ps, S, BoundConfig(C))
    return BoundReport("three_phase_refined", H + E, S_used=S, H_term=H, E_term=E, L_value=L, C_used=C)


def optimize_S(ps: PhaseSet, cfg: BoundConfig | None = None) -> BoundReport:
    """Minimize the refined bound over the shift parameter S in (0, sup sigma].

    The search never needs to leave (0, sup sigma]: the tail integral is
    identically zero from sup sigma on, so E = 0 there while H keeps growing.
    S is scanned on a grid of _S_SEARCH_POINTS (64) that includes every
    sigma_i (the tail integral has kinks there), then the bracket around the
    best grid point is refined by golden section down to _S_TOLERANCE (1e-6).
    Ties are resolved toward the larger S.
    """
    cfg = cfg or BoundConfig()
    sup = ps.sup_sigma

    def value(S: float) -> float:
        H, E, _ = _theorem1_terms(ps, S, cfg)
        return H + E

    points = sorted(
        {sup * k / _S_SEARCH_POINTS for k in range(1, _S_SEARCH_POINTS + 1)}
        | set(ps.conductivities)
    )
    values = [value(S) for S in points]
    best_v = min(values)
    i = max(idx for idx, v in enumerate(values) if v == best_v)
    best_S = points[i]

    def consider(S: float, v: float):
        nonlocal best_S, best_v
        if v < best_v or (v == best_v and S > best_S):
            best_S, best_v = S, v

    lo = points[i - 1] if i > 0 else points[0] / 2.0
    hi = points[i + 1] if i + 1 < len(points) else sup
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = value(x1), value(x2)
    consider(x1, f1)
    consider(x2, f2)
    for _ in range(200):
        if hi - lo <= _S_TOLERANCE:
            break
        if f1 > f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = value(x2)
            consider(x2, f2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = value(x1)
            consider(x1, f1)
    return theorem1_upper(ps, best_S, cfg)


def milton_gap(ps2: PhaseSet, sigma3: float) -> float:
    """Bound discontinuity when a vanishing third phase of conductivity sigma3
    is adjoined to a two-phase composite.

    Returns H(sigma3) - H(sigma2) on the two-phase fractions, i.e. the limit
    of the three-phase Hashin-Shtrikman bound as mu_3 -> 0+ minus the
    two-phase bound.  Strictly positive whenever sigma3 > sigma2, which is the
    counterintuitive jump first pointed out by Milton.
    """
    if ps2.num_phases != 2:
        raise ValueError(f"milton_gap needs exactly 2 phases, got {ps2.num_phases}")
    s2 = ps2.sup_sigma
    if not s2 <= sigma3 < math.inf:
        raise ValueError(f"sigma3 must be finite and >= sigma2 = {s2}, got {sigma3}")
    return h_term(ps2, sigma3) - h_term(ps2, s2)
