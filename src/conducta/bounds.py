"""Closed-form upper bounds on the trace-averaged effective conductivity.

Every refined value comes from one formula, theorem 1's H(S) + E(S) with a
free shift parameter S > 0, where the E term controls the contribution of the
phases above S through the tail of the distribution function, which
``phases.tail_integral`` reads straight off the phase set:

* the trivial bound (arithmetic mean of sigma) needs no shift,
* the Hashin-Shtrikman upper bound is theorem 1 at S = sup sigma, where the
  tail integral and hence E vanish.

E carries a dimensional constant C that is not known explicitly; it defaults
to 1 and is always recorded in the report, so every refined value is to be
read "modulo the constant C".  E is C (osc theta / n)^2 times the tail
integral, with osc theta from ``phases.oscillation_closed_form``.  The
three-phase refinement is theorem 1 at S = sigma_2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .phases import PhaseSet, oscillation_closed_form, shifted_harmonic_L, tail_integral

__all__ = [
    "BoundReport",
    "trivial_upper",
    "hs_upper",
    "theorem1_upper",
    "optimize_S",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_S_SEARCH_POINTS = 64  # grid points of optimize_S's scan of (0, sup sigma]
_S_TOLERANCE = 1e-6  # width at which optimize_S's golden-section search stops


@dataclass(frozen=True, init=False)
class BoundReport:
    """One evaluated bound, with the terms it was computed from.

    Only trivial_upper, hs_upper and theorem1_upper (which optimize_S
    returns) make one; calling the class raises TypeError.  bound_name is
    trivial, hashin_shtrikman or theorem1; a term the bound has no use for is
    None, and where H_term and E_term are both set, E_term >= 0 and
    value = H_term + E_term exactly.
    """

    bound_name: str
    value: float
    S_used: float | None = None
    H_term: float | None = None
    E_term: float | None = None
    L_value: float | None = None
    C_used: float | None = None

    def __init__(self, *args, **kwargs):
        raise TypeError("a BoundReport is made only by trivial_upper, hs_upper and theorem1_upper")


def _report(**values) -> BoundReport:
    """A BoundReport of ``values``, past the class's __init__, which refuses every caller; a field not given is None."""
    report = object.__new__(BoundReport)
    for f in fields(BoundReport):
        object.__setattr__(report, f.name, values.get(f.name))
    return report


def trivial_upper(ps: PhaseSet) -> BoundReport:
    """Arithmetic mean of sigma: the bound from the zero test field."""
    value = math.fsum(m * s for s, m in zip(ps.conductivities, ps.fractions))
    return _report(bound_name="trivial", value=value)


def hs_upper(ps: PhaseSet) -> BoundReport:
    """Hashin-Shtrikman upper bound: theorem 1 at S = sup sigma.

    The tail integral is exactly 0 from sup sigma on, so E = 0 whatever C is,
    and the value is H(sup sigma).  The report records S, H, E and L, no C.
    """
    S = ps.sup_sigma
    H, E, L = _theorem1_terms(ps, S, 1.0)
    return _report(bound_name="hashin_shtrikman", value=H + E, S_used=S, H_term=H, E_term=E, L_value=L)


def _theorem1_terms(ps: PhaseSet, S: float, C: float) -> tuple[float, float, float]:
    """(H, E, L) at S; H(S) = -(n-1) S + L(S) is nondecreasing in S and below the arithmetic mean.

    ValueError unless the constant C is finite and positive.
    """
    if not 0.0 < C < math.inf:
        raise ValueError(f"C must be finite and positive, got {C}")
    shift = (ps.dimension - 1) * S
    L = shifted_harmonic_L(ps, S)
    # -(n-1) S + L as the weighted mean of sigma it equals, which cancels no digits when (n-1) S >> H
    H = L * math.fsum(m * s / (s + shift) for s, m in zip(ps.conductivities, ps.fractions))
    tail = tail_integral(ps, S)
    r = oscillation_closed_form(ps, S) / ps.dimension  # squared only once divided, so no product overflows
    E = C * r * r * tail
    return H, E, L


def theorem1_upper(ps: PhaseSet, S: float, C: float = 1.0) -> BoundReport:
    """Refined upper bound H(S) + E(S) at a given shift parameter S > 0.

    Any finite S > 0 is accepted; for S >= sup sigma the tail integral
    vanishes, so E = 0 and the value reduces to H(S) (equal to the
    Hashin-Shtrikman bound at S = sup sigma exactly).  C, the constant of
    the E term, must be finite and positive.  The report records S, H, E, L
    and C.
    """
    if not 0.0 < S < math.inf:
        raise ValueError(f"S must be finite and positive, got {S}")
    H, E, L = _theorem1_terms(ps, S, C)
    return _report(bound_name="theorem1", value=H + E, S_used=S, H_term=H, E_term=E, L_value=L, C_used=C)


def optimize_S(ps: PhaseSet, C: float = 1.0) -> BoundReport:
    """Minimize the refined bound over the shift parameter S in (0, sup sigma].

    The search never needs to leave (0, sup sigma]: the tail integral is
    identically zero from sup sigma on, so E = 0 there while H keeps growing.
    S is scanned on a grid of _S_SEARCH_POINTS (64) that includes every
    sigma_i (the tail integral has kinks there), then the bracket around the
    best grid point is refined by golden section down to _S_TOLERANCE (1e-6).
    "Best" is one rule, for the grid point and for the result among every S
    evaluated: the least value, ties resolved toward the larger S.
    """
    sup = ps.sup_sigma
    evaluated: list[tuple[float, float]] = []  # every (S, H + E) computed, in order

    def value(S: float) -> float:
        H, E, _ = _theorem1_terms(ps, S, C)
        evaluated.append((S, H + E))
        return H + E

    def best_S() -> float:
        return min(evaluated, key=lambda pair: (pair[1], -pair[0]))[0]

    points = sorted(
        {sup * (k / _S_SEARCH_POINTS) for k in range(1, _S_SEARCH_POINTS + 1)}
        | set(ps.conductivities)
    )
    for S in points:
        value(S)
    i = points.index(best_S())
    lo = points[i - 1] if i > 0 else points[0] / 2.0
    hi = points[i + 1] if i + 1 < len(points) else sup
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = value(x1), value(x2)
    for _ in range(200):
        if hi - lo <= _S_TOLERANCE:
            break
        if f1 > f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = value(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = value(x1)
    return theorem1_upper(ps, best_S(), C)

