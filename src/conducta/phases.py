"""Material phase descriptions and the scalar functionals every bound consumes.

A composite is described by its phases (conductivity, volume fraction) and the
ambient dimension n >= 2.  All bound formulas depend on the material only
through the distribution function F(t) = |{x : sigma(x) > t}|, which for a
K-phase composite is a step function with jumps of size mu_i at each sigma_i.
F is read straight from the sorted phase set, never stored or sampled: on
[sigma_i, sigma_{i+1}) it is the fraction of the phases above sigma_i, so the
tail integral used by the refined bound has a closed form.

Logarithms are natural throughout, and F (1 - log F)^2 is extended
continuously by 0 at F = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError

__all__ = [
    "PhaseSet",
    "shifted_harmonic_L",
    "tail_integral",
    "distribution_weight",
    "parse_phase_config",
    "read_phase_config",
]

FRACTION_TOL = 1e-12


@dataclass(frozen=True)
class PhaseSet:
    """An ordered multiphase composition of the unit cube.

    Invariants: K >= 1 phases, conductivities finite, positive and strictly
    increasing, fractions in (0, 1] summing to one (within 1e-12), dimension
    n >= 2.  Both sequences are stored as owned tuples of floats.  Use
    :meth:`from_pairs` to build from raw data; it sorts by conductivity,
    merges phases with equal conductivity (the distribution function cannot
    distinguish them) and drops zero-fraction entries.
    """

    conductivities: tuple[float, ...]
    fractions: tuple[float, ...]
    dimension: int

    def __post_init__(self):
        sig = tuple(float(s) for s in self.conductivities)
        mu = tuple(float(m) for m in self.fractions)
        if len(sig) != len(mu):
            raise ValueError("conductivities and fractions must have equal length")
        for s, m in zip(sig, mu):
            if not 0.0 < s < math.inf:
                raise ValueError(f"conductivity must be finite and positive, got {s}")
            if not 0.0 < m <= 1.0:
                raise ValueError(f"volume fraction must lie in (0, 1], got {m}")
        if not isinstance(self.dimension, int) or self.dimension < 2:
            raise ValueError(f"dimension must be an integer >= 2, got {self.dimension}")
        if not sig:
            raise ValueError("a phase set needs at least one phase")
        if any(b <= a for a, b in zip(sig, sig[1:])):
            raise ValueError(f"conductivities must be strictly increasing, got {list(sig)}")
        total = math.fsum(mu)
        if abs(total - 1.0) > FRACTION_TOL:
            raise ValueError(f"volume fractions must sum to 1, got {total}")
        object.__setattr__(self, "conductivities", sig)
        object.__setattr__(self, "fractions", mu)

    @classmethod
    def from_pairs(cls, conductivities, fractions, dimension: int) -> "PhaseSet":
        sig, mu = list(conductivities), list(fractions)
        if len(sig) != len(mu):
            raise ValueError("conductivities and fractions must have equal length")
        pairs = sorted(((float(s), float(m)) for s, m in zip(sig, mu) if m != 0.0), key=lambda p: p[0])
        merged: list[list[float]] = []
        for s, m in pairs:
            if merged and merged[-1][0] == s:
                merged[-1][1] += m
            else:
                merged.append([s, m])
        return cls(tuple(s for s, _ in merged), tuple(m for _, m in merged), dimension)

    @property
    def num_phases(self) -> int:
        return len(self.conductivities)

    @property
    def inf_sigma(self) -> float:
        return self.conductivities[0]

    @property
    def sup_sigma(self) -> float:
        return self.conductivities[-1]

    @property
    def osc_sigma(self) -> float:
        return self.sup_sigma - self.inf_sigma


def distribution_weight(f: float) -> float:
    """The integrand weight F (1 - log F)^2, continuously extended to 0 at F = 0."""
    if f < 0.0:
        raise ValueError(f"distribution value must be nonnegative, got {f}")
    if f == 0.0:
        return 0.0
    return f * (1.0 - math.log(f)) ** 2


def shifted_harmonic_L(ps: PhaseSet, S: float) -> float:
    """Harmonic mean of sigma + (n-1) S over the cube.

    Lies between inf sigma + (n-1)S and sup sigma + (n-1)S and increases
    with S.
    """
    if not 0.0 <= S < math.inf:
        raise ValueError(f"S must be finite and nonnegative, got {S}")
    shift = (ps.dimension - 1) * S
    return 1.0 / math.fsum(m / (s + shift) for s, m in zip(ps.conductivities, ps.fractions))


def tail_integral(ps: PhaseSet, S: float) -> float:
    """Closed-form integral of F(t) (1 - log F(t))^2 over [S, infinity).

    F is 1 below sigma_1, the fraction of the phases above sigma_i on
    [sigma_i, sigma_{i+1}) and 0 from sup sigma on, so the integral is a
    finite sum over those steps clipped to [S, infinity).  F is accumulated
    from the top phase down and the sum is taken with math.fsum.
    """
    if not 0.0 <= S < math.inf:
        raise ValueError(f"S must be finite and nonnegative, got {S}")
    sig = ps.conductivities
    # F = 1 below the first conductivity, and (1 - log 1)^2 = 1
    parts = [sig[0] - S] if S < sig[0] else []
    above = 0.0
    for s_lo, s_hi, mu in reversed(list(zip(sig, sig[1:], ps.fractions[1:]))):
        above += mu  # F on [s_lo, s_hi)
        lo = max(S, s_lo)
        if s_hi > lo:
            parts.append(distribution_weight(above) * (s_hi - lo))
    return math.fsum(parts)


def parse_phase_config(text: str) -> PhaseSet:
    """Parse the declarative phase-config format.

    One key per line, ``#`` starts a comment::

        dimension = 3
        phase = 1.0 0.4
        phase = 2.0 0.4
        phase = 5.0 0.2

    Each ``phase`` line gives a conductivity and a volume fraction, separated
    by whitespace or a comma.
    """
    dimension: int | None = None
    pairs: list[tuple[float, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, rest = line.partition("=")
        if not eq:
            raise ConfigError("expected 'key = value'", line=lineno)
        key = key.strip()
        rest = rest.strip()
        if key == "dimension":
            try:
                dimension = int(rest)
            except ValueError:
                raise ConfigError(f"dimension must be an integer, got {rest!r}", line=lineno)
        elif key == "phase":
            fields = rest.replace(",", " ").split()
            if len(fields) != 2:
                raise ConfigError(
                    f"phase needs 'sigma mu', got {rest!r}", line=lineno
                )
            try:
                pairs.append((float(fields[0]), float(fields[1])))
            except ValueError:
                raise ConfigError(f"phase values must be numbers, got {rest!r}", line=lineno)
        else:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
    if dimension is None:
        raise ConfigError("missing 'dimension'")
    if not pairs:
        raise ConfigError("no 'phase' lines found")
    try:
        return PhaseSet.from_pairs([s for s, _ in pairs], [m for _, m in pairs], dimension)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def read_phase_config(path: str | Path) -> PhaseSet:
    return parse_phase_config(Path(path).read_text())
