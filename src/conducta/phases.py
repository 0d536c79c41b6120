"""Material phase descriptions and the scalar functionals every bound consumes.

A composite is described by its phases (conductivity, volume fraction) and the
ambient dimension n >= 2.  All bound formulas depend on the material only
through the distribution function F(t) = |{x : sigma(x) > t}|, which for a
K-phase composite is a step function with jumps of size mu_i at each sigma_i.
F is kept exactly as breakpoints, never sampled, so the tail integral used by
the refined bound has a closed form.

Logarithms are natural throughout, and F (1 - log F)^2 is extended
continuously by 0 at F = 0.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError

__all__ = [
    "Phase",
    "PhaseSet",
    "DistributionFunction",
    "distribution_from_phases",
    "shifted_harmonic_L",
    "tail_integral",
    "distribution_weight",
    "parse_phase_config",
    "read_phase_config",
]

FRACTION_TOL = 1e-12


@dataclass(frozen=True)
class Phase:
    """One isotropic component: conductivity and volume fraction."""

    conductivity: float
    volume_fraction: float

    def __post_init__(self):
        if not self.conductivity > 0.0:
            raise ValueError(f"conductivity must be positive, got {self.conductivity}")
        if not 0.0 < self.volume_fraction <= 1.0:
            raise ValueError(
                f"volume fraction must lie in (0, 1], got {self.volume_fraction}"
            )


@dataclass(frozen=True)
class PhaseSet:
    """An ordered multiphase composition of the unit cube.

    Invariants: conductivities strictly increasing, fractions summing to one
    (within 1e-12), K >= 1 phases, dimension n >= 2.  Use :meth:`from_pairs`
    to build from raw data; it sorts by conductivity, merges phases with equal
    conductivity (the distribution function cannot distinguish them) and drops
    zero-fraction entries.
    """

    phases: tuple[Phase, ...]
    dimension: int

    def __post_init__(self):
        if not isinstance(self.dimension, int) or self.dimension < 2:
            raise ValueError(f"dimension must be an integer >= 2, got {self.dimension}")
        if len(self.phases) < 1:
            raise ValueError("a phase set needs at least one phase")
        sig = [p.conductivity for p in self.phases]
        if any(b <= a for a, b in zip(sig, sig[1:])):
            raise ValueError(f"conductivities must be strictly increasing, got {sig}")
        total = math.fsum(p.volume_fraction for p in self.phases)
        if abs(total - 1.0) > FRACTION_TOL:
            raise ValueError(f"volume fractions must sum to 1, got {total}")

    @classmethod
    def from_pairs(cls, conductivities, fractions, dimension: int) -> "PhaseSet":
        pairs = [(float(s), float(m)) for s, m in zip(conductivities, fractions)]
        if len(pairs) != len(list(conductivities)):
            raise ValueError("conductivities and fractions must have equal length")
        pairs = [(s, m) for s, m in pairs if m != 0.0]
        pairs.sort(key=lambda p: p[0])
        merged: list[list[float]] = []
        for s, m in pairs:
            if merged and merged[-1][0] == s:
                merged[-1][1] += m
            else:
                merged.append([s, m])
        return cls(tuple(Phase(s, m) for s, m in merged), dimension)

    @property
    def num_phases(self) -> int:
        return len(self.phases)

    @property
    def conductivities(self) -> tuple[float, ...]:
        return tuple(p.conductivity for p in self.phases)

    @property
    def fractions(self) -> tuple[float, ...]:
        return tuple(p.volume_fraction for p in self.phases)

    @property
    def inf_sigma(self) -> float:
        return self.phases[0].conductivity

    @property
    def sup_sigma(self) -> float:
        return self.phases[-1].conductivity

    @property
    def osc_sigma(self) -> float:
        return self.sup_sigma - self.inf_sigma


@dataclass(frozen=True)
class DistributionFunction:
    """Right-continuous step function F(t) = |{x : sigma(x) > t}|.

    ``breakpoints`` holds (t, F(t)) pairs at the jump locations, ordered by t.
    F equals 1 before the first breakpoint and the stored value from each
    breakpoint (inclusive) up to the next; the last stored value must be 0.
    """

    breakpoints: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.breakpoints:
            raise ValueError("distribution function needs at least one breakpoint")
        ts = [t for t, _ in self.breakpoints]
        vs = [v for _, v in self.breakpoints]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("breakpoint locations must be strictly increasing")
        if any(not 0.0 <= v <= 1.0 for v in vs):
            raise ValueError("distribution values must lie in [0, 1]")
        if any(b > a for a, b in zip(vs, vs[1:])):
            raise ValueError("distribution function must be nonincreasing")
        if vs[-1] != 0.0:
            raise ValueError("distribution function must vanish above the largest breakpoint")

    def value_at(self, t: float) -> float:
        ts = [bp[0] for bp in self.breakpoints]
        i = bisect_right(ts, t)
        if i == 0:
            return 1.0
        return self.breakpoints[i - 1][1]


def distribution_from_phases(ps: PhaseSet) -> DistributionFunction:
    """Step distribution of a phase set: F(t) = sum of mu_i over sigma_i > t."""
    suffix = 0.0
    rev: list[tuple[float, float]] = []
    for p in reversed(ps.phases):
        rev.append((p.conductivity, suffix))
        suffix += p.volume_fraction
    return DistributionFunction(tuple(reversed(rev)))


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
    return 1.0 / math.fsum(
        p.volume_fraction / (p.conductivity + shift) for p in ps.phases
    )


def tail_integral(dist: DistributionFunction, S: float) -> float:
    """Closed-form integral of F(t) (1 - log F(t))^2 over [S, infinity).

    The distribution is piecewise constant, so the integral is a finite sum
    over the step intervals clipped to [S, infinity); intervals where F = 0
    contribute nothing.
    """
    if not 0.0 <= S < math.inf:
        raise ValueError(f"S must be finite and nonnegative, got {S}")
    bps = dist.breakpoints
    parts: list[float] = []
    first_t = bps[0][0]
    if S < first_t:
        # F = 1 below the first breakpoint, and (1 - log 1)^2 = 1
        parts.append(first_t - S)
    for (t_lo, value), (t_hi, _) in zip(bps, bps[1:]):
        lo = max(S, t_lo)
        if t_hi > lo and value > 0.0:
            parts.append(distribution_weight(value) * (t_hi - lo))
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
