"""Dyadic BMO norms, John-Nirenberg tail fits, and empirical lemma constants.

The BMO norm here is the L1 mean oscillation taken over dyadic cubes only
(all cubes of side 2^-k, k = 0..depth).  On power-of-two grids every dyadic
cube is a whole block of voxels, so the statistic is exact; restricting to
dyadic cubes changes the constant relative to the all-cubes norm but not the
structure, and the constant is free anyway.

Matrix-valued fields are handled component-wise: each component is centered
and measured on its own, and the norm is the maximum over components.  The
quadratic mass used by lemma1_ratio is the full Frobenius square, matching
how the traceless Hessian enters the tail-bound pipeline, so the empirical
constant absorbs the component count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BmoEstimate",
    "JohnNirenbergFit",
    "bmo_norm",
    "john_nirenberg_fit",
    "lemma1_ratio",
    "full_dyadic_depth",
    "superlevel_masks",
]

_DEGENERATE_RTOL = 1e-12


@dataclass(frozen=True)
class BmoEstimate:
    norm_value: float


@dataclass(frozen=True)
class JohnNirenbergFit:
    """Fitted tail constants: |{|f| > s}| <= B exp(-b s / ||f||_BMO)."""

    b: float
    B: float
    max_violation: float


def _as_components(field, spatial_ndim: int | None) -> tuple[np.ndarray, tuple[int, ...]]:
    arr = np.asarray(field, dtype=float)
    if spatial_ndim is None:
        spatial = arr.shape
        comp = arr.reshape((1,) + spatial)
    else:
        if arr.ndim < spatial_ndim:
            raise ValueError(f"field has {arr.ndim} axes, needs at least {spatial_ndim}")
        spatial = arr.shape[arr.ndim - spatial_ndim :]
        comp = arr.reshape((-1,) + spatial)
    return comp, spatial


def full_dyadic_depth(spatial: tuple[int, ...]) -> int:
    return min(spatial).bit_length() - 1


def _centered(comp: np.ndarray) -> np.ndarray:
    axes = tuple(range(1, comp.ndim))
    return comp - comp.mean(axis=axes, keepdims=True)


def bmo_norm(field, depth: int, spatial_ndim: int | None = None) -> BmoEstimate:
    """Max over dyadic cubes of side 2^-k, k = 0..depth, of the mean absolute
    deviation from the cube mean.

    The field is centered first (component-wise).  depth must not exceed
    log2 of the smallest grid axis.
    """
    comp, spatial = _as_components(field, spatial_ndim)
    if depth < 0 or (1 << depth) > min(spatial):
        raise ValueError(f"depth {depth} exceeds the grid resolution {spatial}")
    comp = _centered(comp)
    m = comp.shape[0]
    best = 0.0
    for k in range(depth + 1):
        cubes = 1 << k
        blocked_shape = [m]
        inner_axes = []
        for d, n in enumerate(spatial):
            blocked_shape.extend((cubes, n // cubes))
            inner_axes.append(2 + 2 * d)
        view = comp.reshape(blocked_shape)
        inner = tuple(inner_axes)
        means = view.mean(axis=inner, keepdims=True)
        deviation = np.abs(view - means).mean(axis=inner)
        best = max(best, float(deviation.max()))
    return BmoEstimate(norm_value=best)


def john_nirenberg_fit(
    field,
    bmo: BmoEstimate,
    sample_levels: int = 48,
    spatial_ndim: int | None = None,
) -> JohnNirenbergFit:
    """Fit exponential tail constants to the distribution of |f|.

    The superlevel measure is sampled at geometric levels up to max|f|, b is
    fitted by log-linear regression on the decaying region (measure <= 1/2),
    and B is then the smallest prefactor making the inequality hold at every
    sampled level, so max_violation <= 0 by construction.  Near-constant
    fields are rejected.
    """
    if sample_levels < 2:
        raise ValueError(f"sample_levels must be >= 2, got {sample_levels}")
    comp, _ = _as_components(field, spatial_ndim)
    comp = _centered(comp)
    values = np.sort(np.abs(comp).ravel())
    s_max = float(values[-1])
    norm = bmo.norm_value
    if norm <= _DEGENERATE_RTOL * max(1.0, s_max) or s_max == 0.0:
        raise ValueError("degenerate (near-constant) field: no tail to fit")
    total = values.size
    levels = np.geomspace(1e-3 * s_max, (1.0 - 1e-9) * s_max, sample_levels)
    measure = (total - np.searchsorted(values, levels, side="right")) / total

    positive = measure > 0.0
    decaying = positive & (measure <= 0.5)
    if int(decaying.sum()) >= 2:
        slope = np.polyfit(levels[decaying], np.log(measure[decaying]), 1)[0]
        b = -float(slope) * norm
    else:
        b = norm / s_max
    if b <= 0.0:
        b = norm / s_max

    log_b_term = b * levels[positive] / norm
    log_B = float((np.log(measure[positive]) + log_b_term).max())
    B = math.exp(log_B) * (1.0 + 1e-12)
    violation = float(
        (np.log(measure[positive]) - math.log(B) + log_b_term).max()
    )
    return JohnNirenbergFit(b=b, B=B, max_violation=violation)


def lemma1_ratio(
    field,
    mask: np.ndarray,
    bmo: BmoEstimate | None = None,
    spatial_ndim: int | None = None,
) -> float:
    """Ratio of the quadratic mass of f on A to ||f||^2 (1 - log|A|)^2 |A|.

    The supremum of this ratio over a corpus of (field, subset) pairs is the
    empirical constant of the subset-energy estimate for BMO functions.
    """
    comp, spatial = _as_components(field, spatial_ndim)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != spatial:
        raise ValueError(f"mask shape {mask.shape} does not match field grid {spatial}")
    measure = float(mask.mean())
    if measure == 0.0:
        raise ValueError("mask is empty")
    comp = _centered(comp)
    if bmo is None:
        bmo = bmo_norm(comp, full_dyadic_depth(spatial), spatial_ndim=len(spatial))
    if bmo.norm_value <= 0.0:
        raise ValueError("field has zero BMO norm")
    quad = float((comp[:, mask] ** 2).sum()) / mask.size
    return quad / (bmo.norm_value**2 * (1.0 - math.log(measure)) ** 2 * measure)


def superlevel_masks(sigma_field: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Nonempty superlevel sets {sigma > t} at each phase threshold."""
    thresholds = np.unique(sigma_field)[:-1]
    return [(float(t), sigma_field > t) for t in thresholds]
