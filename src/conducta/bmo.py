"""Dyadic BMO norms, John-Nirenberg tail fits, and empirical lemma constants.

The BMO norm here is the L1 mean oscillation taken over dyadic cubes only
(all cubes of side 2^-k, k = 0..depth).  2^depth must divide every grid axis,
so every dyadic cube is a whole block of voxels and the statistic is exact;
restricting to dyadic cubes changes the constant relative to the all-cubes
norm but not the structure, and the constant is free anyway.

bmo_norm works on one centered copy of the field in dyadic order: each axis
index is written as depth bits plus a remainder, the bits of all axes are
interleaved most significant first and the remainders go innermost.  In that
order every dyadic cube of every level is one contiguous run of voxels, so
level k is a (components, cubes, voxels per cube) reshape and each reduction
runs along the last axis.  bmo_norm is the only statistic that computes a
norm: john_nirenberg_fit and lemma1_ratio take its BmoEstimate as an argument.

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
_SAMPLE_LEVELS = 48  # geometric levels at which john_nirenberg_fit samples the tail


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


def _dyadic_order(comp: np.ndarray, depth: int) -> np.ndarray:
    """View of the (m, *spatial) stack with its axes in dyadic order.

    Each spatial axis of length n splits into ``depth`` bits and the
    remainder ``n >> depth``.  The bits of all axes are interleaved, most
    significant first, and the remainders go innermost, so the first
    ``k * dim`` bit axes index the dyadic cubes of side 2^-k and the axes
    after them run over one cube.
    """
    dim = comp.ndim - 1
    split = [comp.shape[0]]
    for n in comp.shape[1:]:
        split.extend((2,) * depth + (n >> depth,))
    stride = depth + 1  # axes per spatial axis in ``split``
    bits = [1 + d * stride + j for j in range(depth) for d in range(dim)]
    remainders = [1 + d * stride + depth for d in range(dim)]
    return comp.reshape(split).transpose([0, *bits, *remainders])


def _block_sums(blocks: np.ndarray) -> np.ndarray:
    """Sums along the last axis; short rows are added column by column,
    which avoids numpy's per-row reduction overhead."""
    if blocks.shape[-1] >= 8:
        return blocks.sum(axis=-1)
    total = blocks[..., 0].copy()
    for j in range(1, blocks.shape[-1]):
        total += blocks[..., j]
    return total


def bmo_norm(field, depth: int, spatial_ndim: int | None = None) -> BmoEstimate:
    """Max over dyadic cubes of side 2^-k, k = 0..depth, of the mean absolute
    deviation from the cube mean.

    depth must not exceed log2 of the smallest grid axis, and 2^depth must
    divide every axis, so that each dyadic cube is a whole block of voxels.
    The field is centered component-wise into one copy in dyadic order (see
    the module docstring); each level then reduces contiguous runs, reusing
    one scratch buffer.
    """
    comp, spatial = _as_components(field, spatial_ndim)
    if depth < 0 or (1 << depth) > min(spatial):
        raise ValueError(f"depth {depth} exceeds the grid resolution {spatial}")
    if any(n % (1 << depth) for n in spatial):
        raise ValueError(
            f"2**depth = {1 << depth} (depth {depth}) does not divide every axis of the grid {spatial}"
        )
    m, dim = comp.shape[0], len(spatial)
    view = _dyadic_order(comp, depth)
    mean = comp.mean(axis=tuple(range(1, comp.ndim))).reshape((m,) + (1,) * (view.ndim - 1))
    z = np.empty(view.shape)  # C order in dyadic axes; a ufunc's own output would keep the grid's order
    np.subtract(view, mean, out=z)
    scratch = np.empty(z.size)
    best = 0.0
    for k in range(depth + 1):
        cubes = z.reshape(m, 1 << (k * dim), -1)
        size = cubes.shape[-1]
        if size == 1:  # single-voxel cubes have zero oscillation
            continue
        deviation = scratch.reshape(cubes.shape)
        np.subtract(cubes, (_block_sums(cubes) / size)[..., None], out=deviation)
        np.abs(deviation, out=deviation)
        best = max(best, float(_block_sums(deviation).max()) / size)
    return BmoEstimate(norm_value=best)


def john_nirenberg_fit(field, bmo: BmoEstimate, spatial_ndim: int | None = None) -> JohnNirenbergFit:
    """Fit exponential tail constants to the distribution of |f|.

    The superlevel measure is sampled at _SAMPLE_LEVELS (48) geometric levels
    up to max|f|, b is fitted by log-linear regression on the decaying region
    (measure <= 1/2), and B is then the smallest prefactor making the
    inequality hold at every sampled level, so max_violation <= 0 by
    construction.  Near-constant fields are rejected.
    """
    comp, _ = _as_components(field, spatial_ndim)
    values = _centered(comp).ravel()  # a fresh copy: made absolute and sorted in place
    np.abs(values, out=values)
    values.sort()
    s_max = float(values[-1])
    norm = bmo.norm_value
    if norm <= _DEGENERATE_RTOL * max(1.0, s_max) or s_max == 0.0:
        raise ValueError("degenerate (near-constant) field: no tail to fit")
    total = values.size
    levels = np.geomspace(1e-3 * s_max, (1.0 - 1e-9) * s_max, _SAMPLE_LEVELS)
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


def lemma1_ratio(field, mask: np.ndarray, bmo: BmoEstimate, spatial_ndim: int | None = None) -> float:
    """Ratio of the quadratic mass of f on A to ||f||^2 (1 - log|A|)^2 |A|.

    ||f|| is the given BMO estimate of the field (usually bmo_norm at full
    depth).  The supremum of this ratio over a corpus of (field, subset)
    pairs is the empirical constant of the subset-energy estimate for BMO
    functions.
    """
    comp, spatial = _as_components(field, spatial_ndim)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != spatial:
        raise ValueError(f"mask shape {mask.shape} does not match field grid {spatial}")
    measure = float(mask.mean())
    if measure == 0.0:
        raise ValueError("mask is empty")
    if bmo.norm_value <= 0.0:
        raise ValueError("field has zero BMO norm")
    comp = _centered(comp)
    np.square(comp, out=comp)  # comp is a fresh copy
    quad = float(comp[:, mask].sum()) / mask.size
    return quad / (bmo.norm_value**2 * (1.0 - math.log(measure)) ** 2 * measure)


def superlevel_masks(sigma_field: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Nonempty superlevel sets {sigma > t} at each phase threshold."""
    thresholds = np.unique(sigma_field)[:-1]
    return [(float(t), sigma_field > t) for t in thresholds]
