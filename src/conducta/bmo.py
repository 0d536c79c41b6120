"""Dyadic BMO norms, John-Nirenberg tail fits, and empirical lemma constants.

The BMO norm here is the L1 mean oscillation taken over dyadic cubes only
(all cubes of side 2^-k, k = 0..depth, with depth = log2 of the smallest
grid axis).  2^depth must divide every grid axis, so every dyadic cube is a
whole block of voxels and the statistic is exact; restricting to dyadic
cubes changes the constant relative to the all-cubes norm but not the
structure, and the constant is free anyway.

bmo_norm centers one component at a time into a copy in dyadic order: each
axis index is written as depth bits plus a remainder, the remainders go
outermost and the bits of all axes are interleaved least significant first,
so the coarse bits are innermost.  In that order level k is a (voxels per
cube, cubes) reshape: the 2^(k n) cube means form one short row, broadcast
down the voxels of every cube, and a level with few cubes repeats its row
of means to a few thousand entries, so that the subtract, the abs and the
sum each run over long contiguous rows.  A level's cube sums are the sums of
its cubes' 2^n children, built up from the finest level.  The copy and its
one scratch buffer each hold one component.  bmo_norm is the only statistic
that computes a norm: john_nirenberg_fit and lemma1_ratio take the float it
returns.

Matrix-valued fields are handled component-wise: each component is centered
and measured on its own, and the norm is the maximum over components.  The
quadratic mass used by lemma1_ratio is the sum of squares over the components
passed; on a full stack that is the Frobenius square, matching how the
traceless Hessian enters the tail-bound pipeline, so the empirical constant
absorbs the component count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "JohnNirenbergFit",
    "bmo_norm",
    "john_nirenberg_fit",
    "lemma1_ratio",
]

_ROW = 4096  # bmo_norm tiles the means of a level with fewer cubes to rows of about this length

# the 48 geometric levels, as fractions of max|f|, at which john_nirenberg_fit samples the tail
_LEVEL_FRACTIONS = np.geomspace(1e-3, 1.0 - 1e-9, 48)


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


def _centered(comp: np.ndarray) -> np.ndarray:
    axes = tuple(range(1, comp.ndim))
    return comp - comp.mean(axis=axes, keepdims=True)


def _dyadic_order(comp: np.ndarray, depth: int) -> np.ndarray:
    """View of the (m, *spatial) stack with its axes in dyadic order, coarse bits innermost.

    Each spatial axis of length n splits into ``depth`` bits and the
    remainder ``n >> depth``.  The remainders go outermost, then the bits of
    all axes, interleaved, from the least significant to the most, so the
    last ``k * dim`` axes index the dyadic cubes of side 2^-k and the axes
    before them run over one cube.
    """
    dim = comp.ndim - 1
    split = [comp.shape[0]]
    for n in comp.shape[1:]:
        split.extend((2,) * depth + (n >> depth,))
    stride = depth + 1  # axes per spatial axis in ``split``
    remainders = [1 + d * stride + depth for d in range(dim)]
    bits = [1 + d * stride + j for j in reversed(range(depth)) for d in range(dim)]
    return comp.reshape(split).transpose([0, *remainders, *bits])


def bmo_norm(field, spatial_ndim: int | None = None) -> float:
    """Max over dyadic cubes of side 2^-k, k = 0..depth, of the mean absolute
    deviation from the cube mean, where depth = log2 of the smallest grid axis.

    2^depth must divide every axis, so that each dyadic cube is a whole block
    of voxels.  Each component is centered into one copy in dyadic order (see
    the module docstring); each level then reduces contiguous rows, reusing
    one scratch buffer of the copy's size.
    """
    comp, spatial = _as_components(field, spatial_ndim)
    depth = min(spatial).bit_length() - 1
    if depth < 0 or any(n % (1 << depth) for n in spatial):
        raise ValueError(
            f"2**depth = {2**depth} (depth {depth}) does not divide every axis of the grid {spatial}"
        )
    m, dim = comp.shape[0], len(spatial)
    view = _dyadic_order(comp, depth)
    z = np.empty(view.shape[1:])  # C order in dyadic axes; a ufunc's own output would keep the grid's order
    flat = z.reshape(-1)
    scratch = np.empty(flat.size)
    best = 0.0
    for c in range(m):
        np.subtract(view[c], comp[c].mean(), out=z)
        sums = flat  # the cube sums of the current level, finest first
        for k in range(depth, -1, -1):
            cubes = 1 << (k * dim)
            sums = sums.reshape(-1, cubes).sum(axis=0) if sums.size > cubes else sums
            size = flat.size // cubes
            if size == 1:  # single-voxel cubes have zero oscillation
                continue
            # rows of ``tile`` copies of the cube means, so that each pass runs over long rows
            tile = math.gcd(size, max(1, _ROW // cubes))
            deviation = scratch.reshape(-1, tile * cubes)
            np.subtract(flat.reshape(deviation.shape), np.tile(sums / size, tile), out=deviation)
            np.abs(deviation, out=deviation)
            spread = deviation.sum(axis=0).reshape(tile, cubes).sum(axis=0)
            best = max(best, float(spread.max()) / size)
    return best


def john_nirenberg_fit(field, bmo: float, spatial_ndim: int | None = None) -> JohnNirenbergFit:
    """Fit exponential tail constants to the distribution of |f|.

    The superlevel measure is sampled at 48 geometric levels up to max|f|,
    b is fitted by log-linear regression on the decaying region (measure <=
    1/2), and B is then the smallest prefactor making the inequality hold at
    every sampled level, so max_violation <= 0 by construction.  The levels
    are fixed fractions of max|f|, so b, B and max_violation do not depend on
    the field's scale; only a field whose norm is 0 is rejected.
    """
    comp, _ = _as_components(field, spatial_ndim)
    values = _centered(comp).ravel()  # a fresh copy: made absolute and sorted in place
    np.abs(values, out=values)
    values.sort()
    s_max = float(values[-1])
    if bmo <= 0.0 or s_max == 0.0:
        raise ValueError("degenerate field: BMO norm 0, no tail to fit")
    total = values.size
    levels = s_max * _LEVEL_FRACTIONS
    measure = (total - np.searchsorted(values, levels, side="right")) / total

    positive = measure > 0.0
    decaying = positive & (measure <= 0.5)
    if int(decaying.sum()) >= 2:
        slope = np.polyfit(levels[decaying], np.log(measure[decaying]), 1)[0]
        b = -float(slope) * bmo
    else:
        b = bmo / s_max
    if b <= 0.0:
        b = bmo / s_max

    log_b_term = b * levels[positive] / bmo
    log_B = float((np.log(measure[positive]) + log_b_term).max())
    B = math.exp(log_B) * (1.0 + 1e-12)
    violation = float(
        (np.log(measure[positive]) - math.log(B) + log_b_term).max()
    )
    return JohnNirenbergFit(b=b, B=B, max_violation=violation)


def lemma1_ratio(field, labels, bmo: float, spatial_ndim: int | None = None) -> float:
    """Largest ratio of the quadratic mass of f on A to ||f||^2 (1 - log|A|)^2 |A|
    over the superlevel sets A = {labels > t} of an integer label field, the
    whole cube included.

    ||f|| is the given BMO estimate of the field (usually bmo_norm).  The
    supremum of this ratio over a corpus of (field, subset) pairs is the
    empirical constant of the subset-energy estimate for BMO functions.
    The labels are nonnegative integers in level order: voxels with equal
    labels share a level, and a larger label is a higher level; a label that
    no voxel carries adds no set.  Every superlevel set is a union of level
    sets, so the masses and measures of all of them are suffix sums of one
    per-label bincount.  Float labels raise ValueError naming the dtype.
    """
    comp, spatial = _as_components(field, spatial_ndim)
    labels = np.asarray(labels)
    if labels.shape != spatial:
        raise ValueError(f"labels shape {labels.shape} does not match field grid {spatial}")
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be an integer array, got dtype {labels.dtype}")
    if bmo <= 0.0:
        raise ValueError("field has zero BMO norm")
    comp = _centered(comp)
    np.square(comp, out=comp)  # comp is a fresh copy
    energy = comp.sum(axis=0).ravel()
    del comp  # freed before bincount widens the labels to intp
    labels = labels.ravel()
    # entry j: the voxels labelled j or above; j = 0 is the whole cube, and a
    # label no voxel carries repeats the next entry, so it changes no maximum
    mass = np.cumsum(np.bincount(labels, weights=energy)[::-1])[::-1] / labels.size
    measure = np.cumsum(np.bincount(labels)[::-1])[::-1] / labels.size
    return float((mass / (bmo**2 * (1.0 - np.log(measure)) ** 2 * measure)).max())
