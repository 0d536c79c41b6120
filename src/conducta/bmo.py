"""Dyadic BMO norms and empirical Lemma-1 constants.

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
its cubes' 2^n children, built up from the finest level.

Only the levels that can hold the maximum are measured.  For a cube of s
voxels with mean m, Cauchy-Schwarz gives mean|z - m| <= sqrt(mean z^2 - m^2).
With S1 the cube sums of z and S2 those of (z / 2^e)^2, where 2^e is the
least power of two above max|z| (at least 2^-1021, so that 2^-e is a
float; no square overflows), a level's bound is

    2^e sqrt(max over its cubes of (s S2 - (S1 / 2^e)^2) + slack) / s.

The slack 4 s eps s max S2 covers the round-off of the sums, squares and
products in any order of summation, and s^2 2^-1070 the underflow of the
squares.  The bound is then multiplied by (1 + 4 s eps), which covers the
round-off of the measurement itself, and the smallest normal float is
added, which covers results that are subnormal.  The levels are measured
in descending bound, and a component ends at the first level whose bound
is below best, the largest value measured so far over all components.
Where a cube sum could overflow (2 N max|z| is not finite, N the voxels of
the grid), every bound is infinite, so every level is measured.  So the
result is the all-levels value bit for bit.  A component whose mean or
max|z| is not finite is rejected before any bound is formed.  A measured
level rebuilds its cube sums through the same chain, so they are the same
bits as the bound's.  The copy and one scratch buffer of its size hold one
component: the scratch holds the scaled squares, then the bound's
temporaries, then each measured level's deviations.  bmo_norm is the only
statistic that computes a norm: lemma1_ratio takes the float it returns.
Both reject a field holding a NaN or inf from its per-component means,
before any centering, and one whose centering overflows (lemma1_ratio also
one whose squares overflow).

Matrix-valued fields are handled component-wise: each component is centered
and measured on its own, and the norm is the maximum over components.  The
quadratic mass used by lemma1_ratio is the sum of squares over the components
passed; on a full stack that is the Frobenius square, matching how the
traceless Hessian enters the tail-bound pipeline, so the empirical constant
absorbs the component count.

No John-Nirenberg tail constants are fitted: the bound's constant C comes
from the Lemma-1 ratio alone, and a fitted b and B did not converge under
voxel splitting, because max|f| / ||f||_BMO grows with the resolution.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator

import numpy as np

__all__ = [
    "bmo_norm",
    "lemma1_ratio",
]

_EPS = sys.float_info.epsilon
_ROW = 4096  # bmo_norm tiles the means of a level with fewer cubes to rows of about this length


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


def _finite_means(comp: np.ndarray) -> np.ndarray:
    """Per-component means of the (m, *spatial) stack, shaped to broadcast over it.

    A component whose mean is not finite raises ValueError, before any
    centering can compute inf - inf.
    """
    means = comp.mean(axis=tuple(range(1, comp.ndim)), keepdims=True)
    for c, mean in enumerate(means.ravel().tolist()):
        if not math.isfinite(mean):
            raise ValueError(f"component {c} of the field has the non-finite mean {mean}: "
                             "it holds a NaN or inf, or its sum overflows")
    return means


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


def _cube_sums(values: np.ndarray, cube_counts: list[int]) -> Iterator[np.ndarray]:
    """Cube sums of ``values``, in dyadic order, for each of ``cube_counts``, finest first.

    Each level adds up its cubes' 2^n children, so every caller that walks
    the chain to a level gets the same bits.
    """
    for cubes in cube_counts:
        values = values.reshape(-1, cubes).sum(axis=0)
        yield values


def _level_bound(sums: np.ndarray, squares: np.ndarray, e: int, scratch: np.ndarray) -> float:
    """Upper bound on the largest mean oscillation that measuring one level can return.

    ``sums`` and ``squares`` are the level's cube sums of z and of
    (z / 2^e)^2, and ``scratch``, one component's size, takes the
    temporaries.  The Cauchy-Schwarz bound, its slack and its factor for the
    measurement's round-off are those of the module docstring.  No cube sum
    may have overflowed.
    """
    cubes = sums.size
    size = scratch.size // cubes
    spread, mean_sq = scratch[:cubes], scratch[cubes : 2 * cubes]
    np.multiply(sums, math.ldexp(1.0, -e), out=mean_sq)
    np.square(mean_sq, out=mean_sq)
    np.multiply(squares, size, out=spread)
    np.subtract(spread, mean_sq, out=spread)
    slack = 4 * size * _EPS * size * float(squares.max()) + size * size * 2.0**-1070
    root = math.sqrt(float(spread.max()) + slack) / size
    return math.ldexp(root, e) * (1.0 + 4 * size * _EPS) + sys.float_info.min


def _level_oscillation(flat: np.ndarray, cube_counts: list[int], scratch: np.ndarray) -> float:
    """Largest mean absolute deviation from the cube mean over the cubes of the last of ``cube_counts``."""
    for sums in _cube_sums(flat, cube_counts):  # the chain the bound walked, so the same bits
        pass
    cubes = sums.size
    size = flat.size // cubes
    # rows of ``tile`` copies of the cube means, so that each pass runs over long rows
    tile = math.gcd(size, max(1, _ROW // cubes))
    deviation = scratch.reshape(-1, tile * cubes)
    np.subtract(flat.reshape(deviation.shape), np.tile(sums / size, tile), out=deviation)
    np.abs(deviation, out=deviation)
    spread = deviation.sum(axis=0).reshape(tile, cubes).sum(axis=0)
    return float(spread.max()) / size


def bmo_norm(field, spatial_ndim: int | None = None) -> float:
    """Max over dyadic cubes of side 2^-k, k = 0..depth, of the mean absolute
    deviation from the cube mean, where depth = log2 of the smallest grid axis.

    2^depth must divide every axis, so that each dyadic cube is a whole block
    of voxels.  Each component is centered into one copy in dyadic order;
    each level gets a rigorous upper bound from its cube sums, and only the
    levels whose bound can still beat the running maximum are measured (see
    the module docstring), so the result is the all-levels value bit for
    bit.  A component whose mean or max|f - mean f| is not finite raises
    ValueError.
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
    # cubes per level, finest first; single-voxel cubes have zero oscillation and are left out
    counts = [cubes for k in range(depth, -1, -1) if (cubes := 1 << (k * dim)) < flat.size]
    means = _finite_means(comp).ravel().tolist()
    best = 0.0
    for c in range(m):
        np.subtract(view[c], means[c], out=z)
        top = float(max(flat.max(), -flat.min()))
        if not math.isfinite(top):
            raise ValueError(f"component {c} of the field minus its mean is non-finite: the subtraction overflows")
        # 2^e is the least power of two above max|z|, at least 2^-1021 so that 2^-e is a float
        e = max(math.frexp(top)[1], -1021)
        if 2.0 * flat.size * top < math.inf:  # no cube sum can overflow
            np.multiply(flat, math.ldexp(1.0, -e), out=scratch)
            np.square(scratch, out=scratch)
            bounds = [
                _level_bound(sums, squares, e, scratch)
                for sums, squares in zip(_cube_sums(flat, counts), _cube_sums(scratch, counts))
            ]
        else:
            bounds = [math.inf] * len(counts)
        # measure in descending bound, until no bound can beat the maximum
        for bound, i in sorted(zip(bounds, range(len(counts))), reverse=True):
            if bound < best:
                break
            best = max(best, _level_oscillation(flat, counts[: i + 1], scratch))
    return best


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
    per-label bincount.  Float labels raise ValueError naming the dtype, and
    negative ones naming their minimum.  A field holding a NaN or inf raises
    ValueError from its per-component means, before it is centered, and one
    whose centering or squares overflow when its total quadratic mass is not
    finite.
    """
    comp, spatial = _as_components(field, spatial_ndim)
    labels = np.asarray(labels)
    if labels.shape != spatial:
        raise ValueError(f"labels shape {labels.shape} does not match field grid {spatial}")
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be an integer array, got dtype {labels.dtype}")
    if labels.dtype.kind == "i" and (lowest := int(labels.min())) < 0:
        raise ValueError(f"labels must be nonnegative, got minimum {lowest}")
    if bmo <= 0.0:
        raise ValueError("field has zero BMO norm")
    comp = comp - _finite_means(comp)
    np.square(comp, out=comp)  # comp is a fresh copy
    energy = comp.sum(axis=0).ravel()
    del comp  # freed before bincount widens the labels to intp
    labels = labels.ravel()
    # entry j: the voxels labelled j or above; j = 0 is the whole cube, and a
    # label no voxel carries repeats the next entry, so it changes no maximum
    mass = np.cumsum(np.bincount(labels, weights=energy)[::-1])[::-1] / labels.size
    if not math.isfinite(mass[0]):  # the whole cube's mass
        raise ValueError(f"the quadratic mass of the field is the non-finite {mass[0]}: "
                         "its centering or its squares overflow")
    measure = np.cumsum(np.bincount(labels)[::-1])[::-1] / labels.size
    return float((mass / (bmo**2 * (1.0 - np.log(measure)) ** 2 * measure)).max())
