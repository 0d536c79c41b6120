"""Periodic voxel microstructures on the unit cube, generators, and file I/O.

A grid is a dense array of phase indices on [0, 1]^n with periodic extension;
the medium is piecewise constant by definition (the voxel value is the phase
of the whole voxel, there is no subgrid geometry).  Shapes are restricted to
powers of two: transforms stay fast and the dyadic-cube analysis downstream
is exact.

Grid file format (little endian, documented for interoperability):

    magic   4 bytes  b"CNDA"
    version u16      currently 1
    dim     u8       2 or 3
    K       u8       number of conductivities
    shape   dim*u32  voxels per axis
    sigma   K*f64    conductivities, finite and positive
    index   u8[...]  phase indices, row-major (C order)
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GridFormatError
from .phases import PhaseSet
from .spectral import half_wavenumbers

__all__ = [
    "VoxelGrid",
    "generate_laminate",
    "generate_checkerboard",
    "generate_random",
    "empirical_phase_set",
    "save_grid",
    "load_grid",
]

MAGIC = b"CNDA"
VERSION = 1
_CORRELATION_LENGTH = 4.0  # of the smooth mode's noise filter, in voxels of axis 0


@dataclass(frozen=True)
class VoxelGrid:
    """Periodic piecewise-constant conductivity on a uniform voxel grid."""

    phase_index: np.ndarray
    phase_conductivities: tuple[float, ...]

    def __post_init__(self):
        idx = np.array(self.phase_index, dtype=np.uint8, order="C")  # owned: no view of the caller's array
        if idx.ndim not in (2, 3):
            raise ValueError(f"grid must be 2D or 3D, got {idx.ndim}D")
        for n in idx.shape:
            if n < 2 or n & (n - 1):
                raise ValueError(f"grid shape must be powers of two >= 2, got {idx.shape}")
        sig = tuple(float(c) for c in self.phase_conductivities)
        if not 1 <= len(sig) <= 255:
            raise ValueError(f"number of conductivities must be in [1, 255], got {len(sig)}")
        bad = [c for c in sig if not 0.0 < c < math.inf]
        if bad:
            raise ValueError(f"conductivities must be finite and positive, got {bad[0]}")
        if idx.size and int(idx.max()) >= len(sig):
            raise ValueError("phase index out of range for the conductivity table")
        idx.setflags(write=False)
        object.__setattr__(self, "phase_index", idx)
        object.__setattr__(self, "phase_conductivities", sig)

    @property
    def dimension(self) -> int:
        return self.phase_index.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.phase_index.shape

    @property
    def num_voxels(self) -> int:
        return self.phase_index.size

    def conductivity_field(self) -> np.ndarray:
        return np.asarray(self.phase_conductivities, dtype=float)[self.phase_index]


def generate_laminate(ps: PhaseSet, axis: int, shape: tuple[int, ...]) -> VoxelGrid:
    """Layered microstructure with layers normal to ``axis``.

    Layer widths are round(mu_i * N); the fractions must be representable,
    i.e. every width within half a voxel of the target and the widths summing
    to the axis length with no phase collapsing to zero voxels.
    """
    shape = tuple(int(n) for n in shape)
    if not 0 <= axis < len(shape):
        raise ValueError(f"axis {axis} out of range for shape {shape}")
    n_axis = shape[axis]
    widths = [round(m * n_axis) for m in ps.fractions]
    for w, m in zip(widths, ps.fractions):
        if w < 1 or abs(w - m * n_axis) > 0.5 + 1e-9:
            raise ValueError(
                f"fractions {ps.fractions} not representable on {n_axis} voxels along axis {axis}"
            )
    if sum(widths) != n_axis:
        raise ValueError(
            f"fractions {ps.fractions} not representable on {n_axis} voxels along axis {axis}"
        )
    profile = np.repeat(np.arange(len(widths), dtype=np.uint8), widths)
    expand = [np.newaxis] * len(shape)
    expand[axis] = slice(None)
    index = np.broadcast_to(profile[tuple(expand)], shape)
    return VoxelGrid(index, ps.conductivities)


def generate_checkerboard(sigma_a: float, sigma_b: float, shape: tuple[int, int]) -> VoxelGrid:
    """2D checkerboard with alternating half-period cells, fractions exactly 1/2."""
    shape = tuple(int(n) for n in shape)
    if len(shape) != 2:
        raise ValueError(f"checkerboard is 2D only, got shape {shape}")
    if any(n % 2 for n in shape):
        raise ValueError(f"checkerboard needs even shape, got {shape}")
    i = np.arange(shape[0])[:, None] // (shape[0] // 2)
    j = np.arange(shape[1])[None, :] // (shape[1] // 2)
    index = ((i + j) % 2).astype(np.uint8)
    return VoxelGrid(index, (float(sigma_a), float(sigma_b)))


def _largest_remainder_counts(fractions, total: int) -> list[int]:
    # deterministic apportionment: floors, then +1 by descending remainder
    targets = [m * total for m in fractions]
    counts = [int(t) for t in targets]
    order = sorted(range(len(targets)), key=lambda i: (-(targets[i] - counts[i]), i))
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _smooth_noise(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    # Gaussian low-pass in Fourier space
    noise = rng.standard_normal(shape)
    ell = _CORRELATION_LENGTH / shape[0]
    _, k2 = half_wavenumbers(shape, zero_nyquist=False)
    kernel = np.exp(-0.5 * ell * ell * k2)
    return np.fft.irfftn(np.fft.rfftn(noise) * kernel, s=shape, axes=tuple(range(len(shape))))


def generate_random(ps: PhaseSet, shape: tuple[int, ...], seed: int, mode: str = "iid") -> VoxelGrid:
    """Random microstructure with target fractions, deterministic in the seed.

    ``iid`` assigns every voxel independently, so the empirical fractions are
    only statistically close to the target.  ``smooth`` thresholds a Gaussian
    noise field, low-passed at the fixed correlation length of 4 voxels of
    axis 0, at the target quantiles, which reproduces the fractions to within
    one voxel.
    """
    shape = tuple(int(n) for n in shape)
    rng = np.random.default_rng(seed)
    k = ps.num_phases
    if mode == "iid":
        index = rng.choice(k, size=shape, p=np.asarray(ps.fractions)).astype(np.uint8)
    elif mode == "smooth":
        field = _smooth_noise(rng, shape)
        counts = _largest_remainder_counts(ps.fractions, field.size)
        order = np.argsort(field.ravel(), kind="stable")
        flat = np.empty(field.size, dtype=np.uint8)
        flat[order] = np.repeat(np.arange(k, dtype=np.uint8), counts)
        index = flat.reshape(shape)
    else:
        raise ValueError(f"unknown mode {mode!r}, expected 'iid' or 'smooth'")
    return VoxelGrid(index, ps.conductivities)


def empirical_phase_set(grid: VoxelGrid) -> PhaseSet:
    """Phase set with the fractions actually realized on the grid.

    Counts divide exactly by the (power-of-two) voxel total, so the fractions
    sum to exactly one.  Phases with no voxels are dropped.
    """
    counts = np.bincount(grid.phase_index.ravel(), minlength=len(grid.phase_conductivities))
    fractions = counts / grid.num_voxels
    return PhaseSet.from_pairs(grid.phase_conductivities, fractions, grid.dimension)


def save_grid(grid: VoxelGrid, path: str | Path) -> None:
    dim = grid.dimension
    k = len(grid.phase_conductivities)
    header = struct.pack("<4sHBB", MAGIC, VERSION, dim, k)
    header += struct.pack(f"<{dim}I", *grid.shape)
    header += np.asarray(grid.phase_conductivities, dtype="<f8").tobytes()
    Path(path).write_bytes(header + grid.phase_index.astype("<u1").tobytes(order="C"))


def load_grid(path: str | Path) -> VoxelGrid:
    data = Path(path).read_bytes()
    head = struct.calcsize("<4sHBB")
    if len(data) < head:
        raise GridFormatError(f"{path}: truncated header")
    magic, version, dim, k = struct.unpack_from("<4sHBB", data, 0)
    if magic != MAGIC:
        raise GridFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise GridFormatError(f"{path}: unsupported version {version}")
    if dim not in (2, 3):
        raise GridFormatError(f"{path}: bad dimension {dim}")
    offset = head
    if len(data) < offset + 4 * dim:
        raise GridFormatError(f"{path}: truncated shape")
    shape = struct.unpack_from(f"<{dim}I", data, offset)
    offset += 4 * dim
    if len(data) < offset + 8 * k:
        raise GridFormatError(f"{path}: truncated conductivity table")
    conductivities = np.frombuffer(data, dtype="<f8", count=k, offset=offset)
    offset += 8 * k
    count = math.prod(shape)  # Python ints: a fixed-width product can wrap to 0
    if len(data) != offset + count:
        raise GridFormatError(
            f"{path}: expected {count} index bytes, found {len(data) - offset}"
        )
    index = np.frombuffer(data, dtype=np.uint8, count=count, offset=offset).reshape(shape)
    try:
        return VoxelGrid(index, tuple(float(c) for c in conductivities))
    except ValueError as exc:
        raise GridFormatError(f"{path}: {exc}") from exc
