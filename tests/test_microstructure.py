import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conducta.errors import GridFormatError
from conducta.microstructure import (
    VoxelGrid,
    generate_checkerboard,
    generate_laminate,
    generate_random,
    load_grid,
    save_grid,
)
from conducta.phases import PhaseSet

TWO = PhaseSet.from_pairs((1.0, 4.0), (0.5, 0.5), 2)
THREE = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.25, 0.25, 0.5), 2)


class TestVoxelGrid:
    def test_requires_power_of_two(self):
        with pytest.raises(ValueError, match="powers of two"):
            VoxelGrid(np.zeros((6, 8), np.uint8), (1.0,))

    def test_requires_at_least_two_axes(self):
        # the grid's number of axes is its dimension
        with pytest.raises(ValueError, match="at least 2 axes, got 0"):
            VoxelGrid(np.zeros((), np.uint8), (1.0,))
        with pytest.raises(ValueError, match="at least 2 axes, got 1"):
            VoxelGrid(np.zeros(8, np.uint8), (1.0,))
        assert VoxelGrid(np.zeros((4, 4, 4, 4), np.uint8), (1.0,)).dimension == 4

    def test_index_range_checked(self):
        with pytest.raises(ValueError, match="index"):
            VoxelGrid(np.full((4, 4), 2, np.uint8), (1.0, 2.0))

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.inf, -math.inf, math.nan, 1e-310, 5e-324])
    def test_conductivities_finite_and_positive(self, sigma):
        with pytest.raises(ValueError, match=f"conductivities must be finite and positive, got {sigma}"):
            VoxelGrid(np.zeros((4, 4), np.uint8), (1.0, sigma))

    def test_immutable_after_construction(self):
        g = VoxelGrid(np.zeros((4, 4), np.uint8), (1.0,))
        with pytest.raises(ValueError):
            g.phase_index[0, 0] = 1

    def test_owns_its_index_array(self):
        # the grid kept a view of the caller's array and froze it
        base = np.zeros((4, 4), np.uint8)
        g = VoxelGrid(base, (1.0, 2.0))
        view_grid = VoxelGrid(base[:], (1.0, 2.0))
        base[0, 0] = 1  # the caller's array stays writable
        assert g.phase_index[0, 0] == 0 and view_grid.phase_index[0, 0] == 0

    def test_conductivity_field(self):
        g = generate_checkerboard(1.0, 4.0, (4, 4))
        f = g.conductivity_field()
        assert set(np.unique(f)) == {1.0, 4.0}

    def test_phase_set_built_once_per_grid(self):
        g = generate_random(THREE, (16, 16), seed=3)
        assert g.phase_set is g.phase_set
        # a cache that outlived the grid would hand an equal grid the same object
        assert VoxelGrid(g.phase_index, g.phase_conductivities).phase_set is not g.phase_set

    def test_phase_set_cannot_be_assigned(self):
        g = generate_random(THREE, (16, 16), seed=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.phase_set = TWO
        with pytest.raises(dataclasses.FrozenInstanceError):
            del g.phase_set
        assert g.phase_set.conductivities == THREE.conductivities

    @pytest.mark.parametrize("sigmas", [(5.0, 1e-3, 7.0, 2.0), (1e300, 1.0, 1e300)])
    def test_phase_set_range_is_the_fields(self, sigmas):
        # unused and repeated table entries drop out, so inf and sup are the field's min and max
        index = np.arange(16, dtype=np.uint8).reshape(4, 4) % 2 * 2
        g = VoxelGrid(index, sigmas)
        f = g.conductivity_field()
        assert (g.phase_set.inf_sigma, g.phase_set.sup_sigma) == (f.min(), f.max())


class TestLaminate:
    def test_equal_split(self):
        g = generate_laminate(TWO, 0, (64, 64))
        widths = np.bincount(g.phase_index[:, 0])
        assert list(widths) == [32, 32]
        # layers normal to axis 0: constant along axis 1
        assert (g.phase_index == g.phase_index[:, :1]).all()

    def test_three_phase_exact_division(self):
        g = generate_laminate(THREE, 1, (64, 64))
        widths = np.bincount(g.phase_index[0, :])
        assert list(widths) == [16, 16, 32]

    def test_rejects_unrepresentable_fractions(self):
        bad = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), 2)
        with pytest.raises(ValueError, match="not representable"):
            generate_laminate(bad, 0, (64, 64))
        tiny = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.499, 0.499, 0.002), 2)
        with pytest.raises(ValueError, match="not representable"):
            generate_laminate(tiny, 0, (64, 64))

    def test_empirical_fractions_match(self):
        g = generate_laminate(THREE, 0, (64, 32))
        emp = g.phase_set
        assert emp.fractions == (0.25, 0.25, 0.5)


class TestCheckerboard:
    def test_fractions_exactly_half(self):
        g = generate_checkerboard(1.0, 4.0, (256, 256))
        emp = g.phase_set
        assert emp.fractions == (0.5, 0.5)

    def test_rejects_odd_or_3d(self):
        with pytest.raises(ValueError):
            generate_checkerboard(1.0, 4.0, (4, 4, 4))
        # odd axis is caught by the power-of-two grid invariant as well,
        # but the generator checks evenness first
        with pytest.raises(ValueError):
            generate_checkerboard(1.0, 4.0, (3, 4))

    def test_homogeneous_conductivities_allowed(self):
        g = generate_checkerboard(1.0, 1.0, (8, 8))
        assert g.phase_set.num_phases == 1


class TestRandom:
    def test_deterministic_in_seed(self):
        a = generate_random(TWO, (32, 32), seed=42)
        b = generate_random(TWO, (32, 32), seed=42)
        assert (a.phase_index == b.phase_index).all()
        c = generate_random(TWO, (32, 32), seed=43)
        assert (a.phase_index != c.phase_index).any()

    def test_single_phase_all_zero(self):
        ps = PhaseSet.from_pairs((2.0,), (1.0,), 2)
        g = generate_random(ps, (16, 16), seed=0)
        assert (g.phase_index == 0).all()

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            generate_random(TWO, (16, 16), seed=0, mode="sorted")

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(st.one_of(st.just(1e-6), st.floats(1e-6, 1.0)), min_size=1, max_size=6),
        shape=st.lists(st.sampled_from([2, 4, 8, 16]), min_size=2, max_size=4).filter(lambda s: math.prod(s) <= 4096),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_iid_is_generator_choice_byte_for_byte(self, weights, shape, seed):
        # every iid corpus grid verify and bmo draw is the one Generator.choice gave
        fractions = np.asarray(weights) / math.fsum(weights)
        ps = PhaseSet(tuple(float(c) for c in range(1, len(weights) + 1)), tuple(fractions.tolist()), len(shape))
        got = generate_random(ps, tuple(shape), seed=seed).phase_index
        want = np.random.default_rng(seed).choice(ps.num_phases, size=tuple(shape), p=ps.fractions).astype(np.uint8)
        assert got.tobytes() == want.tobytes()

    def test_iid_draw_equal_to_a_cdf_entry_lands_above_it(self):
        # choice's searchsorted(side="right") counts a cdf entry equal to the draw
        u0 = float(np.random.default_rng(7).random())
        ps = PhaseSet((1.0, 2.0), (u0, 1.0 - u0), 2)
        assert np.cumsum(ps.fractions)[0] == u0 and math.fsum(ps.fractions) == 1.0
        got = generate_random(ps, (2, 2), seed=7).phase_index
        assert got[0, 0] == 1
        assert np.array_equal(got, np.random.default_rng(7).choice(2, size=(2, 2), p=ps.fractions))

    def test_iid_fractions_statistical(self):
        # fixed seeds; worst deviation observed is well inside 2/sqrt(M)
        # F(t), the fraction above t, checked between the conductivities
        ps = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), 2)
        tol = 2.0 / np.sqrt(64 * 64)
        for seed in range(20):
            emp = generate_random(ps, (64, 64), seed=seed).phase_set
            assert emp.conductivities == ps.conductivities
            for i in (1, 2):
                assert abs(sum(emp.fractions[i:]) - sum(ps.fractions[i:])) < tol

    def test_smooth_fractions_within_one_voxel(self):
        ps = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), 2)
        g = generate_random(ps, (64, 64), seed=5, mode="smooth")
        emp = g.phase_set
        for got, want in zip(emp.fractions, ps.fractions):
            assert abs(got - want) <= 1.0 / g.num_voxels

    def test_smooth_is_correlated(self):
        # smoothed fields have far fewer phase boundaries than iid ones
        ps = TWO
        smooth = generate_random(ps, (64, 64), seed=1, mode="smooth").phase_index
        iid = generate_random(ps, (64, 64), seed=1, mode="iid").phase_index
        def boundary_count(ix):
            return int((ix != np.roll(ix, 1, 0)).sum() + (ix != np.roll(ix, 1, 1)).sum())
        assert boundary_count(smooth) < 0.5 * boundary_count(iid)

    @pytest.mark.parametrize("shape", [(64, 64), (128, 128), (32, 32, 32)])
    @pytest.mark.parametrize("ps3", [False, True])
    def test_smooth_matches_complex_fft_reference(self, shape, ps3):
        # the real-FFT filter moves the field only at round-off, which never
        # reorders it across a quantile threshold on these draws
        dim = len(shape)
        ps = (PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), dim) if ps3
              else PhaseSet.from_pairs((1.0, 4.0), (0.5, 0.5), dim))
        for seed in range(10):
            got = generate_random(ps, shape, seed=seed, mode="smooth").phase_index
            assert np.array_equal(got, complex_fft_smooth_reference(ps, shape, seed))


def complex_fft_smooth_reference(ps, shape, seed, length=4.0):
    """The smooth corpus grid filtered with full complex transforms."""
    noise = np.random.default_rng(seed).standard_normal(shape)
    k2 = np.zeros(shape)
    for ax, n in enumerate(shape):
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n)
        k2 = k2 + (k * k).reshape([-1 if a == ax else 1 for a in range(len(shape))])
    ell = length / shape[0]
    field = np.fft.ifftn(np.fft.fftn(noise) * np.exp(-0.5 * ell * ell * k2)).real
    # largest-remainder voxel counts, phases assigned in ascending field order
    targets = [m * field.size for m in ps.fractions]
    counts = [int(t) for t in targets]
    by_remainder = sorted(range(len(targets)), key=lambda i: (counts[i] - targets[i], i))
    for i in by_remainder[: field.size - sum(counts)]:
        counts[i] += 1
    flat = np.repeat(np.arange(len(counts), dtype=np.uint8), counts)
    index = np.empty(field.size, dtype=np.uint8)
    index[np.argsort(field.ravel(), kind="stable")] = flat
    return index.reshape(shape)


class TestEmpiricalPhaseSet:
    def test_fractions_sum_exactly_one(self):
        for seed in range(5):
            g = generate_random(THREE, (32, 32), seed=seed)
            assert sum(g.phase_set.fractions) == 1.0

    def test_checkerboard(self):
        g = generate_checkerboard(1.0, 4.0, (8, 8))
        assert g.phase_set.fractions == (0.5, 0.5)

    def test_drops_empty_phases(self):
        idx = np.zeros((4, 4), np.uint8)
        g = VoxelGrid(idx, (1.0, 2.0))
        emp = g.phase_set
        assert emp.num_phases == 1
        assert emp.conductivities == (1.0,)


class TestGridFile:
    def test_round_trip_bit_exact(self, tmp_path):
        g = generate_random(THREE, (32, 16), seed=9)
        path = tmp_path / "grid.cnda"
        save_grid(g, path)
        loaded = load_grid(path)
        assert loaded.shape == g.shape
        assert (loaded.phase_index == g.phase_index).all()
        assert loaded.phase_conductivities == g.phase_conductivities
        # byte-for-byte stable on re-save
        save_grid(loaded, tmp_path / "again.cnda")
        assert (tmp_path / "again.cnda").read_bytes() == path.read_bytes()

    def test_3d_round_trip(self, tmp_path):
        ps = PhaseSet.from_pairs((1.0, 3.0), (0.5, 0.5), 3)
        g = generate_random(ps, (8, 8, 8), seed=2)
        save_grid(g, tmp_path / "g3.cnda")
        assert (load_grid(tmp_path / "g3.cnda").phase_index == g.phase_index).all()

    def test_4d_round_trip(self, tmp_path):
        ps = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), 4)
        g = generate_random(ps, (8, 4, 4, 2), seed=3)
        save_grid(g, tmp_path / "g4.cnda")
        loaded = load_grid(tmp_path / "g4.cnda")
        assert loaded.shape == g.shape and loaded.phase_conductivities == g.phase_conductivities
        assert np.array_equal(loaded.phase_index, g.phase_index)
        save_grid(loaded, tmp_path / "again.cnda")
        assert (tmp_path / "again.cnda").read_bytes() == (tmp_path / "g4.cnda").read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.cnda"
        p.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(GridFormatError, match="magic"):
            load_grid(p)

    def test_bad_version(self, tmp_path):
        g = generate_checkerboard(1.0, 2.0, (4, 4))
        p = tmp_path / "v.cnda"
        save_grid(g, p)
        raw = bytearray(p.read_bytes())
        raw[4] = 99
        p.write_bytes(bytes(raw))
        with pytest.raises(GridFormatError, match="version"):
            load_grid(p)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_non_finite_conductivity(self, sigma, tmp_path):
        # an inf in the table made the solve run every CG iteration on NaNs
        p = tmp_path / "inf.cnda"
        save_grid(generate_checkerboard(1.0, 2.0, (4, 4)), p)
        raw = bytearray(p.read_bytes())
        raw[24:32] = struct.pack("<d", sigma)  # the second table entry, after the 8-byte header and 2D shape
        p.write_bytes(bytes(raw))
        with pytest.raises(GridFormatError, match=f"inf.cnda: conductivities must be finite and positive, got {sigma}"):
            load_grid(p)

    def test_bad_dimension(self, tmp_path):
        # files whose sizes agree with their dimension byte; the grid, not the reader, refuses them
        p = tmp_path / "d.cnda"
        for dim, shape in ((0, ()), (1, (4,))):
            p.write_bytes(grid_header(dim, shape, (1.0,)) + bytes(math.prod(shape)))
            with pytest.raises(GridFormatError, match=f"d.cnda: grid must have at least 2 axes, got {dim}"):
                load_grid(p)

    def test_truncated(self, tmp_path):
        g = generate_checkerboard(1.0, 2.0, (4, 4))
        p = tmp_path / "t.cnda"
        save_grid(g, p)
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(GridFormatError, match="index bytes"):
            load_grid(p)

    def test_voxel_count_does_not_wrap(self, tmp_path):
        # 2**31 * 2**31 * 4 is 2**64, which a 64-bit product wraps to 0
        p = tmp_path / "huge.cnda"
        p.write_bytes(grid_header(3, (2**31, 2**31, 4), (1.0,)))
        with pytest.raises(GridFormatError, match="huge.cnda: expected 18446744073709551616 index bytes"):
            load_grid(p)

    @given(
        dim=st.sampled_from([0, 1, 2, 3, 4]),
        sigmas=st.lists(st.floats(0.5, 8.0), min_size=1, max_size=3),
        shape=st.lists(
            st.one_of(st.sampled_from([2, 4, 8]), st.integers(0, 2**32 - 1), st.just(2**31)),
            min_size=4, max_size=4,
        ),
        index_bytes=st.one_of(st.just("exact"), st.integers(0, 600)),
        phase=st.integers(0, 3),
        extra=st.integers(-3, 3),
        cut=st.one_of(st.none(), st.integers(0, 60)),
    )
    def test_fuzzed_files_load_or_fail_cleanly(
        self, tmp_path_factory, dim, sigmas, shape, index_bytes, phase, extra, cut
    ):
        # files stay below a few kilobytes, so no declared shape is ever allocated
        count = math.prod(shape[:dim])
        if index_bytes == "exact":
            index_bytes = count if count <= 4096 else 0
        data = grid_header(dim, shape[:dim], sigmas) + bytes([phase]) * max(index_bytes + extra, 0)
        if cut is not None:
            data = data[:cut]  # truncated header, shape or conductivity table
        p = tmp_path_factory.getbasetemp() / "fuzz.cnda"
        p.write_bytes(data)
        try:
            g = load_grid(p)
        except GridFormatError as exc:
            assert str(exc).startswith(f"{p}: ")
        else:
            assert g.shape == tuple(shape[:dim]) and g.num_voxels == count
            assert phase < len(sigmas) and (g.phase_index == phase).all()


def grid_header(dim, shape, sigmas):
    """Header and conductivity table of a version-1 grid file."""
    head = struct.pack("<4sHBB", b"CNDA", 1, dim, len(sigmas)) + struct.pack(f"<{dim}I", *shape)
    return head + struct.pack(f"<{len(sigmas)}d", *sigmas)
