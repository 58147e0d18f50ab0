"""Tests for output-coordinate calculation (Algorithm 3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernel import kernel_offsets, to_tuple
from repro.mapping.downsample import (
    downsample_coords,
    downsample_coords_reference,
)

def make_coords(rows):
    c = np.array(rows, dtype=np.int64).reshape(-1, 3)
    return np.concatenate(
        [np.zeros((c.shape[0], 1), dtype=np.int64), c], axis=1
    ).astype(np.int32)


@st.composite
def batched_coords(draw):
    """Unique rows over batches 0-2, spatial coordinates -12..12."""
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, 2),
                st.integers(-12, 12),
                st.integers(-12, 12),
                st.integers(-12, 12),
            ),
            min_size=1,
            max_size=60,
            unique=True,
        )
    )
    return np.array(rows, dtype=np.int32)


@st.composite
def kernels_and_strides(draw):
    """Isotropic or per-axis kernels 1-4 and strides 1-3, some axis > 1."""
    if draw(st.booleans()):
        return draw(st.integers(1, 4)), draw(st.integers(2, 3))
    kernel = tuple(draw(st.integers(1, 4)) for _ in range(3))
    stride = tuple(draw(st.integers(1, 3)) for _ in range(3))
    if max(stride) == 1:
        stride = (1, 2, 1)
    return kernel, stride


def boundaries():
    bound = st.tuples(*(st.integers(1, 8) for _ in range(3)))
    return st.none() | bound.map(np.array)


def literal_candidates(coords, kernel_size, stride, boundary=None):
    """Count the (point, offset) pairs passing Algorithm 3's checks."""
    s = np.array(to_tuple(stride, name="stride"))
    count = 0
    for p in coords.astype(np.int64):
        for d in kernel_offsets(kernel_size):
            u = p[1:] - d
            if (u % s).any():
                continue
            if boundary is not None and not ((u >= 0) & (u < s * boundary)).all():
                continue
            count += 1
    return count


class TestDownsampleCoords:
    @pytest.mark.parametrize("kernel_size,stride", [(2, 2), (3, 2), (2, 4), (3, 3)])
    def test_matches_reference(self, kernel_size, stride):
        rng = np.random.default_rng(0)
        coords = make_coords(np.unique(rng.integers(0, 16, size=(50, 3)), axis=0))
        got, _ = downsample_coords(coords, kernel_size, stride)
        want = downsample_coords_reference(coords, kernel_size, stride)
        assert np.array_equal(got, want)

    def test_k2s2_is_floor_division(self):
        """The classic 2x downsampler maps each point to floor(p/2)."""
        coords = make_coords([(0, 0, 0), (1, 1, 1), (5, 4, 3), (7, 7, 7)])
        got, _ = downsample_coords(coords, 2, 2)
        want = np.unique(
            np.concatenate(
                [coords[:, :1], coords[:, 1:] // 2], axis=1
            ),
            axis=0,
        )
        assert np.array_equal(np.sort(got.view("i4,i4,i4,i4").ravel()),
                              np.sort(want.astype(np.int32).view("i4,i4,i4,i4").ravel()))

    def test_output_unique(self):
        rng = np.random.default_rng(1)
        coords = make_coords(np.unique(rng.integers(0, 30, size=(100, 3)), axis=0))
        got, _ = downsample_coords(coords, 3, 2)
        assert np.unique(got, axis=0).shape[0] == got.shape[0]

    def test_batches_kept_separate(self):
        coords = np.array([[0, 2, 2, 2], [1, 2, 2, 2]], dtype=np.int32)
        got, _ = downsample_coords(coords, 2, 2)
        assert got.shape[0] == 2
        assert set(got[:, 0].tolist()) == {0, 1}

    def test_boundary_trims(self):
        coords = make_coords([(0, 0, 0), (9, 9, 9)])
        full, _ = downsample_coords(coords, 2, 2)
        trimmed, _ = downsample_coords(
            coords, 2, 2, boundary=np.array([3, 3, 3])
        )
        assert trimmed.shape[0] <= full.shape[0]
        assert (trimmed[:, 1:] < 3).all()

    def test_stride_one_rejected(self):
        with pytest.raises(ValueError):
            downsample_coords(make_coords([(0, 0, 0)]), 3, 1)

    @given(batched_coords(), kernels_and_strides(), boundaries())
    @settings(max_examples=150, deadline=None)
    def test_property_matches_reference(self, coords, ks, boundary):
        """Same rows in the same order as literal Algorithm 3, and the
        candidate count of its modular and boundary checks."""
        kernel_size, stride = ks
        got, cost = downsample_coords(coords, kernel_size, stride, boundary)
        want = downsample_coords_reference(coords, kernel_size, stride)
        if boundary is not None:
            # u = s*q, so the paper's 0 <= u < s*b is 0 <= q < b
            q = want[:, 1:]
            want = want[((q >= 0) & (q < boundary)).all(axis=1)]
        assert got.dtype == np.int32
        assert np.array_equal(got, want)
        assert cost.n_in == coords.shape[0]
        assert cost.n_out == want.shape[0]
        assert cost.n_candidates == literal_candidates(
            coords, kernel_size, stride, boundary
        )

    @pytest.mark.parametrize(
        "row,stride",
        [
            ((0, 0, 32767, 0), (2, 1, 1)),
            ((0, 0, 0, -32768), (2, 1, 1)),
            ((1 << 15, 0, 0, 0), 2),
        ],
    )
    def test_out_of_range_raises(self, row, stride):
        """Outputs outside the packable range still raise, as the
        packing of the candidates did."""
        with pytest.raises(ValueError):
            downsample_coords(np.array([row]), 3, stride)


class TestDownsampleCost:
    def test_fused_strictly_cheaper(self):
        rng = np.random.default_rng(2)
        coords = make_coords(np.unique(rng.integers(0, 20, size=(80, 3)), axis=0))
        _, cost = downsample_coords(coords, 3, 2)
        assert cost.total_bytes(fused=True) < cost.total_bytes(fused=False)
        assert cost.launches(fused=True) == 2
        assert cost.launches(fused=False) == 5

    def test_candidate_counts(self):
        coords = make_coords([(0, 0, 0)])
        _, cost = downsample_coords(coords, 2, 2)
        assert cost.n_in == 1
        # a single point at the origin: all 8 offsets pass modular check
        # only when p - delta is even in every axis -> exactly 1 survivor
        assert cost.n_candidates == 1
        assert cost.n_out == 1

    def test_stage_bytes_scale_with_candidates(self):
        small = make_coords([(0, 0, 0)])
        rng = np.random.default_rng(3)
        big = make_coords(np.unique(rng.integers(0, 30, size=(100, 3)), axis=0))
        _, c_small = downsample_coords(small, 3, 2)
        _, c_big = downsample_coords(big, 3, 2)
        assert sum(c_big.stage_bytes) > sum(c_small.stage_bytes)
