"""Unit tests for the pluggable GLCM scan-backend layer."""

import math

import numpy as np
import pytest

from repro.cli import build_parser
from repro.core.analysis import HaralickConfig, haralick_transform
from repro.core.backends import (
    DEFAULT_KERNEL,
    KERNEL_INFO,
    KERNELS,
    get_kernel,
    incremental_scan,
    reference_scan,
)
from repro.core.cooccurrence import (
    check_levels,
    cooccurrence_scan,
    resolve_directions,
)
from repro.core.raster import raster_scan, raster_scan_reference
from repro.core.roi import ROISpec, valid_positions_shape
from repro.core import workspace
from repro.core.workspace import (
    BLOCK_TARGET_BYTES,
    WORKSPACE_BYTES,
    pair_shift,
    rolling_plan,
    symmetric_index,
    symmetrize_inplace,
)
from repro.filters.messages import TextureParams

# The "gpu" entry participates in the generic registry loops below; on a
# machine without a CUDA device it falls back to incremental with a warning
# (the warning itself is covered in tests/core/test_gpu_backend.py).
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.core.gpu.GpuUnavailableWarning"
)


@pytest.fixture(scope="module")
def small_volume():
    rng = np.random.default_rng(7)
    return rng.integers(0, 16, size=(8, 7, 6, 5), dtype=np.int32)


class TestRegistry:
    def test_kernels_contents(self):
        assert KERNELS == ("batched", "gpu", "incremental", "reference")
        assert DEFAULT_KERNEL in KERNELS
        assert set(KERNEL_INFO) == set(KERNELS)

    def test_get_kernel_resolves(self):
        assert get_kernel("batched") is cooccurrence_scan
        assert get_kernel("incremental") is incremental_scan
        assert get_kernel("reference") is reference_scan

    def test_get_kernel_unknown(self):
        with pytest.raises(ValueError, match="unknown scan kernel"):
            get_kernel("turbo")

    def test_get_kernel_suggests_close_match(self):
        with pytest.raises(ValueError, match="did you mean 'incremental'"):
            get_kernel("incrmental")
        with pytest.raises(ValueError, match="did you mean 'reference'"):
            get_kernel("referense")
        # Nothing close: no suggestion, but the valid list is shown.
        with pytest.raises(ValueError, match=r"valid kernels") as exc:
            get_kernel("turbo")
        assert "did you mean" not in str(exc.value)

    def test_config_validates_kernel(self):
        with pytest.raises(ValueError, match="unknown scan kernel"):
            HaralickConfig(kernel="turbo")
        with pytest.raises(ValueError, match="unknown scan kernel"):
            TextureParams(kernel="turbo")
        assert HaralickConfig().kernel == DEFAULT_KERNEL
        assert TextureParams().kernel == DEFAULT_KERNEL


class TestDispatch:
    def test_raster_scan_kernel_equality(self, small_volume):
        roi = ROISpec((3, 3, 3, 2))
        outs = {
            k: raster_scan(small_volume, roi, 16, kernel=k) for k in KERNELS
        }
        # Identical matrices through identical feature kernels: the
        # backend choice must be invisible, down to the last bit.
        for kernel in KERNELS:
            for name, vol in outs["reference"].items():
                assert np.array_equal(outs[kernel][name], vol), (kernel, name)
        # Against the per-window reference *feature* path the reduction
        # order differs, so only closeness is promised (as in test_raster).
        ref = raster_scan_reference(small_volume, roi, 16)
        for name, vol in ref.items():
            np.testing.assert_allclose(outs["batched"][name], vol, atol=1e-12)

    def test_haralick_transform_kernel_equality(self, small_volume):
        outs = {
            k: haralick_transform(
                small_volume,
                HaralickConfig(roi_shape=(3, 3, 3, 2), levels=16, kernel=k),
                quantized=True,
            )
            for k in KERNELS
        }
        for k in KERNELS:
            for name in outs["reference"]:
                assert np.array_equal(outs[k][name], outs["reference"][name])

    def test_cli_kernel_flag(self):
        parser = build_parser()
        assert parser.parse_args(["analyze", "d"]).kernel == DEFAULT_KERNEL
        for k in KERNELS:
            assert parser.parse_args(["analyze", "d", "--kernel", k]).kernel == k
        with pytest.raises(SystemExit):
            parser.parse_args(["analyze", "d", "--kernel", "turbo"])


class TestValidation:
    def test_check_levels_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            check_levels(np.array([[0, 8]]), 8)
        with pytest.raises(ValueError):
            check_levels(np.array([[-1, 0]]), 8)
        check_levels(np.array([[0, 7]]), 8)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_scan_validate_gating(self, kernel):
        bad = np.full((4, 4), 9, dtype=np.int32)  # out of range for levels=8
        scan = get_kernel(kernel)
        with pytest.raises(ValueError):
            list(scan(bad, ROISpec((2, 2)), 8))
        # validate=False skips the data range check (caller's contract).
        list(scan(bad % 8, ROISpec((2, 2)), 8, validate=False))


class TestWorkspace:
    def test_pair_shift_values_and_readonly(self):
        arr = pair_shift(5, 9)
        assert arr.shape == (5, 1)
        assert np.array_equal(arr[:, 0], np.arange(5) * 9)
        assert not arr.flags.writeable

    def test_pair_shift_cache_growth(self):
        small = pair_shift(3, 11)
        big = pair_shift(300, 11)
        assert np.array_equal(big[:3], small)
        # A smaller request after growth reuses the grown allocation.
        again = pair_shift(3, 11)
        assert again.base is big.base or again.base is big

    def test_symmetric_index_readonly(self):
        iu, ju, diag = symmetric_index(6)
        assert not iu.flags.writeable
        assert np.array_equal(diag, np.arange(6))
        assert iu.size == 6 * 5 // 2

    def test_symmetrize_inplace_matches_transpose_add(self):
        rng = np.random.default_rng(3)
        mats = rng.integers(0, 50, size=(4, 7, 7)).astype(np.int64)
        want = mats + mats.transpose(0, 2, 1)
        got = symmetrize_inplace(mats)
        assert got is mats
        assert np.array_equal(got, want)

    def test_symmetrize_inplace_single_level(self):
        mats = np.full((2, 1, 1), 3, dtype=np.int64)
        assert np.array_equal(symmetrize_inplace(mats), np.full((2, 1, 1), 6))


PAPER_ROI = ROISpec((5, 5, 5, 3))
PAPER_DIRS = tuple(resolve_directions(4))


class TestRollingPlan:
    def test_paper_chunk_rolls_along_z(self):
        # At 32x32x12x6 the x and y slabs are far over the block target;
        # z gathers 2,458 codes per window against t's 4,300.
        plan = rolling_plan((32, 32, 12, 6), PAPER_ROI, PAPER_DIRS, 32)
        assert plan.axis == 2
        assert plan.order == (0, 1, 3, 2)
        assert plan.cost[0] is None and plan.cost[1] is None
        assert round(plan.codes[2]) == 2458 and round(plan.codes[3]) == 4300
        assert plan.slab_rows == 4  # the t extent of the position grid

    def test_cached_per_geometry(self):
        a = rolling_plan((20, 20, 12, 7), PAPER_ROI, PAPER_DIRS, 32)
        assert rolling_plan((20, 20, 12, 7), PAPER_ROI, PAPER_DIRS, 32) is a
        for other in (
            rolling_plan((20, 20, 12, 8), PAPER_ROI, PAPER_DIRS, 32),
            rolling_plan((20, 20, 12, 7), ROISpec((5, 5, 5, 2)), PAPER_DIRS, 32),
            rolling_plan((20, 20, 12, 7), PAPER_ROI, PAPER_DIRS[:13], 32),
            rolling_plan((20, 20, 12, 7), PAPER_ROI, PAPER_DIRS, 16),
        ):
            assert other is not a

    def test_built_at_first_scan(self):
        workspace._geometry_cache.clear()
        data = np.zeros((9, 8, 7, 6), dtype=np.int32)
        roi = ROISpec((3, 3, 3, 2))
        dirs = tuple(resolve_directions(4))
        key = ("plan", data.shape, roi.shape, dirs, 8)
        assert key not in workspace._geometry_cache
        next(incremental_scan(data, roi, 8))
        assert workspace._geometry_cache[key] is rolling_plan(
            data.shape, roi, dirs, 8
        )

    @pytest.mark.parametrize("shape, levels", [
        ((32, 32, 12, 6), 32), ((8, 32, 12, 6), 32), ((20, 20, 12, 7), 64),
        ((64, 8, 12, 6), 16), ((9, 40, 40, 4), 32), ((40, 40, 6, 6), 64),
    ])
    def test_never_picks_a_slab_over_the_block_budget(self, shape, levels):
        plan = rolling_plan(shape, PAPER_ROI, PAPER_DIRS, levels)
        grid = valid_positions_shape(shape, PAPER_ROI)
        budget = min(WORKSPACE_BYTES, BLOCK_TARGET_BYTES)
        for axis, cost in enumerate(plan.cost):
            # A slab's window sums plus its reordered output alone.
            slab = 2 * 8 * levels**2 * math.prod(grid[axis:])
            if slab > budget and axis < 3:
                assert cost is None, axis
        if plan.axis < 3:
            slab = 2 * 8 * levels**2 * math.prod(grid[plan.axis :])
            assert plan.slabs_per_block * slab <= budget
        # The pick is the cheapest axis left.
        costs = {a: c for a, c in enumerate(plan.cost) if c is not None}
        assert costs[plan.axis] == min(costs.values())
