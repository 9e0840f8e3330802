"""Shared, cached workspaces for the co-occurrence scan kernels.

The hot loops of the batched and incremental kernels need a handful of
auxiliary arrays whose contents depend only on ``(levels, batch)``-style
parameters, not on the data being scanned:

``pair_shift``
    The per-row bincount offset ``arange(n) * G**2`` that turns a batch
    of per-window pair codes into disjoint histogram segments for a
    single ``bincount`` call.
``symmetric_index``
    The strict-upper-triangle index pair plus the diagonal used to
    symmetrize count matrices in place (without materializing a full
    transposed copy).
``rolling_plan``
    The incremental kernel's axis plan: which axis it rolls along and
    how many whole slabs one row block holds, chosen from the geometry
    alone (chunk shape, ROI, directions, grey levels).
``scan_offsets``
    Precomputed flat-index gather tables for the GPU backend: per scan
    row and per direction group, the flat positions of every pair-code
    hyperplane inside one concatenated pair-code array.

The plan and the tables depend only on the scan geometry — in the
pipeline every interior chunk shares one shape, so they are built once
and reused for every chunk of the run.

Allocating these per call shows up in profiles (they are as large as a
batch row), so they are cached here and shared by every kernel and every
filter copy.  Cached arrays are returned *read-only*; kernels must never
write into them.  The cache is guarded by a lock because the local
runtime executes filter copies on threads.

``WORKSPACE_BYTES`` is the soft bound on transient working-set size the
kernels aim for when they sub-batch internally (it bounds temporaries,
not the caller-visible output batches).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .roi import ROISpec, valid_positions_shape

__all__ = [
    "BLOCK_TARGET_BYTES",
    "WORKSPACE_BYTES",
    "GroupOffsets",
    "RollingPlan",
    "ScanOffsets",
    "pair_shift",
    "rolling_plan",
    "scan_offsets",
    "symmetric_index",
    "symmetrize_inplace",
]

#: Soft cap on kernel-internal temporaries (gather blocks, histogram
#: segments).  Yielded matrix batches are sized by the caller's ``batch``
#: and are not subject to this bound.
WORKSPACE_BYTES = 32 * 2**20

_lock = threading.Lock()
_shift_cache: Dict[int, np.ndarray] = {}
_triu_cache: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def pair_shift(n: int, gg: int) -> np.ndarray:
    """Read-only ``(n, 1)`` int64 array of ``arange(n) * gg``.

    Cached per ``gg`` and grown geometrically, so repeated calls from a
    scan loop reuse one allocation.
    """
    with _lock:
        arr = _shift_cache.get(gg)
        if arr is None or arr.shape[0] < n:
            size = max(n, 2 * arr.shape[0] if arr is not None else n)
            arr = (np.arange(size, dtype=np.int64) * gg)[:, None]
            arr.setflags(write=False)
            _shift_cache[gg] = arr
        return arr[:n]


def symmetric_index(levels: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cached ``(iu, ju, diag)`` index arrays for in-place symmetrization."""
    with _lock:
        cached = _triu_cache.get(levels)
        if cached is None:
            iu, ju = np.triu_indices(levels, k=1)
            diag = np.arange(levels)
            for a in (iu, ju, diag):
                a.setflags(write=False)
            cached = (iu, ju, diag)
            _triu_cache[levels] = cached
        return cached


def symmetrize_inplace(mats: np.ndarray) -> np.ndarray:
    """``mats += mats.T`` per matrix, in place and without a full copy.

    ``mats`` has shape ``(B, G, G)``.  The only temporary is the strict
    upper triangle (half a matrix batch), versus the full transposed
    copy the naive ``mats += mats.transpose(0, 2, 1).copy()`` needs.
    """
    iu, ju, diag = symmetric_index(mats.shape[-1])
    if iu.size:
        s = mats[:, iu, ju] + mats[:, ju, iu]
        mats[:, iu, ju] = s
        mats[:, ju, iu] = s
    mats[:, diag, diag] *= 2
    return mats


# --------------------------------------------------------------------------
# Chunk-shape-keyed scan geometry: the rolling plan and the GPU tables.
# --------------------------------------------------------------------------

#: Target byte size of one internal row block of the rolling scan.
#: Keeping the per-block histogram working set cache-sized is worth ~20%
#: over maximally large blocks; always additionally capped by
#: ``WORKSPACE_BYTES``.
BLOCK_TARGET_BYTES = 8 * 2**20

#: Cost weights of the rolling plan, per window: a gathered pair code, a
#: histogram bin, and one element of a window-sum pass.  Calibrated from
#: per-stage timings of the paper-config scan (5x5x5x3 ROI, G=32).
_COST_CODE, _COST_BIN, _COST_ADD = 3.0, 1.0, 0.5


def _window_sum_planes(extents, n: int) -> int:
    """Plane additions the rolling kernel spends on ``n`` window sums.

    Mirrors :func:`repro.core.backends._rolling_block`: groups of window
    extent ``extents`` are folded widest first, then the sliding sums are
    built by doubling and the resulting terms added up.
    """

    def build(w: int, m: int) -> int:  # one array of m sums of w planes
        if w == 1:
            return 0
        return (build(w - 1, m) if w % 2 else build(w // 2, m + w // 2)) + m

    ws = sorted(extents, reverse=True)
    if not ws:
        return 0
    total = sum(n + b - 1 + build(a - b, n) for a, b in zip(ws, ws[1:]))
    last = ws[-1]
    n_terms = len(ws) - 1 + (2 if last > 1 else 1)
    return total + build(last, n) - (n if last > 1 else 0) + n * (n_terms - 1)


@dataclass(frozen=True)
class RollingPlan:
    """Which axis the rolling scan rolls along, and how it blocks rows.

    The kernel transposes the chunk once to ``order`` (``axis`` moved
    innermost).  A *slab* is the ``slab_rows`` scan rows that share the
    grid prefix before ``axis``; blocks are ``slabs_per_block`` whole
    slabs, so one transpose per block restores raster order.
    ``codes[a]`` is the pair codes one window gathers when rolling along
    axis ``a``; ``cost[a]`` the weighted estimate the choice minimised,
    ``None`` where the axis's slab exceeds the block target.
    """

    axis: int
    order: Tuple[int, ...]
    codes: Tuple[float, ...]
    cost: Tuple[Optional[float], ...]
    slab_rows: int
    slabs_per_block: int


def _build_rolling_plan(
    data_shape: Tuple[int, ...],
    roi: ROISpec,
    directions: Tuple[Tuple[int, ...], ...],
    levels: int,
) -> RollingPlan:
    nd = len(data_shape)
    gg = levels * levels
    grid = valid_positions_shape(data_shape, roi)
    budget = min(WORKSPACE_BYTES, BLOCK_TARGET_BYTES)
    windows = [tuple(r - abs(int(c)) for r, c in zip(roi.shape, v))
               for v in directions]
    windows = [w for w in windows if min(w) > 0]  # pairs that fit the ROI
    codes, costs, slab_bytes = [], [], []
    for a in range(nd):
        n = grid[a]
        # Per trailing extent W_a: code faces gathered per plane.
        faces: Dict[int, int] = {}
        for w in windows:
            faces[w[a]] = faces.get(w[a], 0) + math.prod(w) // w[a]
        planes = {wa: n - 1 + wa for wa in faces}
        n_codes = sum(f * planes[wa] for wa, f in faces.items())
        n_bins = gg * sum(planes.values())
        n_adds = gg * _window_sum_planes(faces, n)
        codes.append(n_codes / n)
        costs.append(
            (_COST_CODE * n_codes + _COST_BIN * n_bins + _COST_ADD * n_adds) / n
        )
        # One scan row: its gathered codes and histograms, the window-sum
        # output and the reordered output block.
        row = 2 * n * gg + sum(p * (faces[wa] + gg) for wa, p in planes.items())
        slab_bytes.append(8 * row * math.prod(grid[a + 1 :]))
    # The innermost axis (one row per slab) is always a candidate.
    fits = [a for a in range(nd) if a == nd - 1 or slab_bytes[a] <= budget]
    axis = min(reversed(fits), key=lambda a: costs[a])
    return RollingPlan(
        axis=axis,
        order=tuple(i for i in range(nd) if i != axis) + (axis,),
        codes=tuple(codes),
        cost=tuple(c if a in fits else None for a, c in enumerate(costs)),
        slab_rows=math.prod(grid[axis + 1 :]),
        slabs_per_block=max(1, budget // slab_bytes[axis]),
    )


def rolling_plan(
    data_shape: Tuple[int, ...],
    roi: ROISpec,
    directions: Tuple[Tuple[int, ...], ...],
    levels: int,
) -> RollingPlan:
    """Cached :class:`RollingPlan` for one (chunk, ROI, directions, G).

    Directions arrive scaled by the distance, so the key is exactly the
    geometry the plan depends on.  Built at the first scan of a shape.
    """
    key = ("plan", tuple(int(s) for s in data_shape), roi.shape,
           tuple(directions), int(levels))
    return _cached(key, lambda: _build_rolling_plan(key[1], roi, key[3], levels))


@dataclass(frozen=True)
class GroupOffsets:
    """GPU gather table for one trailing-extent group of directions.

    Directions whose pair-code windows share the trailing extent ``W_t``
    are plane-aligned: the window at row position ``t`` covers code
    hyperplanes ``[t, t + W_t)``.  ``table[r, f]`` is the flat index (in
    the concatenated pair-code array of :class:`ScanOffsets`) of the
    hyperplane-0 code at face position ``f`` of scan row ``r``; plane
    ``j`` of that row sits at ``table[r, f] + j`` because every
    pair-code array is C-contiguous along the innermost axis.
    """

    trailing_extent: int  # W_t: planes summed per window
    n_planes: int  # row_len - 1 + W_t: planes gathered per row
    total_face: int  # code faces per plane, summed over members
    table: np.ndarray  # (n_rows, total_face) read-only intp


@dataclass(frozen=True)
class ScanOffsets:
    """The GPU backend's gather geometry of one (chunk, ROI, directions).

    ``segments`` lists, per direction that fits the window, the slice of
    the concatenated flat pair-code array (size ``cat_size``) that the
    direction's ``pair_code_array`` fills.  The data-dependent codes are
    the only per-chunk work left; everything index-shaped is here.
    """

    grid: Tuple[int, ...]
    n_rows: int
    row_len: int
    cat_size: int
    segments: Tuple[Tuple[Tuple[int, ...], int, int], ...]
    groups: Tuple[GroupOffsets, ...]


#: Distinct geometry entries kept.  The pipeline sees one interior shape
#: plus a handful of edge shapes, so a small LRU bound keeps reuse
#: near-perfect without unbounded growth.
_GEOMETRY_CACHE_ENTRIES = 8

_geometry_cache: "OrderedDict[tuple, object]" = OrderedDict()


def _cached(key: tuple, build):
    """LRU lookup in the shared geometry cache, building on a miss."""
    with _lock:
        cached = _geometry_cache.get(key)
        if cached is not None:
            _geometry_cache.move_to_end(key)
            return cached
    built = build()
    with _lock:
        _geometry_cache[key] = built
        _geometry_cache.move_to_end(key)
        while len(_geometry_cache) > _GEOMETRY_CACHE_ENTRIES:
            _geometry_cache.popitem(last=False)
    return built


def _build_scan_offsets(
    data_shape: Tuple[int, ...],
    roi: ROISpec,
    directions: Tuple[Tuple[int, ...], ...],
) -> ScanOffsets:
    nd = len(data_shape)
    grid = valid_positions_shape(data_shape, roi)
    row_len = grid[-1]
    lead = grid[:-1]
    n_rows = math.prod(lead)
    origins = np.unravel_index(np.arange(n_rows), lead) if lead else ()

    segments = []
    per_group: Dict[int, list] = {}
    cat_size = 0
    for v in directions:
        absv = tuple(abs(int(c)) for c in v)
        if any(roi.shape[i] <= absv[i] for i in range(nd)):
            continue  # pairs never fit inside the ROI for this direction
        cshape = tuple(data_shape[i] - absv[i] for i in range(nd))
        # Element strides of the C-contiguous pair-code array.
        strides = [1] * nd
        for i in range(nd - 2, -1, -1):
            strides[i] = strides[i + 1] * cshape[i + 1]
        w = tuple(roi.shape[i] - absv[i] for i in range(nd))
        base = cat_size
        cat_size += math.prod(cshape)
        segments.append((tuple(int(c) for c in v), base, cat_size))
        # Flat offsets of the leading window face (innermost axis left to
        # the per-plane ``+ j`` walk).
        if nd > 1:
            ix = np.ix_(*[np.arange(e, dtype=np.intp) for e in w[:-1]])
            lead_offs = sum(g * s for g, s in zip(ix, strides[:-1]))
            lead_offs = np.asarray(lead_offs, dtype=np.intp).reshape(-1)
        else:
            lead_offs = np.zeros(1, dtype=np.intp)
        if lead:
            row_base = sum(
                origins[i].astype(np.intp) * strides[i] for i in range(nd - 1)
            )
        else:
            row_base = np.zeros(1, dtype=np.intp)
        cols = base + row_base[:, None] + lead_offs[None, :]
        per_group.setdefault(w[-1], []).append(cols)

    groups = []
    for wt in sorted(per_group):
        table = np.ascontiguousarray(
            np.concatenate(per_group[wt], axis=1), dtype=np.intp
        )
        table.setflags(write=False)
        groups.append(
            GroupOffsets(
                trailing_extent=wt,
                n_planes=row_len - 1 + wt,
                total_face=table.shape[1],
                table=table,
            )
        )
    return ScanOffsets(
        grid=grid,
        n_rows=n_rows,
        row_len=row_len,
        cat_size=cat_size,
        segments=tuple(segments),
        groups=tuple(groups),
    )


def scan_offsets(
    data_shape: Tuple[int, ...],
    roi: ROISpec,
    directions: Tuple[Tuple[int, ...], ...],
) -> ScanOffsets:
    """Cached GPU gather tables for one (chunk shape, ROI, directions).

    Distance is already baked into ``directions`` (they arrive scaled by
    :func:`~repro.core.cooccurrence.resolve_directions`), so the key is
    exactly the geometry the tables depend on.  Cached arrays are
    read-only and shared across threads and filter copies.  The tables
    are ``O(n_rows * total_face)`` — easily larger than the chunk — so
    only the GPU backend builds them.
    """
    key = ("offsets", tuple(int(s) for s in data_shape), roi.shape,
           tuple(directions))
    return _cached(key, lambda: _build_scan_offsets(key[1], roi, key[3]))
