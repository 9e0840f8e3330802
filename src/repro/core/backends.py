"""Pluggable scan backends for co-occurrence computation.

The paper's dominant cost is GLCM accumulation (Section 4.4.1), so the
scan kernel is dispatchable behind one stable interface — the Region
Templates idea of backend-selectable kernels.  Four backends:

``"batched"``
    :func:`repro.core.cooccurrence.cooccurrence_scan`.  One ``bincount``
    per (direction, sub-batch): every ROI re-counts its full window, so
    per-ROI work is ``O(ROI_volume)`` pair codes per direction plus a
    ``G x G`` histogram accumulation *per direction*.

``"incremental"``
    :func:`incremental_scan` (this module).  The rolling kernel: Eq. (1)
    overlap means adjacent ROIs along one axis share all but one
    hyperplane of pair codes, so the scan histograms each code
    *hyperplane* once and reconstructs every window's GLCM as a sliding
    sum of plane histograms along that axis.  Per-ROI work drops to
    ``O(ROI_face)`` pair codes per direction, and directions are grouped
    by window extent along the axis so the dense ``G x G`` accumulation
    is paid once per *group* (2 for the paper setup) instead of once per
    direction (40 for 4D).  The axis is planned per chunk geometry
    (:func:`~repro.core.workspace.rolling_plan`): the longest axis shares
    the most codes between neighbours, but its row blocks must stay
    cache-sized, so the plan weighs codes gathered, histogram bins and
    window-sum passes per window over the axes whose slabs fit the block
    target.  The chunk is transposed once so that axis is innermost; one
    transpose per block of whole slabs restores raster order and
    symmetrizes in the same pass.

``"gpu"``
    :func:`repro.core.gpu.gpu_scan`.  Import-guarded GPU backend: the
    same pair-code scatter formulation on a CUDA device via CuPy (or a
    Numba-CUDA atomic-add kernel when CuPy is absent), one chunk
    transferred in and one GLCM block out.  Falls back cleanly to
    ``incremental`` — with a :class:`~repro.core.gpu.GpuUnavailableWarning`
    and a ``kernel.fallback`` obs event from the filters — on machines
    without a device.

``"reference"``
    :func:`reference_scan`.  The paper's Fig. 2 loop — one
    :func:`~repro.core.cooccurrence.cooccurrence_matrix` per ROI window,
    batched only for yield granularity.  Slow and obviously correct;
    the acceptance bar is bit-identical output against this kernel.

All backends share one generator contract::

    scan(data, roi, levels, directions=None, distance=1, batch=2048,
         symmetric=True, validate=True) -> Iterator[(start, (B, G, G))]

with identical batch boundaries and bit-identical count matrices, so
they are interchangeable under every runtime (sequential, threaded,
multiprocess, distributed).  Select one via ``HaralickConfig.kernel`` /
``TextureParams.kernel`` / the CLI ``--kernel`` flag, or grab the
callable directly with :func:`get_kernel`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cooccurrence import (
    check_levels,
    cooccurrence_matrix,
    cooccurrence_scan,
    pair_code_array,
    resolve_directions,
)
from .directions import Direction
from .quantization import num_levels_ok
from .roi import ROISpec, iter_roi_origins, valid_positions_shape
from .workspace import pair_shift, rolling_plan

__all__ = [
    "KERNELS",
    "KERNEL_INFO",
    "DEFAULT_KERNEL",
    "get_kernel",
    "resolve_scan_kernel",
    "incremental_scan",
    "reference_scan",
]

ScanKernel = Callable[..., Iterator[Tuple[int, np.ndarray]]]

#: Backend used by the high-level configs when none is requested.
DEFAULT_KERNEL = "incremental"


def reference_scan(
    data: np.ndarray,
    roi: ROISpec,
    levels: int,
    directions: Optional[Sequence[Direction]] = None,
    distance: int = 1,
    batch: int = 2048,
    symmetric: bool = True,
    validate: bool = True,
) -> Iterator[Tuple[int, np.ndarray]]:
    """Fig. 2 loop as a scan backend: one window at a time.

    Ground truth for the other backends; batching exists only to match
    the shared yield contract.
    """
    data = np.asarray(data)
    if validate:
        check_levels(data, levels)
    else:
        num_levels_ok(levels)
    if data.ndim != roi.ndim:
        raise ValueError(f"data ndim {data.ndim} != ROI ndim {roi.ndim}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    valid_positions_shape(data.shape, roi)  # raises if the ROI cannot fit
    dirs = resolve_directions(data.ndim, directions, distance)
    start = 0
    buf: List[np.ndarray] = []
    for origin in iter_roi_origins(data.shape, roi):
        window = data[tuple(slice(o, o + r) for o, r in zip(origin, roi.shape))]
        buf.append(
            cooccurrence_matrix(
                window, levels, dirs, distance=1, symmetric=symmetric,
                validate=False,
            )
        )
        if len(buf) == batch:
            yield start, np.stack(buf)
            start += len(buf)
            buf = []
    if buf:
        yield start, np.stack(buf)


def _rolling_groups(
    data: np.ndarray,
    roi_shape: Tuple[int, ...],
    levels: int,
    dirs: Sequence[Direction],
) -> Dict[int, List[Tuple[np.ndarray, int]]]:
    """Per-direction hyperplane views, grouped by trailing window extent.

    For direction ``v`` the pair-code window has shape ``W = R - |v|``;
    ``sliding_window_view`` over the *leading* axes only leaves the
    innermost axis whole, so ``view[row_origin][j]`` is the hyperplane of
    codes at innermost index ``j`` for that scan row.  Directions with
    equal ``W[-1]`` share plane alignment and can be histogrammed with a
    single ``bincount``.  Groups are ordered widest first.
    """
    nd = data.ndim
    groups: Dict[int, List[Tuple[np.ndarray, int]]] = {}
    for v in dirs:
        w = tuple(r - abs(c) for r, c in zip(roi_shape, v))
        if min(w) <= 0:
            continue  # pairs never fit inside the ROI for this direction
        codes, _ = pair_code_array(data, levels, v)
        view = sliding_window_view(codes, w[:-1], axis=tuple(range(nd - 1)))
        groups.setdefault(w[-1], []).append((view, math.prod(w[:-1])))
    return dict(sorted(groups.items(), reverse=True))


def _window_terms(h: np.ndarray, w: int, n: int) -> Tuple[np.ndarray, ...]:
    """One or two arrays whose sum is ``sum(h[:, k : k + n] for k < w)``.

    The partial sums are built by doubling — ``S_2k = S_k + S_k`` shifted
    by ``k``, ``S_k+1 = S_k + h`` shifted by ``k`` — so ``w`` planes cost
    about ``log2(w)`` passes instead of ``w``.
    """
    if w == 1:
        return (h[:, :n],)
    if w % 2:
        return (_window_sum(h, w - 1, n), h[:, w - 1 : w - 1 + n])
    half = _window_sum(h, w // 2, n + w // 2)
    return (half[:, :n], half[:, w // 2 : w // 2 + n])


def _window_sum(h: np.ndarray, w: int, n: int) -> np.ndarray:
    terms = _window_terms(h, w, n)
    return np.add(*terms) if len(terms) == 2 else terms[0]


def _rolling_block(
    groups: Dict[int, List[Tuple[np.ndarray, int]]],
    block_bufs: Dict[int, np.ndarray],
    lead: Tuple[int, ...],
    r0: int,
    mats: np.ndarray,
) -> None:
    """Count matrices of the ``len(mats)`` scan rows from row ``r0``.

    ``mats`` is ``(rows, row_len, G*G)``.  Per group: gather every code
    hyperplane of every row into the pooled block buffer, shifted into
    disjoint per-(row, plane) histogram segments in the same pass,
    histogram them with one ``bincount``.  GLCM ``t`` of a row is the
    sum over groups of planes ``[t, t + W_t)``; narrower groups are
    folded into the wider histograms first, so the sliding sums run once
    over the combined planes instead of once per group.
    """
    rb, row_len, gg = mats.shape
    idx = np.unravel_index(np.arange(r0, r0 + rb), lead) if lead else None
    terms: List[np.ndarray] = []
    acc_w, acc = 0, None
    for wt, members in groups.items():
        n_planes = row_len - 1 + wt
        block = block_bufs[wt][:rb]
        shift = pair_shift(rb * n_planes, gg).reshape(rb, n_planes, 1)
        off = 0
        for view, face in members:
            src = view[idx] if idx is not None else view[np.newaxis]
            np.add(
                src.reshape(rb, n_planes, face),
                shift,
                out=block[:, :, off : off + face],
            )
            off += face
        h = np.bincount(
            block.reshape(-1), minlength=rb * n_planes * gg
        ).reshape(rb, n_planes, gg)
        if acc is not None:
            # Groups arrive widest first.  Fold this one in:
            # win_a(A) + win_b(B) = win_b(A[:, :n+b-1] + B) + win_{a-b}(A[:, b:])
            terms.append(_window_sum(acc[:, wt:], acc_w - wt, row_len))
            h += acc[:, :n_planes]
        acc_w, acc = wt, h
    if acc is None:
        mats.fill(0)  # no direction fits the window
        return
    terms.extend(_window_terms(acc, acc_w, row_len))
    if len(terms) == 1:
        np.copyto(mats, terms[0])
        return
    np.add(terms[0], terms[1], out=mats)
    for t in terms[2:]:
        mats += t


def incremental_scan(
    data: np.ndarray,
    roi: ROISpec,
    levels: int,
    directions: Optional[Sequence[Direction]] = None,
    distance: int = 1,
    batch: int = 2048,
    symmetric: bool = True,
    validate: bool = True,
) -> Iterator[Tuple[int, np.ndarray]]:
    """Incremental (rolling) raster scan along the planned axis.

    Same yield contract and bit-identical matrices as
    :func:`~repro.core.cooccurrence.cooccurrence_scan`; see the module
    docstring for the algorithm and complexity.
    """
    data = np.asarray(data)
    if validate:
        check_levels(data, levels)
    else:
        num_levels_ok(levels)
    if data.ndim != roi.ndim:
        raise ValueError(f"data ndim {data.ndim} != ROI ndim {roi.ndim}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    grid = valid_positions_shape(data.shape, roi)
    npos = math.prod(grid)
    dirs = resolve_directions(data.ndim, directions, distance)
    plan = rolling_plan(data.shape, roi, tuple(dirs), levels)
    order = plan.order
    # Roll along the planned axis by making it innermost.  The pair (a at
    # p, b at p + v) keeps its code a*G + b under the permutation, so the
    # counts are unchanged for either ``symmetric``.
    groups = _rolling_groups(
        np.ascontiguousarray(data.transpose(order)),
        tuple(roi.shape[i] for i in order),
        levels,
        [tuple(v[i] for i in order) for v in dirs],
    )
    gg = levels * levels
    row_len = grid[plan.axis]
    lead = tuple(grid[i] for i in order[:-1])
    slab_rows = plan.slab_rows
    n_slabs = npos // (row_len * slab_rows)
    per_block = min(plan.slabs_per_block, n_slabs)
    block_bufs = {
        wt: np.empty(
            (per_block * slab_rows, row_len - 1 + wt,
             sum(face for _view, face in members)),
            dtype=np.int64,
        )
        for wt, members in groups.items()
    }
    mats_buf = np.empty((per_block * slab_rows, row_len, gg), dtype=np.int64)

    def restore_order(m: np.ndarray, out: np.ndarray) -> np.ndarray:
        # Whole slabs: one transpose of (slab row, position along the
        # axis) restores raster order, and symmetrizes in the same pass.
        m = m.reshape(-1, slab_rows, row_len, levels, levels)
        dst = out.reshape(m.shape[0], row_len, slab_rows, levels, levels)
        if symmetric:
            np.add(
                m.transpose(0, 2, 1, 3, 4), m.transpose(0, 2, 1, 4, 3), out=dst
            )
        else:
            np.copyto(dst, m.transpose(0, 2, 1, 3, 4))
        return out

    emit_start = 0
    out: Optional[np.ndarray] = None
    fill = 0
    for s0 in range(0, n_slabs, per_block):
        m = mats_buf[: min(per_block, n_slabs - s0) * slab_rows]
        _rolling_block(groups, block_bufs, lead, s0 * slab_rows, m)
        # The block's matrices go straight into the output batch when
        # they fit; a block straddling batches is staged once.
        n = m.shape[0] * row_len
        staged = None
        pos = 0
        while pos < n:
            if out is None:
                out = np.empty(
                    (min(batch, npos - emit_start), levels, levels), np.int64
                )
                fill = 0
            take = min(out.shape[0] - fill, n - pos)
            if take == n:
                restore_order(m, out[fill : fill + n])
            else:
                if staged is None:
                    staged = restore_order(
                        m, np.empty((n, levels, levels), np.int64)
                    )
                out[fill : fill + take] = staged[pos : pos + take]
            fill += take
            pos += take
            if fill == out.shape[0]:
                yield emit_start, out
                emit_start += fill
                out = None


def _gpu_scan(
    data: np.ndarray,
    roi: ROISpec,
    levels: int,
    directions: Optional[Sequence[Direction]] = None,
    distance: int = 1,
    batch: int = 2048,
    symmetric: bool = True,
    validate: bool = True,
) -> Iterator[Tuple[int, np.ndarray]]:
    """Registry shim for the import-guarded GPU backend.

    Deferring the :mod:`repro.core.gpu` import keeps device probing (and
    the optional CuPy/Numba imports behind it) off this module's import
    path.
    """
    from .gpu import gpu_scan

    return gpu_scan(
        data, roi, levels, directions, distance,
        batch=batch, symmetric=symmetric, validate=validate,
    )


_REGISTRY: Dict[str, ScanKernel] = {
    "batched": cooccurrence_scan,
    "gpu": _gpu_scan,
    "incremental": incremental_scan,
    "reference": reference_scan,
}

#: Names of the selectable scan backends.
KERNELS: Tuple[str, ...] = tuple(sorted(_REGISTRY))

#: One-line description per backend (the ``repro kernels`` listing).
KERNEL_INFO: Dict[str, str] = {
    "batched": "vectorized windowed bincount; O(ROI volume) codes per "
               "ROI per direction",
    "gpu": "CuPy (or Numba-CUDA) pair-code scatter on a CUDA device; "
           "falls back to incremental without one",
    "incremental": "rolling hyperplane histograms along the cheapest "
                   "axis (default); O(ROI face) codes per ROI",
    "reference": "paper Fig. 2 loop, one window at a time; ground "
                 "truth, slow",
}


def get_kernel(name: str) -> ScanKernel:
    """Resolve a backend name to its scan generator.

    Unknown names raise ``ValueError`` with the closest registered name
    suggested, so a typo'd ``--kernel`` is a one-glance fix.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        import difflib

        close = difflib.get_close_matches(str(name), KERNELS, n=1)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        raise ValueError(
            f"unknown scan kernel {name!r}{hint} (valid kernels: {KERNELS})"
        ) from None


def resolve_scan_kernel(name: str):
    """Resolve a kernel plus its fallback disposition, for the filters.

    Returns ``(scan, fallback)`` where ``fallback`` is ``None`` for a
    kernel that will run as requested, or an attrs dict describing the
    substitution (``requested``/``used``/``reason``) when ``"gpu"`` was
    asked for on a machine without a usable device — the filters emit it
    as a ``kernel.fallback`` obs event so degraded runs are diagnosable
    from the trace alone.
    """
    scan = get_kernel(name)
    if name == "gpu":
        from .gpu import probe_gpu

        probe = probe_gpu()
        if not probe.available:
            return scan, {
                "requested": "gpu",
                "used": "incremental",
                "reason": probe.detail,
            }
    return scan, None
