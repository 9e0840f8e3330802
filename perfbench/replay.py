"""Per-layer measurement for the traced run.

Spans are recorded here, in the benchmark, around calls into each
layer's public functions; nothing inside ``repro`` is instrumented for
the benchmark.  Two sources feed the per-layer metrics:

* :func:`pipeline_layers` runs the workload's pipeline untraced (after a
  warm-up run) and once with ``trace=True``: pipeline phase spans,
  per-filter busy and queue-wait seconds from the runtime's own metrics,
  transport bytes, and the share of copy lifetime no runtime span covers.
* :func:`layer_replay` drives the layers one call at a time over the
  workload's chunks (read, quantize, scan, features, sparse conversion,
  codec, stitch, staged read), so co-occurrence and feature time are
  measured apart; the sequential path times them as one fused call.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict

import numpy as np

from repro.chunks.stitch import OutputStitcher
from repro.core.backends import get_kernel
from repro.core.cooccurrence import resolve_directions
from repro.core.features import haralick_features
from repro.core.features_sparse import batch_features_from_sparse
from repro.core.sparse import batch_sparse_from_dense
from repro.datacutter.net.codec import CodecError, dumps, loads
from repro.filters.messages import FeaturePortion, MatrixPacket, TextureChunk
from repro.pipeline import build_runtime, execute_pipeline, plan_chunks, prepare_pipeline
from repro.pipeline.run import collect_volumes
from repro.regions import RegionStore, StagingPolicy, read_chunk_staged
from repro.storage.dataset import DiskDataset4D

from layers import FILTERS, QUEUED_FILTERS
from workloads import error_text, mismatch


class Spans:
    """Named wall-clock spans, totalled per name."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)

    @contextmanager
    def __call__(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - t0


def _union_length(intervals, lo: float, hi: float) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def unattributed(events) -> Dict[str, float]:
    """Share of copy lifetime covered by neither a service nor a queue.wait
    span, overall and per filter (lifetime from copy.start to copy.done)."""
    start, end, spans = {}, {}, defaultdict(list)
    for ev in events:
        key = (ev.filter, ev.copy)
        if ev.kind == "copy.start":
            start[key] = ev.ts
        elif ev.kind == "copy.done":
            end[key] = ev.ts
        elif ev.kind in ("service", "queue.wait"):
            spans[key].append((ev.ts - ev.dur, ev.ts))
    life, bare = defaultdict(float), defaultdict(float)
    for key in start.keys() & end.keys():
        lo, hi = start[key], end[key]
        life[key[0]] += hi - lo
        bare[key[0]] += (hi - lo) - _union_length(spans[key], lo, hi)
    total = sum(life.values())
    out = {f: bare[f] / life[f] for f in life if life[f] > 0}
    out["all"] = sum(bare.values()) / total if total > 0 else 0.0
    return out


def _hist_sum(metrics, name: str, filt: str) -> float:
    return float(metrics["histograms"].get(f"{name}{{filter={filt}}}", {}).get("sum", 0.0))


def pipeline_layers(workload, root: str, ref) -> Dict[str, object]:
    """A warm untraced run and a traced run of the workload's pipeline."""
    sp = Spans()
    kw = workload.runtime_kwargs()
    with sp("pipeline.prepare"):
        prepared = prepare_pipeline(root, workload.config)
    with build_runtime(prepared.graph, **kw) as plain:
        execute_pipeline(prepared, plain)  # warm-up, as in the untraced loop
        t0 = time.perf_counter()
        untraced_ok = mismatch(execute_pipeline(prepared, plain).volumes, ref) is None
        untraced_s = time.perf_counter() - t0
    with sp("pipeline.build"):
        rt = build_runtime(prepared.graph, trace=True, **kw)
    try:
        t0 = time.perf_counter()
        with sp("pipeline.run"):
            run = rt.run()
        with sp("pipeline.collect"):
            volumes = collect_volumes(prepared, run)
        traced_s = time.perf_counter() - t0
    finally:
        with sp("pipeline.close"):
            rt.close()
            prepared.close()
    m = run.metrics
    return {
        "ok": untraced_ok and mismatch(volumes, ref) is None,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": dict(sp.seconds),
        "busy_s": {f: _hist_sum(m, "busy_seconds", f) for f in FILTERS},
        "queue_wait_s": {f: _hist_sum(m, "queue_wait_seconds", f) for f in QUEUED_FILTERS},
        "buffers": int(sum(run.buffers_sent.values())),
        "retries": int(run.retries),
        "wire_mb": sum(run.wire_bytes.values()) / 1e6,
        "shm_mb": sum(run.shm_bytes.values()) / 1e6,
        "unattributed": unattributed(run.trace.events),
    }


def attempt(workload, root: str, ref) -> Dict[str, object]:
    """One run of ``workload``; a failure is reported as raised."""
    prepared = prepare_pipeline(root, workload.config)
    t0 = time.perf_counter()
    try:
        with build_runtime(prepared.graph, **workload.runtime_kwargs()) as rt:
            result = execute_pipeline(prepared, rt)
    except Exception as exc:
        return {"ok": False, "s": time.perf_counter() - t0, "error": error_text(exc)}
    finally:
        prepared.close()
    return {"ok": mismatch(result.volumes, ref) is None, "s": time.perf_counter() - t0,
            "error": None}


def _pair_updates_per_roi(params) -> int:
    """GLCM cell increments one ROI costs in the paper's per-ROI loop."""
    roi = params.roi_shape
    pairs = 0
    for d in resolve_directions(len(roi), None, params.distance):
        n = 1
        for r, o in zip(roi, d):
            n *= max(0, r - abs(o))
        pairs += n
    return 2 * pairs  # symmetric: (i, j) and (j, i)


def _codec(sp: Spans, layer: str, obj) -> bool:
    """Encode and decode one payload; False when the codec refuses it."""
    try:
        with sp(f"net.encode{layer}"):
            frame = dumps(obj)
    except CodecError:
        return False
    with sp(f"net.decode{layer}"):
        loads(frame)
    return True


def layer_replay(workload, root: str, ref) -> Dict[str, object]:
    """Drive each layer call by call over the workload's chunks."""
    params = workload.config.texture
    split = workload.config.variant == "split"
    scan = get_kernel(params.kernel)
    sp = Spans()
    counts = defaultdict(int)
    ok = True
    t_start = time.perf_counter()
    with sp("storage.open"):
        ds = DiskDataset4D.open(root)
    with sp("chunks.plan"):
        chunks = plan_chunks(ds.shape, workload.config)
    with sp("chunks.stitch"):
        stitcher = OutputStitcher(ds.shape, params.roi, params.features)
    counts["chunks"] = len(chunks)
    for chunk in chunks:
        with sp("storage.read"):
            data = ds.read_chunk(*zip(chunk.lo, chunk.hi))
        with sp("core.quantize"):
            q = params.quantize(data)
        counts["frames"] += 1
        counts["failed"] += not _codec(sp, "", TextureChunk(chunk=chunk, data=data))
        grid = tuple(s - r + 1 for s, r in zip(chunk.shape, params.roi_shape))
        local = {f: np.empty(int(np.prod(grid))) for f in params.features}
        packets = scan(q, params.roi, params.levels, distance=params.distance,
                       batch=params.packet_rois(chunk), validate=False)
        while True:
            with sp("core.cooccur"):
                item = next(packets, None)
            if item is None:
                break
            start, mats = item
            with sp("core.features"):
                vals = haralick_features(mats, params.features)
            with sp("core.sparse_convert"):
                sparse = batch_sparse_from_dense(mats)
                counts["nnz"] += sum(s.nnz for s in sparse)
            with sp("core.sparse_features"):
                svals = batch_features_from_sparse(sparse, params.features)
            ok = ok and mismatch(svals, vals) is None
            counts["rois"] += len(mats)
            counts["glcm_bytes"] += mats.nbytes
            shipped = [FeaturePortion(chunk=chunk, start=start, values=vals)]
            if split:
                shipped.append(MatrixPacket(chunk=chunk, start=start, dense=mats))
            for obj in shipped:
                counts["frames"] += 1
                counts["failed"] += not _codec(sp, "", obj)
            # The same packet in Fig. 7b's sparse form.
            counts["failed"] += not _codec(
                sp, "_sparse", MatrixPacket(chunk=chunk, start=start, sparse=sparse))
            for f in params.features:
                local[f][start:start + len(mats)] = vals[f]
        with sp("chunks.stitch"):
            stitcher.place(chunk, {f: a.reshape(grid) for f, a in local.items()})
    counts["bytes_read"] = ds.stats.bytes_read
    counts["dataset_bytes"] = int(np.prod(ds.shape)) * ds.bytes_per_pixel
    ok = ok and mismatch(stitcher.result(), ref) is None
    with sp("regions.stage"):
        store = RegionStore.from_policy(StagingPolicy(disk_bytes=0))
    for chunk in chunks:
        with sp("regions.stage"):
            _, report = read_chunk_staged(ds, chunk, store)
        counts["hit_voxels"] += report.hit_voxels
        counts["chunk_voxels"] += chunk.num_voxels
    with sp("regions.stage"):
        store.close()
    wall = time.perf_counter() - t_start
    return {
        "ok": ok,
        "wall_s": wall,
        "span_frac": sum(sp.seconds.values()) / wall,
        "spans": dict(sp.seconds),
        "counts": dict(counts),
        "pair_updates": counts["rois"] * _pair_updates_per_roi(params),
    }
