"""Per-layer metrics of the traced run, and what each should move.

Layers are the repo's modules.  ``LAYER_METRICS`` records, for every
per-layer metric, its unit, which direction is better, and the
end-to-end metric and workloads it is expected to move.
"""

from __future__ import annotations

import statistics
from typing import Dict

FILTERS = ("RFR", "IIC", "HMP", "HCC", "HPC", "HIC")
#: RFR is the source filter: it has no input queue to wait on.
QUEUED_FILTERS = FILTERS[1:]

_CORE = "run_s, rois_per_s on paper-hmp (dominant) and split-full-dist; barely the service's job p50"
_SPARSE = "run_s on the split + sparse configuration (Fig. 7b), today a failing run"
_NET = "run_s on split-full-dist; no effect on paper-hmp"
_FILTERS = "run_s on every batch workload"
_IO = "run_s on paper-hmp, where they stay under 3%"
_SETUP = "setup_s on every workload"
_SERVICE = "the service traffic's job p50, tail and jobs/s (traced report); not run_s"

#: name -> (unit, better, end-to-end metric and workloads it should move)
LAYER_METRICS: Dict[str, tuple] = {
    "core.cooccur_s": ("s", "lower", _CORE),
    "core.features_s": ("s", "lower", _CORE),
    "core.quantize_s": ("s", "lower", _CORE),
    "core.rois": ("count", "higher", _CORE),
    "core.pair_updates": ("count", "lower", _CORE + " (computed from array sizes)"),
    "core.glcm_mb": ("MB", "lower", _CORE + " (computed from array sizes)"),
    "core.sparse_convert_s": ("s", "lower", _SPARSE),
    "core.sparse_features_s": ("s", "lower", _SPARSE),
    "core.sparse_nnz_mean": ("count", "lower", _SPARSE),
    "net.encode_s": ("s", "lower", _NET),
    "net.decode_s": ("s", "lower", _NET),
    "net.sparse_codec_s": ("s", "lower", _SPARSE),
    "net.frames": ("count", "lower", _NET),
    "net.failed": ("count", "lower", _SPARSE + ": its codec refusals"),
    "datacutter.wire_mb": ("MB", "lower", _NET),
    "datacutter.shm_mb": ("MB", "lower", _NET),
    "datacutter.buffers": ("count", "lower", _FILTERS),
    "datacutter.retries": ("count", "lower", _FILTERS),
    "datacutter.unattributed_frac": ("ratio", "lower", _FILTERS),
    **{f"filters.{f}.busy_s": ("s", "lower", _FILTERS) for f in FILTERS},
    **{f"filters.{f}.queue_wait_s": ("s", "lower", _FILTERS) for f in QUEUED_FILTERS},
    "storage.read_s": ("s", "lower", _IO),
    "storage.read_mb": ("MB", "lower", _IO),
    "chunks.count": ("count", "lower", _IO),
    "chunks.read_amplification": ("ratio", "lower", _IO),
    "chunks.stitch_s": ("s", "lower", _IO),
    "regions.reuse_frac": ("ratio", "higher", _IO),
    "pipeline.prepare_s": ("s", "lower", _SETUP),
    "pipeline.build_s": ("s", "lower", _SETUP),
    "pipeline.collect_s": ("s", "lower", _SETUP),
    "pipeline.close_s": ("s", "lower", _SETUP),
    "service.cache_hit_rate": ("ratio", "higher", _SERVICE),
    "service.queue_wait_s": ("s", "lower", _SERVICE),
    "service.pool_builds": ("count", "lower", _SERVICE),
    "service.pool_reuses": ("count", "higher", _SERVICE),
    "service.pipeline_runs": ("count", "lower", _SERVICE),
    "service.batched_jobs": ("count", "higher", _SERVICE),
    "service.rejected": ("count", "lower", _SERVICE),
    "bench.generator_late_s": ("s", "lower", _SERVICE),
    "bench.trace_overhead_s": ("s", "lower", "none: traced minus untraced run_s"),
    "bench.replay_span_frac": ("ratio", "higher", "none: replay wall time the layer spans cover"),
}


def per_layer(traced: Dict) -> Dict[str, float]:
    """Per-layer values from a ``measure.py traced`` result.

    A filter absent from the workload's graph reads 0.
    """
    pipe, rep = traced["pipeline"], traced["replay"]
    spans, counts = rep["spans"], rep["counts"]
    out = {
        "core.cooccur_s": spans["core.cooccur"],
        "core.features_s": spans["core.features"],
        "core.quantize_s": spans["core.quantize"],
        "core.rois": counts["rois"],
        "core.pair_updates": rep["pair_updates"],
        "core.glcm_mb": counts["glcm_bytes"] / 1e6,
        "core.sparse_convert_s": spans["core.sparse_convert"],
        "core.sparse_features_s": spans["core.sparse_features"],
        "core.sparse_nnz_mean": counts["nnz"] / counts["rois"],
        "net.encode_s": spans["net.encode"],
        "net.decode_s": spans["net.decode"],
        "net.sparse_codec_s": spans.get("net.encode_sparse", 0.0)
        + spans.get("net.decode_sparse", 0.0),
        "net.frames": counts["frames"],
        "net.failed": counts.get("failed", 0),
        "datacutter.wire_mb": pipe["wire_mb"],
        "datacutter.shm_mb": pipe["shm_mb"],
        "datacutter.buffers": pipe["buffers"],
        "datacutter.retries": pipe["retries"],
        "datacutter.unattributed_frac": pipe["unattributed"]["all"],
        "storage.read_s": spans["storage.read"] + spans["storage.open"],
        "storage.read_mb": counts["bytes_read"] / 1e6,
        "chunks.count": counts["chunks"],
        "chunks.read_amplification": counts["bytes_read"] / counts["dataset_bytes"],
        "chunks.stitch_s": spans["chunks.stitch"],
        "regions.reuse_frac": counts["hit_voxels"] / counts["chunk_voxels"],
        "pipeline.prepare_s": pipe["spans"]["pipeline.prepare"],
        "pipeline.build_s": pipe["spans"]["pipeline.build"],
        "pipeline.collect_s": pipe["spans"]["pipeline.collect"],
        "pipeline.close_s": pipe["spans"]["pipeline.close"],
        "bench.trace_overhead_s": pipe["traced_s"] - pipe["untraced_s"],
        "bench.replay_span_frac": rep["span_frac"],
    }
    for f in FILTERS:
        out[f"filters.{f}.busy_s"] = pipe["busy_s"][f]
    for f in QUEUED_FILTERS:
        out[f"filters.{f}.queue_wait_s"] = pipe["queue_wait_s"][f]
    traffic = traced["traffic"]
    counters = traffic["counters"]
    waits = [j["queue_wait_s"] for j in traffic["jobs"] if j["queue_wait_s"] is not None]
    out.update({
        "service.cache_hit_rate": traffic["cache"]["hit_rate"],
        "service.queue_wait_s": statistics.median(waits) if waits else 0.0,
        "service.pool_builds": traffic["pool"]["builds"],
        "service.pool_reuses": traffic["pool"]["reuses"],
        "service.pipeline_runs": counters.get("service_runs", 0),
        "service.batched_jobs": counters.get("service_batched_jobs", 0),
        "service.rejected": sum(v for k, v in counters.items()
                                if k.startswith("service_rejected")),
        "bench.generator_late_s": max(traffic["late_s"]),
    })
    return out
