"""Measuring process: one fresh interpreter per role, started by run.py.

Roles (``python3 perfbench/measure.py <role> <spec.json> <out.json>``):

``setup``   time importing ``repro`` plus ``prepare_pipeline`` +
            ``build_runtime``; nothing is imported before the clock.
``e2e``     the untraced, timed closed loop for ``--seconds``.
``traced``  an untraced and a traced pipeline run, the AnalysisService
            traffic, and the layer replay.

The spec names the workload, the datasets, the reference volumes and
the run length; the result is written as JSON to ``out.json``.
"""

import json
import sys
import time


def _setup(spec):
    t0 = time.perf_counter()
    import workloads
    from repro.pipeline import build_runtime, prepare_pipeline

    w = workloads.WORKLOADS[spec["workload"]]
    prepared = prepare_pipeline(spec["dataset"], w.config)
    rt = build_runtime(prepared.graph, **w.runtime_kwargs())
    dt = time.perf_counter() - t0
    rt.close()
    prepared.close()
    return {"setup_s": dt}


def _load(path):
    import numpy as np

    with np.load(path) as z:
        return {k: z[k] for k in z.files}


def _batch_runs(ref, seconds, prepared, rt):
    """Closed loop, one run at a time, until ``seconds`` have passed."""
    from repro.pipeline import execute_pipeline
    from workloads import error_text, mismatch

    rois = int(next(iter(ref.values())).size)
    runs = []
    t_start = time.perf_counter()
    while not runs or time.perf_counter() - t_start < seconds:
        t0 = time.perf_counter()
        try:
            result = execute_pipeline(prepared, rt)
        except Exception as exc:  # a failed run is a measured outcome
            runs.append({"s": time.perf_counter() - t0, "ok": False,
                         "rois": 0, "error": error_text(exc)})
            continue
        dt = time.perf_counter() - t0
        bad = mismatch(result.volumes, ref)
        runs.append({"s": dt, "ok": bad is None, "rois": rois if bad is None else 0,
                     "error": None if bad is None else f"output mismatch: {bad}"})
    return runs


def _e2e(spec):
    import workloads
    from repro.pipeline import build_runtime, prepare_pipeline

    w = workloads.WORKLOADS[spec["workload"]]
    ref = _load(spec["ref"])
    prepared = prepare_pipeline(spec["dataset"], w.config)
    try:
        with build_runtime(prepared.graph, **w.runtime_kwargs()) as rt:
            # One unmeasured run: first fork, page cache and lazy imports.
            warmup = _batch_runs(ref, 0, prepared, rt)
            runs = _batch_runs(ref, spec["seconds"], prepared, rt)
    finally:
        prepared.close()
    return {"runs": runs, "warmup": warmup}


def _service_traffic(seed, studies, refs):
    """Open loop into a cold AnalysisService; jobs timed from their due time."""
    import threading

    import workloads
    from repro.service import AnalysisRequest, AnalysisService, ServiceConfig

    jobs = workloads.service_jobs(seed)
    records = [None] * len(jobs)
    waiters = []

    def wait(i, job, handle, due):
        handle.wait()
        rec = {"latency_s": time.perf_counter() - due, "ok": False, "error": None,
               "queue_wait_s": None}
        try:
            res = handle.result(timeout=0)
        except Exception as exc:
            rec["error"] = workloads.error_text(exc)
        else:
            bad = workloads.mismatch(res.volumes, refs[job.study])
            rec.update(ok=bad is None, queue_wait_s=res.queue_wait,
                       error=None if bad is None else f"output mismatch: {bad}")
        records[i] = rec

    config = ServiceConfig(tenant_weights=dict(workloads.TENANT_WEIGHTS))
    late = []
    with AnalysisService(config) as svc:
        start = time.perf_counter() + 0.05
        for i, job in enumerate(jobs):
            due = start + job.due
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            late.append(time.perf_counter() - due)
            req = AnalysisRequest(studies[job.study], workloads.job_config(job.features),
                                  tenant=job.tenant)
            try:
                handle = svc.submit(req)
            except Exception as exc:  # refused at admission
                records[i] = {"latency_s": None, "ok": False,
                              "error": workloads.error_text(exc),
                              "queue_wait_s": None}
                continue
            t = threading.Thread(target=wait, args=(i, job, handle, due))
            t.start()
            waiters.append(t)
        for t in waiters:
            t.join()
        wall = time.perf_counter() - start
        stats = svc.stats()
    return {"jobs": records, "wall_s": wall, "late_s": late,
            "cache": stats["cache"], "pool": stats["pool"],
            "counters": stats["metrics"]["counters"]}


def _traced(spec):
    import replay
    import workloads

    w = workloads.WORKLOADS[spec["workload"]]
    ref = _load(spec["ref"])
    out = {"pipeline": replay.pipeline_layers(w, spec["dataset"], ref)}
    if w.config.variant == "split":
        out["split_sparse"] = replay.attempt(workloads.SPLIT_SPARSE, spec["dataset"], ref)
    out["traffic"] = _service_traffic(spec["seed"], spec["studies"],
                                      [_load(p) for p in spec["study_refs"]])
    out["replay"] = replay.layer_replay(w, spec["dataset"], ref)
    return out


ROLES = {"setup": _setup, "e2e": _e2e, "traced": _traced}


def main(argv):
    role, spec_path, out_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = ROLES[role](spec)
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
