"""Benchmark of the 4-D Haralick pipeline at the paper configuration.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-hmp --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the
per-layer ones (see ``BENCHMARK.json`` and ``perfbench/README.md``).
Inputs are generated from ``--seed``; every output is checked
bit-identical against the sequential ``transform_disk_dataset``
reference, computed once per run outside any timed region.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a
JSON report with the environment stamp, sample counts and failures.

All measuring happens in fresh child processes (``measure.py``); this
process generates inputs, computes the reference, samples the children's
resident memory from outside, and writes only under ``.perfbench-work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Fresh-process set-up samples per run; setup_s is their median.
SETUP_SAMPLES = 7
#: Wall-clock cap on one measuring child.
CHILD_TIMEOUT_S = 150.0
#: Memory sampling period; sampling /proc costs this process CPU the
#: measured runs would otherwise get, so it is kept coarse.
RSS_POLL_S = 0.1


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# -- environment stamp --------------------------------------------------------


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_sha256() -> str:
    """Content hash of src/, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# -- child processes ----------------------------------------------------------


def _session_rss_bytes(sid: int) -> int:
    """Resident bytes of every live process in session ``sid``."""
    page = os.sysconf("SC_PAGE_SIZE")
    total = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
            # Fields after the parenthesised command: state ppid pgrp session.
            if int(stat.rsplit(")", 1)[1].split()[3]) != sid:
                continue
            with open(f"/proc/{entry}/statm") as fh:
                total += int(fh.read().split()[1]) * page
        except (OSError, IndexError, ValueError):
            continue  # exited while being read
    return total


def host_steal_s() -> float:
    """CPU seconds the hypervisor has taken from this machine so far.

    Reported next to the timings: on a shared virtual machine, a run that
    lost CPU to other tenants shows up here rather than as a regression.
    """
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _reap(proc: subprocess.Popen) -> None:
    """Stop the child's whole session and wait for the child."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_child(role: str, spec_path: Path, work: Path):
    """Run ``measure.py <role>`` in its own session.

    Returns the child's result and the peak resident bytes of the child
    and all its descendants, sampled from outside.
    """
    out_path = work / f"{role}-{time.monotonic_ns()}.json"
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "measure.py"), role, str(spec_path), str(out_path)],
        cwd=ROOT, stdout=sys.stderr, start_new_session=True,
    )
    peak = 0
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        while proc.poll() is None:
            if time.monotonic() > deadline:
                raise RuntimeError(f"{role} child exceeded {CHILD_TIMEOUT_S:.0f} s")
            peak = max(peak, _session_rss_bytes(proc.pid))
            time.sleep(RSS_POLL_S)
    finally:
        _reap(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} child exited with code {proc.returncode}")
    with open(out_path) as fh:
        return json.load(fh), peak


# -- statistics ---------------------------------------------------------------


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, label)``; with fewer than eleven samples no such
    percentile exists and the maximum is reported, labelled ``"max"``.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], "max"
    return xs[n - 11], f"p{math.floor(100 * (n - 10) / n)}"


def batch_metrics(res: dict) -> dict:
    """End-to-end figures of the closed loop; a failed run completes 0 ROIs."""
    runs = res["runs"]
    ok = [r for r in runs if r["ok"]]
    times = [r["s"] for r in (ok or runs)]
    run_tail, tail_label = tail(times)
    return {
        "attempted": len(runs),
        "failed": len(runs) - len(ok),
        "failed_frac": (len(runs) - len(ok)) / len(runs),
        "errors": sorted({r["error"] for r in runs + res["warmup"] if r["error"]}),
        "run_s": statistics.median(times),
        "run_s_n": len(times),
        "run_s_tail": run_tail,
        "run_s_tail_label": tail_label,
        # ROIs completed per attempted run, per second of median run time.
        "rois_per_s": sum(r["rois"] for r in runs) / len(runs) / statistics.median(times),
    }


def traffic_summary(res: dict) -> dict:
    """Latency of the service traffic, timed from each job's due time."""
    jobs = res["jobs"]
    ok = [j for j in jobs if j["ok"]]
    latencies = [j["latency_s"] if j["ok"] else math.inf for j in jobs]
    job_tail, tail_label = tail(latencies)
    return {
        "attempted": len(jobs),
        "failed": len(jobs) - len(ok),
        "failed_frac": (len(jobs) - len(ok)) / len(jobs),
        "errors": sorted({j["error"] for j in jobs if j["error"]}),
        "jobs_per_s": len(ok) / res["wall_s"],
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": job_tail,
        "job_tail_label": tail_label,
        "generator_late_max_s": max(res["late_s"]),
    }


# -- main ---------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _save_reference(config, root: str, path: Path) -> str:
    """Sequential reference volumes of one dataset, saved for the children."""
    import numpy as np
    from repro.pipeline import transform_disk_dataset

    np.savez(path, **transform_disk_dataset(root, config))
    return str(path)


def measure_e2e(spec_path: Path, work: Path):
    setups = [run_child("setup", spec_path, work)[0]["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    steal0 = host_steal_s()
    res, peak = run_child("e2e", spec_path, work)
    m = batch_metrics(res)
    m["host_steal_s"] = host_steal_s() - steal0
    m["setup_s_samples"] = setups
    # Reported, not a bounded metric: on split-full-dist it swings by more
    # than any bound allows, because the number of 25 MB matrix packets in
    # flight at once differs from run to run.
    m["peak_rss_mb"] = peak / 1e6
    values = {
        "run_s": m["run_s"],
        "rois_per_s": m["rois_per_s"],
        "setup_s": statistics.median(setups),
    }
    correct = m["failed"] == 0 and not m["errors"]
    return values, m["attempted"], m["failed"], correct, {"end_to_end": m}


def measure_traced(spec_path: Path, work: Path):
    import layers

    traced, _ = run_child("traced", spec_path, work)
    pipe = traced["pipeline"]
    attempted, failed = 2, int(not pipe["ok"])
    correct = pipe["ok"] and traced["replay"]["ok"]
    report = {
        "untraced_run_s": pipe["untraced_s"],
        "traced_run_s": pipe["traced_s"],
        "unattributed_by_filter": pipe["unattributed"],
        "replay_wall_s": traced["replay"]["wall_s"],
        "replay_spans_s": traced["replay"]["spans"],
    }
    if "split_sparse" in traced:
        # Paper Fig. 7b's configuration: recorded as raised, not a workload.
        report["split_sparse_attempt"] = traced["split_sparse"]
    summary = traffic_summary(traced["traffic"])
    report["service_traffic"] = summary
    attempted += summary["attempted"]
    failed += summary["failed"]
    correct = correct and summary["failed"] == 0
    return layers.per_layer(traced), attempted, failed, correct, report


def main(argv) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no repro package under {SRC}; run from a checkout of the repository")
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            declared = json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]

    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    # Inherited by the children: temporary files stay inside the checkout.
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    try:
        dataset = workloads.make_dataset(args.seed, str(work / "data"))
        spec = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
                "dataset": dataset,
                "ref": _save_reference(w.config, dataset, work / "ref.npz")}
        if args.trace:
            studies = workloads.make_studies(args.seed, str(work / "data"))
            spec["studies"] = studies
            spec["study_refs"] = [
                _save_reference(workloads.SERVICE_MIX.config, root, work / f"study_ref{i}.npz")
                for i, root in enumerate(studies)]
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec))
        measure = measure_traced if args.trace else measure_e2e
        values, attempted, failed, correct, extra = measure(spec_path, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    missing = [d["name"] for d in wanted if d["name"] not in values]
    if missing:
        fail(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    report = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(), **extra}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {d["name"]: {"value": float(values[d["name"]]), "unit": d["unit"]}
                    for d in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
