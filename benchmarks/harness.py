"""Shared helpers for the figure-reproduction benchmarks.

Each ``bench_fig*.py`` module reproduces one table or figure of the
paper's evaluation (Section 5): it runs the corresponding experiment
(full paper-scale workload on the simulated testbeds, or real kernels
for the compute-level claims), prints the series the paper plots, and
records the numbers in ``benchmarks/results/`` for EXPERIMENTS.md.

Absolute times are *simulated seconds* on the modeled 2004 hardware —
the claim under test is the shape (who wins, by what factor, where
curves cross), not the absolute scale.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from typing import Dict, List, Optional, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def record(name: str, rows: List[Dict]) -> None:
    """Persist a result series for the experiment log."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.json"), "w") as fh:
        json.dump(rows, fh, indent=1)


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_sha256() -> str:
    """Content hash of ``src/``: identifies the code even without git."""
    src = os.path.join(REPO_ROOT, "src")
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> Dict:
    """Where a result was measured: code identity, CPU and versions."""
    import numpy

    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "nproc": (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count()
        ),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def record_repo_json(filename: str, payload: Dict) -> str:
    """Write a machine-readable result file at the repository root.

    Used for headline numbers that gate CI or document the repo's
    current performance (e.g. ``BENCH_kernels.json``), as opposed to
    the per-figure series under ``benchmarks/results/``.  Every file is
    stamped with an ``env`` block (:func:`environment`), so results
    stay comparable across commits and machines.
    """
    path = os.path.join(REPO_ROOT, filename)
    with open(path, "w") as fh:
        json.dump(
            dict(payload, env=environment()), fh, indent=1, sort_keys=True
        )
        fh.write("\n")
    return path


def metrics_summary(metrics: Dict) -> Dict[str, float]:
    """Compact one-level summary of a run's obs metrics snapshot.

    Flattens the pieces worth keeping next to a benchmark number —
    per-filter busy totals, buffers per stream, fault counters — into a
    flat ``{key: number}`` dict that fits in ``benchmark.extra_info``.
    """
    out: Dict[str, float] = {}
    for key, value in (metrics.get("counters") or {}).items():
        if key.startswith(("buffers_sent", "retries", "reroutes",
                           "failed_copies", "wire_frames")):
            out[key] = value
    for key, h in (metrics.get("histograms") or {}).items():
        if key.startswith("busy_seconds"):
            out[key + ".sum"] = h["sum"]
    gauges = metrics.get("gauges") or {}
    if "elapsed_seconds" in gauges:
        out["elapsed_seconds"] = gauges["elapsed_seconds"]["value"]
    return out


def print_table(title: str, headers: Sequence[str], rows: List[Sequence]) -> None:
    """Print a small aligned table (the figure's data series)."""
    widths = [
        max(len(str(h)), max((len(f"{r[i]:.1f}" if isinstance(r[i], float) else str(r[i]))
                              for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).rjust(w) for h, w in zip(headers, widths)))
    for r in rows:
        cells = [
            (f"{v:.1f}" if isinstance(v, float) else str(v)).rjust(w)
            for v, w in zip(r, widths)
        ]
        print("  ".join(cells))
