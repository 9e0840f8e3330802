"""Offline tuner: sweep a pilot workload and emit a tuning profile.

``run_sweep`` executes a small pilot analysis — by default a generated
phantom dataset, or any dataset the caller points it at — once per
candidate in a grid of chunk shape × copy counts × transport (plus any
other knob the caller's grid names, such as ``kernel``),
consuming each run's :class:`MetricsRegistry` snapshot (queue wait vs.
service time, buffer occupancy, bytes moved).  It fits the
:mod:`~repro.tuning.costmodel` over the measurements, verifies every
candidate produced bit-identical volumes, and returns a
:class:`SweepResult` whose :attr:`~SweepResult.profile` is the selected
:class:`~repro.tuning.profile.TuningProfile` — load it with
``run_pipeline(..., profile=...)`` or ``repro analyze --profile``.

The sweep runs with event-driven wakeups (this PR's default), so the
measured deltas reflect the pipeline, not poll-interval noise.
"""

from __future__ import annotations

import itertools
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.pipeline.config import AnalysisConfig, clip_chunk_shape

from .costmodel import CostModel, candidate_key, fit_cost_model
from .profile import PROFILE_VERSION, TuningProfile

__all__ = ["PilotSpec", "SweepResult", "run_sweep", "default_grid"]


@dataclass(frozen=True)
class PilotSpec:
    """The pilot workload the sweep measures candidates against.

    ``dataset_root=None`` generates a small phantom into a temporary
    directory (deleted afterwards).  ``repeats`` re-runs each candidate
    and keeps the best time, damping scheduler noise.  ``base`` seeds
    the non-swept config fields (paper defaults if omitted).
    """

    dataset_root: Optional[str] = None
    phantom_shape: Tuple[int, int, int, int] = (24, 24, 8, 4)
    seed: int = 7
    repeats: int = 1
    runtime: str = "processes"
    max_queue: int = 16
    run_timeout: Optional[float] = 120.0
    base: Optional[AnalysisConfig] = None

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.runtime not in ("threads", "processes"):
            raise ValueError(
                "pilot runtime must be 'threads' or 'processes' "
                f"(got {self.runtime!r}); the distributed runtime needs "
                "real hosts and is tuned from its own runs"
            )


def default_grid(runtime: str = "processes") -> Dict[str, Sequence[Any]]:
    """The stock candidate grid: chunk × copies × transport.

    There is no kernel axis: ``incremental`` is the one fast CPU kernel,
    and the config default already selects it.
    """
    return {
        "chunk_shape": [(16, 16, 8, 4), (24, 24, 8, 4)],
        "copies": [{"texture": 1}, {"texture": 2}],
        "transport": (
            ["pipe", "shm"] if runtime == "processes" else [None]
        ),
    }


@dataclass
class SweepResult:
    """Everything one sweep measured, fitted and selected."""

    records: List[Dict[str, Any]]
    model: CostModel
    profile: TuningProfile
    baseline_elapsed: float
    best_elapsed: float
    bit_identical: bool = True

    def summary(self) -> str:
        lines = [
            f"{len(self.records)} candidates, "
            f"baseline {self.baseline_elapsed:.3f}s, "
            f"best {self.best_elapsed:.3f}s "
            f"(model residual {self.model.residual:.3f}s)",
        ]
        for rec in sorted(self.records, key=lambda r: r["elapsed"]):
            lines.append(
                f"  {rec['elapsed']:8.3f}s  {candidate_key(rec['candidate'])}"
            )
        return "\n".join(lines)


def _apply_candidate(
    base: AnalysisConfig, candidate: Dict[str, Any], dataset_shape, roi_shape
) -> AnalysisConfig:
    profile = TuningProfile(
        version=PROFILE_VERSION,
        chunk_shape=clip_chunk_shape(
            candidate["chunk_shape"], dataset_shape, roi_shape
        )
        if candidate.get("chunk_shape")
        else None,
        copies=candidate.get("copies") or {},
        kernel=candidate.get("kernel"),
    )
    return profile.apply(base)


def run_sweep(
    spec: Optional[PilotSpec] = None,
    grid: Optional[Dict[str, Sequence[Any]]] = None,
    progress=None,
) -> SweepResult:
    """Run the pilot across the candidate grid and select a profile.

    ``progress`` is an optional callable taking one human-readable line
    per completed candidate (the CLI passes ``print``).
    """
    from repro.pipeline.run import run_pipeline

    spec = spec or PilotSpec()
    grid = grid or default_grid(spec.runtime)
    base = spec.base or AnalysisConfig()

    tmp = None
    root = spec.dataset_root
    if root is None:
        from repro.data.synthetic import PhantomConfig, generate_phantom
        from repro.storage.dataset import write_dataset

        tmp = tempfile.TemporaryDirectory(prefix="repro-tune-")
        root = os.path.join(tmp.name, "pilot")
        vol = generate_phantom(
            PhantomConfig(shape=spec.phantom_shape, seed=spec.seed)
        )
        write_dataset(vol, root, num_nodes=2)

    try:
        from repro.storage.dataset import DiskDataset4D

        ds = DiskDataset4D.open(root)
        dataset_shape = ds.shape

        names = sorted(grid)
        candidates = [
            dict(zip(names, combo))
            for combo in itertools.product(*(grid[n] for n in names))
        ]

        records: List[Dict[str, Any]] = []
        reference: Optional[Dict[str, np.ndarray]] = None
        bit_identical = True
        for candidate in candidates:
            config = _apply_candidate(
                base, candidate, dataset_shape, base.texture.roi_shape
            )
            kwargs: Dict[str, Any] = {}
            if candidate.get("transport") and spec.runtime == "processes":
                kwargs["transport"] = candidate["transport"]
            best = None
            for _ in range(spec.repeats):
                result = run_pipeline(
                    root,
                    config=config,
                    runtime=spec.runtime,
                    max_queue=spec.max_queue,
                    trace=True,
                    run_timeout=spec.run_timeout,
                    **kwargs,
                )
                if best is None or result.elapsed < best.elapsed:
                    best = result
            if reference is None:
                reference = best.volumes
            else:
                same = set(reference) == set(best.volumes) and all(
                    np.array_equal(reference[k], best.volumes[k])
                    for k in reference
                )
                bit_identical = bit_identical and same
            records.append(
                {
                    "candidate": dict(candidate),
                    "elapsed": best.elapsed,
                    "snapshot": best.metrics,
                }
            )
            if progress is not None:
                progress(
                    f"{candidate_key(candidate)}: {best.elapsed:.3f}s"
                )

        model = fit_cost_model(records)
        ranked = model.rank(records)
        best_pred, best_rec = ranked[0]
        winner = best_rec["candidate"]

        # Baseline = the caller's untouched defaults, measured once so
        # acceptance ("tuner-selected >= as fast as hand-picked
        # defaults") is a real comparison, not a model claim.
        baseline = run_pipeline(
            root,
            config=base,
            runtime=spec.runtime,
            max_queue=spec.max_queue,
            run_timeout=spec.run_timeout,
        )

        profile = TuningProfile(
            chunk_shape=tuple(winner["chunk_shape"])
            if winner.get("chunk_shape")
            else None,
            copies=dict(winner.get("copies") or {}),
            transport=winner.get("transport"),
            kernel=winner.get("kernel"),
            max_queue=spec.max_queue,
            runtime=spec.runtime,
            meta={
                "pilot": {
                    "dataset": spec.dataset_root or "phantom",
                    "shape": list(dataset_shape),
                    "runtime": spec.runtime,
                    "repeats": spec.repeats,
                },
                "baseline_elapsed": baseline.elapsed,
                "selected_elapsed": float(best_rec["elapsed"]),
                "model": model.to_dict(),
                "candidates": [
                    {
                        "key": candidate_key(r["candidate"]),
                        "elapsed": r["elapsed"],
                    }
                    for r in records
                ],
            },
        )
        return SweepResult(
            records=records,
            model=model,
            profile=profile,
            baseline_elapsed=baseline.elapsed,
            best_elapsed=float(best_rec["elapsed"]),
            bit_identical=bit_identical,
        )
    finally:
        if tmp is not None:
            tmp.cleanup()
