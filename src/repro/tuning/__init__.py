"""Self-tuning layer: close the loop from the obs layer back into config.

The paper's performance hinges on hand-picked run-time parameters —
chunk shape, filter copy counts, transparent-copy placement — and this
reproduction inherited that: every knob was static per run while the
observability layer (PR 4) already recorded the queue-wait/service-time
splits needed to choose them.  Following the run-time parameter
sensitivity analysis of Scartezini et al. (PAPERS.md), this package
consumes those metrics in two loops:

**Offline** (:mod:`~repro.tuning.sweep` + :mod:`~repro.tuning.costmodel`):
``repro tune`` runs a small pilot workload across chunk shape × copy
counts × transport, consumes :class:`MetricsRegistry` snapshots
from each run, fits a simple cost model, and emits a
:class:`~repro.tuning.profile.TuningProfile` (JSON) that
``run_pipeline``/``AnalysisConfig`` load via ``--profile``.

**Online** (:mod:`~repro.tuning.controller`): a controller thread samples
queue-depth gauges mid-run and adapts per-edge credit windows and
replicated-copy activation within :class:`AdaptationBounds`, emitting
``tune.adjust`` obs events.  Off by default; bit-identity is preserved
under every adjustment because the actuators only steer *routing* of
transparent streams, never what is computed.

Both loops depend on the event-driven wakeups this PR added to the
runtimes: with the busy-wait latency floor gone, the tuner measures the
pipeline rather than poll-interval noise.
"""

from .controller import AdaptationBounds, OnlineController
from .costmodel import CostModel, fit_cost_model
from .profile import PROFILE_VERSION, TuningProfile, load_profile
from .sweep import PilotSpec, SweepResult, run_sweep

__all__ = [
    "AdaptationBounds",
    "OnlineController",
    "CostModel",
    "fit_cost_model",
    "PROFILE_VERSION",
    "TuningProfile",
    "load_profile",
    "PilotSpec",
    "SweepResult",
    "run_sweep",
]
