"""Tuning profiles: the offline tuner's durable output.

A :class:`TuningProfile` is a plain JSON document naming the knob values
the sweep selected — chunk shape, copy counts, transport, kernel,
scheduling policy, queue bound — plus provenance (the pilot workload,
every candidate's measured time, the fitted model's prediction).  It is
deliberately *declarative*: applying one produces a derived
:class:`~repro.pipeline.config.AnalysisConfig` and a set of
``run_pipeline`` keyword overrides, nothing else, so a profile tuned on
one machine is inspectable and editable anywhere.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from repro.core.backends import KERNELS
from repro.pipeline.config import AnalysisConfig

__all__ = ["TuningProfile", "load_profile", "PROFILE_VERSION"]

PROFILE_VERSION = 1

#: Copy-count keys a profile may carry -> AnalysisConfig field names.
_COPY_FIELDS = {
    "texture": "num_texture_copies",
    "hcc": "num_hcc_copies",
    "hpc": "num_hpc_copies",
    "iic": "num_iic_copies",
    "uso": "num_uso_copies",
}


@dataclass(frozen=True)
class TuningProfile:
    """Knob values selected by the offline tuner.

    Every field except ``version`` is optional: ``None`` (or an empty
    dict) means "leave the caller's value alone", so a profile can tune
    a single knob without freezing the rest.
    """

    version: int = PROFILE_VERSION
    chunk_shape: Optional[Tuple[int, ...]] = None
    copies: Dict[str, int] = field(default_factory=dict)
    transport: Optional[str] = None
    kernel: Optional[str] = None
    scheduling: Optional[str] = None
    max_queue: Optional[int] = None
    runtime: Optional[str] = None
    #: Provenance: pilot workload descriptor, per-candidate measurements,
    #: fitted-model metadata.  Free-form, ignored by ``apply``.
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.version != PROFILE_VERSION:
            raise ValueError(
                f"unsupported profile version {self.version}; "
                f"this build reads version {PROFILE_VERSION}"
            )
        for key in self.copies:
            if key not in _COPY_FIELDS:
                raise ValueError(
                    f"unknown copies key {key!r}; "
                    f"expected one of {sorted(_COPY_FIELDS)}"
                )
        for key, n in self.copies.items():
            if int(n) < 1:
                raise ValueError(f"copies[{key!r}] must be >= 1, got {n}")
        if self.kernel is not None and self.kernel not in KERNELS:
            raise ValueError(
                f"profile field 'kernel': unknown scan kernel "
                f"{self.kernel!r} (valid kernels: {KERNELS})"
            )

    # -- application -------------------------------------------------------

    def apply(self, config: Optional[AnalysisConfig] = None) -> AnalysisConfig:
        """Derive a config with this profile's knobs applied.

        Fields the profile does not set keep the input config's values
        (paper defaults when ``config`` is omitted).
        """
        config = config or AnalysisConfig()
        updates: Dict[str, Any] = {}
        if self.chunk_shape is not None:
            updates["texture_chunk_shape"] = tuple(self.chunk_shape)
        for key, n in self.copies.items():
            updates[_COPY_FIELDS[key]] = int(n)
        if self.scheduling is not None:
            updates["scheduling"] = self.scheduling
        if self.kernel is not None:
            updates["texture"] = replace(config.texture, kernel=self.kernel)
        return replace(config, **updates) if updates else config

    def runtime_kwargs(self) -> Dict[str, Any]:
        """Keyword overrides for ``run_pipeline`` / ``build_runtime``."""
        out: Dict[str, Any] = {}
        if self.transport is not None:
            out["transport"] = self.transport
        if self.max_queue is not None:
            out["max_queue"] = int(self.max_queue)
        if self.runtime is not None:
            out["runtime"] = self.runtime
        return out

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        d = asdict(self)
        if d["chunk_shape"] is not None:
            d["chunk_shape"] = list(d["chunk_shape"])
        return d

    def save(self, path: str) -> str:
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        return path

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "TuningProfile":
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        unknown = set(d) - known
        if unknown:
            raise ValueError(
                f"unknown profile fields {sorted(unknown)}; known: {sorted(known)}"
            )
        d = dict(d)
        if d.get("chunk_shape") is not None:
            d["chunk_shape"] = tuple(int(c) for c in d["chunk_shape"])
        return cls(**d)


def load_profile(path: str) -> TuningProfile:
    """Read a :class:`TuningProfile` from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"profile {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"profile {path!r} must be a JSON object")
    return TuningProfile.from_dict(data)
