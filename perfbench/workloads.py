"""Workload definitions: configurations and inputs generated from a seed.

Every workload runs the paper configuration (5x5x5x3 ROI, G=32, the
four paper features, the default scan kernel).  The phantom's voxels are
12-bit (0..4095), so the requantization window is fixed to that range;
the library default of 0..65535 would put every voxel on level 0.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.features import PAPER_FEATURES
from repro.data import PhantomConfig, generate_phantom
from repro.filters.messages import TextureParams
from repro.pipeline import AnalysisConfig
from repro.storage.dataset import write_dataset

PAPER_TEXTURE = TextureParams(
    roi_shape=(5, 5, 5, 3),
    levels=32,
    features=PAPER_FEATURES,
    intensity_range=(0.0, 4095.0),
)

BATCH_SHAPE = (64, 64, 12, 6)
STUDY_SHAPE = (32, 32, 12, 6)
CHUNK_SHAPE = (32, 32, 12, 6)
STORAGE_NODES = 2

#: Service traffic of the traced run: two tenants with fair-share weights
#: 2:1, four studies, 60 jobs arriving at 4 jobs/s.
SERVICE_STUDIES = 4
SERVICE_JOBS = 60
SERVICE_RATE = 4.0
TENANT_WEIGHTS = {"clinical": 2.0, "research": 1.0}


@dataclass(frozen=True)
class Workload:
    name: str
    config: AnalysisConfig
    runtime: str = "threads"
    hosts: Tuple[str, ...] = ()

    def runtime_kwargs(self) -> Dict[str, object]:
        kw: Dict[str, object] = {"runtime": self.runtime}
        if self.hosts:
            kw["hosts"] = list(self.hosts)
        return kw


def _config(**kw) -> AnalysisConfig:
    return AnalysisConfig(texture=PAPER_TEXTURE, texture_chunk_shape=CHUNK_SHAPE, **kw)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper-hmp", _config(num_texture_copies=2), runtime="processes"),
        Workload("split-full-dist",
                 _config(variant="split", num_hcc_copies=1, num_hpc_copies=1),
                 runtime="distributed", hosts=("127.0.0.1",) * 3),
    )
}

#: Paper Fig. 7b's split + sparse configuration.  It is not a workload
#: (every run fails today with a codec error); the traced run of the
#: split workload attempts it once and reports the failure as raised.
SPLIT_SPARSE = Workload(
    "split-sparse",
    replace(_config(variant="split"), texture=replace(PAPER_TEXTURE, sparse=True)),
    runtime="processes",
)

#: The AnalysisService traffic of every traced run.  Its pool runs the
#: default RuntimeProfile (threads) on the HMP variant.
SERVICE_MIX = Workload("service-mix", _config())


def _write(root: str, name: str, shape, phantom_seed: int) -> str:
    path = os.path.join(root, name)
    write_dataset(generate_phantom(PhantomConfig(shape=shape, seed=phantom_seed)),
                  path, num_nodes=STORAGE_NODES)
    return path


def make_dataset(seed: int, root: str) -> str:
    """The batch workloads' dataset, written under ``root``."""
    return _write(root, "dataset", BATCH_SHAPE, seed)


def make_studies(seed: int, root: str) -> List[str]:
    """The service traffic's studies, written under ``root``."""
    return [_write(root, f"study{i}", STUDY_SHAPE, seed * SERVICE_STUDIES + i)
            for i in range(SERVICE_STUDIES)]


@dataclass(frozen=True)
class Job:
    due: float
    tenant: str
    study: int
    features: Tuple[str, ...]


def service_jobs(seed: int) -> List[Job]:
    """The open-loop request stream: one job every 1/SERVICE_RATE seconds.

    Each job asks for a random non-empty subset of the paper features on
    one of the studies, for a tenant drawn by the fair-share weights.
    """
    rng = random.Random(seed)
    tenants = sorted(TENANT_WEIGHTS)
    weights = [TENANT_WEIGHTS[t] for t in tenants]
    jobs = []
    for k in range(SERVICE_JOBS):
        mask = rng.randrange(1, 1 << len(PAPER_FEATURES))
        feats = tuple(f for b, f in enumerate(PAPER_FEATURES) if mask >> b & 1)
        jobs.append(Job(k / SERVICE_RATE, rng.choices(tenants, weights)[0],
                        rng.randrange(SERVICE_STUDIES), feats))
    return jobs


def job_config(features: Tuple[str, ...]) -> AnalysisConfig:
    config = SERVICE_MIX.config
    return replace(config, texture=replace(config.texture, features=features))


def mismatch(volumes: Dict[str, np.ndarray], ref: Dict[str, np.ndarray]) -> Optional[str]:
    """Name of the first volume not bit-identical to the reference, if any."""
    for name, vol in volumes.items():
        if name not in ref or not np.array_equal(vol, ref[name]):
            return name
    return None


def error_text(exc: BaseException) -> str:
    """A failure as it was raised: exception type and message."""
    return f"{type(exc).__name__}: {exc}"
