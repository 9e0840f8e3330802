"""Tests for the sequential out-of-core driver."""

import time

import numpy as np
import pytest

from repro.core.analysis import HaralickConfig, haralick_transform
from repro.core.quantization import quantize_linear
from repro.core.raster import raster_scan
from repro.data.synthetic import PhantomConfig, generate_phantom
from repro.datacutter.obs import Tracer
from repro.filters.messages import TextureParams
from repro.pipeline.config import AnalysisConfig
from repro.pipeline.sequential import iter_chunk_features, transform_disk_dataset
from repro.storage.dataset import DiskDataset4D, write_dataset


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    vol = generate_phantom(PhantomConfig(shape=(18, 16, 6, 4), seed=4))
    root = str(tmp_path_factory.mktemp("seq_ds") / "data")
    write_dataset(vol, root, num_nodes=3)
    params = TextureParams(
        roi_shape=(3, 3, 3, 2), levels=8, features=("asm", "contrast"),
        intensity_range=(0.0, 65535.0),
    )
    cfg = AnalysisConfig(texture=params, texture_chunk_shape=(8, 8, 6, 4))
    return vol, root, cfg


class TestTransformDiskDataset:
    def test_matches_in_memory_reference(self, setup):
        vol, root, cfg = setup
        got = transform_disk_dataset(root, cfg)
        q = quantize_linear(vol.data, 8, lo=0.0, hi=65535.0)
        want = haralick_transform(
            q,
            HaralickConfig(roi_shape=(3, 3, 3, 2), levels=8,
                           features=("asm", "contrast")),
            quantized=True,
        )
        np.testing.assert_allclose(got["asm"], want["asm"], atol=1e-12)
        np.testing.assert_allclose(got["contrast"], want["contrast"], atol=1e-10)

    def test_matches_parallel_pipeline(self, setup):
        from repro.pipeline.run import run_pipeline

        vol, root, cfg = setup
        seq = transform_disk_dataset(root, cfg)
        par = run_pipeline(root, cfg.with_copies(num_texture_copies=2))
        for name in cfg.texture.features:
            np.testing.assert_allclose(seq[name], par.volumes[name], atol=1e-12)

    def test_chunk_iterator_bounded_memory(self, setup):
        vol, root, cfg = setup
        dataset = DiskDataset4D.open(root)
        count = 0
        for chunk, local in iter_chunk_features(dataset, cfg):
            count += 1
            grid = tuple(s - r + 1 for s, r in zip(chunk.shape, (3, 3, 3, 2)))
            assert local["asm"].shape == grid
        from repro.pipeline.builder import plan_chunks

        assert count == len(plan_chunks(dataset.shape, cfg))


class TestSequentialTrace:
    def test_features_span_timed_on_its_own(self, setup, monkeypatch):
        """A slow feature layer shows in chunk.features, not chunk.cooccur."""
        import repro.pipeline.sequential as seq

        _vol, root, cfg = setup
        real = seq.haralick_features

        def slow(mats, features):
            time.sleep(0.02)
            return real(mats, features)

        monkeypatch.setattr(seq, "haralick_features", slow)
        tracer = Tracer()
        for _chunk, _local in iter_chunk_features(
            DiskDataset4D.open(root), cfg, tracer=tracer
        ):
            pass
        spans = {}
        for ev in tracer.drain():
            spans.setdefault(ev.kind, []).append(ev.dur)
        assert spans["chunk.features"] and all(d >= 0.02 for d in spans["chunk.features"])
        assert sum(spans["chunk.cooccur"]) < 0.5 * sum(spans["chunk.features"])

    def test_local_volumes_equal_raster_scan(self, setup):
        _vol, root, cfg = setup
        dataset = DiskDataset4D.open(root)
        p = cfg.texture
        for chunk, local in iter_chunk_features(dataset, cfg):
            q = p.quantize(dataset.read_chunk(*zip(chunk.lo, chunk.hi)))
            want = raster_scan(q, p.roi, p.levels, features=p.features,
                               distance=p.distance, kernel=p.kernel)
            for name in p.features:
                assert np.array_equal(local[name], want[name]), name
