"""TuningProfile: validation, application, JSON round-trip."""

import json

import pytest

from repro.pipeline.config import AnalysisConfig
from repro.tuning import PROFILE_VERSION, TuningProfile, load_profile


class TestValidation:
    def test_defaults_are_a_no_op_profile(self):
        p = TuningProfile()
        cfg = AnalysisConfig()
        assert p.apply(cfg) is cfg
        assert p.runtime_kwargs() == {}

    def test_rejects_unknown_version(self):
        with pytest.raises(ValueError, match="version"):
            TuningProfile(version=PROFILE_VERSION + 1)

    def test_rejects_unknown_copies_key(self):
        with pytest.raises(ValueError, match="copies key"):
            TuningProfile(copies={"warp_drive": 2})

    def test_rejects_non_positive_copies(self):
        with pytest.raises(ValueError, match=">= 1"):
            TuningProfile(copies={"texture": 0})

    def test_rejects_unknown_kernel(self):
        # A profile saved when the retired megabatch kernel existed fails
        # at load, naming the field.
        with pytest.raises(ValueError, match="kernel.*megabatch"):
            TuningProfile.from_dict({"kernel": "megabatch"})

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown profile fields"):
            TuningProfile.from_dict({"chunk_shape": [8, 8, 4, 2],
                                     "warp": 9})


class TestApply:
    def test_sets_chunk_copies_kernel_scheduling(self):
        p = TuningProfile(
            chunk_shape=(8, 8, 4, 2),
            copies={"texture": 3, "iic": 2},
            kernel="batched",
            scheduling="round_robin",
        )
        cfg = p.apply(AnalysisConfig())
        assert cfg.texture_chunk_shape == (8, 8, 4, 2)
        assert cfg.num_texture_copies == 3
        assert cfg.num_iic_copies == 2
        assert cfg.texture.kernel == "batched"
        assert cfg.scheduling == "round_robin"

    def test_unset_fields_keep_input_config(self):
        base = AnalysisConfig(num_texture_copies=5)
        cfg = TuningProfile(kernel="batched").apply(base)
        assert cfg.num_texture_copies == 5
        assert cfg.variant == base.variant

    def test_runtime_kwargs(self):
        p = TuningProfile(transport="shm", max_queue=8, runtime="processes")
        assert p.runtime_kwargs() == {
            "transport": "shm", "max_queue": 8, "runtime": "processes",
        }


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        p = TuningProfile(
            chunk_shape=(16, 16, 8, 4),
            copies={"texture": 2},
            transport="shm",
            kernel="incremental",
            max_queue=16,
            runtime="processes",
            meta={"pilot": {"shape": [24, 24, 8, 4]}},
        )
        path = str(tmp_path / "prof.json")
        p.save(path)
        q = load_profile(path)
        assert q == p

    def test_saved_json_is_plain(self, tmp_path):
        path = str(tmp_path / "prof.json")
        TuningProfile(chunk_shape=(8, 8, 4, 2)).save(path)
        with open(path) as fh:
            d = json.load(fh)
        assert d["chunk_shape"] == [8, 8, 4, 2]
        assert d["version"] == PROFILE_VERSION

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_profile(str(path))
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_profile(str(path))
