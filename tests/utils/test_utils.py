"""Tests for utils (rng, validation, timing) and config validation."""

import numpy as np
import pytest

from repro.config import (
    ArchiveConfig,
    EarthQubeConfig,
    IndexConfig,
    MiLaNConfig,
    TrainConfig,
)
from repro.errors import ValidationError
from repro.utils import (
    Stopwatch,
    as_rng,
    check_fraction,
    check_in_range,
    check_non_empty,
    check_positive,
    check_type,
    format_seconds,
    spawn_rng,
)


class TestRng:
    def test_int_seed_deterministic(self):
        assert as_rng(5).random() == as_rng(5).random()

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_bad_seed_type(self):
        with pytest.raises(ValidationError):
            as_rng("seed")

    def test_spawn_independent_streams(self):
        parent = as_rng(1)
        children = spawn_rng(parent, 3)
        assert len(children) == 3
        values = [c.random() for c in children]
        assert len(set(values)) == 3

    def test_spawn_negative(self):
        with pytest.raises(ValidationError):
            spawn_rng(as_rng(0), -1)


class TestValidationHelpers:
    def test_check_positive(self):
        check_positive("x", 1)
        with pytest.raises(ValidationError):
            check_positive("x", 0)

    def test_check_fraction(self):
        check_fraction("f", 0.5)
        check_fraction("f", 0.0)
        with pytest.raises(ValidationError):
            check_fraction("f", 1.5)
        with pytest.raises(ValidationError):
            check_fraction("f", 0.0, inclusive=False)

    def test_check_in_range(self):
        check_in_range("r", 5, 0, 10)
        with pytest.raises(ValidationError):
            check_in_range("r", 11, 0, 10)

    def test_check_non_empty(self):
        check_non_empty("l", [1])
        with pytest.raises(ValidationError):
            check_non_empty("l", [])
        with pytest.raises(ValidationError):
            check_non_empty("l", iter([1]))  # not sized

    def test_check_type(self):
        check_type("t", 5, int)
        check_type("t", 5, (int, float))
        with pytest.raises(ValidationError):
            check_type("t", "5", int)


class TestStopwatch:
    def test_accumulates_laps(self):
        sw = Stopwatch()
        with sw:
            pass
        with sw:
            pass
        assert len(sw.laps) == 2
        assert sw.total_seconds == pytest.approx(sum(sw.laps))
        assert sw.mean_seconds == pytest.approx(sw.total_seconds / 2)

    def test_double_start_rejected(self):
        sw = Stopwatch()
        sw.start()
        with pytest.raises(RuntimeError):
            sw.start()

    def test_stop_without_start(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()

    def test_format_seconds_units(self):
        assert format_seconds(2e-9).endswith("ns")
        assert format_seconds(5e-5).endswith("us")
        assert format_seconds(0.005).endswith("ms")
        assert format_seconds(2.5).endswith(" s")


class TestConfigs:
    def test_archive_config_defaults_valid(self):
        config = ArchiveConfig()
        assert config.patch_size_10m == 120

    def test_archive_config_validation(self):
        with pytest.raises(ValidationError):
            ArchiveConfig(num_patches=0)
        with pytest.raises(ValidationError):
            ArchiveConfig(min_labels=3, max_labels=2)
        with pytest.raises(ValidationError):
            ArchiveConfig(patch_size_10m=120, patch_size_20m=50)

    def test_milan_config_validation(self):
        MiLaNConfig(num_bits=16)
        with pytest.raises(ValidationError):
            MiLaNConfig(num_bits=10)  # not a multiple of 8
        with pytest.raises(ValidationError):
            MiLaNConfig(triplet_margin=0.0)
        with pytest.raises(ValidationError):
            MiLaNConfig(weight_triplet=-1.0)
        with pytest.raises(ValidationError):
            MiLaNConfig(dropout=1.0)

    def test_train_config_validation(self):
        with pytest.raises(ValidationError):
            TrainConfig(epochs=0)
        with pytest.raises(ValidationError):
            TrainConfig(batch_size=128, triplets_per_epoch=64)

    def test_index_config_validation(self):
        IndexConfig(hamming_radius=0)
        with pytest.raises(ValidationError):
            IndexConfig(hamming_radius=-1)
        with pytest.raises(ValidationError):
            IndexConfig(mih_tables=0)

    def test_removed_geo_index_knob_raises(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            EarthQubeConfig(geo_index={"precision": 5})

    def test_earthqube_config_composition(self):
        config = EarthQubeConfig(archive=ArchiveConfig(num_patches=10))
        assert config.archive.num_patches == 10
        assert config.cart_page_limit == 50
        with pytest.raises(ValidationError):
            EarthQubeConfig(max_rendered_images=0)

    def test_configs_are_frozen(self):
        config = ArchiveConfig()
        with pytest.raises(Exception):
            config.num_patches = 5
