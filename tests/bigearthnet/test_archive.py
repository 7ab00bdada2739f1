"""Tests for archive generation, patches, synthesis, seasons, and themes."""

import numpy as np
import pytest

from repro.bigearthnet import (
    COUNTRIES,
    Patch,
    S2_BAND_NAMES,
    SyntheticArchive,
    season_of,
)
from repro.bigearthnet.countries import by_code, by_name, country_names
from repro.bigearthnet.patch import band_resolution, band_shape
from repro.bigearthnet.seasons import validate_season
from repro.bigearthnet.synthesis import (
    PatchSynthesizer,
    SpectralSignatureModel,
    block_reduce_mean,
    correlated_noise,
    voronoi_regions,
)
from repro.bigearthnet.themes import THEMES, sample_labels, sample_theme, validate_themes
from repro.config import ArchiveConfig
from repro.errors import (
    ShapeError,
    UnknownLabelError,
    UnknownPatchError,
    ValidationError,
)


class TestSeasons:
    def test_meteorological_mapping(self):
        assert season_of("2017-06-15") == "Summer"
        assert season_of("2017-09-01") == "Autumn"
        assert season_of("2017-12-25") == "Winter"
        assert season_of("2018-03-10") == "Spring"

    def test_accepts_datetime(self):
        from datetime import datetime
        assert season_of(datetime(2018, 1, 5, 10, 30)) == "Winter"

    def test_invalid_input(self):
        with pytest.raises(ValidationError):
            season_of("not-a-date")
        with pytest.raises(ValidationError):
            season_of(123)

    def test_validate_season(self):
        assert validate_season("summer") == "Summer"
        with pytest.raises(ValidationError):
            validate_season("Monsoon")


class TestCountries:
    def test_ten_countries(self):
        assert len(COUNTRIES) == 10
        assert set(country_names()) == {
            "Austria", "Belgium", "Finland", "Ireland", "Kosovo", "Lithuania",
            "Luxembourg", "Portugal", "Serbia", "Switzerland"}

    def test_lookup(self):
        assert by_name("Portugal").code == "PT"
        assert by_code("FI").name == "Finland"
        with pytest.raises(KeyError):
            by_name("Germany")

    def test_theme_weights_reference_known_themes(self):
        for country in COUNTRIES:
            for theme in country.theme_weights:
                assert theme in THEMES, f"{country.name} uses unknown theme {theme}"

    def test_bboxes_plausible(self):
        for country in COUNTRIES:
            assert country.bbox.width > 0.5
            assert country.bbox.height > 0.5


class TestThemes:
    def test_all_theme_labels_valid(self):
        validate_themes()  # raises on any bad label/weight

    def test_sample_theme_respects_support(self, rng):
        weights = {"forest": 1.0, "urban": 0.0001}
        counts = {"forest": 0, "urban": 0}
        for _ in range(100):
            counts[sample_theme(weights, rng)] += 1
        assert counts["forest"] > 90

    def test_sample_theme_validation(self, rng):
        with pytest.raises(ValidationError):
            sample_theme({}, rng)
        with pytest.raises(ValidationError):
            sample_theme({"forest": -1.0}, rng)

    def test_sample_labels_within_bounds(self, rng):
        for _ in range(50):
            labels = sample_labels("coastal", rng, min_labels=1, max_labels=5)
            assert 1 <= len(labels) <= 5
            assert len(set(labels)) == len(labels)

    def test_sample_labels_unknown_theme(self, rng):
        with pytest.raises(ValidationError):
            sample_labels("lunar", rng)

    def test_sample_labels_mostly_from_theme(self, rng):
        pool = {label for label, _ in THEMES["forest"]}
        in_theme = 0
        total = 0
        for _ in range(100):
            for label in sample_labels("forest", rng):
                total += 1
                in_theme += label in pool
        assert in_theme / total > 0.8  # cross-theme noise is rare


class TestSynthesisPrimitives:
    def test_voronoi_covers_all_regions(self, rng):
        regions = voronoi_regions(60, 4, rng)
        assert regions.shape == (60, 60)
        assert set(np.unique(regions)) == {0, 1, 2, 3}

    def test_voronoi_single_region(self, rng):
        regions = voronoi_regions(30, 1, rng)
        assert (regions == 0).all()

    def test_voronoi_validation(self, rng):
        with pytest.raises(ValidationError):
            voronoi_regions(30, 0, rng)

    def test_correlated_noise_statistics(self, rng):
        noise = correlated_noise(120, 9, rng)
        assert abs(noise.mean()) < 0.1
        assert 0.8 < noise.std() < 1.2

    def test_correlated_noise_is_smooth(self, rng):
        rough = correlated_noise(120, 1, np.random.default_rng(0))
        smooth = correlated_noise(120, 15, np.random.default_rng(0))
        grad_rough = np.abs(np.diff(rough, axis=0)).mean()
        grad_smooth = np.abs(np.diff(smooth, axis=0)).mean()
        assert grad_smooth < grad_rough / 2

    def test_block_reduce(self):
        field = np.arange(16, dtype=float).reshape(4, 4)
        reduced = block_reduce_mean(field, 2)
        assert reduced.shape == (2, 2)
        assert reduced[0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)

    def test_block_reduce_bad_factor(self):
        with pytest.raises(ValidationError):
            block_reduce_mean(np.zeros((5, 5)), 2)


class TestSignatureModel:
    @pytest.fixture(scope="class")
    def model(self):
        return SpectralSignatureModel()

    def test_every_class_has_signature(self, model):
        from repro.bigearthnet import BIGEARTHNET_LABELS
        for name in BIGEARTHNET_LABELS:
            sig = model.signature(name)
            assert sig.shape == (12,)
            assert (sig >= 0).all() and (sig <= 1).all()

    def test_vegetation_red_edge(self, model):
        sig = model.signature("Broad-leaved forest")
        bands = dict(zip(S2_BAND_NAMES, sig))
        assert bands["B08"] > bands["B04"] * 3  # strong NIR over red

    def test_water_is_dark_in_nir(self, model):
        sig = model.signature("Sea and ocean")
        bands = dict(zip(S2_BAND_NAMES, sig))
        assert bands["B08"] < 0.05
        assert bands["B11"] < 0.02

    def test_seasonal_modulation_vegetation_only(self, model):
        forest_summer = model.signature("Broad-leaved forest", "Summer")
        forest_winter = model.signature("Broad-leaved forest", "Winter")
        nir = S2_BAND_NAMES.index("B08")
        assert forest_summer[nir] > forest_winter[nir]
        urban_summer = model.signature("Continuous urban fabric", "Summer")
        urban_winter = model.signature("Continuous urban fabric", "Winter")
        assert urban_summer[nir] == pytest.approx(urban_winter[nir], rel=1e-9)

    def test_unknown_label(self, model):
        with pytest.raises(UnknownLabelError):
            model.signature("Middle-earth")

    def test_signature_matrix(self, model):
        matrix = model.signature_matrix(["Pastures", "Sea and ocean"])
        assert matrix.shape == (2, 12)


class TestPatchSynthesizer:
    @pytest.fixture(scope="class")
    def bands(self):
        synth = PatchSynthesizer(ArchiveConfig(num_patches=1))
        return synth.synthesize(("Coniferous forest", "Water bodies"), "Summer", 0)

    def test_band_shapes(self, bands):
        s2, s1 = bands
        assert s2["B02"].shape == (120, 120)
        assert s2["B05"].shape == (60, 60)
        assert s2["B01"].shape == (20, 20)
        assert s1["VV"].shape == (120, 120)

    def test_values_in_range(self, bands):
        s2, s1 = bands
        for arr in list(s2.values()) + list(s1.values()):
            assert arr.dtype == np.float32
            assert (arr >= 0).all() and (arr <= 1).all()

    def test_content_reflects_labels(self):
        synth = PatchSynthesizer(ArchiveConfig(num_patches=1))
        water, _ = synth.synthesize(("Sea and ocean",), "Summer", 1)
        forest, _ = synth.synthesize(("Broad-leaved forest",), "Summer", 1)
        # NDVI-like contrast: forest NIR >> water NIR.
        assert forest["B08"].mean() > water["B08"].mean() + 0.2

    def test_empty_labels_rejected(self):
        synth = PatchSynthesizer()
        with pytest.raises(ValidationError):
            synth.synthesize((), "Summer", 0)

    def test_deterministic_given_seed(self):
        synth = PatchSynthesizer(ArchiveConfig(num_patches=1))
        a, _ = synth.synthesize(("Pastures",), "Spring", 7)
        b, _ = synth.synthesize(("Pastures",), "Spring", 7)
        np.testing.assert_array_equal(a["B04"], b["B04"])


class TestArchive:
    def test_generation_size_and_determinism(self, archive, archive_config):
        assert len(archive) == archive_config.num_patches
        again = SyntheticArchive.generate(archive_config)
        assert again.names == archive.names
        np.testing.assert_array_equal(
            again[0].s2_bands["B03"], archive[0].s2_bands["B03"])

    def test_unique_names(self, archive):
        assert len(set(archive.names)) == len(archive)

    def test_lookup_by_name(self, archive):
        name = archive.names[5]
        assert archive.get(name).name == name
        assert archive.index_of(name) == 5
        assert name in archive
        with pytest.raises(UnknownPatchError):
            archive.get("missing")

    def test_patches_inside_country_bbox(self, archive):
        for patch in archive.patches[:30]:
            country = by_name(patch.country)
            lon, lat = patch.bbox.center
            assert country.bbox.expand(0.1).contains_point(lon, lat)

    def test_seasons_match_dates(self, archive):
        for patch in archive.patches[:30]:
            assert patch.season == season_of(patch.acquisition_date)

    def test_dates_in_bigearthnet_window(self, archive):
        for patch in archive:
            assert "2017-06-01" <= patch.acquisition_date.isoformat() <= "2018-06-01"

    def test_label_matrix_consistent(self, archive, label_matrix):
        assert label_matrix.shape == (len(archive), 43)
        assert (label_matrix.sum(axis=1) >= 1).all()
        row = archive.index_of(archive.names[3])
        patch = archive[3]
        for label in patch.labels:
            assert label_matrix[row, archive.nomenclature.index_of(label)]

    def test_label_counts_total(self, archive, label_matrix):
        counts = archive.label_counts()
        assert sum(counts.values()) == int(label_matrix.sum())

    def test_split_partitions(self, archive):
        train, test = archive.split(0.75, seed=1)
        assert len(train) + len(test) == len(archive)
        assert len(np.intersect1d(train, test)) == 0
        with pytest.raises(ValidationError):
            archive.split(1.5)

    def test_add_and_remove_keep_every_dense_index(self):
        pool = SyntheticArchive.generate(
            ArchiveConfig(num_patches=60, seed=11), with_pixels=False).patches
        archive = SyntheticArchive(list(pool[:20]), ArchiveConfig(num_patches=20))
        waiting = list(pool[20:])
        rng = np.random.default_rng(3)
        for _ in range(80):
            if waiting and (len(archive) < 2 or rng.random() < 0.5):
                patch = waiting.pop()
                assert archive.add(patch) == len(archive) - 1
            else:
                name = archive.names[int(rng.integers(len(archive)))]
                position = archive.names.index(name)
                waiting.insert(0, archive.get(name))
                assert archive.remove(name) == position
            names = archive.names
            assert [archive.index_of(n) for n in names] == list(range(len(names)))
            assert [archive.get(n).name for n in names] == names

    def test_add_rejects_a_present_name(self, archive):
        copy = SyntheticArchive(list(archive.patches[:3]), archive.config)
        with pytest.raises(ValidationError):
            copy.add(archive[1])
        assert len(copy) == 3

    def test_metadata_only_generation(self):
        archive = SyntheticArchive.generate(
            ArchiveConfig(num_patches=25, seed=5), with_pixels=False)
        assert len(archive) == 25
        assert archive[0].s2_bands["B02"].shape[0] < 120  # placeholder bands

    def test_patch_validation(self):
        from datetime import datetime
        good = SyntheticArchive.generate(ArchiveConfig(num_patches=1, seed=0))[0]
        with pytest.raises(ValidationError):
            Patch(name="", labels=("Pastures",), country="Austria",
                  bbox=good.bbox, acquisition_date=datetime(2017, 7, 1),
                  season="Summer", s2_bands=good.s2_bands)
        with pytest.raises(ValidationError):
            Patch(name="x", labels=(), country="Austria",
                  bbox=good.bbox, acquisition_date=datetime(2017, 7, 1),
                  season="Summer", s2_bands=good.s2_bands)
        bad_bands = dict(good.s2_bands)
        bad_bands["B05"] = np.zeros((10, 10), dtype=np.float32)
        with pytest.raises(ShapeError):
            Patch(name="x", labels=("Pastures",), country="Austria",
                  bbox=good.bbox, acquisition_date=datetime(2017, 7, 1),
                  season="Summer", s2_bands=bad_bands)

    def test_band_helpers(self):
        assert band_resolution("B08") == 10
        assert band_resolution("B11") == 20
        assert band_resolution("B09") == 60
        assert band_shape("B05", 120) == (60, 60)
        with pytest.raises(ValidationError):
            band_resolution("B10")  # excluded band

    def test_patch_accessors(self, archive):
        patch = archive[0]
        assert patch.base_size == 120
        assert patch.has_s1
        assert patch.band("VV").shape == (120, 120)
        assert patch.rgb_stack().shape == (120, 120, 3)
        assert patch.storage_bytes() > 100_000
        with pytest.raises(ValidationError):
            patch.band("B99")
