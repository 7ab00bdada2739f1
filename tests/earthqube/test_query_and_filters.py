"""Tests for QuerySpec validation and the three label operators."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.bigearthnet import BIGEARTHNET_LABELS, LabelCharCodec
from repro.bigearthnet.clc import get_nomenclature
from repro.earthqube import LabelFilter, LabelOperator, QuerySpec
from repro.errors import ValidationError
from repro.geo import Circle
from repro.store.columns import label_bits


class TestQuerySpec:
    def test_default_is_match_all(self):
        spec = QuerySpec()
        assert not spec.label_filtering_enabled
        assert spec.describe() == "match-all"

    def test_shape_accepted(self):
        spec = QuerySpec(shape=Circle(lon=0, lat=0, radius_km=10))
        assert "circle" in spec.describe()

    def test_bad_shape_rejected(self):
        with pytest.raises(ValidationError):
            QuerySpec(shape="everywhere")

    def test_date_validation(self):
        QuerySpec(date_from="2017-06-01", date_to="2018-05-31")
        with pytest.raises(ValidationError):
            QuerySpec(date_from="01/06/2017")
        with pytest.raises(ValidationError):
            QuerySpec(date_from="2018-01-01", date_to="2017-01-01")

    def test_season_canonicalization(self):
        spec = QuerySpec(seasons=("summer", "WINTER"))
        assert spec.seasons == ("Summer", "Winter")
        with pytest.raises(ValidationError):
            QuerySpec(seasons=("Monsoon",))

    def test_satellite_validation(self):
        QuerySpec(satellites=("S1", "S2"))
        with pytest.raises(ValidationError):
            QuerySpec(satellites=("Landsat",))

    def test_label_validation_and_dedup(self):
        spec = QuerySpec(labels=("Pastures", "Pastures", "Airports"))
        assert spec.labels == ("Pastures", "Airports")
        assert spec.label_filtering_enabled
        with pytest.raises(ValidationError):
            QuerySpec(labels=("Gotham",))
        with pytest.raises(ValidationError):
            QuerySpec(labels=())

    def test_label_operator_type_checked(self):
        with pytest.raises(ValidationError):
            QuerySpec(labels=("Pastures",), label_operator="some")

    def test_pagination_validation(self):
        QuerySpec(limit=10, skip=5)
        with pytest.raises(ValidationError):
            QuerySpec(limit=0)
        with pytest.raises(ValidationError):
            QuerySpec(skip=-1)


class TestLabelFilterOperators:
    IMAGE = ["Pastures", "Water bodies", "Coniferous forest"]

    def _filter(self, labels, operator):
        return LabelFilter(labels, operator)

    def test_some_semantics(self):
        f = self._filter(["Pastures", "Airports"], LabelOperator.SOME)
        assert f.matches_names(self.IMAGE)
        f2 = self._filter(["Airports"], LabelOperator.SOME)
        assert not f2.matches_names(self.IMAGE)

    def test_exactly_semantics(self):
        f = self._filter(self.IMAGE, LabelOperator.EXACTLY)
        assert f.matches_names(self.IMAGE)
        assert not f.matches_names(self.IMAGE + ["Airports"])
        assert not f.matches_names(self.IMAGE[:2])

    def test_at_least_semantics(self):
        f = self._filter(["Pastures", "Water bodies"], LabelOperator.AT_LEAST_AND_MORE)
        assert f.matches_names(self.IMAGE)           # has both + extra
        assert f.matches_names(self.IMAGE[:2])       # has exactly both
        assert not f.matches_names(["Pastures"])     # missing one

    def test_char_path_agrees_with_names(self):
        codec = LabelCharCodec()
        image_chars = codec.encode(self.IMAGE)
        for operator in LabelOperator:
            for selection in (["Pastures"], self.IMAGE, ["Airports"],
                              ["Pastures", "Airports"]):
                f = LabelFilter(selection, operator, codec)
                assert f.matches_chars(image_chars) == f.matches_names(self.IMAGE), \
                    f"{operator} on {selection}"

    def test_empty_selection_rejected(self):
        with pytest.raises(ValidationError):
            LabelFilter([], LabelOperator.SOME)

    def test_operator_type_checked(self):
        with pytest.raises(ValidationError):
            LabelFilter(["Pastures"], "some")

    def test_bitsets_agree_with_set_algebra(self):
        """The search service's label column answers each operator as
        :meth:`LabelFilter.matches_names` does."""
        rng = np.random.default_rng(5)
        names = get_nomenclature().names
        selection = ["Pastures", "Water bodies"]
        selected = label_bits(selection)
        for _ in range(200):
            held = [names[i] for i in rng.choice(len(names), rng.integers(0, 4),
                                                 replace=False)]
            held += list(rng.choice(selection, rng.integers(0, 3)))
            bits = label_bits(held)
            assert (bits & selected != 0) == LabelFilter(
                selection, LabelOperator.SOME).matches_names(held)
            assert (bits == selected) == LabelFilter(
                selection, LabelOperator.EXACTLY).matches_names(held)
            assert (bits & selected == selected) == LabelFilter(
                selection, LabelOperator.AT_LEAST_AND_MORE).matches_names(held)

    def test_one_bit_per_class(self):
        names = get_nomenclature().names
        assert len(names) == 43
        assert label_bits(names) == (1 << 43) - 1
        assert label_bits(["Pastures", "Pastures"]) == label_bits(["Pastures"])

    def test_operator_hierarchy(self):
        """Exactly implies AtLeast&more implies Some (on the same selection)."""
        selection = ["Pastures", "Water bodies"]
        image_sets = [["Pastures", "Water bodies"],
                      ["Pastures", "Water bodies", "Airports"],
                      ["Pastures"], ["Airports"]]
        for image in image_sets:
            exact = LabelFilter(selection, LabelOperator.EXACTLY).matches_names(image)
            at_least = LabelFilter(selection,
                                   LabelOperator.AT_LEAST_AND_MORE).matches_names(image)
            some = LabelFilter(selection, LabelOperator.SOME).matches_names(image)
            if exact:
                assert at_least
            if at_least:
                assert some


@given(
    selection=st.lists(st.sampled_from(BIGEARTHNET_LABELS[:12]), min_size=1,
                       max_size=4, unique=True),
    image=st.lists(st.sampled_from(BIGEARTHNET_LABELS[:12]), min_size=1,
                   max_size=5, unique=True),
    operator=st.sampled_from(list(LabelOperator)),
)
def test_property_string_and_char_paths_agree(selection, image, operator):
    codec = LabelCharCodec()
    f = LabelFilter(selection, operator, codec)
    assert f.matches_names(image) == f.matches_chars(codec.encode(image))


@given(
    selection=st.lists(st.sampled_from(BIGEARTHNET_LABELS[:12]), min_size=1,
                       max_size=4, unique=True),
    image=st.lists(st.sampled_from(BIGEARTHNET_LABELS[:12]), min_size=1,
                   max_size=5, unique=True),
)
def test_property_operator_implication_chain(selection, image):
    exact = LabelFilter(selection, LabelOperator.EXACTLY).matches_names(image)
    at_least = LabelFilter(selection, LabelOperator.AT_LEAST_AND_MORE).matches_names(image)
    some = LabelFilter(selection, LabelOperator.SOME).matches_names(image)
    assert not exact or at_least
    assert not at_least or some
