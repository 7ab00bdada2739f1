"""E12: the label -> ASCII-char mapping of the data tier.

"To improve the performance of label-based filtering, we map each
(potentially multi-word) CLC label to an ASCII character, thereby avoiding
the manipulation of long strings."  We evaluate all three operators over the
archive's label sets through both paths (full strings vs. single chars), and
*Exactly* through the search service's label column (one bitset equality
per row).  Expected shape: the char path wins on every operator, most
visibly on *Exactly*.
"""

import pytest

from repro.bigearthnet import SyntheticArchive
from repro.bigearthnet.labels import LabelCharCodec
from repro.config import ArchiveConfig
from repro.earthqube import LabelFilter, LabelOperator, QuerySpec
from repro.earthqube.ingest import metadata_document
from repro.earthqube.search import SearchService
from repro.store.database import Database

N_DOCS = 20_000


@pytest.fixture(scope="module")
def label_sets():
    archive = SyntheticArchive.generate(
        ArchiveConfig(num_patches=N_DOCS, seed=2), with_pixels=False)
    codec = LabelCharCodec()
    names = [list(p.labels) for p in archive]
    chars = [codec.encode(p.labels) for p in archive]
    selection = list(archive[0].labels)
    return names, chars, selection, codec


@pytest.fixture(scope="module")
def search_setup():
    archive = SyntheticArchive.generate(
        ArchiveConfig(num_patches=5_000, seed=3), with_pixels=False)
    codec = LabelCharCodec()
    db = Database.earthqube_schema()
    metadata = db["metadata"]
    for patch in archive:
        metadata.insert_one(metadata_document(patch, codec))
    chars = [codec.encode(patch.labels) for patch in archive]
    return SearchService(db), tuple(archive[0].labels), chars, codec


@pytest.mark.parametrize("operator", list(LabelOperator))
def test_filter_over_label_strings(benchmark, label_sets, operator):
    """Naive path: set algebra over full multi-word label strings."""
    names, _, selection, codec = label_sets
    label_filter = LabelFilter(selection, operator, codec)
    benchmark.group = f"E12 {operator.value} over {N_DOCS} docs"
    count = benchmark(lambda: sum(label_filter.matches_names(n) for n in names))
    assert count >= 0


@pytest.mark.parametrize("operator", list(LabelOperator))
def test_filter_over_char_codec(benchmark, label_sets, operator):
    """Paper's path: single-character set algebra."""
    names, chars, selection, codec = label_sets
    label_filter = LabelFilter(selection, operator, codec)
    benchmark.group = f"E12 {operator.value} over {N_DOCS} docs"
    count = benchmark(lambda: sum(label_filter.matches_chars(c) for c in chars))
    # Both paths agree (also asserted pairwise in the unit tests).
    expected = sum(label_filter.matches_names(n) for n in names)
    assert count == expected


def test_exactly_through_the_column_filter(benchmark, search_setup):
    """Store path: *Exactly* as one bitset equality over the label column;
    it selects the documents the char path selects."""
    service, selection, chars, codec = search_setup
    spec = QuerySpec(labels=selection, label_operator=LabelOperator.EXACTLY)
    benchmark.group = "E12 Exactly through the store"
    count = benchmark(lambda: service.count(spec))
    label_filter = LabelFilter(selection, LabelOperator.EXACTLY, codec)
    assert count == sum(label_filter.matches_chars(c) for c in chars) > 0
    assert service.search(spec).plan == "columns"
