"""The auto-label vote reads neighbour labels in place.

``EarthQube._vote`` counts the ``properties.labels`` of its neighbours'
metadata documents.  It must agree with label statistics over copied
documents (the way it used to count), copy no document, and fail on a
name without a document exactly as ``documents_for`` does.
"""

from __future__ import annotations

import pytest

import repro.store.collection as collection_module
from repro.earthqube.statistics import label_statistics
from repro.errors import DocumentNotFoundError


def _copy_voted(system, names, min_votes):
    documents = system.documents_for(names)
    if not documents:
        return []
    threshold = min_votes if min_votes is not None else max(1, len(documents) // 2)
    return [bar.label for bar in label_statistics(documents)
            if bar.count >= threshold]


@pytest.mark.parametrize("min_votes", [None, 1, 3])
def test_vote_equals_statistics_over_copies(system, min_votes):
    for query in system.archive.names[:12]:
        names = system.similar_images(query, k=10).names
        assert system._vote(names, min_votes) == \
            _copy_voted(system, names, min_votes)
    assert system._vote([], min_votes) == []


def test_vote_copies_no_document(system, monkeypatch):
    copies = []
    original = collection_module.copy_tree

    def counting(tree):
        copies.append(tree)
        return original(tree)

    monkeypatch.setattr(collection_module, "copy_tree", counting)
    names = system.similar_images(system.archive.names[0], k=10).names
    assert system._vote(names, 1)
    patch = system.archive.patches[1]
    system.auto_label(patch, k=10)
    assert copies == []


def test_vote_on_a_name_without_document_raises_like_documents_for(system):
    names = [system.archive.names[0], "no-such-patch"]
    with pytest.raises(DocumentNotFoundError) as by_documents:
        system.documents_for(names)
    with pytest.raises(DocumentNotFoundError) as by_vote:
        system._vote(names, None)
    assert str(by_vote.value) == str(by_documents.value)
