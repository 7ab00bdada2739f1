"""Acceptance: a 1-node federation is byte-identical to the direct path.

Checked against both node flavours — one with its serving tier (cache,
micro-batcher, shards) enabled and one on the direct CBIR path — for
``search``, ``similar_images``, ``similar_images_batch``, and
``statistics_for``.
"""

from __future__ import annotations

import pytest

from repro.earthqube import QuerySpec
from repro.federation import FederatedEarthQube


@pytest.fixture(params=["gateway", "direct"])
def single(request, node_a, node_b):
    """(federation-of-one, the node it wraps) for both node flavours."""
    system = node_a if request.param == "gateway" else node_b
    federation = FederatedEarthQube({"solo": system})
    yield federation, system
    federation.close()


def test_search_match_all(single):
    federation, system = single
    spec = QuerySpec()
    assert federation.search(spec).value == system.search(spec)


def test_search_filtered_and_paginated(single):
    federation, system = single
    for spec in (QuerySpec(seasons=("Summer",)),
                 QuerySpec(limit=7),
                 QuerySpec(limit=5, skip=3),
                 QuerySpec(satellites=("S2",), limit=4, skip=1)):
        federated = federation.search(spec)
        assert federated.value == system.search(spec)
        assert federated.meta.complete


def test_similar_images_knn(single):
    federation, system = single
    for name in system.archive.names[:5]:
        assert (federation.similar_images(name, k=7).value
                == system.similar_images(name, k=7))


def test_similar_images_radius(single):
    federation, system = single
    name = system.archive.names[0]
    for radius in (0, 2, 5):
        assert (federation.similar_images(name, k=None, radius=radius).value
                == system.similar_images(name, k=None, radius=radius))


def test_similar_images_default_radius(single):
    federation, system = single
    name = system.archive.names[1]
    assert (federation.similar_images(name, k=None).value
            == system.similar_images(name, k=None))


def test_similar_images_batch(single):
    federation, system = single
    names = system.archive.names[:8]
    assert (federation.similar_images_batch(names, k=5).value
            == system.similar_images_batch(names, k=5))
    assert (federation.similar_images_batch(names, k=None, radius=2).value
            == system.similar_images_batch(names, k=None, radius=2))


def test_similar_images_batch_with_duplicates(single):
    federation, system = single
    names = [system.archive.names[0]] * 3 + system.archive.names[:2]
    assert (federation.similar_images_batch(names, k=4).value
            == system.similar_images_batch(names, k=4))


def test_k_larger_than_corpus(single):
    federation, system = single
    name = system.archive.names[0]
    k = len(system.archive) + 10
    assert (federation.similar_images(name, k=k).value
            == system.similar_images(name, k=k))


def test_statistics_for(single):
    federation, system = single
    names = system.archive.names[:10]
    assert federation.statistics_for(names).value == system.statistics_for(names)


def test_namespaced_name_also_resolves(single):
    """``solo/name`` routes to the node; with one node the response still
    uses the bare id (auto namespacing is off), so it stays identical."""
    federation, system = single
    name = system.archive.names[2]
    assert (federation.similar_images(f"solo/{name}", k=5).value
            == system.similar_images(name, k=5))


@pytest.mark.parametrize("serving", [False, True])
def test_an_empty_member_contributes_nothing(node_a, node_b, serving):
    """An empty index raises ``EmptyIndexError`` on the node; the member
    answers with an empty ranking, which changes no merged ranking."""
    with_empty = FederatedEarthQube(
        {"a": node_a, "b": node_b, "e": node_b.empty_clone(serving=serving)})
    without = FederatedEarthQube({"a": node_a, "b": node_b})
    try:
        names = ([f"a/{name}" for name in node_a.archive.names[:3]]
                 + [f"b/{name}" for name in node_b.archive.names[:3]])
        for name in names:
            for kwargs in ({"k": 7}, {"k": None, "radius": 3}):
                got = with_empty.similar_images(name, **kwargs)
                assert got.value == without.similar_images(name, **kwargs).value
                assert "e" in got.meta.answered and not got.meta.failed
        for kwargs in ({"k": 5}, {"k": None, "radius": 2}):
            assert (with_empty.similar_images_batch(names, **kwargs).value
                    == without.similar_images_batch(names, **kwargs).value)
    finally:
        with_empty.close()
        without.close()
