"""The paper's demo (Section 4) as the requests its UI sends, on every path.

Demo visitors drive a web UI, so what the system must get right is the
sequence of API requests that UI sends.  Scenarios 1 and 2 are such
request lists: each step names an :class:`EarthQubeAPI` route and builds
its body from the responses before it.  Both lists are replayed on four
paths, each built on its own clone of the session ``system`` as it was
bootstrapped (``make_clone`` in ``tests/conftest.py``; the fixture itself
is never wrapped: ``DurableEarthQube`` patches the node it wraps):

* direct — a plain node;
* serving — a node behind its serving tier (``enable_serving``);
* durable — a ``DurableEarthQube`` that crashes between two requests of the
  list and recovers from its directory onto a fresh node;
* federated — a 1-node ``EarthQube.federate``.

With the federation's ``federation`` section dropped, every body must be
byte-identical under ``json.dumps(sort_keys=True)`` to ``demo_golden.json``,
which holds the same lists replayed on the direct path at commit 848025f;
its two ``plan`` values were edited by hand to ``"columns"`` when the
filter became one column mask.

Scenario 3 uploads pixels, which the API does not take, so it stays
Python-level: the upload's ranking is the same on the direct and serving
paths, its automatic labels are the neighbour vote ``auto_label`` and
``ingest_new_patch`` share, and the vote recovers a true label.
"""

import json
from datetime import datetime
from pathlib import Path

import pytest

from repro.bigearthnet import Patch
from repro.bigearthnet.synthesis import PatchSynthesizer
from repro.config import DurabilityConfig
from repro.earthqube import DurableEarthQube, EarthQube, EarthQubeAPI
from repro.geo import BoundingBox

GOLDEN = Path(__file__).with_name("demo_golden.json")

INDUSTRIAL = "Industrial or commercial units"
INLAND_WATERS = ["Water bodies", "Water courses"]
SW_PORTUGAL = {"type": "rectangle",
               "west": -9.5, "south": 37.0, "east": -8.0, "north": 38.6}


def _neighbours(response: dict) -> list:
    return [row["name"] for row in response["results"]]


# Each step is (route, body built from the responses so far).
SCENARIOS = {
    # "Search for industrial areas adjacent to inland water bodies ... by
    # inspecting the label statistics view, discover other land cover
    # classes that fit the query description."
    "label_exploration": [
        ("search", lambda seen: {"labels": [INDUSTRIAL, *INLAND_WATERS],
                                 "label_operator": "some", "limit": 50}),
        ("statistics", lambda seen: {"names": seen[0]["names"]}),
    ],
    # "Submit a geospatial query covering the southwestern tip of Portugal
    # ... select an image and perform content-based image retrieval to
    # display similar images in the 10 countries", then narrow it.
    "spatial_query_by_example": [
        ("search", lambda seen: {"shape": SW_PORTUGAL}),
        ("similar", lambda seen: {"name": seen[0]["names"][0], "k": 10}),
        ("statistics", lambda seen: {"names": _neighbours(seen[1])}),
        ("similar", lambda seen: {
            "name": seen[0]["names"][0], "k": 10,
            "filter": {"labels": seen[0]["documents"][0]["properties"]["labels"]}}),
        ("similar_batch", lambda seen: {"names": seen[0]["names"], "k": 10}),
    ],
}


def replay(steps, api, *, crash_before=None, restart=None) -> list:
    """Send ``steps`` in order; before step ``crash_before`` the node
    behind ``api`` is lost and ``restart()`` supplies the API to go on
    with.  Returns one ``{"route", "request", "response"}`` per step."""
    log = []
    for index, (route, build) in enumerate(steps):
        if index == crash_before:
            api = restart()
        request = build([step["response"] for step in log])
        log.append({"route": route, "request": request,
                    "response": getattr(api, route)(request)})
    return log


def body(response: dict) -> str:
    return json.dumps({key: value for key, value in response.items()
                       if key != "federation"}, sort_keys=True)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def direct_node(make_clone) -> EarthQube:
    return make_clone()


@pytest.fixture(scope="module")
def serving_node(make_clone) -> EarthQube:
    return make_clone(serving=True)


@pytest.fixture(scope="module")
def federation(make_clone):
    federation = EarthQube.federate({"solo": make_clone()})
    yield federation
    federation.close()


def replay_on(path: str, steps, request) -> list:
    """Replay ``steps`` on the named path's own clone."""
    if path == "direct":
        return replay(steps, EarthQubeAPI(request.getfixturevalue("direct_node")))
    if path == "serving":
        return replay(steps, EarthQubeAPI(request.getfixturevalue("serving_node")))
    if path == "federated":
        return replay(steps, EarthQubeAPI(
            federation=request.getfixturevalue("federation")))
    system = request.getfixturevalue("system")
    config = DurabilityConfig(directory=request.getfixturevalue("tmp_path") / "node")
    live = DurableEarthQube(request.getfixturevalue("make_clone")(), config)
    recovered = []

    def restart() -> EarthQubeAPI:
        # The crash: the live node is dropped as it stands (no checkpoint,
        # no close) and a fresh node recovers from the directory.
        node = system.empty_clone()
        recovered.append(DurableEarthQube(node, config))
        return EarthQubeAPI(node)

    log = replay(steps, EarthQubeAPI(live.system),
                 crash_before=len(steps) // 2, restart=restart)
    assert [durable.recovery_info["recovered"] for durable in recovered] == [True]
    live.close()
    recovered[0].close()
    return log


@pytest.mark.parametrize("path", ["direct", "serving", "durable", "federated"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_every_path_answers_the_golden_bodies(scenario, path, golden, request):
    expected = golden[scenario]
    log = replay_on(path, SCENARIOS[scenario], request)
    assert [step["route"] for step in log] == [step["route"] for step in expected]
    for step, want in zip(log, expected):
        assert step["request"] == want["request"]
        assert body(step["response"]) == body(want["response"])
        assert ("federation" in step["response"]) == (path == "federated")


def test_the_golden_holds_only_answered_requests(golden):
    assert sorted(golden) == sorted(SCENARIOS)
    for scenario, steps in golden.items():
        assert [step["route"] for step in steps] == [
            route for route, _ in SCENARIOS[scenario]]
        assert all(step["response"]["ok"] is True for step in steps)


def test_label_exploration_returns_only_selected_labels(golden):
    search, statistics = (step["response"] for step in golden["label_exploration"])
    assert search["total_matches"] > 0
    selected = {INDUSTRIAL, *INLAND_WATERS}
    for document in search["documents"]:
        assert set(document["properties"]["labels"]) & selected
    # The statistics view counts the labels of exactly the returned page.
    assert statistics["total_images"] == len(search["names"])
    assert {bar["label"] for bar in statistics["bars"]} == {
        label for document in search["documents"]
        for label in document["properties"]["labels"]}


def test_spatial_query_image_is_in_portugal_and_has_neighbours(golden, direct_node):
    search, similar, statistics, filtered, batch = (
        step["response"] for step in golden["spatial_query_by_example"])
    assert search["documents"][0]["properties"]["country"] == "Portugal"
    assert similar["query"] == search["names"][0]
    assert len(similar["results"]) == 10
    assert statistics["total_images"] == 10
    # The filter keeps only neighbours sharing a label with the query.
    query_labels = set(search["documents"][0]["properties"]["labels"])
    filtered_names = _neighbours(filtered)
    assert filtered_names
    assert all(set(document["properties"]["labels"]) & query_labels
               for document in direct_node.documents_for(filtered_names))
    assert [query["query"] for query in batch["queries"]] == search["names"]
    assert batch["queries"][0] == {key: similar[key]
                                   for key in ("query", "radius_used", "results")}


# Scenario 3: "visitors can upload such [new, unlabeled] images to
# EarthQube to search for other images with similar semantic content.
# Based on the semantic search results, one could design an automatic
# labeling process."
UPLOADS = [("Coniferous forest", "Water bodies"),
           ("Sea and ocean", "Beaches, dunes, sands"),
           ("Non-irrigated arable land", "Pastures")]


def upload(system: EarthQube, labels: tuple) -> Patch:
    """A fresh, unindexed Summer patch whose labels are hidden ground truth."""
    s2, s1 = PatchSynthesizer(system.config.archive).synthesize(labels, "Summer", 999)
    return Patch(
        name="UPLOAD_0001", labels=labels, country="Portugal",
        bbox=BoundingBox(west=-8.9, south=38.5, east=-8.888, north=38.511),
        acquisition_date=datetime(2018, 6, 15, 10, 30), season="Summer",
        s2_bands=s2, s1_bands=s1)


@pytest.mark.parametrize("labels", UPLOADS, ids=lambda labels: labels[0])
def test_query_by_new_example_votes_a_true_label(labels, direct_node, serving_node):
    patch = upload(direct_node, labels)
    similar = direct_node.similar_to_new_image(patch, k=10)
    assert len(similar.names) == 10
    assert serving_node.similar_to_new_image(patch, k=10) == similar
    predicted = direct_node.auto_label(patch, k=10)
    assert predicted == direct_node._vote(similar.names, None)
    assert serving_node.auto_label(patch, k=10) == predicted
    assert set(predicted) & set(labels)
