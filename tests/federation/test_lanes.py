"""Per-node lanes: the executor's persistent worker per federation member.

A node call is a hand-off to the node's lane (one daemon thread plus a job
queue) instead of a thread start.  A busy lane — one still running a call
stuck past its timeout — never queues the next call: that call gets a
one-off thread.  Lanes stop when their node leaves the registry and when
the federation closes.
"""

from __future__ import annotations

import gc
import sys
import threading
import time

import pytest

from repro.config import FederationConfig
from repro.federation import FederatedEarthQube
from repro.federation.executor import FederatedExecutor
from repro.federation.registry import FederatedNode, NodeRegistry
from repro.obs import tracing


def _executor(*names: str, **config) -> FederatedExecutor:
    registry = NodeRegistry(failure_threshold=100)
    for name in names:
        # The executor never touches the system: ``fn`` does the calling.
        registry.add(FederatedNode(name, system=None))
    return FederatedExecutor(registry, FederationConfig(**config))


def _federation_threads(since: "set[threading.Thread]") -> "set[str]":
    """Names of live ``federation-*`` threads started after ``since``."""
    return {thread.name for thread in threading.enumerate()
            if thread.name.startswith("federation-") and thread not in since}


def _touch_every_node(federation: FederatedEarthQube) -> None:
    """One call to every member, so each gets its lane."""
    _, meta = federation.executor.scatter(lambda node: None)
    assert meta.answered == federation.registry.names


def _wait_for(predicate, timeout_s: float = 3.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def _serving_thread(executor: FederatedExecutor) -> int:
    outcomes, meta = executor.scatter(lambda node: threading.get_ident())
    assert meta.answered == [outcome.node_name for outcome in outcomes]
    return outcomes[0].value


# --------------------------------------------------------------------- #
# Lane mechanics (executor level)
# --------------------------------------------------------------------- #

def test_consecutive_scatters_run_on_the_same_lane_thread():
    executor = _executor("a", "b")
    try:
        first, _ = executor.scatter(lambda node: threading.get_ident())
        second, _ = executor.scatter(lambda node: threading.get_ident())
        assert [o.value for o in first] == [o.value for o in second]
        # One lane per node: the two nodes never share a worker, and the
        # caller's own thread runs neither.
        assert first[0].value != first[1].value
        assert threading.get_ident() not in {o.value for o in first}
    finally:
        executor.close()


def test_hung_call_keeps_its_lane_and_the_next_call_gets_a_fresh_thread():
    executor = _executor("a", node_timeout_s=0.1, max_retries=0)
    lane = _serving_thread(executor)
    release, finished = threading.Event(), threading.Event()

    def hang(node):
        release.wait(5.0)
        finished.set()
        return threading.get_ident()

    try:
        outcomes, meta = executor.scatter(hang)
        assert "timeout" in meta.failed["a"]

        # The lane is still stuck in ``hang``: the next call must not
        # queue behind it, so it answers from a one-off thread.
        outcomes, meta = executor.scatter(lambda node: threading.get_ident())
        assert meta.answered == ["a"]
        assert outcomes[0].value != lane

        # Once the hang ends, the lane serves again.
        release.set()
        assert finished.wait(2.0)
        assert _wait_for(lambda: _serving_thread(executor) == lane)
    finally:
        release.set()
        executor.close()


def test_untraced_call_after_a_traced_one_adds_no_spans_to_it():
    executor = _executor("a")
    seen = []

    def record(node):
        seen.append(tracing.current_span())
        tracing.add_cost(rows=1)
        with tracing.span("node.work"):
            pass
        return threading.get_ident()

    try:
        root = tracing.Tracer().start_trace("request")
        with root:
            traced, _ = executor.scatter(record)
        names = [span.name for span in root.walk()]
        assert names == ["request", "federation.scatter", "federation.node",
                         "node.work"]
        spans_before = len(names)
        node_span = next(s for s in root.walk() if s.name == "federation.node")
        costs_before = dict(node_span.costs or {})

        untraced, _ = executor.scatter(record)
        assert untraced[0].value == traced[0].value   # same lane thread
        assert seen[-1] is None                       # no inherited context
        assert len(list(root.walk())) == spans_before
        assert (node_span.costs or {}) == costs_before
    finally:
        executor.close()


def test_concurrent_scatters_and_releases_lose_no_call():
    """Eight callers share two lanes while another thread keeps stopping
    them: a call handed to a lane that is being stopped must still run
    (a lost call would surface as a timeout or a wrong value)."""
    before = set(threading.enumerate())
    executor = _executor("a", "b", node_timeout_s=5.0, max_retries=0)
    errors: list = []
    done = threading.Event()

    def client(offset: int) -> None:
        try:
            for i in range(100):
                token = offset * 1000 + i
                outcomes, meta = executor.scatter(
                    lambda node, token=token: (node.name, token))
                assert meta.answered == ["a", "b"], meta.as_dict()
                assert [o.value for o in outcomes] == [("a", token),
                                                       ("b", token)]
        except BaseException as exc:   # surfaced on the test thread
            errors.append(exc)

    def churn() -> None:
        while not done.is_set():
            executor.release("a")
            executor.release("b")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        clients = [threading.Thread(target=client, args=(n,))
                   for n in range(8)]
        churner = threading.Thread(target=churn)
        for thread in clients + [churner]:
            thread.start()
        for thread in clients:
            thread.join(timeout=30.0)
        done.set()
        churner.join(timeout=5.0)
    finally:
        sys.setswitchinterval(interval)
        done.set()
        executor.close()
    assert not any(thread.is_alive() for thread in clients + [churner])
    assert not errors, errors[0]
    assert _wait_for(lambda: not _federation_threads(before))


def test_unclosed_executor_stops_its_lanes_when_collected():
    before = set(threading.enumerate())
    executor = _executor("a", "b")
    executor.scatter(lambda node: None)
    assert _federation_threads(before) == {"federation-a", "federation-b"}
    del executor
    gc.collect()
    assert _wait_for(lambda: not _federation_threads(before))


def test_removed_node_gets_no_lane():
    executor = _executor("a", "b")
    try:
        b = executor.registry.get("b")
        executor.registry.remove("b")
        executor.release("b")
        outcomes, _ = executor.scatter(lambda node: threading.get_ident(),
                                       nodes=[executor.registry.get("a")])
        assert outcomes[0].node_name == "a"
        # A late call for a deregistered node must not resurrect its lane.
        executor._spawn(lambda node: None, b, time.monotonic() + 1.0)
        assert set(executor._lanes) == {"a"}
    finally:
        executor.close()


# --------------------------------------------------------------------- #
# Lane lifecycle (facade level)
# --------------------------------------------------------------------- #

def test_close_stops_every_lane(node_a, node_b):
    before = set(threading.enumerate())
    federation = FederatedEarthQube({"a": node_a, "b": node_b})
    assert federation.similar_images(node_a.archive.names[0], k=3).meta.complete
    assert _federation_threads(before) == {"federation-a", "federation-b"}
    federation.close()
    assert _wait_for(lambda: not _federation_threads(before))


def test_remove_node_stops_its_lane(node_a, node_b):
    before = set(threading.enumerate())
    federation = FederatedEarthQube({"a": node_a, "b": node_b})
    try:
        _touch_every_node(federation)
        federation.remove_node("b")
        assert _wait_for(
            lambda: _federation_threads(before) == {"federation-a"})
    finally:
        federation.close()


def test_a_query_fans_out_to_every_node_at_once(node_a, node_b):
    """Four members, each 50 ms slow in ``query_code``: one query waits
    for the slowest lane, not for the sum of four."""
    delay_s = 0.05
    federation = FederatedEarthQube(
        {"a": node_a, "b": node_b, "c": node_a, "d": node_b})
    try:
        for node in federation.registry:
            def slow(code, *, k=None, radius=None, _real=node.query_code):
                time.sleep(delay_s)
                return _real(code, k=k, radius=radius)

            node.query_code = slow
        name = f"a/{node_a.archive.names[0]}"
        elapsed = []
        for _ in range(3):
            started = time.perf_counter()
            response = federation.similar_images(name, k=5)
            elapsed.append(time.perf_counter() - started)
            assert response.meta.complete, response.meta.as_dict()
            assert response.meta.answered == ["a", "b", "c", "d"]
    finally:
        federation.close()
    # In turn the four calls would take at least 4 * delay_s.
    assert min(elapsed) < 2 * delay_s, elapsed


@pytest.mark.parametrize("departure", ["leave_node", "node_died"])
def test_elastic_departure_stops_its_lane(node_b, departure):
    before = set(threading.enumerate())
    federation = FederatedEarthQube.replicate(
        node_b, ["alpha", "beta", "gamma"],
        FederationConfig(elastic=True, replication_factor=2))
    try:
        _touch_every_node(federation)
        getattr(federation, departure)("gamma")
        assert _wait_for(lambda: _federation_threads(before)
                         == {"federation-alpha", "federation-beta"})
        # The survivors keep answering, every patch still covered.
        response = federation.similar_images(node_b.archive.names[0], k=5)
        assert response.meta.coverage_complete
        assert response.value == node_b.similar_images(
            node_b.archive.names[0], k=5)
    finally:
        federation.close()
    assert _wait_for(lambda: not _federation_threads(before))
