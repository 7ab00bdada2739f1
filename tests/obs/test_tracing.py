"""Tracing primitives: span nesting, propagation, sampling, serialization."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.obs import tracing
from repro.obs.tracing import NULL_SPAN, Span, Tracer


@pytest.fixture()
def root():
    """An entered root span; the thread context is clean afterwards."""
    tracer = Tracer()
    span = tracer.start_trace("root")
    span.__enter__()
    yield span
    span.__exit__(None, None, None)
    assert tracing.current_span() is None


class TestSpanBasics:
    def test_untraced_span_is_shared_null_singleton(self):
        assert tracing.current_span() is None
        assert tracing.span("anything", k=1) is NULL_SPAN
        assert tracing.span("other") is NULL_SPAN
        # The null span is a no-op context manager and absorbs annotate.
        with tracing.span("noop") as sp:
            sp.annotate(x=1)

    def test_untraced_annotate_is_noop(self):
        tracing.annotate(x=1)  # must not raise

    def test_nesting_installs_and_restores_active_span(self, root):
        assert tracing.current_span() is root
        with tracing.span("child") as child:
            assert tracing.current_span() is child
            with tracing.span("grandchild") as grandchild:
                assert tracing.current_span() is grandchild
            assert tracing.current_span() is child
        assert tracing.current_span() is root
        assert [c.name for c in root.children] == ["child"]
        assert [c.name for c in child.children] == ["grandchild"]

    def test_child_inherits_trace_id_and_parent_id(self, root):
        with tracing.span("child") as child:
            pass
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id

    def test_exception_restores_context_and_stamps_error(self, root):
        with pytest.raises(ValueError):
            with tracing.span("boom") as sp:
                raise ValueError("nope")
        assert tracing.current_span() is root
        assert sp.attrs["error"] == "ValueError"
        assert sp.end_s is not None

    def test_annotate_coerces_numpy_scalars(self, root):
        with tracing.span("child", items=np.int64(3)) as sp:
            sp.annotate(ratio=np.float64(0.5), label="x")
        assert sp.attrs == {"items": 3, "ratio": 0.5, "label": "x"}
        assert type(sp.attrs["items"]) is int
        assert type(sp.attrs["ratio"]) is float

    def test_walk_is_depth_first(self, root):
        with tracing.span("a"):
            with tracing.span("a1"):
                pass
        with tracing.span("b"):
            pass
        assert [s.name for s in root.walk()] == ["root", "a", "a1", "b"]


class TestCrossThread:
    def test_capture_attach_stitches_worker_spans(self, root):
        captured = tracing.capture()
        assert captured is root

        def worker():
            assert tracing.current_span() is None
            with tracing.attach(captured):
                with tracing.span("work"):
                    pass
            assert tracing.current_span() is None

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert [c.name for c in root.children] == ["work"]
        assert root.children[0].trace_id == root.trace_id

    def test_attach_none_clears_context(self, root):
        with tracing.attach(None):
            assert tracing.current_span() is None
            assert tracing.span("ignored") is NULL_SPAN
        assert tracing.current_span() is root

    def test_capture_without_trace_is_none(self):
        assert tracing.capture() is None


class TestSerialization:
    def test_as_dict_tree_shape_and_self_time(self, root):
        with tracing.span("child", k=5):
            with tracing.span("leaf"):
                pass
        root.__exit__(None, None, None)
        tree = root.as_dict()
        assert tree["name"] == "root"
        assert tree["parent_id"] is None
        assert tree["start_ms"] == 0.0
        child = tree["children"][0]
        assert child["attrs"] == {"k": 5}
        assert child["start_ms"] >= 0.0
        # Self time never exceeds duration and is never negative.
        for node in (tree, child, child["children"][0]):
            assert 0.0 <= node["self_time_ms"] <= node["duration_ms"] + 1e-9
        assert tree["duration_ms"] >= child["duration_ms"]
        root.__enter__()  # restore for the fixture's exit

    def test_unfinished_child_is_marked_not_dropped(self, root):
        child = Span("stuck", root.trace_id, root.span_id)
        root.children.append(child)
        child.start_s = root.start_s  # started, never finished
        root.__exit__(None, None, None)
        tree = root.as_dict()
        stuck = tree["children"][0]
        assert stuck["unfinished"] is True
        assert "duration_ms" not in stuck
        root.__enter__()

    def test_attribute_cleaning_matches_the_abc_chain(self):
        """The exact-type fast path in ``_clean`` returns what the plain
        ``numbers`` ABC chain returns, for every kind of attribute."""
        import collections
        import enum
        import fractions
        import numbers

        def reference(value):
            if isinstance(value, (str, bool, type(None))):
                return value
            if isinstance(value, numbers.Integral):
                return int(value)
            if isinstance(value, numbers.Real):
                return float(value)
            if isinstance(value, dict):
                return {str(key): reference(item) for key, item in value.items()}
            if isinstance(value, (list, tuple)):
                return [reference(item) for item in value]
            return repr(value)

        class Label(str):
            pass

        class Level(enum.IntEnum):
            HIGH = 3

        class Opaque:
            def __repr__(self) -> str:
                return "<opaque>"

        Pair = collections.namedtuple("Pair", "left right")
        values = [
            "plain", Label("sub"), True, False, None, 7, -2 ** 70, 0.5,
            float("nan"), Level.HIGH, fractions.Fraction(1, 3), 2 + 1j,
            np.int64(5), np.uint8(200), np.float32(0.25), np.float64(1.5),
            np.bool_(True), np.array([1, 2]), b"raw", {1, 2}, Opaque(),
            (1, (2.5, ("deep", np.int32(4)))), [[], (), {}],
            Pair(np.int16(1), "r"),
            {"plan": "linear:pre", 3: np.float64(2.0), (1, 2): [None, True],
             None: {"nested": (Level.HIGH, Opaque())}},
            collections.OrderedDict(b=1, a=np.int8(2)),
            collections.defaultdict(list, {"k": [1.0]}),
        ]
        for value in values:
            cleaned, expected = tracing._clean(value), reference(value)
            assert repr(cleaned) == repr(expected), value


class TestSampler:
    def test_rate_one_samples_everything(self):
        tracer = Tracer(sample_rate=1.0)
        assert all(tracer.should_sample() for _ in range(20))

    def test_rate_zero_and_disabled_sample_nothing(self):
        for tracer in (Tracer(sample_rate=0.0),
                       Tracer(enabled=False, sample_rate=1.0)):
            assert not any(tracer.should_sample() for _ in range(20))

    def test_fractional_rate_is_deterministic_and_evenly_spaced(self):
        tracer = Tracer(sample_rate=0.1)
        decisions = [tracer.should_sample() for _ in range(30)]
        assert [i + 1 for i, d in enumerate(decisions) if d] == [10, 20, 30]

    def test_stats_track_seen_and_sampled(self):
        tracer = Tracer(sample_rate=0.5)
        for _ in range(10):
            tracer.should_sample()
        stats = tracer.stats()
        assert stats["requests_seen"] == 10
        assert stats["requests_sampled"] == 5

    def test_trace_ids_are_unique(self):
        tracer = Tracer()
        ids = {tracer.start_trace("t").trace_id for _ in range(5)}
        assert len(ids) == 5
