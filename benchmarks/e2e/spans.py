"""In-memory spans recorded from outside the program (traced runs only).

The benchmark wraps the public entry points of each layer *instance* with
closures that record ``(name, start, end, parent, request id, thread)``.
Nothing in ``src/`` knows about it; spans inside the program are a later
issue (see README.md, "Deferred").

Self time is derived per request by a timeline sweep: every instant of the
request's wall interval is attributed to the innermost open span (split
evenly when spans on several threads are open at once — federation node
threads, the micro-batch worker), and what no span covers is
``obs.unattributed``.  So per request, Σ self + unattributed = wall exactly.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from pathlib import Path

NAME, START, END, PARENT, REQUEST, THREAD = range(6)


class Recorder:
    """Span store plus the wrappers that feed it.

    One request is in flight at a time (single closed-loop client), so a
    span that starts on a thread with no open span of its own belongs to
    the innermost open span of the issuing thread.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.requests: list[tuple[int, str, float, float]] = []
        self.enabled = False
        self._local = threading.local()
        self._issuer_stack: list[list] = []
        self._request_id = -1
        self._submitted: "float | None" = None
        self._undo: list[tuple[object, str, object]] = []
        self._wrapped: set[tuple[int, str]] = set()

    # -- recording ------------------------------------------------------ #

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._issuer_stack[-1] if self._issuer_stack else None
        span = [name, time.perf_counter(), 0.0, parent, self._request_id,
                threading.get_ident()]
        stack.append(span)
        self.spans.append(span)      # list.append is atomic across threads
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack().pop()

    def request(self, kind: str, call, argument):
        """Run one request on the issuing thread, bracketed for the sweep."""
        self._request_id = len(self.requests)
        self._issuer_stack = self._stack()
        start = time.perf_counter()
        try:
            return call(argument)
        finally:
            self.requests.append((self._request_id, kind, start,
                                  time.perf_counter()))

    def wrap(self, owner: object, attribute: str, name: str, *,
             marks_submit: bool = False, closes_wait: bool = False,
             nests: bool = True) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        Federation nodes share one extractor and hasher: an attribute is
        wrapped once however many systems reach it.  ``nests=False`` is for
        an entry point that runs on a sibling of its own layer (the index's
        ``search_knn`` calls ``search_knn_batch``): no span opens directly
        under another span of that layer, so the outer one keeps the time.
        ``marks_submit``/``closes_wait`` bracket the micro-batcher queue:
        the time from a submit returning to the batch executor starting is
        recorded as a ``batcher.wait`` span.
        """
        if (id(owner), attribute) in self._wrapped:
            return
        self._wrapped.add((id(owner), attribute))
        original = getattr(owner, attribute)
        layer = name.split(".")[0]

        def traced(*args, **kwargs):
            stack = self._stack()
            if not self.enabled or (
                    not nests and stack
                    and stack[-1][NAME].split(".")[0] == layer):
                return original(*args, **kwargs)
            if closes_wait and self._submitted is not None:
                wait = self._open("batcher.wait")
                wait[START] = self._submitted
                self._submitted = None
                self._close(wait)
            span = self._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(span)
                if marks_submit:
                    self._submitted = span[END]

        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def unwrap_all(self) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()
        self._wrapped.clear()

    # -- analysis ------------------------------------------------------- #

    def self_times(self) -> "list[tuple[str, float, dict[str, float], dict[str, int]]]":
        """Per request: ``(class, wall_ms, {span name: self_ms}, {name: calls})``.

        ``self_ms`` has the extra key ``obs.unattributed``.
        """
        by_request: dict[int, list[list]] = defaultdict(list)
        for span in self.spans:
            by_request[span[REQUEST]].append(span)
        out = []
        for request_id, kind, start, end in self.requests:
            self_ms: dict[str, float] = defaultdict(float)
            calls: dict[str, int] = defaultdict(int)
            events = []
            for span in by_request.get(request_id, ()):
                calls[span[NAME]] += 1
                # A worker thread may close its span just after the issuing
                # thread returned: clip to the request's wall interval.
                events.append((max(span[START], start), 1, span))
                events.append((min(span[END] or end, end), 0, span))
            events.sort(key=lambda e: (e[0], e[1]))
            open_spans: dict[int, list] = {}
            open_children: dict[int, int] = defaultdict(int)
            cursor = start
            for moment, is_start, span in events:
                elapsed = (moment - cursor) * 1e3
                if elapsed > 0:
                    leaves = [s for key, s in open_spans.items()
                              if not open_children[key]]
                    for leaf in leaves:
                        self_ms[leaf[NAME]] += elapsed / len(leaves)
                    if not leaves:
                        self_ms["obs.unattributed"] += elapsed
                    cursor = moment
                if is_start:
                    open_spans[id(span)] = span
                    open_children[id(span[PARENT])] += 1
                else:
                    del open_spans[id(span)]
                    open_children[id(span[PARENT])] -= 1
            self_ms["obs.unattributed"] += max(0.0, (end - cursor) * 1e3)
            out.append((kind, (end - start) * 1e3, dict(self_ms), dict(calls)))
        return out

    def dump(self, path: Path, **header) -> None:
        """Write the spans (µs since the first request) for offline reading."""
        origin = self.requests[0][2] if self.requests else 0.0

        def microseconds(t: float) -> int:
            return round((t - origin) * 1e6)

        index_of = {id(span): i for i, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({
                **header,
                "span_columns": ["name", "start_us", "end_us", "parent",
                                 "request", "thread"],
                "spans": [[s[NAME], microseconds(s[START]),
                           microseconds(s[END]),
                           index_of.get(id(s[PARENT]), -1), s[REQUEST],
                           s[THREAD]] for s in self.spans],
                "request_columns": ["request", "class", "start_us", "end_us"],
                "requests": [[r, kind, microseconds(start), microseconds(end)]
                             for r, kind, start, end in self.requests],
            }, handle)


def instrument(recorder: Recorder, rig) -> None:
    """Wrap the public entry points of every layer instance of ``rig``."""
    import repro.earthqube.api as api_module
    import repro.federation.facade as facade_module

    wrap = recorder.wrap
    for method in ("search", "similar", "similar_batch", "delete_image"):
        wrap(rig.api, method, "api")
    wrap(api_module, "parse_query_request", "api.parse")
    if rig.federation is not None:
        federation = rig.federation
        for method in ("search", "similar_images", "similar_images_batch",
                       "delete_image"):
            wrap(federation, method, "federation")
        wrap(federation.executor, "scatter", "federation.scatter")
        wrap(facade_module, "merge_similarity", "federation.merge")
        wrap(facade_module, "merge_search", "federation.merge")
    for system in rig.systems:
        for method in ("search", "similar_images", "similar_images_batch",
                       "ingest_new_patch", "delete_image"):
            wrap(system, method, "server")
        wrap(system, "auto_label", "autolabel")
        wrap(system.planner, "plan_similarity", "planner.plan")
        wrap(system.search_service, "search", "search")
        wrap(system.search_service, "matching_names", "search")
        metadata = system.db["metadata"]
        wrap(metadata, "find", "store.find")
        wrap(metadata, "field_values", "store.find")
        for method in ("insert_one", "delete_one", "get"):
            wrap(metadata, method, "store.write")
        cbir = system.cbir
        for method in ("query_by_name", "query_batch", "query_by_patch",
                       "query_code", "query_codes_batch"):
            wrap(cbir, method, "cbir")
        wrap(cbir, "make_filter", "cbir.make_filter")
        wrap(cbir, "add_image", "index.add")
        wrap(cbir, "remove_image", "index.remove")
        wrap(cbir, "compact", "index.compact")
        wrap(cbir._index, "search_knn", "index.knn", nests=False)
        wrap(cbir._index, "search_radius", "index.radius", nests=False)
        wrap(cbir._index, "search_knn_batch", "index.batch", nests=False)
        wrap(cbir._index, "search_radius_batch", "index.batch", nests=False)
        wrap(system.extractor, "extract", "features.extract")
        wrap(system.hasher, "hash_packed", "hasher.hash")
        gateway = system.gateway
        if gateway is not None:
            for method in ("search", "similar_images", "similar_images_batch",
                           "query_code", "query_codes_batch", "on_ingest",
                           "on_delete", "on_compact"):
                wrap(gateway, method, "gateway")
            wrap(gateway.cache, "get", "cache.get")
            wrap(gateway.cache, "put", "cache.put")
            wrap(gateway.cache, "invalidate", "cache.invalidate")
            wrap(gateway.batcher, "submit", "batcher.submit", marks_submit=True)
            wrap(gateway.batcher, "submit_many", "batcher.submit",
                 marks_submit=True)
            wrap(gateway.index, "search_batch", "shards.scan", closes_wait=True)
        durability = system.durability
        if durability is not None:
            wrap(durability.wal, "append", "wal.append")
            wrap(durability, "checkpoint", "durability.checkpoint")
