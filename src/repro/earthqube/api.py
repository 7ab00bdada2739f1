"""JSON-level request API: the back-end server's wire format.

"The back-end server provides the means to submit geospatial queries,
filter the images based on different search criteria, and perform CBIR.
To this end, EarthQube invokes different services that validate and process
the user query" (paper, Section 3.2).

:class:`EarthQubeAPI` is that validation/processing layer: it accepts plain
``dict`` requests (what an HTTP handler would deserialize), validates every
field into typed query objects, dispatches to the system services, and
returns plain JSON-compatible ``dict`` responses.  All validation failures
surface as structured error responses instead of exceptions, mirroring a
well-behaved HTTP 400.
"""

from __future__ import annotations

import numbers
from typing import TYPE_CHECKING, Any, Mapping

from ..errors import ReproError, ValidationError
from ..geo.bbox import BoundingBox
from ..geo.shapes import Circle, Polygon, Rectangle, Shape
from ..obs import Observability, render_prometheus
from .label_filter import LabelOperator
from .query import QuerySpec
from .server import EarthQube

if TYPE_CHECKING:
    from ..federation.facade import FederatedEarthQube
    from ..index.results import Ranking

_OPERATORS = {op.value: op for op in LabelOperator}


def _parse_shape(payload: "Mapping[str, Any] | None") -> "Shape | None":
    """Parse the query panel's shape payload.

    Formats (mirroring the coordinates subsection / drawn shapes):
      {"type": "rectangle", "west": .., "south": .., "east": .., "north": ..}
      {"type": "circle", "lon": .., "lat": .., "radius_km": ..}
      {"type": "polygon", "coordinates": [[lon, lat], ...]}
    """
    if payload is None:
        return None
    if not isinstance(payload, Mapping):
        raise ValidationError("shape must be an object")
    kind = payload.get("type")
    if kind == "rectangle":
        west, south, east, north = _coordinates(
            payload, kind, ("west", "south", "east", "north"))
        return Rectangle(BoundingBox(west=west, south=south,
                                     east=east, north=north))
    if kind == "circle":
        lon, lat, radius_km = _coordinates(
            payload, kind, ("lon", "lat", "radius_km"))
        return Circle(lon=lon, lat=lat, radius_km=radius_km)
    if kind == "polygon":
        coords = payload.get("coordinates")
        if not isinstance(coords, (list, tuple)):
            raise ValidationError("polygon shape needs a coordinates list")
        try:
            vertices = [(float(lon), float(lat)) for lon, lat in coords]
        except (TypeError, ValueError):
            raise ValidationError(f"polygon coordinates must be [lon, lat] "
                                  f"number pairs, got {coords!r}") from None
        return Polygon.from_coords(vertices)
    raise ValidationError(
        f"unknown shape type {kind!r}; expected rectangle, circle, or polygon")


def _coordinates(payload: Mapping[str, Any], kind: str,
                 keys: "tuple[str, ...]") -> "list[float]":
    """The named numeric fields of a shape payload, as floats."""
    values = []
    for key in keys:
        if key not in payload:
            raise ValidationError(f"{kind} shape is missing {key!r}")
        try:
            values.append(float(payload[key]))
        except (TypeError, ValueError):
            raise ValidationError(f"{kind} shape {key!r} must be a number, "
                                  f"got {payload[key]!r}") from None
    return values


def _names(payload: Mapping[str, Any], key: str) -> "tuple[str, ...] | None":
    """An optional list-of-strings request field; ``None`` when absent or
    empty.  A bare string is rejected rather than split into characters."""
    value = payload.get(key)
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or not all(
            isinstance(item, str) for item in value):
        raise ValidationError(f"{key} must be a list of strings, got {value!r}")
    return tuple(value) or None


def _integer(value: Any, name: str) -> int:
    """An integral number, or the decimal string a query string carries.

    Never truncated: a bool or a fraction is a ValidationError, not 1 or 2.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValidationError(f"{name} must be an integer, got {value!r}")


def _flag(value: Any, name: str) -> bool:
    """A JSON boolean, or the ``"true"`` / ``"false"`` a query string
    carries; anything else (``"no"``, ``0``, ``[]``) is a ValidationError
    rather than its truthiness."""
    if value is True or value == "true":
        return True
    if value is False or value == "false":
        return False
    raise ValidationError(f"{name} must be true or false, got {value!r}")


#: The fields a similarity request may carry besides its name field.
_SIMILARITY_FIELDS = frozenset({"k", "radius", "filter", "trace", "explain"})


def _similarity_request(request: Any, name_field: str) -> None:
    """Reject a similarity body that is not an object or carries a field
    the route does not read, with ``/search``'s message."""
    if not isinstance(request, Mapping):
        raise ValidationError("request body must be an object")
    unknown = set(request) - _SIMILARITY_FIELDS - {name_field}
    if unknown:
        raise ValidationError(f"unknown request fields: {sorted(unknown)}")


def _code_query_args(request: Mapping[str, Any]) -> dict:
    """The ``k`` / ``radius`` arguments of a similarity request."""
    radius = request.get("radius")
    if radius is not None:
        return {"k": None, "radius": _integer(radius, "radius")}
    return {"k": _integer(request.get("k", 10), "k")}


def _ranked(ranking: "Ranking") -> list[dict]:
    """A ranking's rows as the wire's ``{"name", "distance"}`` objects:
    the one place a ranking becomes per-row objects.  A system's ids are
    its patch names (namespaced under federation), already strings."""
    return [{"name": name, "distance": distance}
            for name, distance in zip(ranking.ids,
                                      ranking.distances.tolist())]


def parse_query_request(payload: Mapping[str, Any]) -> QuerySpec:
    """Validate a raw search request into a :class:`QuerySpec`."""
    if not isinstance(payload, Mapping):
        raise ValidationError("request body must be an object")
    unknown = set(payload) - {"shape", "date_from", "date_to", "seasons",
                              "satellites", "labels", "label_operator",
                              "limit", "skip"}
    if unknown:
        raise ValidationError(f"unknown request fields: {sorted(unknown)}")
    operator_name = payload.get("label_operator", "some")
    # Only a string can name an operator; a list or object would not even
    # hash for the lookup.
    operator = (_OPERATORS.get(operator_name)
                if isinstance(operator_name, str) else None)
    if operator is None:
        raise ValidationError(
            f"unknown label_operator {operator_name!r}; "
            f"expected one of {sorted(_OPERATORS)}")
    return QuerySpec(
        shape=_parse_shape(payload.get("shape")),
        date_from=payload.get("date_from"),
        date_to=payload.get("date_to"),
        seasons=_names(payload, "seasons"),
        satellites=_names(payload, "satellites"),
        labels=_names(payload, "labels"),
        label_operator=operator,
        limit=payload.get("limit"),
        skip=payload.get("skip", 0),
    )


class EarthQubeAPI:
    """Dict-in/dict-out facade over a bootstrapped :class:`EarthQube`.

    With ``federation`` set, query routes (search / similar /
    similar_batch / statistics) scatter-gather across the federation's
    nodes instead of hitting the local system; federated responses carry a
    ``federation`` section (the :class:`~repro.federation.executor.
    FederatedResultMeta`) naming the nodes that answered, failed, or were
    skipped.  ``GET /federation/nodes`` exposes membership and health.
    """

    def __init__(self, system: "EarthQube | None" = None, *,
                 federation: "FederatedEarthQube | None" = None) -> None:
        if system is None and federation is None:
            raise ValidationError(
                "EarthQubeAPI needs a system, a federation, or both")
        self.system = system
        self.federation = federation

    @staticmethod
    def _error(exc: Exception) -> dict:
        return {"ok": False, "error": type(exc).__name__, "message": str(exc)}

    def _require_system(self) -> EarthQube:
        if self.system is None:
            raise ValidationError("this route needs a local system "
                                  "(the API was built federation-only)")
        return self.system

    def _obs(self) -> Observability:
        """The observability facade query routes report into.

        Federated APIs observe at the federation front-end (the request's
        root lives there; per-node work stitches in as child spans);
        otherwise at the local system.
        """
        if self.federation is not None:
            return self.federation.obs
        return self._require_system().obs

    @staticmethod
    def _attach_trace(payload: dict, request_ctx) -> dict:
        """Add ``trace_id`` + the span tree to a ``trace=true`` response."""
        if request_ctx.traced:
            payload["trace_id"] = request_ctx.trace_id
            payload["trace"] = request_ctx.tree()
        return payload

    @staticmethod
    def _attach_costs(explain: dict, request_ctx) -> dict:
        """Add the request's cost profile to an ``explain=true`` section.

        ``costs`` totals the typed operator counters (rows scanned, buckets
        probed, candidates verified, ...); ``stages`` attributes them to
        the operator stages with per-stage self-time.  Both come from the
        span tree when traced, from the cost-only ledger otherwise, and
        are omitted only when cost tracking is disabled.

        When a filtered similarity query recorded its plan on the span tree
        the section also carries ``plan`` (the one plan, the filter's
        selectivity and tier context, and the measured execution cost) and
        ``store_plan`` (the columnar intersection-order decision).  Legacy string ``plan`` annotations
        (the metadata access path) are left to the route's own fields.
        """
        profile = request_ctx.profile()
        if profile is not None:
            explain["costs"] = profile["costs"]
            explain["stages"] = profile["stages"]
            attrs = profile.get("attrs") or {}
            plan = attrs.get("plan")
            if isinstance(plan, dict) and "plan" not in explain:
                explain["plan"] = plan
            store_plan = attrs.get("store_plan")
            if isinstance(store_plan, dict) and "store_plan" not in explain:
                explain["store_plan"] = store_plan
        return explain

    def _attach_federation(self, payload: dict, meta) -> dict:
        """Add the coverage meta; flag responses that lost nodes.

        Whenever the scatter recorded failed nodes the response carries a
        top-level ``partial`` flag plus the failed node list — clients
        must not have to dig through ``federation.failed`` to notice.
        ``partial`` is ``true`` only when the failures actually cost
        coverage: an elastic federation that answered every ring segment
        through fallback replicas reports ``partial: false`` (the result
        is byte-complete) while still naming the failed nodes.  Each
        coverage-losing response increments the
        ``federation.partial_responses`` counter on ``GET /metrics``.
        """
        if meta is None:
            return payload
        payload["federation"] = meta.as_dict()
        if meta.failed:
            partial = not meta.coverage_complete
            payload["partial"] = partial
            payload["failed_nodes"] = sorted(meta.failed)
            if partial and self.federation is not None:
                self.federation.metrics.counter(
                    "federation.partial_responses").increment()
        return payload

    @staticmethod
    def _parse_filter(payload: "Mapping[str, Any] | None") -> "QuerySpec | None":
        """Parse the optional metadata filter of a CBIR request.

        The filter reuses the search-request schema, but selects *all*
        matching images: pagination fields are meaningless and rejected.
        """
        if payload is None:
            return None
        if not isinstance(payload, Mapping):
            raise ValidationError("filter must be an object")
        spec = parse_query_request(payload)
        if spec.limit is not None or spec.skip:
            raise ValidationError(
                "a similarity filter selects all matching images; "
                "it cannot carry limit/skip")
        return spec

    def search(self, request: Mapping[str, Any]) -> dict:
        """POST /search — query-panel search (federated when configured).

        ``explain=true`` adds an ``explain`` section whose ``plan`` object
        carries the access-path ``query_plan`` string plus — when the
        store's cost-ordered intersection ran — the chosen source order,
        the rejected declaration order with predicted costs, and the
        measured intersection cost; ``candidates_examined`` counts the
        index candidates, of which the ``docs_examined`` cost went through
        the matcher and ``rows_decided`` were answered by the columns.
        ``trace=true`` adds ``trace_id`` and the request's span ``trace``
        tree.
        """
        try:
            if not isinstance(request, Mapping):
                raise ValidationError("request body must be an object")
            request = dict(request)
            explain = _flag(request.pop("explain", False), "explain")
            trace = _flag(request.pop("trace", False), "trace")
            spec = parse_query_request(request)
            with self._obs().request("api.search", force_trace=trace) as ctx:
                if self.federation is not None:
                    federated = self.federation.search(spec)
                    response, meta = federated.value, federated.meta
                else:
                    response, meta = self._require_system().search(spec), None
        except ReproError as exc:
            return self._error(exc)
        payload = {
            "ok": True,
            "total_matches": response.total_matches,
            "plan": response.plan,
            "names": response.names,
            "documents": response.documents,
        }
        if explain:
            section = self._attach_costs(
                {"candidates_examined": response.candidates_examined}, ctx)
            plan_section = {"query_plan": response.plan}
            plan_section.update(section.pop("store_plan", None) or {})
            section["plan"] = plan_section
            payload["explain"] = section
        self._attach_federation(payload, meta)
        return self._attach_trace(payload, ctx)

    def similar(self, request: Mapping[str, Any]) -> dict:
        """POST /similar — CBIR from an archive image name.

        Under federation the name may be namespaced (``node/patch_name``);
        a bare name resolves to the first node that indexes it.  An
        optional ``filter`` object (search-request schema) restricts the
        ranking to metadata-matching images (filtered similarity).
        ``explain=true`` adds an ``explain`` section with the request's
        operator cost counters, per-stage self-times, and, for a filtered
        query, its ``plan`` record — the one plan (``linear:pre``), the
        filter's selectivity and tier context, and the measured execution
        cost (plus ``store_plan`` when a metadata filter ran the columnar
        intersection planner).
        """
        try:
            _similarity_request(request, "name")
            if "name" not in request:
                raise ValidationError("similar request needs a 'name' field")
            name = request["name"]
            if not isinstance(name, str):
                raise ValidationError(
                    f"similar name must be a string, got {name!r}")
            trace = _flag(request.get("trace", False), "trace")
            explain = _flag(request.get("explain", False), "explain")
            kwargs = _code_query_args(request)
            kwargs["filter"] = self._parse_filter(request.get("filter"))
            meta = None
            with self._obs().request("api.similar", force_trace=trace) as ctx:
                if self.federation is not None:
                    federated = self.federation.similar_images(name, **kwargs)
                    result, meta = federated.value, federated.meta
                else:
                    result = self._require_system().similar_images(name, **kwargs)
        except ReproError as exc:
            return self._error(exc)
        payload = {
            "ok": True,
            "query": result.query_name,
            "radius_used": result.radius_used,
            "results": _ranked(result.ranking),
        }
        if explain:
            payload["explain"] = self._attach_costs({}, ctx)
        self._attach_federation(payload, meta)
        return self._attach_trace(payload, ctx)

    def similar_batch(self, request: Mapping[str, Any]) -> dict:
        """POST /similar/batch — CBIR for many archive images in one call.

        Request: ``{"names": [...], "k": 10}`` or
        ``{"names": [...], "radius": 2}``, optionally with a ``filter``
        object applied to the whole batch.  The whole batch executes one
        coalesced index pass; the response carries one entry per name, in
        request order, each shaped exactly like a ``/similar`` response.
        ``explain=true`` adds the batch's cost counters and, when
        filtered, the ``plan`` record, as on ``/similar``.
        """
        try:
            _similarity_request(request, "names")
            names = _names(request, "names")
            if not names:
                raise ValidationError(
                    "similar_batch request needs a non-empty 'names' list")
            names = list(names)
            trace = _flag(request.get("trace", False), "trace")
            explain = _flag(request.get("explain", False), "explain")
            kwargs = _code_query_args(request)
            kwargs["filter"] = self._parse_filter(request.get("filter"))
            meta = None
            with self._obs().request("api.similar_batch",
                                     force_trace=trace) as ctx:
                if self.federation is not None:
                    federated = self.federation.similar_images_batch(
                        names, **kwargs)
                    responses, meta = federated.value, federated.meta
                else:
                    responses = self._require_system().similar_images_batch(
                        names, **kwargs)
        except ReproError as exc:
            return self._error(exc)
        payload = {
            "ok": True,
            "count": len(responses),
            "queries": [{
                "query": response.query_name,
                "radius_used": response.radius_used,
                "results": _ranked(response.ranking),
            } for response in responses],
        }
        if explain:
            payload["explain"] = self._attach_costs({}, ctx)
        self._attach_federation(payload, meta)
        return self._attach_trace(payload, ctx)

    def delete_image(self, name: str) -> dict:
        """DELETE /images/<name> — remove an image from the live archive.

        Removes the store documents and the retrieval code in one step, so
        the image immediately stops appearing in search, similarity (all
        paths), statistics, and rendering.  Under federation the name may
        be namespaced (``node/patch_name``); a bare name resolves to the
        first node that indexes it, and the response names the owning node.
        """
        try:
            if not isinstance(name, str) or not name:
                raise ValidationError("delete_image needs a non-empty name")
            if self.federation is not None:
                summary = self.federation.delete_image(name)
            else:
                summary = self._require_system().delete_image(name)
        except ReproError as exc:
            return self._error(exc)
        return {"ok": True, "deleted": True, **summary}

    def statistics(self, request: Mapping[str, Any]) -> dict:
        """POST /statistics — label statistics for a list of names."""
        try:
            names = _names(request, "names") if isinstance(request, Mapping) else None
            if not names:
                raise ValidationError("statistics request needs a non-empty 'names' list")
            meta = None
            if self.federation is not None:
                federated = self.federation.statistics_for(list(names))
                stats, meta = federated.value, federated.meta
            else:
                stats = self._require_system().statistics_for(list(names))
        except ReproError as exc:
            return self._error(exc)
        payload = {
            "ok": True,
            "total_images": stats.total_images,
            "bars": [{"label": b.label, "count": b.count, "color": b.color}
                     for b in stats],
        }
        return self._attach_federation(payload, meta)

    def feedback(self, request: Mapping[str, Any]) -> dict:
        """POST /feedback — store anonymous feedback (always node-local)."""
        try:
            if not isinstance(request, Mapping) or "text" not in request:
                raise ValidationError("feedback request needs a 'text' field")
            text = request["text"]
            if not isinstance(text, str):
                raise ValidationError(
                    f"feedback text must be a string, got {text!r}")
            self._require_system().submit_feedback(
                text,
                category=request.get("category", "comment"))
        except ReproError as exc:
            return self._error(exc)
        return {"ok": True}

    def describe(self) -> dict:
        """GET /describe — system (and federation) summary."""
        payload: dict = {"ok": True}
        if self.system is not None:
            payload.update(self.system.describe())
        if self.federation is not None:
            payload["federation"] = self.federation.describe()
        return payload

    def federation_nodes(self) -> dict:
        """GET /federation/nodes — membership, capabilities, health.

        Each entry names one node with its capability descriptor
        (collections, code bit-width, corpus size) and circuit-breaker
        health state; ``federated: false`` when no federation is wired.
        """
        if self.federation is None:
            return {"ok": True, "federated": False, "count": 0, "nodes": []}
        nodes = self.federation.nodes()
        payload = {"ok": True, "federated": True, "count": len(nodes),
                   "nodes": nodes}
        if self.federation.elastic:
            payload["replication"] = {
                "replication_factor":
                    self.federation.config.replication_factor,
                "ring": self.federation.ring.describe(),
                "pending_hints": self.federation.hints.snapshot(),
            }
        return payload

    def federation_join(self, request: Mapping[str, Any]) -> dict:
        """POST /federation/join — add a node to a live elastic federation.

        Request: ``{"name": "<node>", "serving": false}``.  The new node
        starts as an empty clone of an existing member (same trained
        models), receives its shard through seq-stamped snapshot handoff,
        catches up on writes that raced the transfer, and only then joins
        the placement ring.  The response reports how many patches/bytes
        were shipped and how many tail writes were replayed.
        """
        try:
            if self.federation is None:
                raise ValidationError("this API has no federation wired")
            if not isinstance(request, Mapping) or "name" not in request:
                raise ValidationError("join request needs a 'name' field")
            summary = self.federation.join_node(
                str(request["name"]),
                serving=bool(request.get("serving", False)))
        except ReproError as exc:
            return self._error(exc)
        return {"ok": True, "joined": True, **summary}

    def federation_leave(self, request: Mapping[str, Any]) -> dict:
        """POST /federation/leave — remove a node from an elastic federation.

        Request: ``{"name": "<node>", "graceful": true}``.  Graceful
        (default): the node ships its shard to the members that inherit
        its placement, then deregisters — no replication debt.
        ``graceful: false`` declares the node dead instead: it is ejected
        immediately and its shard is re-replicated from the surviving
        replicas (the response lists any patch with no surviving copy).
        """
        try:
            if self.federation is None:
                raise ValidationError("this API has no federation wired")
            if not isinstance(request, Mapping) or "name" not in request:
                raise ValidationError("leave request needs a 'name' field")
            name = str(request["name"])
            if request.get("graceful", True):
                summary = self.federation.leave_node(name)
            else:
                summary = self.federation.node_died(name)
        except ReproError as exc:
            return self._error(exc)
        return {"ok": True, "left": True, **summary}

    def metrics(self, format: str = "json") -> "dict | str":
        """GET /metrics — serving + federation observability snapshot.

        ``serving``: latency percentiles, QPS, cache hit/miss accounting,
        micro-batcher coalescing stats, and shard occupancy when the
        serving tier is enabled (``null`` otherwise).  ``federation``:
        scatter-gather latency with the per-node series when federated.

        ``workload``: the ``query.latency`` histogram of every root
        request, one series per ``strategy`` (``prefilter`` /
        ``unfiltered``) and filter ``selectivity`` bucket (``none``,
        ``<=1%``, ...), when observability is enabled; per-request costs
        are in ``explain=true`` and the slow-query log.  ``durability``:
        WAL fsync latency, WAL / snapshot gauges and checkpoint /
        recovery counts when the node is durable.

        ``GET /metrics?format=prometheus`` returns the same snapshot as
        Prometheus text exposition (version 0.0.4) instead of JSON:
        counters as ``_total`` series, latency summaries in seconds with
        quantile labels plus cumulative ``_hist_seconds`` bucket series,
        labeled families (e.g. per-node latency) with their label sets.
        """
        if format not in ("json", "prometheus"):
            return self._error(ValidationError(
                f"format must be 'json' or 'prometheus', got {format!r}"))
        payload: dict = {"ok": True, "serving": None}
        if self.system is not None and self.system.gateway is not None:
            payload["serving"] = self.system.gateway.metrics_snapshot()
        if self.system is not None and self.system.durability is not None:
            payload["durability"] = self.system.durability.metrics_snapshot()
        if self.federation is not None:
            payload["federation"] = self.federation.metrics_snapshot()
        latency = self._obs().metrics
        if latency is not None:
            payload["workload"] = latency.snapshot()
        if format == "prometheus":
            return render_prometheus(payload)
        return payload

    def admin_checkpoint(self) -> dict:
        """POST /admin/checkpoint — checkpoint the durable node now.

        Writes an atomic snapshot (document store + packed code matrix +
        alive mask) covering the current WAL sequence, then truncates the
        covered log prefix.  Requires a local system with the durability
        tier attached (:class:`~repro.earthqube.durability.DurableEarthQube`);
        an un-durable node answers with a structured error.
        """
        try:
            system = self._require_system()
            durability = system.durability
            if durability is None:
                raise ValidationError(
                    "this node has no durability tier; attach a "
                    "DurableEarthQube to enable checkpoints")
            info = durability.checkpoint()
        except ReproError as exc:
            return self._error(exc)
        return {
            "ok": True,
            "checkpoint": {
                "wal_seq": info.wal_seq,
                "num_rows": info.num_rows,
                "num_words": info.num_words,
                "created_at": info.created_at,
            },
            "wal_records": durability.wal.record_count,
        }

    def health(self) -> dict:
        """GET /health — liveness: the process answers requests at all."""
        return {"ok": True, "status": "alive"}

    def ready(self) -> dict:
        """GET /ready — readiness: can this API actually serve queries?

        A local system is ready once its Hamming index holds at least one
        image; a federation is ready when it has registered nodes and at
        least one circuit is not open.  ``ready`` is the conjunction, so a
        load balancer can gate traffic on this single flag.

        A durable node additionally reports its durability state — last
        checkpoint sequence, WAL length, and whether a recovery replay is
        in progress (which gates readiness, so an orchestrator holds
        traffic until the replay lands).
        """
        ready = True
        payload: dict = {"ok": True, "system": None, "federation": None}
        if self.system is not None:
            indexed = len(self.system.cbir)
            payload["system"] = {
                "index_built": indexed > 0,
                "indexed_images": indexed,
                "serving_enabled": self.system.gateway is not None,
            }
            ready = ready and indexed > 0
            durability = self.system.durability
            if durability is not None:
                info = durability.durability_info()
                payload["system"]["durability"] = {
                    "last_checkpoint_seq": info["last_checkpoint_seq"],
                    "snapshot_age_seconds": info["snapshot_age_seconds"],
                    "wal_records": info["wal_records"],
                    "wal_last_seq": info["wal_last_seq"],
                    "last_applied_seq": info["last_applied_seq"],
                    "recovery_in_progress": info["recovery_in_progress"],
                }
                ready = ready and not info["recovery_in_progress"]
        if self.federation is not None:
            nodes = self.federation.nodes()
            open_circuits = sum(1 for entry in nodes
                                if entry["health"]["state"] == "open")
            payload["federation"] = {
                "nodes_total": len(nodes),
                "nodes_open_circuit": open_circuits,
                "nodes_available": len(nodes) - open_circuits,
                # How long each ejected node has been out: an operator (or
                # autoscaler) reads sustained ages as "replace the node",
                # transient ones as "a probe will readmit it shortly".
                "open_breaker_ages_seconds": {
                    entry["name"]: entry["health"]["open_age_seconds"]
                    for entry in nodes
                    if entry["health"]["state"] == "open"},
            }
            ready = ready and len(nodes) > 0 and open_circuits < len(nodes)
        payload["ready"] = ready
        return payload

    def slow_queries(self, limit: "int | None" = None) -> dict:
        """GET /debug/slow_queries — the slow-query ring buffer, newest
        first.  Traced entries carry their span tree, so a tail-latency
        spike can be drilled into after the fact."""
        try:
            if limit is not None:
                limit = _integer(limit, "limit")
                if limit < 1:
                    raise ValidationError(f"limit must be >= 1, got {limit}")
        except ReproError as exc:
            return self._error(exc)
        log = self._obs().slow_log
        entries = log.snapshot()
        if limit is not None:
            entries = entries[:limit]
        info = log.describe()
        return {"ok": True, "threshold_ms": info["threshold_ms"],
                "capacity": info["capacity"],
                "recorded_total": info["recorded_total"],
                "count": len(entries), "entries": entries}
