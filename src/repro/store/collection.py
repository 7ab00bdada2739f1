"""Document collections with a columnar, index-intersecting query planner.

A :class:`Collection` stores dict documents under monotonically increasing
integer doc ids and maintains, next to the doc dicts, a set of *column
projections* the query planner probes vectorially:

* **inverted posting arrays** — every :class:`~repro.store.indexes.
  HashIndex` posting set is mirrored as a cached sorted ``int64`` doc-id
  array, so categorical predicates (season, satellites, labels, label
  chars, country) resolve to array probes;
* **aligned columns** — :class:`~repro.store.columnar.DateColumn` and
  :class:`~repro.store.columnar.BBoxColumn` keep one row per doc id (an
  ISO date as ``int64`` plus a known/unknown/absent state; a bounding box
  as four ``float64`` corners), so a date range or a spatial predicate is
  one vectorised mask.

Query planning intersects the posting arrays of **all** applicable
equality/``$in``/``$all`` conditions with ``np.intersect1d``, smallest
first, then tests the ids that survive against every applicable aligned
column (the first test covers the whole column when no posting array
narrowed them).  The result is a candidate *superset*, and most of it is
already an exact answer:

* a posting array is the exact answer of an equality or ``$in`` over
  plain values (strings and non-NaN numbers);
* a date column decides every known value strictly inside the range (the
  embedding is monotone, so a strict ``int64`` inequality is a strict
  string one) and leaves unknown values and values on a bound undecided;
* a bounding-box column decides ``$geoIntersects`` with a rectangle for
  every row outside its float-rounding pad.

When the query is a pure conjunction and every condition has such a
source, only the undecided candidates are verified by
:func:`repro.store.matcher.matches`; otherwise every candidate is.  So
plans never change results, only cost.  ``find`` reports the chosen access
path in :class:`FindResult.plan` (``"columnar:a&b"`` when several sources
ran) and accepts ``hint="scan"`` to force the sequential path, which the
plan-equivalence tests use to prove plans are result-neutral.

Copy discipline: only the returned page is copied, by
:func:`repro.store.jsontree.copy_tree`.  Candidates, matched ids, sort
keys, ``count``, ``distinct``, and :meth:`Collection.field_values` all
read documents in place.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from ..errors import DocumentNotFoundError, IndexError_, StoreError
from ..geo.shapes import Rectangle
from ..obs import tracing
from .columnar import BBoxColumn, DateColumn, iso_to_int64
from .indexes import HashIndex, UniqueIndex, _hashable
from .jsontree import copy_tree
from .matcher import (
    extract_all_values,
    extract_equality,
    extract_geo,
    get_path,
    is_missing,
    matches,
)


@dataclass
class FindResult:
    """Result of :meth:`Collection.find`: the (paginated) documents plus
    plan info and the pre-pagination match count."""

    documents: list[dict]
    plan: str = "scan"
    candidates_examined: int = 0
    total_matches: int = 0

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.documents)

    def __getitem__(self, i: int) -> dict:
        return self.documents[i]


def _iter_field_conditions(query: Mapping[str, Any]):
    """Yield every ``(field, condition)`` pair AND-ed by the query: the
    top-level field conditions plus those nested under ``$and`` (at any
    depth).  ``$or``/``$nor`` branches cannot narrow an AND-intersection
    plan and are skipped."""
    for key, condition in query.items():
        if key == "$and":
            if isinstance(condition, (list, tuple)):
                for sub in condition:
                    if isinstance(sub, Mapping):
                        yield from _iter_field_conditions(sub)
        elif not key.startswith("$"):
            yield key, condition


def _is_conjunction(query: Mapping[str, Any]) -> bool:
    """True when ``query`` is nothing but the conditions
    :func:`_iter_field_conditions` yields: no ``$or``/``$nor`` and every
    ``$and`` a non-empty list of documents.  Deciding each of those
    conditions then decides the query."""
    for key, condition in query.items():
        if key == "$and":
            if not (isinstance(condition, (list, tuple)) and condition
                    and all(isinstance(sub, Mapping) and _is_conjunction(sub)
                            for sub in condition)):
                return False
        elif key.startswith("$"):
            return False
    return True


def _scalar_values(values: Iterable[Any]) -> bool:
    """True when every value is usable as a posting key: ``None`` matches
    missing fields (not indexed) and list/tuple operands match whole-array
    equality (postings hold elements, not whole arrays), so both disqualify
    the posting-array access path."""
    return all(v is not None and not isinstance(v, (list, tuple))
               for v in values)


_PLAIN = frozenset({str, int, float, bool})


def _plain(value: Any) -> bool:
    """A value whose posting lookup agrees with the matcher's equality:
    hash and ``==`` are consistent for these exact types.  NaN is out: it
    equals nothing, yet a dict lookup finds its own posting by identity."""
    return type(value) in _PLAIN and value == value


def _exact_equality(condition: Any) -> bool:
    """True when the posting probe of ``condition`` is its exact answer:
    a bare plain value, or an operator document holding only ``$eq`` of
    one or only ``$in`` of a list of them."""
    if _plain(condition):
        return True
    if not isinstance(condition, Mapping) or len(condition) != 1:
        return False
    (op, operand), = condition.items()
    if op == "$eq":
        return _plain(operand)
    return (op == "$in" and isinstance(operand, (list, tuple))
            and all(_plain(value) for value in operand))


_DATE_LOWER_OPS = ("$gt", "$gte")
_DATE_UPPER_OPS = ("$lt", "$lte")


def _date_range_bounds(condition: Any,
                       ) -> "tuple[int | None, int | None, bool] | None":
    """The inclusive ``[lo, hi]`` int64 range of a date condition, and
    whether the range says everything the condition does.

    Builds the tightest inclusive range that is still a superset of the
    string predicate (strict bounds are widened to inclusive; values on a
    bound stay undecided, see :meth:`DateColumn.select_range`).  Returns
    ``None`` when the condition has no parseable ordered constraint; a
    ``None`` bound is an open side.  The flag is false when the condition
    holds anything the range leaves out: another operator, or an operand
    that does not parse.
    """
    lo: "int | None" = None
    hi: "int | None" = None
    applicable = False
    complete = True
    if isinstance(condition, str):
        point = iso_to_int64(condition)
        if point is None:
            return None
        lo = hi = point
        applicable = True
    elif isinstance(condition, Mapping):
        for op, operand in condition.items():
            if op in _DATE_LOWER_OPS or op in _DATE_UPPER_OPS or op == "$eq":
                parsed = iso_to_int64(operand)
                if parsed is None:
                    complete = False
                    continue
                if op in _DATE_LOWER_OPS or op == "$eq":
                    lo = parsed if lo is None else max(lo, parsed)
                if op in _DATE_UPPER_OPS or op == "$eq":
                    hi = parsed if hi is None else min(hi, parsed)
                applicable = True
            else:
                complete = False
    if not applicable:
        return None
    return lo, hi, complete


def _rectangle_intersects(condition: Any, shape: Any) -> bool:
    """True when ``condition`` is only a ``$geoIntersects`` with a
    rectangle, whose matcher test is the column's closed-interval
    overlap."""
    return (isinstance(condition, Mapping) and len(condition) == 1
            and "$geoIntersects" in condition and type(shape) is Rectangle)


#: Nanoseconds per posting id loaded by an intersection: the unit the
#: intersection-order record in ``explain`` prices its orders with.
INTERSECT_NS_PER_ID = 15.0


def _intersection_cost_ns(sizes: "list[int]") -> float:
    """Predicted cost of intersecting sources in the given order.

    The first source is materialized whole; each later step merges the
    running result (bounded by the smallest source seen) against the next
    array, touching both.  Coarse, but it orders candidate source
    sequences correctly: front-loading a huge source prices visibly worse.
    """
    if not sizes:
        return 0.0
    touched = sizes[0]
    running = sizes[0]
    for size in sizes[1:]:
        touched += running + size
        running = min(running, size)
    return touched * INTERSECT_NS_PER_ID


class Collection:
    """A named collection of documents with secondary indexes/columns."""

    def __init__(self, name: str, *, primary_key: "str | None" = None) -> None:
        self.name = name
        self.primary_key = primary_key
        self._docs: dict[int, dict] = {}
        self._next_id = 0
        # Completed writes, so a cache of query answers can tell whether
        # the collection changed since it last looked.
        self.writes = 0
        self._unique_indexes: dict[str, UniqueIndex] = {}
        self._hash_indexes: dict[str, HashIndex] = {}
        self._bbox_columns: dict[str, BBoxColumn] = {}
        self._date_columns: dict[str, DateColumn] = {}
        if primary_key is not None:
            self.create_unique_index(primary_key)

    # ------------------------------------------------------------------ #
    # Index management
    # ------------------------------------------------------------------ #

    def create_unique_index(self, field_path: str) -> None:
        """Create a unique index; existing documents are indexed immediately."""
        if field_path in self._unique_indexes:
            return
        index = UniqueIndex(field_path)
        for doc_id, doc in self._docs.items():
            index.add(doc_id, doc)
        self._unique_indexes[field_path] = index

    def create_index(self, field_path: str) -> None:
        """Create a (multikey) hash index on ``field_path``."""
        if field_path in self._hash_indexes:
            return
        index = HashIndex(field_path)
        for doc_id, doc in self._docs.items():
            index.add(doc_id, doc)
        self._hash_indexes[field_path] = index

    def create_geo_index(self, field_path: str) -> None:
        """Create a bounding-box column on a bbox-valued field."""
        if field_path in self._bbox_columns:
            return
        column = BBoxColumn(field_path)
        column.bulk_add(self._docs.keys(), self._docs.values())
        self._bbox_columns[field_path] = column

    def create_date_column(self, field_path: str) -> None:
        """Create an aligned int64 column projection of an ISO date field."""
        if field_path in self._date_columns:
            return
        column = DateColumn(field_path)
        column.bulk_add(self._docs.keys(), self._docs.values())
        self._date_columns[field_path] = column

    def drop_index(self, field_path: str) -> None:
        """Drop any secondary index/column on ``field_path`` (primary key
        excluded)."""
        if field_path == self.primary_key:
            raise IndexError_("cannot drop the primary key index")
        self._unique_indexes.pop(field_path, None)
        self._hash_indexes.pop(field_path, None)
        self._bbox_columns.pop(field_path, None)
        self._date_columns.pop(field_path, None)

    def _columns(self) -> "Iterator[DateColumn | BBoxColumn]":
        """Every column projection; all accept any document."""
        yield from self._date_columns.values()
        yield from self._bbox_columns.values()

    @property
    def index_fields(self) -> set[str]:
        """All indexed field paths (for introspection/tests)."""
        return (set(self._unique_indexes) | set(self._hash_indexes)
                | set(self._bbox_columns) | set(self._date_columns))

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #

    def insert_one(self, document: Mapping[str, Any]) -> int:
        """Insert a document (stored by reference-independent copy); returns
        its internal doc id.  Raises on unique-index violations."""
        if not isinstance(document, Mapping):
            raise StoreError(f"documents must be mappings, got {type(document).__name__}")
        doc = dict(document)
        doc_id = self._next_id
        # Validate all unique indexes before mutating any of them, so a
        # failed insert leaves the collection unchanged.
        for index in self._unique_indexes.values():
            index.add(doc_id, doc)
        try:
            for index in self._hash_indexes.values():
                index.add(doc_id, doc)
        except Exception:
            for index in self._unique_indexes.values():
                index.remove(doc_id, doc)
            raise
        for column in self._columns():
            column.add(doc_id, doc)
        self._docs[doc_id] = doc
        self._next_id += 1
        self.writes += 1
        return doc_id

    def insert_many(self, documents: Iterable[Mapping[str, Any]]) -> list[int]:
        """Bulk insert with batched index/column updates.

        The batch is validated up front (mapping-ness, unique-key conflicts
        against the collection *and* within the batch);
        a clean batch is then applied index-major — each index ingests the
        whole batch in one pass, each aligned column in one array write.  A
        batch that would fail validation falls back to the sequential path,
        preserving the historical semantics exactly: documents before the
        offending one are inserted, then the error is raised.
        """
        docs = list(documents)
        prepared = self._prepare_bulk(docs)
        if prepared is None:
            return [self.insert_one(doc) for doc in docs]
        doc_ids = list(range(self._next_id, self._next_id + len(prepared)))
        for index in self._unique_indexes.values():
            for doc_id, doc in zip(doc_ids, prepared):
                index.add(doc_id, doc)
        for index in self._hash_indexes.values():
            for doc_id, doc in zip(doc_ids, prepared):
                index.add(doc_id, doc)
        for column in self._columns():
            column.bulk_add(doc_ids, prepared)
        for doc_id, doc in zip(doc_ids, prepared):
            self._docs[doc_id] = doc
        self._next_id += len(prepared)
        self.writes += 1
        return doc_ids

    def _prepare_bulk(self, docs: "list[Any]") -> "list[dict] | None":
        """Validate a batch for the fast path; ``None`` demands fallback."""
        prepared: list[dict] = []
        for document in docs:
            if not isinstance(document, Mapping):
                return None
            prepared.append(dict(document))
        for field_path, index in self._unique_indexes.items():
            seen: set[Any] = set()
            for doc in prepared:
                value = get_path(doc, field_path)
                if is_missing(value):
                    return None
                key = _hashable(value)
                if key in seen or index.find(value) is not None:
                    return None
                seen.add(key)
        return prepared

    def delete_one(self, query: Mapping[str, Any]) -> int:
        """Delete the first matching document; returns number deleted (0/1)."""
        candidates, _, undecided = self._plan_candidates(query)
        for doc_id in self._verified(query, candidates, undecided):
            self._remove(doc_id)
            self.writes += 1
            return 1
        return 0

    def delete_many(self, query: Mapping[str, Any]) -> int:
        """Delete all matching documents; returns the count."""
        candidates, _, undecided = self._plan_candidates(query)
        victims = list(self._verified(query, candidates, undecided))
        for doc_id in victims:
            self._remove(doc_id)
        if victims:
            self.writes += 1
        return len(victims)

    def update_one(self, query: Mapping[str, Any],
                   update: "Mapping[str, Any] | Callable[[dict], dict]") -> int:
        """Update the first matching document.

        ``update`` is either a ``{"$set": {...}}`` document or a callable
        receiving a copy of the document and returning the replacement.
        Returns the number of documents updated (0 or 1).
        """
        candidates, _, undecided = self._plan_candidates(query)
        for doc_id in self._verified(query, candidates, undecided):
            new_doc = self._apply_update(self._docs[doc_id], update)
            # Validate the replacement against every index that can reject
            # it BEFORE mutating anything: a failing update must leave the
            # document and all indexes exactly as they were (previously the
            # document was removed first, so a unique-key collision or a
            # missing unique field lost it and left indexes half-updated).
            self._validate_replacement(doc_id, new_doc)
            self._remove(doc_id)
            # Reinsert under the same id to keep external references stable.
            for index in self._unique_indexes.values():
                index.add(doc_id, new_doc)
            for index in self._hash_indexes.values():
                index.add(doc_id, new_doc)
            for column in self._columns():
                column.add(doc_id, new_doc)
            self._docs[doc_id] = new_doc
            self.writes += 1
            return 1
        return 0

    def _validate_replacement(self, doc_id: int, new_doc: dict) -> None:
        """Raise if re-indexing ``new_doc`` under ``doc_id`` would fail.

        Covers every index whose ``add`` can raise: unique indexes (missing
        field, key collision with a *different* document — the same check
        ``UniqueIndex.add`` itself commits) and hash indexes (unhashable
        values).  Date and bounding-box columns accept any document.
        """
        for index in self._unique_indexes.values():
            index.check(doc_id, new_doc)
        for index in self._hash_indexes.values():
            index.check(new_doc)  # raises on unhashable values

    @staticmethod
    def _apply_update(doc: dict, update: "Mapping[str, Any] | Callable[[dict], dict]") -> dict:
        if callable(update):
            new_doc = update(copy_tree(doc))
            if not isinstance(new_doc, dict):
                raise StoreError("update callable must return a dict")
            return new_doc
        if not isinstance(update, Mapping) or set(update) - {"$set", "$unset"}:
            raise StoreError("update document must contain only $set/$unset")
        new_doc = copy_tree(doc)
        for path, value in (update.get("$set") or {}).items():
            _set_path(new_doc, path, value)
        for path in (update.get("$unset") or {}):
            _unset_path(new_doc, path)
        return new_doc

    def _remove(self, doc_id: int) -> None:
        doc = self._docs.pop(doc_id)
        for index in self._unique_indexes.values():
            index.remove(doc_id, doc)
        for index in self._hash_indexes.values():
            index.remove(doc_id, doc)
        for column in self._columns():
            column.remove(doc_id, doc)

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._docs)

    def documents(self) -> list[dict]:
        """Every stored document in doc-id order, by reference.

        For readers that build new containers from the documents (the
        checkpoint encoder); callers must not mutate them.
        """
        return [self._docs[doc_id] for doc_id in sorted(self._docs)]

    def count(self, query: "Mapping[str, Any] | None" = None) -> int:
        """Number of documents matching ``query`` (all when ``None``).

        Counts over in-place references — no document is copied.
        """
        if not query:
            return len(self._docs)
        return len(self._matching_ids(query)[0])

    def get(self, key: Any) -> dict:
        """Primary-key point lookup; raises when absent or no primary key."""
        return copy_tree(self._by_key(key))

    def get_field(self, key: Any, field_path: str, default: Any = None) -> Any:
        """``field_path`` of the document with primary key ``key``, by
        reference (callers must treat it as read-only), or ``default``
        when the document lacks it.  Raises like :meth:`get` when no such
        document exists; nothing is copied."""
        value = get_path(self._by_key(key), field_path)
        return default if is_missing(value) else value

    def _by_key(self, key: Any) -> dict:
        if self.primary_key is None:
            raise StoreError(f"collection {self.name!r} has no primary key")
        doc_id = self._unique_indexes[self.primary_key].find(key)
        if doc_id is None:
            raise DocumentNotFoundError(
                f"no document with {self.primary_key}={key!r} in {self.name!r}")
        return self._docs[doc_id]

    def _plan_candidates(self, query: Mapping[str, Any],
                         *, hint: "str | None" = None,
                         ) -> "tuple[list[int], str, set[int] | None]":
        """Choose an access path; returns (candidate doc ids, plan name,
        undecided ids).

        Posting arrays of every applicable condition are intersected and
        the survivors tested against every applicable aligned column (date
        and bounding-box); the candidates are a superset of the exact
        answer, in ascending doc-id order on every path, so the caller's
        verification produces plan-independent results.  The third item
        names the candidates that still need the matcher: ``None`` means
        all of them, a set means every other candidate is a match (see the
        module docstring for when a source decides its condition).
        ``hint="scan"`` forces the sequential path.
        """
        if hint is not None and hint != "scan":
            raise StoreError(f"unknown plan hint {hint!r}; expected 'scan'")
        if not query:
            return sorted(self._docs.keys()), "scan", set()
        if hint == "scan":
            return sorted(self._docs.keys()), "scan", None
        # Unique-index equality short-circuits: the candidate set is at most
        # one doc per pinned value, already minimal, and exact when the
        # query is that one condition.
        for field_path, index in self._unique_indexes.items():
            values = extract_equality(query, field_path)
            if values is not None:
                ids = sorted({i for i in (index.find(v) for v in values)
                              if i is not None})
                decided = (len(query) == 1 and field_path in query
                           and _exact_equality(query[field_path]))
                return ids, f"unique_index:{field_path}", (
                    set() if decided else None)
        conditions = list(_iter_field_conditions(query))
        # Gather (tag, estimated size, materializer, tests_running, exact)
        # per applicable source.  Posting estimates are O(1) length probes.
        # An aligned column does not load ids of its own: it tests the ids
        # still running (``tests_running``) and also returns the ones it
        # cannot decide, so it goes after every posting array that can
        # shrink them.  ``exact`` says the source decides its condition.
        sources: "list[tuple[str, int, Callable[..., Any], bool, bool]]" = []
        for field, condition in conditions:
            probe = {field: condition}
            hash_index = self._hash_indexes.get(field)
            if hash_index is not None:
                values = extract_equality(probe, field)
                if values is not None and _scalar_values(values):
                    sources.append((
                        f"hash_index:{field}",
                        hash_index.estimate_any(values),
                        lambda hi=hash_index, v=values: hi.postings_any(v),
                        False, _exact_equality(condition)))
                    continue
                all_values = extract_all_values(probe, field)
                if all_values is not None and _scalar_values(all_values):
                    sources.append((
                        f"hash_index:{field}",
                        hash_index.estimate_all(all_values),
                        lambda hi=hash_index, v=all_values: hi.postings_all(v),
                        False, False))
                    continue
            date_column = self._date_columns.get(field)
            if date_column is not None:
                bounds = _date_range_bounds(condition)
                if bounds is not None:
                    lo, hi, complete = bounds
                    sources.append((
                        f"date_column:{field}", len(date_column),
                        lambda among, dc=date_column, lo=lo, hi=hi:
                            dc.select_range(lo, hi, among),
                        True, complete))
                    continue
            bbox_column = self._bbox_columns.get(field)
            if bbox_column is not None:
                shape = extract_geo(probe, field)
                if shape is not None:
                    sources.append((
                        f"geo_index:{field}", len(bbox_column),
                        lambda among, bc=bbox_column, b=shape.bounding_box():
                            bc.select_intersecting(b, among),
                        True, _rectangle_intersects(condition, shape)))
        if not sources:
            return sorted(self._docs.keys()), "scan", None
        # Cost order: materialize ascending by estimated size (declaration
        # order breaking ties), aligned-column tests last.  Intersection is
        # commutative, so only cost moves — the smallest source drives the
        # merge, and an empty running set skips the remaining sources.
        order = sorted(range(len(sources)),
                       key=lambda i: (sources[i][3], sources[i][1], i))
        loaded = 0
        candidates: "np.ndarray | None" = None
        undecided: list[np.ndarray] = []
        started = time.perf_counter_ns()
        for position in order:
            _, rows, materialize, tests_running, _ = sources[position]
            if tests_running:
                loaded += rows if candidates is None else len(candidates)
                candidates, flagged = materialize(candidates)
                if flagged.shape[0]:
                    undecided.append(flagged)
            else:
                ids = materialize()
                loaded += int(ids.shape[0])
                candidates = ids if candidates is None else np.intersect1d(
                    candidates, ids, assume_unique=True)
            if candidates.shape[0] == 0:
                break
        measured_ns = time.perf_counter_ns() - started
        tracing.add_cost(postings_loaded=loaded)
        if len(sources) > 1:
            tracing.add_cost(ids_intersected=loaded)
            self._annotate_store_plan(sources, order, measured_ns)
        tags = list(dict.fromkeys(sources[i][0] for i in order))
        plan = tags[0] if len(tags) == 1 else "columnar:" + "&".join(tags)
        if not (len(sources) == len(conditions) and _is_conjunction(query)
                and all(source[4] for source in sources)):
            return candidates.tolist(), plan, None
        if not undecided:
            return candidates.tolist(), plan, set()
        recheck = np.intersect1d(candidates, np.concatenate(undecided))
        return candidates.tolist(), plan, set(recheck.tolist())

    @staticmethod
    def _annotate_store_plan(sources, order: "list[int]",
                             measured_ns: int) -> None:
        """Record the intersection-order decision for ``explain=true``.

        Priced with the intersection unit cost so the chosen (cost-ordered)
        sequence can be compared against the declaration-order alternative
        the legacy planner would have used; when the two coincide the
        reversed (worst-case) order is reported as the rejected
        alternative instead.
        """
        declared = list(range(len(sources)))
        alternative = declared if order != declared else declared[::-1]
        def _sizes(sequence):
            # An aligned-column test touches the running ids: its whole
            # column when first, else no more than the smallest source
            # ahead of it.
            sizes: list[int] = []
            for i in sequence:
                _, est, _, tests_running, _ = sources[i]
                sizes.append(min(sizes + [est]) if tests_running else est)
            return sizes
        def _entry(sequence):
            return {"order": [sources[i][0] for i in sequence],
                    "predicted_ns": round(
                        _intersection_cost_ns(_sizes(sequence)), 1)}
        tracing.annotate(store_plan={
            "chosen": _entry(order),
            "rejected": [_entry(alternative)],
            "estimated_sizes": {sources[i][0]: int(size)
                                for i, size in zip(order, _sizes(order))},
            "measured_ns": int(measured_ns)})

    def _verified(self, query: Mapping[str, Any], candidates: "list[int]",
                  undecided: "set[int] | None") -> Iterator[int]:
        """The candidates matching ``query``, lazily; only the undecided
        ones (all when ``undecided`` is ``None``) go through the matcher."""
        docs = self._docs
        for doc_id in candidates:
            if (undecided is not None and doc_id not in undecided) \
                    or matches(docs[doc_id], query):
                yield doc_id

    def _matching_ids(self, query: "Mapping[str, Any] | None",
                      *, hint: "str | None" = None,
                      ) -> tuple[list[int], str, int]:
        """Plan and verify: the matching doc ids in ascending order, the
        plan name and the number of candidates the plan produced."""
        query = query or {}
        candidates, plan, undecided = self._plan_candidates(query, hint=hint)
        if undecided is not None and not undecided:
            matched = candidates
        else:
            matched = list(self._verified(query, candidates, undecided))
        examined = len(candidates) if undecided is None else len(undecided)
        tracing.add_cost(docs_examined=examined,
                         rows_decided=len(candidates) - examined)
        return matched, plan, len(candidates)

    def find(self, query: "Mapping[str, Any] | None" = None, *,
             projection: "list[str] | None" = None,
             sort: "str | None" = None, descending: bool = False,
             limit: "int | None" = None, skip: int = 0,
             hint: "str | None" = None) -> FindResult:
        """Run a query and return matching documents (as copies).

        ``projection`` keeps only the listed top-level fields; ``sort`` is a
        dotted field path; ``limit``/``skip`` paginate after sorting;
        ``hint="scan"`` bypasses the planner.  Only the final post-skip/limit
        page is copied, and each document's sort key is extracted
        exactly once (decorate-sort), not per comparison.
        """
        matched, plan, candidates = self._matching_ids(query, hint=hint)
        docs = self._docs
        if sort is not None:
            keys = [_sort_key(get_path(docs[doc_id], sort)) for doc_id in matched]
            order = sorted(range(len(matched)), key=keys.__getitem__,
                           reverse=descending)
            matched = [matched[i] for i in order]
        total = len(matched)
        if skip:
            matched = matched[skip:]
        if limit is not None:
            matched = matched[:limit]
        page = [docs[doc_id] for doc_id in matched]
        if projection is None:
            out = [copy_tree(doc) for doc in page]
        else:
            out = [{k: copy_tree(doc[k]) for k in projection if k in doc}
                   for doc in page]
        return FindResult(documents=out, plan=plan,
                          candidates_examined=candidates, total_matches=total)

    def find_one(self, query: "Mapping[str, Any] | None" = None) -> "dict | None":
        """First matching document, or ``None``."""
        result = self.find(query, limit=1)
        return result.documents[0] if result.documents else None

    def field_values(self, query: "Mapping[str, Any] | None",
                     field_path: str) -> list[Any]:
        """``field_path`` of every matching doc, in candidate order.

        No documents are copied: values are returned by reference, so
        callers must treat them as read-only.  Missing values are skipped.
        This is the zero-copy projection behind filtered similarity search
        (resolving a metadata filter to the allowed patch names).
        """
        docs = self._docs
        values = []
        for doc_id in self._matching_ids(query)[0]:
            value = get_path(docs[doc_id], field_path)
            if not is_missing(value):
                values.append(value)
        return values

    def distinct(self, field_path: str,
                 query: "Mapping[str, Any] | None" = None) -> list[Any]:
        """Sorted distinct values of ``field_path`` over matching documents;
        array values contribute their elements (multikey semantics).  Works
        on references — no candidate is copied."""
        values: set[Any] = set()
        for doc_id in self._matching_ids(query)[0]:
            value = get_path(self._docs[doc_id], field_path)
            if is_missing(value):
                continue
            if isinstance(value, (list, tuple)):
                values.update(value)
            else:
                values.add(value)
        return sorted(values, key=repr)


def _sort_key(value: Any) -> tuple:
    """Total order over heterogeneous values: missing first, then by type."""
    if is_missing(value) or value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    if isinstance(value, str):
        return (3, value)
    return (4, repr(value))


def _set_path(doc: dict, path: str, value: Any) -> None:
    parts = path.split(".")
    current = doc
    for part in parts[:-1]:
        current = current.setdefault(part, {})
        if not isinstance(current, dict):
            raise StoreError(f"$set path {path!r} crosses a non-document value")
    current[parts[-1]] = value


def _unset_path(doc: dict, path: str) -> None:
    parts = path.split(".")
    current = doc
    for part in parts[:-1]:
        nxt = current.get(part)
        if not isinstance(nxt, dict):
            return
        current = nxt
    current.pop(parts[-1], None)
