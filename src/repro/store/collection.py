"""Document collections: dict documents under integer doc ids.

A :class:`Collection` stores dict documents under monotonically increasing
integer doc ids and evaluates a Mongo-style query document with
:func:`repro.store.matcher.matches`.  A query that pins the primary key
reads only the documents holding the pinned values (plan
``unique_index:<field>``); any other query reads every document (plan
``scan``).  ``find`` reports the access path in :class:`FindResult.plan`.

A collection created with :class:`~repro.store.columns.MetadataColumns`
(the metadata collection, see :class:`~repro.store.database.Database`)
keeps those doc-id-aligned filter columns current on every write:
``insert_one``, ``insert_many``, ``update_one`` and the deletes.  The query
panel's filter reads the columns, not the matcher.

Copy discipline: only the returned page is copied, by
:func:`repro.store.jsontree.copy_tree`.  Candidates, matched ids, sort
keys, ``count``, ``distinct``, and :meth:`Collection.field_values` all
read documents in place.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from ..errors import DocumentNotFoundError, StoreError
from ..obs import tracing
from .columns import MetadataColumns
from .indexes import UniqueIndex, _hashable
from .jsontree import copy_tree
from .matcher import extract_equality, get_path, is_missing, matches


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


class Collection:
    """A named collection of documents with a unique primary-key index."""

    def __init__(self, name: str, *, primary_key: "str | None" = None,
                 columns: "MetadataColumns | None" = None) -> None:
        self.name = name
        self.primary_key = primary_key
        self._docs: dict[int, dict] = {}
        self._next_id = 0
        # Completed writes, so a cache of query answers can tell whether
        # the collection changed since it last looked.
        self.writes = 0
        self._unique_indexes: dict[str, UniqueIndex] = {}
        #: The filter columns this collection keeps current, if any.
        self.columns = columns
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

    @property
    def index_fields(self) -> set[str]:
        """All indexed field paths (for introspection/tests)."""
        return set(self._unique_indexes)

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
            index.check(doc_id, doc)
        for index in self._unique_indexes.values():
            index.add(doc_id, doc)
        if self.columns is not None:
            self.columns.add(doc_id, doc)
        self._docs[doc_id] = doc
        self._next_id += 1
        self.writes += 1
        return doc_id

    def insert_many(self, documents: Iterable[Mapping[str, Any]]) -> list[int]:
        """Bulk insert with batched index/column updates.

        The batch is validated up front (mapping-ness, unique-key conflicts
        against the collection *and* within the batch); a clean batch is
        then applied index-major, and the columns take it in one write.  A
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
        if self.columns is not None:
            self.columns.extend(doc_ids, prepared)
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
        for doc_id in self._verified(query, self._candidates(query)[0]):
            self._remove(doc_id)
            self.writes += 1
            return 1
        return 0

    def delete_many(self, query: Mapping[str, Any]) -> int:
        """Delete all matching documents; returns the count."""
        victims = list(self._verified(query, self._candidates(query)[0]))
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
        for doc_id in self._verified(query, self._candidates(query)[0]):
            new_doc = self._apply_update(self._docs[doc_id], update)
            # Validate the replacement against every unique index BEFORE
            # mutating anything: a failing update must leave the document
            # and all indexes exactly as they were.
            for index in self._unique_indexes.values():
                index.check(doc_id, new_doc)
            self._remove(doc_id)
            # Reinsert under the same id to keep external references stable.
            for index in self._unique_indexes.values():
                index.add(doc_id, new_doc)
            if self.columns is not None:
                self.columns.add(doc_id, new_doc)
            self._docs[doc_id] = new_doc
            self.writes += 1
            return 1
        return 0

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
        if self.columns is not None:
            self.columns.remove(doc_id)

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

    def take(self, doc_ids: Iterable[int]) -> list[dict]:
        """Copies of the documents under ``doc_ids``, in the order given
        (the page of a column filter's answer)."""
        return [copy_tree(self._docs[doc_id]) for doc_id in doc_ids]

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

    def _candidates(self, query: Mapping[str, Any]) -> "tuple[list[int], str]":
        """The doc ids a query can match, in ascending order, and the
        access path: the holders of the pinned values when the query pins
        a unique field by equality, every document otherwise."""
        for field_path, index in self._unique_indexes.items():
            values = extract_equality(query, field_path)
            if values is not None:
                ids = sorted({i for i in (index.find(v) for v in values)
                              if i is not None})
                return ids, f"unique_index:{field_path}"
        return sorted(self._docs), "scan"

    def _verified(self, query: Mapping[str, Any],
                  candidates: "list[int]") -> Iterator[int]:
        """The candidates matching ``query``, lazily."""
        docs = self._docs
        for doc_id in candidates:
            if matches(docs[doc_id], query):
                yield doc_id

    def _matching_ids(self, query: "Mapping[str, Any] | None",
                      ) -> tuple[list[int], str, int]:
        """The matching doc ids in ascending order, the access path and
        the number of candidates it read."""
        query = query or {}
        candidates, plan = self._candidates(query)
        matched = (candidates if not query
                   else list(self._verified(query, candidates)))
        tracing.add_cost(docs_examined=len(candidates) if query else 0)
        return matched, plan, len(candidates)

    def find(self, query: "Mapping[str, Any] | None" = None, *,
             projection: "list[str] | None" = None,
             sort: "str | None" = None, descending: bool = False,
             limit: "int | None" = None, skip: int = 0) -> FindResult:
        """Run a query and return matching documents (as copies).

        ``projection`` keeps only the listed top-level fields; ``sort`` is a
        dotted field path; ``limit``/``skip`` paginate after sorting.  Only
        the final post-skip/limit page is copied, and each document's sort
        key is extracted exactly once (decorate-sort), not per comparison.
        """
        matched, plan, candidates = self._matching_ids(query)
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
