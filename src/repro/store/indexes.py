"""Secondary indexes for the document store.

Two index kinds mirror what the paper's data tier relies on (the 2D index
on ``location`` is a column, :class:`repro.store.columnar.BBoxColumn`):

* :class:`UniqueIndex` — the automatically indexed primary key ("Each
  document has an image patch name attribute that serves as primary key and
  is automatically indexed by MongoDB").
* :class:`HashIndex` — equality lookups on an arbitrary (dotted) field;
  multikey like MongoDB: an array-valued field indexes the document under
  every element.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Iterable

import numpy as np

from ..errors import DuplicateKeyError, IndexError_
from .columnar import ids_array, intersect_id_arrays
from .matcher import get_path, is_missing


def _hashable(value: Any) -> Any:
    """Coerce index keys to hashable form (lists become tuples)."""
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _hashable(v)) for k, v in value.items()))
    return value


class UniqueIndex:
    """Unique single-field index; rejects duplicate keys on insert."""

    def __init__(self, field: str) -> None:
        self.field = field
        self._by_key: dict[Any, int] = {}

    def __len__(self) -> int:
        return len(self._by_key)

    def check(self, doc_id: int, document: Mapping[str, Any]) -> Any:
        """Validate that indexing ``document`` under ``doc_id`` would
        succeed; returns the index key.  Raises (missing field, duplicate
        key) without mutating, so callers can validate before committing —
        this is the single definition of the uniqueness rules."""
        value = get_path(document, self.field)
        if is_missing(value):
            raise IndexError_(f"document {doc_id} is missing unique field {self.field!r}")
        key = _hashable(value)
        existing = self._by_key.get(key)
        if existing is not None and existing != doc_id:
            raise DuplicateKeyError(
                f"duplicate value {value!r} for unique field {self.field!r}")
        return key

    def add(self, doc_id: int, document: Mapping[str, Any]) -> None:
        self._by_key[self.check(doc_id, document)] = doc_id

    def remove(self, doc_id: int, document: Mapping[str, Any]) -> None:
        key = _hashable(get_path(document, self.field))
        if self._by_key.get(key) == doc_id:
            del self._by_key[key]

    def find(self, value: Any) -> "int | None":
        """The doc id holding ``value``, or ``None``."""
        return self._by_key.get(_hashable(value))


class HashIndex:
    """Multikey equality index: value -> set of doc ids.

    Doubles as the planner's categorical column: each posting set is also
    available as a cached *sorted int64 array* (:meth:`posting_array`), so
    multi-condition plans can AND postings together with vectorized set
    intersection instead of Python set algebra.  Array caches are
    invalidated per key on mutation.
    """

    def __init__(self, field: str) -> None:
        self.field = field
        self._by_key: dict[Any, set[int]] = {}
        self._array_cache: dict[Any, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._by_key)

    def _keys_for(self, document: Mapping[str, Any]) -> list[Any]:
        value = get_path(document, self.field)
        if is_missing(value):
            return []
        if isinstance(value, (list, tuple)):
            return [_hashable(v) for v in value]
        return [_hashable(value)]

    def check(self, document: Mapping[str, Any]) -> None:
        """Validate that :meth:`add` would succeed for ``document``.

        Key extraction normalizes lists/dicts, but values like sets (or
        tuples containing them) survive ``_hashable`` unhashed and only
        blow up when inserted into the bucket dict — so probe ``hash()``
        explicitly, without mutating anything.
        """
        for key in self._keys_for(document):
            hash(key)

    def add(self, doc_id: int, document: Mapping[str, Any]) -> None:
        for key in self._keys_for(document):
            self._by_key.setdefault(key, set()).add(doc_id)
            self._array_cache.pop(key, None)

    def remove(self, doc_id: int, document: Mapping[str, Any]) -> None:
        for key in self._keys_for(document):
            bucket = self._by_key.get(key)
            if bucket is not None:
                bucket.discard(doc_id)
                self._array_cache.pop(key, None)
                if not bucket:
                    del self._by_key[key]

    def find(self, value: Any) -> set[int]:
        """Doc ids whose field equals (or whose array contains) ``value``."""
        return set(self._by_key.get(_hashable(value), ()))

    def find_any(self, values: Iterable[Any]) -> set[int]:
        """Union of :meth:`find` over ``values`` (serves ``$in`` plans)."""
        out: set[int] = set()
        for value in values:
            out |= self.find(value)
        return out

    def estimate_any(self, values: Iterable[Any]) -> int:
        """Cheap upper bound on :meth:`postings_any`'s size: summed posting
        lengths, straight off the bucket dict — no arrays materialized.
        The cost-ordered intersection planner probes this to decide which
        source to load first."""
        return sum(len(self._by_key.get(_hashable(value), ()))
                   for value in values)

    def estimate_all(self, values: Iterable[Any]) -> int:
        """Cheap upper bound on :meth:`postings_all`'s size: the rarest
        posting bounds the intersection."""
        sizes = [len(self._by_key.get(_hashable(value), ()))
                 for value in values]
        return min(sizes) if sizes else 0

    def posting_array(self, value: Any) -> np.ndarray:
        """The sorted int64 doc-id array of one posting (cached)."""
        key = _hashable(value)
        cached = self._array_cache.get(key)
        if cached is None:
            cached = ids_array(self._by_key.get(key, ()))
            self._array_cache[key] = cached
        return cached

    def postings_any(self, values: Iterable[Any]) -> np.ndarray:
        """Sorted unique union of postings (vectorized ``$in``)."""
        arrays = [self.posting_array(value) for value in values]
        if not arrays:
            return np.empty(0, dtype=np.int64)
        if len(arrays) == 1:
            return arrays[0]
        return np.unique(np.concatenate(arrays))

    def postings_all(self, values: Iterable[Any]) -> np.ndarray:
        """Sorted intersection of postings (vectorized ``$all``): only docs
        holding *every* value survive — a tighter candidate superset than
        the single rarest bucket."""
        arrays = [self.posting_array(value) for value in values]
        if not arrays:
            return np.empty(0, dtype=np.int64)
        return intersect_id_arrays(arrays)
