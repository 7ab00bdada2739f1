"""The document store's one index kind: the unique primary key.

"Each document has an image patch name attribute that serves as primary
key and is automatically indexed by MongoDB": :class:`UniqueIndex` is that
index.  The query panel's filtered fields are columns
(:mod:`repro.store.columns`), not indexes.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from ..errors import DuplicateKeyError, IndexError_
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
