"""The one copier for documents the store hands out.

Stored documents are JSON trees: dicts and lists over strings, numbers,
booleans and ``None``.  :func:`copy_tree` rebuilds exactly those two
container types level by level and shares the immutable leaves, which is
what ``copy.deepcopy`` produces for such a tree, without its memo dict and
per-node dispatch.  Any other value (a tuple, a numpy array, a dataclass)
is handed to ``copy.deepcopy``, so the copy never shares a mutable object
with the original, whatever the document holds.

One difference from ``deepcopy`` is deliberate: aliasing is not kept.  A
list referenced twice inside one document comes back as two independent
lists.  JSON has no aliasing, so no stored document can depend on it.
"""

from __future__ import annotations

import copy
from typing import Any

_ATOMS = frozenset({str, int, float, bool, type(None)})


def copy_tree(value: Any) -> Any:
    """A copy of ``value`` that shares no mutable object with it."""
    cls = type(value)
    if cls is dict:
        return {key: item if type(item) in _ATOMS else copy_tree(item)
                for key, item in value.items()}
    if cls is list:
        return [item if type(item) in _ATOMS else copy_tree(item)
                for item in value]
    if cls in _ATOMS:
        return value
    return copy.deepcopy(value)
