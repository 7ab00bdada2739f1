"""Mongo-style query matcher.

Evaluates a query document against a stored document.  The supported subset
covers everything EarthQube's services need:

==================  =========================================================
Operator            Meaning
==================  =========================================================
(bare value)        equality (with array-membership semantics like MongoDB)
``$eq`` ``$ne``     equality / negated equality
``$gt(e)/$lt(e)``   ordered comparisons (numbers, strings, dates)
``$in`` ``$nin``    membership in a list of values
``$all``            array field contains all listed values
``$size``           array field has exactly N elements
``$exists``         field presence
``$regex``          string match via :mod:`re` (search semantics)
``$elemMatch``      some array element matches a sub-query
``$not``            negate an operator document
``$and/$or/$nor``   logical connectives over sub-queries
``$geoIntersects``  field bbox intersects a :class:`repro.geo.Shape`
``$geoWithin``      field bbox fully within a :class:`repro.geo.Shape`
==================  =========================================================

Field paths use dotted notation (``"properties.season"``).  Geo operands are
:class:`~repro.geo.shapes.Shape` instances; stored geometries are bounding
boxes in ``(west, south, east, north)`` tuple/list form or the
``{"bbox": [...]}`` dict form written by the ingestion layer.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from functools import lru_cache
from typing import Any

from ..errors import QuerySyntaxError
from ..geo.bbox import BoundingBox
from ..geo.shapes import Rectangle, Shape

_MISSING = object()

_LOGICAL_OPERATORS = {"$and", "$or", "$nor"}


@lru_cache(maxsize=256)
def _compile_pattern(pattern: str) -> "re.Pattern":
    """Compiled form of a ``$regex`` string operand.

    A collection scan evaluates the same query document against every
    stored document; without memoization the pattern would be recompiled
    once per document instead of once per query.
    """
    return re.compile(pattern)


def get_path(document: Mapping[str, Any], path: str) -> Any:
    """Resolve a dotted field path; returns the ``_MISSING`` sentinel when
    any intermediate segment is absent or not a mapping."""
    current: Any = document
    for segment in path.split("."):
        if isinstance(current, Mapping) and segment in current:
            current = current[segment]
        else:
            return _MISSING
    return current


def is_missing(value: Any) -> bool:
    """True when :func:`get_path` found no value."""
    return value is _MISSING


def _as_bbox(value: Any) -> BoundingBox | None:
    """Interpret a stored field value as a bounding box, if possible."""
    if isinstance(value, BoundingBox):
        return value
    if isinstance(value, Mapping) and "bbox" in value:
        value = value["bbox"]
    if isinstance(value, (list, tuple)) and len(value) == 4:
        try:
            return BoundingBox.from_tuple(tuple(float(v) for v in value))
        except Exception:
            return None
    return None


def _values_equal(stored: Any, operand: Any) -> bool:
    """MongoDB equality: direct equality, or membership when the stored
    value is an array and the operand is a scalar."""
    if stored is _MISSING:
        return operand is None
    if stored == operand:
        return True
    if isinstance(stored, (list, tuple)) and not isinstance(operand, (list, tuple)):
        return operand in stored
    return False


def _compare(stored: Any, operand: Any, op: str) -> bool:
    if stored is _MISSING:
        return False
    values = stored if isinstance(stored, (list, tuple)) else [stored]
    for value in values:
        try:
            if op == "$gt" and value > operand:
                return True
            if op == "$gte" and value >= operand:
                return True
            if op == "$lt" and value < operand:
                return True
            if op == "$lte" and value <= operand:
                return True
        except TypeError:
            continue  # incomparable types never match, like MongoDB
    return False


def _match_operator(stored: Any, op: str, operand: Any) -> bool:
    if op == "$eq":
        return _values_equal(stored, operand)
    if op == "$ne":
        return not _values_equal(stored, operand)
    if op in ("$gt", "$gte", "$lt", "$lte"):
        return _compare(stored, operand, op)
    if op == "$in":
        if not isinstance(operand, (list, tuple)):
            raise QuerySyntaxError(f"$in requires a list operand, got {type(operand).__name__}")
        return any(_values_equal(stored, item) for item in operand)
    if op == "$nin":
        if not isinstance(operand, (list, tuple)):
            raise QuerySyntaxError(f"$nin requires a list operand, got {type(operand).__name__}")
        return not any(_values_equal(stored, item) for item in operand)
    if op == "$all":
        if not isinstance(operand, (list, tuple)):
            raise QuerySyntaxError(f"$all requires a list operand, got {type(operand).__name__}")
        if not isinstance(stored, (list, tuple)):
            return False
        return all(item in stored for item in operand)
    if op == "$size":
        if not isinstance(operand, int) or isinstance(operand, bool):
            raise QuerySyntaxError(f"$size requires an int operand, got {operand!r}")
        return isinstance(stored, (list, tuple)) and len(stored) == operand
    if op == "$exists":
        present = stored is not _MISSING
        return present if operand else not present
    if op == "$regex":
        if not isinstance(operand, (str, re.Pattern)):
            raise QuerySyntaxError("$regex requires a string or compiled pattern")
        pattern = _compile_pattern(operand) if isinstance(operand, str) else operand
        return isinstance(stored, str) and pattern.search(stored) is not None
    if op == "$elemMatch":
        if not isinstance(operand, Mapping):
            raise QuerySyntaxError("$elemMatch requires a query document")
        if not isinstance(stored, (list, tuple)):
            return False
        for element in stored:
            if isinstance(element, Mapping):
                if matches(element, operand):
                    return True
            elif _match_condition(element, operand):
                return True
        return False
    if op == "$not":
        if not isinstance(operand, Mapping):
            raise QuerySyntaxError("$not requires an operator document")
        return not _match_condition_value(stored, operand)
    if op == "$geoIntersects":
        shape = _as_shape(operand)
        box = _as_bbox(stored)
        return box is not None and shape.intersects_bbox(box)
    if op == "$geoWithin":
        shape = _as_shape(operand)
        box = _as_bbox(stored)
        if box is None:
            return False
        corners = [(box.west, box.south), (box.east, box.south),
                   (box.east, box.north), (box.west, box.north)]
        return all(shape.contains_point(lon, lat) for lon, lat in corners)
    raise QuerySyntaxError(f"unknown query operator: {op}")


def _as_shape(operand: Any) -> Shape:
    if isinstance(operand, Shape):
        return operand
    if isinstance(operand, BoundingBox):
        return Rectangle(operand)
    box = _as_bbox(operand)
    if box is not None:
        return Rectangle(box)
    raise QuerySyntaxError(
        f"geo operators require a Shape, BoundingBox, or bbox tuple, got {type(operand).__name__}")


def _is_operator_doc(value: Any) -> bool:
    return isinstance(value, Mapping) and value and all(
        isinstance(k, str) and k.startswith("$") for k in value)


def _match_condition_value(stored: Any, condition: Any) -> bool:
    """Match a resolved field value against a bare value or operator doc."""
    if _is_operator_doc(condition):
        return all(_match_operator(stored, op, operand) for op, operand in condition.items())
    return _values_equal(stored, condition)


def _match_condition(stored: Any, condition: Any) -> bool:
    return _match_condition_value(stored, condition)


def matches(document: Mapping[str, Any], query: Mapping[str, Any]) -> bool:
    """True when ``document`` satisfies ``query``.

    An empty query matches every document, as in MongoDB.
    """
    if not isinstance(query, Mapping):
        raise QuerySyntaxError(f"query must be a mapping, got {type(query).__name__}")
    for key, condition in query.items():
        if key in _LOGICAL_OPERATORS:
            if not isinstance(condition, (list, tuple)) or not condition:
                raise QuerySyntaxError(f"{key} requires a non-empty list of sub-queries")
            sub_results = (matches(document, sub) for sub in condition)
            if key == "$and":
                if not all(sub_results):
                    return False
            elif key == "$or":
                if not any(sub_results):
                    return False
            else:  # $nor
                if any(sub_results):
                    return False
        elif key.startswith("$"):
            raise QuerySyntaxError(f"unknown top-level operator: {key}")
        else:
            stored = get_path(document, key)
            if not _match_condition_value(stored, condition):
                return False
    return True


def extract_equality(query: Mapping[str, Any], field: str) -> "list[Any] | None":
    """Extract the values a query pins ``field`` to, if it does.

    Used by the primary-key lookup: returns a list of candidate values when the
    query contains ``{field: value}`` or ``{field: {"$eq"/"$in": ...}}`` at
    the top level (possibly under ``$and``); returns ``None`` when the field
    is unconstrained by equality.
    """
    condition = query.get(field, _MISSING)
    if condition is not _MISSING:
        if _is_operator_doc(condition):
            if "$eq" in condition:
                return [condition["$eq"]]
            if "$in" in condition and isinstance(condition["$in"], (list, tuple)):
                return list(condition["$in"])
        elif not isinstance(condition, Mapping):
            return [condition]
    for sub in query.get("$and", []) or []:
        if isinstance(sub, Mapping):
            found = extract_equality(sub, field)
            if found is not None:
                return found
    return None
