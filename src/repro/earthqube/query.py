"""The query panel model.

A :class:`QuerySpec` captures everything the EarthQube query panel can
express (paper, Section 3.1): a spatial selection (rectangle, circle, or
polygon — drawn or typed), an acquisition date range, satellites, seasons,
and the label filter with its three operators.  The label switch button is
modelled by ``labels=None`` (switch on: no label filtering) versus a list of
selected labels (switch off: full control).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

from ..bigearthnet.clc import get_nomenclature
from ..bigearthnet.seasons import validate_season
from ..errors import ValidationError
from ..geo.shapes import Shape
from .label_filter import LabelOperator

_VALID_SATELLITES = ("S1", "S2")


@dataclass(frozen=True)
class QuerySpec:
    """One EarthQube query, validated at construction."""

    shape: "Shape | None" = None
    date_from: "str | None" = None
    date_to: "str | None" = None
    seasons: "tuple[str, ...] | None" = None
    satellites: "tuple[str, ...] | None" = None
    labels: "tuple[str, ...] | None" = None
    label_operator: LabelOperator = LabelOperator.SOME
    limit: "int | None" = None
    skip: int = 0

    def __post_init__(self) -> None:
        if self.shape is not None and not isinstance(self.shape, Shape):
            raise ValidationError(
                f"shape must be a geo Shape, got {type(self.shape).__name__}")
        for name in ("date_from", "date_to"):
            value = getattr(self, name)
            if value is not None:
                try:
                    date.fromisoformat(value)
                except (TypeError, ValueError):
                    raise ValidationError(f"{name} must be ISO YYYY-MM-DD, got {value!r}") from None
        if self.date_from and self.date_to and self.date_from > self.date_to:
            raise ValidationError(
                f"date_from {self.date_from!r} is after date_to {self.date_to!r}")
        if self.seasons is not None:
            object.__setattr__(self, "seasons",
                               tuple(validate_season(s) for s in self.seasons))
        if self.satellites is not None:
            for sat in self.satellites:
                if sat not in _VALID_SATELLITES:
                    raise ValidationError(
                        f"unknown satellite {sat!r}; expected one of {_VALID_SATELLITES}")
        if self.labels is not None:
            if not self.labels:
                raise ValidationError(
                    "labels must be None (filtering off) or a non-empty selection")
            try:
                validated = get_nomenclature().validate_names(list(self.labels))
            except Exception as exc:
                raise ValidationError(str(exc)) from exc
            object.__setattr__(self, "labels", tuple(validated))
        if not isinstance(self.label_operator, LabelOperator):
            raise ValidationError(
                f"label_operator must be a LabelOperator, got {self.label_operator!r}")
        # bool is an int subclass: ``limit: true`` is not a page size of 1.
        if self.limit is not None and (not isinstance(self.limit, int)
                                       or isinstance(self.limit, bool)
                                       or self.limit <= 0):
            raise ValidationError(
                f"limit must be a positive integer, got {self.limit!r}")
        if (not isinstance(self.skip, int) or isinstance(self.skip, bool)
                or self.skip < 0):
            raise ValidationError(
                f"skip must be an integer >= 0, got {self.skip!r}")

    @property
    def label_filtering_enabled(self) -> bool:
        """True when the label switch is off and a selection applies."""
        return self.labels is not None

    def describe(self) -> str:
        """One-line human-readable summary (used by logs and examples)."""
        parts: list[str] = []
        if self.shape is not None:
            parts.append(type(self.shape).__name__.lower())
        if self.date_from or self.date_to:
            parts.append(f"dates[{self.date_from or '..'} .. {self.date_to or '..'}]")
        if self.seasons:
            parts.append("seasons=" + ",".join(self.seasons))
        if self.satellites:
            parts.append("satellites=" + ",".join(self.satellites))
        if self.labels:
            parts.append(f"{self.label_operator.value}({len(self.labels)} labels)")
        return " ".join(parts) if parts else "match-all"
