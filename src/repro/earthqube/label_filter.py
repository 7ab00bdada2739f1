"""The three label filtering operators (paper, Section 3.1).

* **Some** — "retrieves all relevant images that have at least one of the
  selected labels" (set intersection non-empty),
* **Exactly** — "returns images with the exact same labels as the selected
  ones" (set equality),
* **At least & more** — "retrieves images that have all the selected labels
  and potentially some additional ones" (superset).

Each operator is implemented here two ways, equivalent and cross-tested:

1. :meth:`LabelFilter.matches_names` — set algebra over full label strings
   (the naive path),
2. :meth:`LabelFilter.matches_chars` — single-character set algebra via the
   :class:`~repro.bigearthnet.labels.LabelCharCodec` (the paper's
   optimization, benchmarked against (1) in experiment E12).

The search service evaluates the same operators as bitset tests over the
metadata collection's label column (:mod:`repro.earthqube.search`).
"""

from __future__ import annotations

import enum
from typing import Iterable

from ..bigearthnet.labels import LabelCharCodec
from ..errors import ValidationError


class LabelOperator(enum.Enum):
    """The query panel's three label operators."""

    SOME = "some"
    EXACTLY = "exactly"
    AT_LEAST_AND_MORE = "at_least_and_more"


class LabelFilter:
    """A selection of labels plus an operator, applied two ways."""

    def __init__(self, labels: Iterable[str], operator: LabelOperator,
                 codec: "LabelCharCodec | None" = None) -> None:
        self.labels = tuple(dict.fromkeys(labels))  # de-dup, keep order
        if not self.labels:
            raise ValidationError("label filter needs at least one label")
        if not isinstance(operator, LabelOperator):
            raise ValidationError(f"operator must be a LabelOperator, got {operator!r}")
        self.operator = operator
        self.codec = codec or LabelCharCodec()
        self._selected_set = frozenset(self.labels)
        self._selected_chars = self.codec.encode(self.labels)

    # ------------------------------------------------------------------ #
    # Path 1: raw label-name strings
    # ------------------------------------------------------------------ #

    def matches_names(self, image_labels: Iterable[str]) -> bool:
        """Evaluate the operator over full label-name strings."""
        image_set = frozenset(image_labels)
        if self.operator is LabelOperator.SOME:
            return not self._selected_set.isdisjoint(image_set)
        if self.operator is LabelOperator.EXACTLY:
            return image_set == self._selected_set
        return self._selected_set <= image_set

    # ------------------------------------------------------------------ #
    # Path 2: char codec
    # ------------------------------------------------------------------ #

    def matches_chars(self, image_chars: str) -> bool:
        """Evaluate the operator over an encoded char string."""
        if self.operator is LabelOperator.SOME:
            return self.codec.intersects(image_chars, self._selected_chars)
        if self.operator is LabelOperator.EXACTLY:
            return self.codec.equals(image_chars, self._selected_chars)
        return self.codec.contains_all(image_chars, self._selected_chars)
