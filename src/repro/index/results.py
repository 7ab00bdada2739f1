"""Common result types for the retrieval indexes.

A query's answer travels as one :class:`Ranking` from the scan to the
edge: the item ids of the rows :func:`repro.index.hamming.exact_scan`
kept and its int64 distances, built once where the scan returns
(``LinearScanIndex``, for the direct and served paths alike) and passed
unchanged through the query executor, the gateway's result cache, the
federation merge and the response, until ``api.py`` renders the page it returns.  A ranking is
immutable (a tuple of ids, a read-only array), so every tier can share
one without copying it.

:class:`SearchResult` is the per-row view: the baselines return lists
of them, and a :class:`Ranking` reads as a sequence of them for library
callers that iterate.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator

import numpy as np


@dataclass(frozen=True)
class SearchResult:
    """One ranked retrieval result.

    ``item_id`` is the caller's identifier (archive row index or patch
    name), ``distance`` the Hamming distance to the query.
    """

    item_id: object
    distance: int

    def __lt__(self, other: "SearchResult") -> bool:
        return (self.distance, repr(self.item_id)) < (other.distance, repr(other.item_id))


class Ranking(Sequence):
    """One ranked answer: ``ids`` (a tuple) and ``distances`` (a read-only
    int64 array) aligned with it, nearest first.

    The constructor takes ownership of ``distances`` and marks it
    read-only.  As a sequence a ranking reads as :class:`SearchResult`
    rows (built on access), and it compares equal to a list of the same
    rows.
    """

    __slots__ = ("ids", "distances")

    def __init__(self, ids: Iterable, distances) -> None:
        self.ids = ids if type(ids) is tuple else tuple(ids)
        distances = np.asarray(distances, dtype=np.int64)
        distances.setflags(write=False)
        if distances.shape != (len(self.ids),):
            raise ValueError(
                f"{len(self.ids)} ids need ({len(self.ids)},) distances, "
                f"got {distances.shape}")
        self.distances = distances

    @classmethod
    def of(cls, results: "Ranking | Iterable[SearchResult]") -> "Ranking":
        """``results`` as a ranking: itself, or a list of
        :class:`SearchResult` rows converted."""
        if type(results) is cls:
            return results
        rows = list(results)
        return cls([r.item_id for r in rows], [r.distance for r in rows])

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _view(self.ids[index], self.distances[index])
        return SearchResult(self.ids[index], int(self.distances[index]))

    def __iter__(self) -> Iterator[SearchResult]:
        return map(SearchResult, self.ids, self.distances.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Ranking):
            return (self.ids == other.ids
                    and np.array_equal(self.distances, other.distances))
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Ranking({list(self)!r})"

    def without(self, item_id: object) -> "Ranking":
        """This ranking minus every row of ``item_id`` (itself when the
        id is absent)."""
        ids = self.ids
        if ids and ids[0] == item_id:
            rest = ids[1:]
            if item_id not in rest:
                # The usual self-match: the query's own row leads.
                return _view(rest, self.distances[1:])
        elif item_id not in ids:
            return self
        keep = [other != item_id for other in ids]
        return Ranking(tuple(compress(ids, keep)), self.distances[keep])


def _view(ids: tuple, distances: np.ndarray) -> Ranking:
    """A ranking of parts already checked — a tuple and a read-only int64
    array, slices of another ranking's — built without the checks."""
    ranking = object.__new__(Ranking)
    ranking.ids = ids
    ranking.distances = distances
    return ranking


EMPTY_RANKING = Ranking((), ())
