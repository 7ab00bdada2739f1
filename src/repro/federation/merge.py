"""Deterministic cross-node result merging.

Every per-node ranking arrives already ordered by the node's own
``(distance, insertion row)`` tie-break, as one immutable
:class:`~repro.index.results.Ranking` (ids plus int64 distances).  The
federation re-merges them by the *global* ``(distance, node order,
insertion row)`` tie-break: the rankings' distances are concatenated in
registry (node) order and sorted once with a stable ``argsort``, so
equal-distance results keep node order, and within a node keep
insertion-row order.  Only the rows kept after the cut to ``k`` are
gathered and namespaced.  Consequences:

* merging a single node's ranking is the identity — a 1-node federation
  is byte-identical to querying the node directly,
* the merged ranking is independent of which node answered first (thread
  scheduling never changes a result).

When the federation spans several archives, patch names are no longer
unique; :func:`namespaced_id` disambiguates them as ``node/patch_name``
(node names themselves may not contain ``/``).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from ..earthqube.search import SearchResponse
from ..earthqube.statistics import LabelBar, LabelStatistics
from ..index.results import EMPTY_RANKING, Ranking
from .registry import NAMESPACE_SEPARATOR


def namespaced_id(node_name: str, item_id: object) -> str:
    """The federation-wide id of one node's patch: ``node/patch_name``."""
    return f"{node_name}{NAMESPACE_SEPARATOR}{item_id}"


def split_namespaced(name: str) -> "tuple[str | None, str]":
    """``"node/patch"`` -> ``("node", "patch")``; bare names -> ``(None, name)``.

    Only the first separator splits (patch names may themselves contain
    ``/``); whether the prefix is actually a registered node is the
    caller's decision.
    """
    if NAMESPACE_SEPARATOR in name:
        node, _, rest = name.partition(NAMESPACE_SEPARATOR)
        return node, rest
    return None, name


def merge_similarity(per_node: "Sequence[tuple[str, Ranking, int]]", *,
                     k: "int | None" = None, radius: "int | None" = None,
                     namespace: bool = False, dedupe: bool = False,
                     order_of: "Callable[[object], int | None] | None" = None,
                     ) -> "tuple[Ranking, int]":
    """Merge per-node CBIR rankings of one query into one global ranking:
    :func:`merge_similarity_batch` for a batch of one.

    ``per_node`` holds ``(node name, ranking, radius used)`` in registry
    order; a ranking may also be a list of
    :class:`~repro.index.results.SearchResult` rows.
    """
    [merged] = merge_similarity_batch(
        [(name, (Ranking.of(ranking),)) for name, ranking, _ in per_node],
        queries=1, k=k, radius=radius, namespace=namespace, dedupe=dedupe,
        order_of=order_of)
    return merged


def merge_similarity_batch(per_node: "Sequence[tuple[str, Sequence[Ranking]]]",
                           *, queries: int, k: "int | None" = None,
                           radius: "int | None" = None,
                           namespace: bool = False, dedupe: bool = False,
                           order_of: "Callable[[object], int | None] | None" = None,
                           ) -> "list[tuple[Ranking, int]]":
    """Merge per-node CBIR rankings into one global ranking per query.

    ``per_node`` holds ``(node name, one ranking per query)`` in registry
    order.  For kNN queries (``radius is None``) each merged ranking is
    truncated back to ``k`` and the radius used is the last kept
    distance — exactly how the single-node paths report it.  Radius
    queries keep everything within the radius.

    The static merge sorts the whole batch at once: every node's
    distances form a ``(queries, width)`` block (short rankings padded
    past any distance), the blocks are joined in registry order and one
    stable ``argsort`` per row yields the global ``(distance, node order,
    row)`` order.

    ``dedupe=True`` is the replicated-federation variant: several nodes
    hold copies of the same patch, so answers first deduplicate by patch
    identity (replicas share the hasher, so duplicate answers carry
    identical distances — the first occurrence in registry order is
    kept), then ``np.lexsort`` orders them by the *global* ``(distance,
    insertion seq)`` tie-break, where ``order_of(item_id)`` returns the
    federation-wide insertion sequence (``None`` for an untracked id,
    which ranks after every tracked one, by ``str(id)``).  That ordering
    is independent of *which* replica answered — the elastic
    byte-identity guarantee.
    """
    cut = k if radius is None else None
    if dedupe:
        names = [name for name, _ in per_node] if namespace else None
        merged = [_merge_replicas([column[query] for _, column in per_node],
                                  names, cut, order_of)
                  for query in range(queries)]
    elif len(per_node) == 1 and not namespace:
        # Already in (distance, row) order: the merge is the identity.
        merged = [ranking if cut is None or len(ranking.ids) <= cut
                  else ranking[:cut] for ranking in per_node[0][1]]
    else:
        merged = _merge_static(per_node, namespace, queries, cut)
    return [(ranking, radius if radius is not None else
             int(ranking.distances[-1]) if ranking.ids else 0)
            for ranking in merged]


# Sorts after every real distance: pads the short rows of a distance block.
_PAD = np.iinfo(np.int64).max


def _merge_static(per_node: "Sequence[tuple[str, Sequence[Ranking]]]",
                  namespace: bool, queries: int,
                  cut: "int | None") -> "list[Ranking]":
    """The static merge of a batch, namespacing only the kept ids."""
    if not per_node:
        return [EMPTY_RANKING] * queries
    blocks = []
    owner: list[int] = []   # block column -> node
    row_of: list[int] = []  # block column -> row in that node's ranking
    for node, (_, column) in enumerate(per_node):
        blocks.append(_distance_block(column))
        width = blocks[-1].shape[1]
        owner += [node] * width
        row_of += range(width)
    block = np.concatenate(blocks, axis=1)
    order = block.argsort(axis=1, kind="stable")
    ordered = block.copy()  # the block's values in `order`
    ordered.sort(axis=1)
    prefixes = ([f"{name}{NAMESPACE_SEPARATOR}" for name, _ in per_node]
                if namespace else None)
    merged = []
    for query, picked in enumerate(order.tolist()):
        found = [column[query].ids for _, column in per_node]
        kept = sum(map(len, found))
        if cut is not None and cut < kept:
            kept = cut
        picked = picked[:kept]
        if prefixes is None:
            merged_ids = [found[owner[col]][row_of[col]] for col in picked]
        else:
            merged_ids = [f"{prefixes[owner[col]]}{found[owner[col]][row_of[col]]}"
                          for col in picked]
        merged.append(Ranking(merged_ids, ordered[query, :kept]))
    return merged


def _distance_block(column: "Sequence[Ranking]") -> np.ndarray:
    """One node's rankings as a ``(queries, width)`` distance block, each
    row padded with :data:`_PAD` past its ranking's length."""
    if len(column) == 1:
        return column[0].distances[None, :]
    lengths = [len(ranking.ids) for ranking in column]
    width = max(lengths)
    if lengths.count(width) == len(lengths):
        return np.concatenate([ranking.distances for ranking in column]
                              ).reshape(len(column), width)
    block = np.full((len(column), width), _PAD, dtype=np.int64)
    for row, (ranking, length) in enumerate(zip(column, lengths)):
        block[row, :length] = ranking.distances
    return block


def _merge_replicas(rankings: "list[Ranking]", names: "list[str] | None",
                    cut: "int | None",
                    order_of: "Callable[[object], int | None] | None",
                    ) -> Ranking:
    """One query's replicated merge: first occurrence of each id (in
    registry order) kept, then ordered by ``(distance, global seq)``."""
    if names is None:
        ids = [item for ranking in rankings for item in ranking.ids]
    else:
        ids = [namespaced_id(name, item)
               for name, ranking in zip(names, rankings)
               for item in ranking.ids]
    first: dict[object, int] = {}
    for position, item in enumerate(ids):
        first.setdefault(item, position)
    ids = list(first)
    distances = (np.concatenate([ranking.distances for ranking in rankings])
                 if rankings else EMPTY_RANKING.distances)[list(first.values())]
    if order_of is None:
        order = np.argsort(distances, kind="stable")
    else:
        order = np.lexsort((_sequence_keys(ids, order_of), distances))
    if cut is not None:
        order = order[:cut]
    return Ranking([ids[row] for row in order.tolist()], distances[order])


def _sequence_keys(ids: "list[object]",
                   order_of: "Callable[[object], int | None]") -> np.ndarray:
    """Each id's global insertion sequence as an int64 key; untracked ids
    (``None``) get keys after every tracked one, in ``str(id)`` order."""
    seqs = list(map(order_of, ids))
    if None in seqs:
        untracked = sorted((item for item, seq in zip(ids, seqs)
                            if seq is None), key=str)
        base = max((seq for seq in seqs if seq is not None), default=-1) + 1
        rank = {item: base + n for n, item in enumerate(untracked)}
        seqs = [rank[item] if seq is None else seq
                for item, seq in zip(ids, seqs)]
    return np.asarray(seqs, dtype=np.int64)


def merge_search(per_node: "Sequence[tuple[str, SearchResponse]]", *,
                 skip: int = 0, limit: "int | None" = None,
                 namespace: bool = False, dedupe: bool = False,
                 order_of: "Callable[[str], int] | None" = None) -> SearchResponse:
    """Merge per-node search pages into one globally paginated response.

    The caller queries every node with ``skip=0`` and ``limit=skip+limit``
    (enough rows that any global page can be cut), then this applies the
    *global* skip/limit over the concatenation in registry order.  With one
    answering node the result is byte-identical to that node's own
    response to the original query.

    ``dedupe=True`` is the replicated-federation variant: each node was
    asked for *all* its matches (no per-node page), duplicates collapse by
    document name (replica copies are identical documents), the distinct
    documents sort by the global insertion sequence ``order_of(name)`` —
    document order in a single store is ascending doc-id, i.e. ingest
    order — and ``total_matches`` counts distinct documents.
    """
    documents: list[dict] = []
    total_matches = 0
    candidates = 0
    plans: list[str] = []
    for node_name, response in per_node:
        if namespace:
            documents.extend({**doc, "name": namespaced_id(node_name, doc["name"])}
                             for doc in response.documents)
        else:
            documents.extend(response.documents)
        total_matches += response.total_matches
        candidates += response.candidates_examined
        plans.append(response.plan)
    if dedupe:
        first: dict[str, dict] = {}
        for doc in documents:
            first.setdefault(doc["name"], doc)
        documents = list(first.values())
        if order_of is not None:
            documents.sort(key=lambda doc: order_of(doc["name"]))
        total_matches = len(documents)
    if skip:
        documents = documents[skip:]
    if limit is not None:
        documents = documents[:limit]
    plan = plans[0] if len(plans) == 1 else "federated(" + ";".join(plans) + ")"
    return SearchResponse(documents=documents, total_matches=total_matches,
                          plan=plan, candidates_examined=candidates)


def merge_statistics(per_node: "Iterable[LabelStatistics]") -> LabelStatistics:
    """Sum label occurrence counts across archives.

    CLC labels are a shared nomenclature, so bars merge by label (never
    namespaced); colors are stable per label.  Bars re-sort by
    ``(-count, label)`` — the same key :func:`~repro.earthqube.statistics.
    label_statistics` uses, so merging one node's statistics is the
    identity.
    """
    counts: dict[str, int] = {}
    colors: dict[str, str] = {}
    total_images = 0
    for stats in per_node:
        total_images += stats.total_images
        for bar in stats:
            counts[bar.label] = counts.get(bar.label, 0) + bar.count
            colors.setdefault(bar.label, bar.color)
    bars = [LabelBar(label=label, count=count, color=colors[label])
            for label, count in counts.items()]
    bars.sort(key=lambda bar: (-bar.count, bar.label))
    return LabelStatistics(bars=bars, total_images=total_images)
