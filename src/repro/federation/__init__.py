"""The federation tier: multi-node EarthQube behind one query surface.

AgoraEO is pitched as a *decentralized* EO ecosystem: MILAN-style image
search runs across independently operated archives.  This package turns N
independent :class:`~repro.earthqube.server.EarthQube` instances into one
queryable system:

* :mod:`repro.federation.registry` — named :class:`FederatedNode` handles
  with capability descriptors and health state,
* :mod:`repro.federation.breaker` — the per-node circuit breaker that
  ejects flapping archives and readmits them after a cooldown,
* :mod:`repro.federation.executor` — the scatter-gather planner/executor:
  fan-out on one persistent lane per node, per-node timeouts, bounded
  retries, and
  explicit :class:`FederatedResultMeta` coverage accounting,
* :mod:`repro.federation.merge` — deterministic cross-node merging by the
  global ``(distance, node order, insertion row)`` tie-break (a 1-node
  federation is byte-identical to the direct path) with ``node/patch``
  namespacing,
* :mod:`repro.federation.facade` — :class:`FederatedEarthQube`, the
  EarthQube-shaped entry point that composes with each node's serving
  tier (micro-batching, caching).

Elastic mode (``FederationConfig(elastic=True)``) adds replication and
live membership:

* :mod:`repro.federation.placement` — the consistent-hash
  :class:`PlacementRing` assigning every patch to R replicas,
* :mod:`repro.federation.repair` — the :class:`HintLog` of writes that
  missed a down replica and the anti-entropy :class:`ReadRepairer`.

Join, leave, death and read-repair all move replica copies with one
routine, ``FederatedEarthQube._ship``: the source node's
``export_shard`` dict is handed in memory to the target's
``import_shard``; a durable target journals that import in its own WAL.
"""

from .breaker import CircuitBreaker
from .executor import (
    SKIP_REPLICA_COVERED,
    FederatedExecutor,
    FederatedResultMeta,
    NodeOutcome,
)
from .facade import FederatedEarthQube, FederatedResponse
from .merge import (
    merge_search,
    merge_similarity,
    merge_statistics,
    namespaced_id,
    split_namespaced,
)
from .placement import PlacementRing, stable_hash
from .registry import FederatedNode, NodeCapabilities, NodeRegistry
from .repair import Hint, HintLog, ReadRepairer

__all__ = [
    "CircuitBreaker",
    "FederatedEarthQube",
    "FederatedExecutor",
    "FederatedNode",
    "FederatedResponse",
    "FederatedResultMeta",
    "Hint",
    "HintLog",
    "NodeCapabilities",
    "NodeOutcome",
    "NodeRegistry",
    "PlacementRing",
    "ReadRepairer",
    "SKIP_REPLICA_COVERED",
    "merge_search",
    "merge_similarity",
    "merge_statistics",
    "namespaced_id",
    "split_namespaced",
    "stable_hash",
]
