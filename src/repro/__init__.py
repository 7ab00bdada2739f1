"""repro: reproduction of "Satellite Image Search in AgoraEO" (VLDB 2022).

The package implements the paper's full stack:

* a synthetic BigEarthNet archive (:mod:`repro.bigearthnet`),
* MiLaN metric-learning deep hashing (:mod:`repro.core`), trained on
  closed-form numpy gradients,
* Hamming-space retrieval indexes (:mod:`repro.index`) plus classic hashing
  baselines (:mod:`repro.baselines`),
* a MongoDB-style document store with a columnar query planner and a
  bounding-box 2D index (:mod:`repro.store`, :mod:`repro.geo`),
* the EarthQube search system itself (:mod:`repro.earthqube`),
* a concurrent serving tier — micro-batched exact scans, result
  caching, metrics (:mod:`repro.serving`).

Quickstart::

    from repro import EarthQube, EarthQubeConfig, ArchiveConfig, QuerySpec

    system = EarthQube.bootstrap(EarthQubeConfig(
        archive=ArchiveConfig(num_patches=500)))
    response = system.search(QuerySpec(labels=("Coniferous forest",)))
    similar = system.similar_images(response.names[0], k=10)
"""

from .config import (
    ArchiveConfig,
    EarthQubeConfig,
    FeatureConfig,
    FederationConfig,
    IndexConfig,
    MiLaNConfig,
    ObsConfig,
    ServingConfig,
    TrainConfig,
)
from .bigearthnet import SyntheticArchive
from .core import MiLaNHasher
from .earthqube import EarthQube, QuerySpec
from .earthqube.label_filter import LabelOperator
from .errors import ReproError
from .features import FeatureExtractor
from .federation import FederatedEarthQube

__version__ = "1.0.0"

__all__ = [
    "EarthQube",
    "QuerySpec",
    "LabelOperator",
    "SyntheticArchive",
    "MiLaNHasher",
    "FeatureExtractor",
    "EarthQubeConfig",
    "ArchiveConfig",
    "FeatureConfig",
    "MiLaNConfig",
    "TrainConfig",
    "IndexConfig",
    "ServingConfig",
    "FederationConfig",
    "ObsConfig",
    "FederatedEarthQube",
    "ReproError",
    "__version__",
]
