"""The high-level MiLaN facade: features in, binary codes out.

:class:`MiLaNHasher` owns the full paper pipeline:

1. fit a :class:`~repro.features.Standardizer` on training features,
2. train the :class:`~repro.core.model.MiLaNNetwork` with the three-part
   loss on label-derived triplets,
3. hash any features — archive or external "query-by-new-example" images —
   to continuous codes, ``{0,1}`` bits, or packed uint64 words ready for
   the Hamming indexes.

EarthQube keeps one fitted hasher: archive codes are produced once at
ingestion; external query images are hashed on the fly (paper, Section
3.3).
"""

from __future__ import annotations

import numpy as np

from ..config import MiLaNConfig, TrainConfig
from ..errors import NotFittedError, ShapeError, ValidationError
from ..features.normalization import Standardizer
from ..index.codes import pack_bits
from .binarize import binarize_continuous
from .model import MiLaNNetwork
from .trainer import MiLaNTrainer, TrainingHistory


class MiLaNHasher:
    """Trainable feature -> binary-hash-code pipeline."""

    def __init__(self, milan_config: "MiLaNConfig | None" = None,
                 train_config: "TrainConfig | None" = None) -> None:
        self.milan_config = milan_config or MiLaNConfig()
        self.train_config = train_config or TrainConfig()
        self.standardizer = Standardizer()
        self.network: "MiLaNNetwork | None" = None
        self.history: "TrainingHistory | None" = None

    @property
    def num_bits(self) -> int:
        """Code length in bits (128 in the demo)."""
        return self.milan_config.num_bits

    @property
    def is_fitted(self) -> bool:
        return self.network is not None

    def fit(self, features: np.ndarray, label_matrix: np.ndarray) -> "MiLaNHasher":
        """Standardize features and train the network; returns self."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValidationError(f"features must be (N, F), got shape {features.shape}")
        if not np.isfinite(features).all():
            raise ValidationError("features must be finite")
        standardized = self.standardizer.fit_transform(features)
        trainer = MiLaNTrainer(self.milan_config, self.train_config)
        self.network, self.history = trainer.train(standardized, label_matrix)
        return self

    def _require_network(self) -> MiLaNNetwork:
        if self.network is None:
            raise NotFittedError("MiLaNHasher used before fit()")
        return self.network

    def hash_continuous(self, features: np.ndarray) -> np.ndarray:
        """Continuous codes in ``(-1, 1)`` (pre-binarization).

        Every code is made here, so this is where non-finite features are
        refused: a NaN would otherwise hash to an arbitrary code.
        """
        network = self._require_network()
        features = np.asarray(features, dtype=np.float64)
        if not np.isfinite(features).all():
            raise ValidationError("features must be finite")
        standardized = self.standardizer.transform(features)
        return network.encode(standardized)

    def hash_bits(self, features: np.ndarray) -> np.ndarray:
        """``{0, 1}`` uint8 code bits."""
        return binarize_continuous(self.hash_continuous(features))

    def hash_packed(self, features: np.ndarray) -> np.ndarray:
        """Packed uint64 codes ready for the Hamming indexes."""
        return pack_bits(self.hash_bits(features))

    def state_dict(self) -> dict[str, np.ndarray]:
        """Serializable state: network weights + standardizer statistics."""
        network = self._require_network()
        state = network.state_dict(prefix="network.")
        state["standardizer.mean"] = np.asarray(self.standardizer.mean_)
        state["standardizer.scale"] = np.asarray(self.standardizer.scale_)
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> "MiLaNHasher":
        """Restore a fitted hasher (inverse of :meth:`state_dict`).

        The feature width is read from the first layer's weight.  A missing
        key, an array of the wrong shape, a non-finite value or a
        non-positive standardizer scale is refused before anything is
        replaced.
        """
        keys = ("network.net.0.weight", "standardizer.mean", "standardizer.scale")
        missing = [key for key in keys if key not in state]
        if missing:
            raise ValidationError(f"state dict is missing {missing}")
        first_weight = np.shape(state["network.net.0.weight"])
        if len(first_weight) != 2:
            raise ShapeError(f"'network.net.0.weight' has shape {first_weight}, expected 2-D")
        feature_dim = first_weight[0]
        network = MiLaNNetwork(feature_dim, self.milan_config)
        network.load_state_dict(state, prefix="network.")
        mean, scale = (np.array(state[key], dtype=np.float64) for key in keys[1:])
        for key, value in zip(keys[1:], (mean, scale)):
            if value.shape != (feature_dim,):
                raise ShapeError(f"{key!r} has shape {value.shape}, expected ({feature_dim},)")
            if not np.isfinite(value).all():
                raise ValidationError(f"{key!r} is not finite")
        if not (scale > 0).all():
            raise ValidationError("'standardizer.scale' must be positive")
        self.standardizer.mean_, self.standardizer.scale_ = mean, scale
        self.network = network
        return self
