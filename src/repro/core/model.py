"""The MiLaN hashing network: an MLP ending in a tanh code layer.

The GRSL MiLaN hashes *pre-extracted deep features* through fully connected
layers whose final activation is tanh, so the continuous codes live in
``(-1, 1)`` and sign-binarization is a small perturbation once the
quantization loss has done its work.  Hidden layers use ReLU.

The network is small enough that its gradient is written out in closed
form: :meth:`MiLaNNetwork.forward` keeps every layer's activation and
:meth:`MiLaNNetwork.backward` runs the chain rule back through the tanh
derivative ``1 - c²`` and the ReLU masks.
"""

from __future__ import annotations

import math

import numpy as np

from ..config import MiLaNConfig
from ..errors import ShapeError, ValidationError
from ..utils.rng import as_rng, spawn_rng


class MiLaNNetwork:
    """feature vector -> continuous code in ``(-1, 1)^num_bits``.

    ``layers`` holds one ``[W, b]`` pair of float64 arrays per Linear layer,
    ``W`` shaped ``(fan_in, fan_out)``; every layer but the last is followed
    by a ReLU, the last by tanh.
    """

    def __init__(self, feature_dim: int, config: "MiLaNConfig | None" = None,
                 rng: "np.random.Generator | int | None" = None) -> None:
        if feature_dim <= 0:
            raise ValidationError(f"feature_dim must be positive, got {feature_dim}")
        self.config = config or MiLaNConfig()
        self.feature_dim = feature_dim
        sizes = (feature_dim, *self.config.hidden_sizes, self.config.num_bits)
        layer_rngs = spawn_rng(as_rng(rng), len(sizes) - 1)
        self.layers: list[list[np.ndarray]] = []
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            if i < len(sizes) - 2:   # Kaiming-uniform before a ReLU
                limit = math.sqrt(6.0 / fan_in)
            else:                    # Xavier-uniform before the tanh
                limit = math.sqrt(6.0 / (fan_in + fan_out))
            weight = layer_rngs[i].uniform(-limit, limit, size=(fan_in, fan_out))
            self.layers.append([weight, np.zeros(fan_out)])

    @property
    def num_bits(self) -> int:
        """Length of the produced codes."""
        return self.config.num_bits

    def forward(self, x: np.ndarray) -> list[np.ndarray]:
        """``(N, F)`` features -> every activation, input first, codes last."""
        if x.ndim != 2 or x.shape[1] != self.feature_dim:
            raise ShapeError(
                f"MiLaNNetwork expected (N, {self.feature_dim}) input, got {x.shape}")
        activations = [x]
        for i, (weight, bias) in enumerate(self.layers):
            z = activations[-1] @ weight + bias
            last = i == len(self.layers) - 1
            activations.append(np.tanh(z) if last else np.maximum(z, 0.0))
        return activations

    def backward(self, activations: list[np.ndarray],
                 grad_codes: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each layer's ``(dW, db)`` given :meth:`forward`'s activations and
        the loss gradient with respect to the codes."""
        grads: list[tuple[np.ndarray, np.ndarray]] = []
        codes = activations[-1]
        grad = grad_codes * (1.0 - codes ** 2)
        for i in range(len(self.layers) - 1, -1, -1):
            inputs = activations[i]
            grads.append((inputs.T @ grad, grad.sum(axis=0)))
            if i:
                grad = (grad @ self.layers[i][0].T) * (inputs > 0)
        grads.reverse()
        return grads

    def encode(self, features: np.ndarray) -> np.ndarray:
        """Inference: ``(N, F)`` or ``(F,)`` features -> continuous codes."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 1:
            return self.forward(features[None, :])[-1][0]
        return self.forward(features)[-1]

    def state_dict(self, prefix: str = "") -> dict[str, np.ndarray]:
        """Weights as copies under ``net.<i>.weight`` / ``net.<i>.bias``.

        ``i`` is the Linear layer's position in the layer stack, where each
        Linear is followed by its activation, so the keys of saved hashers
        run ``net.0``, ``net.2``, ...
        """
        state: dict[str, np.ndarray] = {}
        for i, (weight, bias) in enumerate(self.layers):
            state[f"{prefix}net.{2 * i}.weight"] = weight.copy()
            state[f"{prefix}net.{2 * i}.bias"] = bias.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray], prefix: str = "") -> None:
        """Load arrays produced by :meth:`state_dict`; every key must be
        present, every array finite and of this network's shape."""
        loaded = []
        for key, current in self.state_dict(prefix).items():
            if key not in state:
                raise ValidationError(f"state dict is missing parameter {key!r}")
            value = np.array(state[key], dtype=np.float64)
            if value.shape != current.shape:
                raise ShapeError(
                    f"parameter {key!r} has shape {value.shape}, expected {current.shape}")
            if not np.isfinite(value).all():
                raise ValidationError(f"parameter {key!r} is not finite")
            loaded.append(value)
        self.layers = [loaded[i:i + 2] for i in range(0, len(loaded), 2)]
