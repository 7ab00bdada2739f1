"""The MiLaN training loop.

Per epoch: mine triplets (random or semi-hard), run minibatches through the
network (anchors, positives, and negatives share one forward pass for
efficiency), apply the weighted loss, back-propagate its closed-form
gradient, and step Adam.  Tracks a :class:`TrainingHistory` of per-epoch
loss components with optional early stopping on the total.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import MiLaNConfig, TrainConfig
from ..errors import ShapeError, TrainingError, ValidationError
from ..utils.rng import as_rng
from .losses import milan_loss
from .model import MiLaNNetwork
from .sampler import TripletSampler


@dataclass
class TrainingHistory:
    """Per-epoch means of each loss component."""

    epochs: list[int] = field(default_factory=list)
    components: dict[str, list[float]] = field(default_factory=dict)

    def record(self, epoch: int, breakdown: dict[str, float]) -> None:
        self.epochs.append(epoch)
        for name, value in breakdown.items():
            self.components.setdefault(name, []).append(value)

    @property
    def final_total(self) -> float:
        """Total loss of the last recorded epoch."""
        totals = self.components.get("total")
        if not totals:
            raise TrainingError("no epochs recorded")
        return totals[-1]


class MiLaNTrainer:
    """Trains a :class:`MiLaNNetwork` on features + multi-label ground truth."""

    def __init__(self, milan_config: "MiLaNConfig | None" = None,
                 train_config: "TrainConfig | None" = None) -> None:
        self.milan_config = milan_config or MiLaNConfig()
        self.train_config = train_config or TrainConfig()

    def train(self, features: np.ndarray,
              label_matrix: np.ndarray) -> tuple[MiLaNNetwork, TrainingHistory]:
        """Run the full loop; returns the trained network and its history.

        ``features`` must already be standardized; ``label_matrix`` is the
        ``(N, L)`` boolean ground truth aligned with feature rows.
        """
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(label_matrix)
        if features.ndim != 2:
            raise ShapeError(f"features must be (N, F), got {features.shape}")
        if labels.shape[0] != features.shape[0]:
            raise ValidationError(
                f"features ({features.shape[0]}) and labels ({labels.shape[0]}) disagree")
        cfg = self.train_config
        rng = as_rng(cfg.seed)
        network = MiLaNNetwork(features.shape[1], self.milan_config, rng=rng)
        sampler = TripletSampler(labels, rng=rng)
        # Adam (Kingma & Ba, 2015) with bias correction, updating the
        # network's weight and bias arrays in place.
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        params = [param for layer in network.layers for param in layer]
        first = [np.zeros_like(param) for param in params]
        second = [np.zeros_like(param) for param in params]
        steps = 0
        history = TrainingHistory()
        best_total = np.inf
        stall = 0

        for epoch in range(cfg.epochs):
            if epoch > 0:
                current_codes = network.encode(features)
                anchors, positives, negatives = sampler.sample_semi_hard(
                    cfg.triplets_per_epoch, current_codes, self.milan_config.triplet_margin)
            else:
                anchors, positives, negatives = sampler.sample(cfg.triplets_per_epoch)

            epoch_sums: dict[str, float] = {}
            batches = 0
            for start in range(0, len(anchors), cfg.batch_size):
                stop = start + cfg.batch_size
                idx_a = anchors[start:stop]
                idx_p = positives[start:stop]
                idx_n = negatives[start:stop]
                if len(idx_a) < 2:
                    continue  # losses need at least 2 rows for batch statistics
                batch = np.concatenate([features[idx_a], features[idx_p], features[idx_n]])
                activations = network.forward(batch)
                breakdown, grad_codes = milan_loss(activations[-1], self.milan_config)
                steps += 1
                bias1, bias2 = 1.0 - beta1 ** steps, 1.0 - beta2 ** steps
                grads = [g for pair in network.backward(activations, grad_codes) for g in pair]
                for param, grad, m, v in zip(params, grads, first, second):
                    m *= beta1
                    m += (1.0 - beta1) * grad
                    v *= beta2
                    v += (1.0 - beta2) * grad ** 2
                    param -= cfg.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + eps)
                for name, value in breakdown.items():
                    epoch_sums[name] = epoch_sums.get(name, 0.0) + value
                batches += 1

            if batches == 0:
                raise TrainingError("no batches ran; increase triplets_per_epoch")
            epoch_means = {name: value / batches for name, value in epoch_sums.items()}
            history.record(epoch, epoch_means)
            if cfg.log_every and (epoch % cfg.log_every == 0 or epoch == cfg.epochs - 1):
                parts = ", ".join(f"{k}={v:.4f}" for k, v in sorted(epoch_means.items()))
                print(f"[milan] epoch {epoch + 1}/{cfg.epochs}: {parts}")

            if cfg.early_stop_patience:
                total_now = epoch_means.get("total", np.inf)
                if total_now < best_total - 1e-6:
                    best_total = total_now
                    stall = 0
                else:
                    stall += 1
                    if stall >= cfg.early_stop_patience:
                        break
        return network, history
