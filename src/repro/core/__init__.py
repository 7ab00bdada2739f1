"""MiLaN: metric-learning-based deep hashing (the paper's core technology).

"MiLaN is a deep hashing network based on metric learning that encodes
high-dimensional image features into compact binary hash codes" trained with
three losses — triplet, bit balance, quantization (paper, Sections 1 and
2.2).  This package implements that pipeline in numpy, with the network's
and the losses' gradients written out in closed form:

* :mod:`repro.core.similarity` — label-derived similarity ground truth
  (patches sharing CLC labels are "similar"),
* :mod:`repro.core.losses` — the training losses and their gradients,
* :mod:`repro.core.model` — the hashing MLP with a tanh code layer and
  its backward pass,
* :mod:`repro.core.sampler` — random and semi-hard triplet mining,
* :mod:`repro.core.trainer` — the optimization loop,
* :mod:`repro.core.binarize` — sign binarization of network outputs,
* :mod:`repro.core.hasher` — :class:`MiLaNHasher`, the high-level facade
  (fit on features + labels, then hash patches to packed binary codes).
"""

from .binarize import binarize_continuous
from .hasher import MiLaNHasher
from .losses import (
    bit_balance_loss,
    independence_loss,
    milan_loss,
    quantization_loss,
    triplet_loss,
)
from .model import MiLaNNetwork
from .sampler import TripletSampler
from .similarity import jaccard_similarity_matrix, shares_label_matrix
from .trainer import MiLaNTrainer, TrainingHistory

__all__ = [
    "MiLaNHasher",
    "MiLaNNetwork",
    "MiLaNTrainer",
    "TrainingHistory",
    "TripletSampler",
    "triplet_loss",
    "bit_balance_loss",
    "independence_loss",
    "quantization_loss",
    "milan_loss",
    "binarize_continuous",
    "shares_label_matrix",
    "jaccard_similarity_matrix",
]
