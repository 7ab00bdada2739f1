"""A small numpy autograd engine and neural-network toolkit.

This package is the substitute for PyTorch in the MiLaN training pipeline
(DESIGN.md §2): reverse-mode automatic differentiation over numpy arrays
(:mod:`repro.nn.tensor`), standard layers (:mod:`repro.nn.layers`),
optimizers (:mod:`repro.nn.optim`) and initialization schemes
(:mod:`repro.nn.init`); a module's weights round-trip through its
``state_dict()`` / ``load_state_dict()``.

Only what the paper's hashing head needs is implemented — dense layers,
ReLU/Tanh/Sigmoid, BatchNorm, Dropout, Adam/SGD — but each piece is complete
and tested (gradients are property-checked against central differences).
"""

from .init import kaiming_uniform, xavier_uniform, zeros_
from .layers import (
    BatchNorm1d,
    Dropout,
    Linear,
    Module,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from .optim import SGD, Adam, Optimizer
from .tensor import Tensor, no_grad

__all__ = [
    "Tensor",
    "no_grad",
    "Module",
    "Linear",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Dropout",
    "BatchNorm1d",
    "Sequential",
    "Optimizer",
    "SGD",
    "Adam",
    "xavier_uniform",
    "kaiming_uniform",
    "zeros_",
]
