"""Central-difference checks of the closed-form MiLaN gradients.

Every loss term, the weighted total and the network's backward pass are
compared against ``(f(x + eps) - f(x - eps)) / 2 eps`` on random inputs
well away from the ReLU, hinge and ``|h|`` kinks.
"""

import numpy as np
import pytest

from repro.config import MiLaNConfig
from repro.core import (
    MiLaNNetwork,
    bit_balance_loss,
    independence_loss,
    milan_loss,
    quantization_loss,
    triplet_loss,
)

SHAPES = [(2, 8), (3, 5), (6, 16)]


def numeric_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central differences of the scalar ``f`` with respect to ``x`` (in place)."""
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        original = x[idx]
        x[idx] = original + eps
        upper = f()
        x[idx] = original - eps
        lower = f()
        x[idx] = original
        grad[idx] = (upper - lower) / (2 * eps)
    return grad


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray) -> None:
    np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("shape", SHAPES)
def test_triplet_gradient(shape):
    rng = np.random.default_rng(sum(shape))
    inputs = [rng.uniform(-1, 1, size=shape) for _ in range(3)]
    _, grads = triplet_loss(*inputs, margin=0.5)
    for x, grad in zip(inputs, grads):
        assert_grad_close(grad, numeric_grad(lambda: triplet_loss(*inputs, margin=0.5)[0], x))


@pytest.mark.parametrize("term", [bit_balance_loss, independence_loss, quantization_loss])
@pytest.mark.parametrize("shape", SHAPES)
def test_batch_term_gradient(term, shape):
    codes = np.random.default_rng(sum(shape)).uniform(-1, 1, size=shape)
    _, grad = term(codes)
    assert grad.shape == codes.shape
    assert_grad_close(grad, numeric_grad(lambda: term(codes)[0], codes))


@pytest.mark.parametrize("shape", SHAPES)
def test_milan_loss_total_gradient(shape):
    batch, bits = shape
    codes = np.random.default_rng(batch * bits).uniform(-1, 1, size=(3 * batch, bits))
    config = MiLaNConfig(num_bits=8, weight_triplet=0.7, weight_bit_balance=0.5,
                         weight_independence=0.25, weight_quantization=0.1)
    _, grad = milan_loss(codes, config)
    assert_grad_close(grad, numeric_grad(lambda: milan_loss(codes, config)[0]["total"], codes))


@pytest.mark.parametrize("hidden_sizes", [(), (8,), (8, 4)])
def test_network_backward(hidden_sizes):
    rng = np.random.default_rng(len(hidden_sizes))
    net = MiLaNNetwork(5, MiLaNConfig(num_bits=8, hidden_sizes=hidden_sizes), rng=rng)
    for layer in net.layers:           # non-zero biases exercise db
        layer[1] += rng.uniform(-0.5, 0.5, size=layer[1].shape)
    x = rng.standard_normal((4, 5))
    upstream = rng.standard_normal((4, 8))   # loss = sum(codes * upstream)

    def loss() -> float:
        return float((net.forward(x)[-1] * upstream).sum())

    grads = net.backward(net.forward(x), upstream)
    assert len(grads) == len(hidden_sizes) + 1
    for (weight, bias), (grad_w, grad_b) in zip(net.layers, grads):
        assert_grad_close(grad_w, numeric_grad(loss, weight))
        assert_grad_close(grad_b, numeric_grad(loss, bias))


@pytest.mark.parametrize("term", [bit_balance_loss, independence_loss, quantization_loss])
def test_batch_term_weight_and_buffer(term):
    """``term(codes, weight, grad)`` adds ``weight`` times its gradient into
    ``grad`` and returns that same buffer."""
    codes = np.random.default_rng(7).uniform(-1, 1, size=(6, 8))
    value, unit = term(codes)
    start = np.random.default_rng(8).standard_normal(codes.shape)
    buffer = start.copy()
    weighted_value, returned = term(codes, 0.3, buffer)
    assert returned is buffer and weighted_value == value
    np.testing.assert_allclose(buffer - start, 0.3 * unit, rtol=1e-12, atol=1e-15)
