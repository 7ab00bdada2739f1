"""Tests for the MiLaN losses, similarity ground truth, and binarization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MiLaNConfig
from repro.core import (
    bit_balance_loss,
    binarize_continuous,
    independence_loss,
    jaccard_similarity_matrix,
    milan_loss,
    quantization_loss,
    shares_label_matrix,
    triplet_loss,
)
from repro.core.binarize import bit_activation_rates, bit_entropy, quantization_error
from repro.errors import ShapeError


class TestSimilarity:
    def test_shares_label_matrix(self):
        labels = np.array([
            [1, 0, 0],
            [1, 1, 0],
            [0, 0, 1],
        ], dtype=bool)
        sim = shares_label_matrix(labels)
        assert sim[0, 1] and sim[1, 0]
        assert not sim[0, 2]
        assert sim[0, 0]  # self-similar

    def test_shares_two_sets(self):
        a = np.array([[1, 0]], dtype=bool)
        b = np.array([[1, 1], [0, 1]], dtype=bool)
        sim = shares_label_matrix(a, b)
        assert sim.shape == (1, 2)
        assert sim[0, 0] and not sim[0, 1]

    def test_jaccard_values(self):
        a = np.array([[1, 1, 0, 0]], dtype=bool)
        b = np.array([[1, 1, 0, 0], [1, 0, 1, 0], [0, 0, 1, 1]], dtype=bool)
        jac = jaccard_similarity_matrix(a, b)[0]
        assert jac[0] == pytest.approx(1.0)
        assert jac[1] == pytest.approx(1 / 3)
        assert jac[2] == pytest.approx(0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            shares_label_matrix(np.ones((2, 3), bool), np.ones((2, 4), bool))


class TestTripletLoss:
    def test_zero_when_margin_satisfied(self):
        anchors = np.zeros((4, 8))
        positives = np.zeros((4, 8))
        negatives = np.full((4, 8), 2.0)  # far away
        loss, _ = triplet_loss(anchors, positives, negatives, margin=1.0)
        assert loss == 0.0

    def test_positive_when_violated(self):
        anchors = np.zeros((4, 8))
        positives = np.full((4, 8), 2.0)   # far positive
        negatives = np.zeros((4, 8))       # negative at anchor
        loss, _ = triplet_loss(anchors, positives, negatives, margin=1.0)
        assert loss == pytest.approx(4.0 + 1.0)

    def test_margin_increases_loss(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 16))
        p = rng.standard_normal((8, 16))
        n = rng.standard_normal((8, 16))
        assert triplet_loss(a, p, n, margin=2.0)[0] >= triplet_loss(a, p, n, margin=0.5)[0]

    def test_gradient_flows(self):
        a = np.zeros((2, 4))
        p = np.ones((2, 4))
        n = np.zeros((2, 4))
        _, (grad_a, _, _) = triplet_loss(a, p, n, margin=1.0)
        assert np.abs(grad_a).sum() > 0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            triplet_loss(np.zeros((2, 4)), np.zeros((2, 4)), np.zeros((3, 4)))


class TestBitBalanceLoss:
    def test_zero_for_balanced_codes(self):
        codes = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert bit_balance_loss(codes)[0] == pytest.approx(0.0)

    def test_maximal_for_constant_codes(self):
        codes = np.ones((8, 4))
        assert bit_balance_loss(codes)[0] == pytest.approx(1.0)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            bit_balance_loss(np.ones(4))


class TestIndependenceLoss:
    def test_low_for_orthogonal_bits(self):
        # Hadamard-like balanced, decorrelated columns of +-1.
        codes = np.array([
            [1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        assert independence_loss(codes)[0] == pytest.approx(0.0)

    def test_high_for_duplicated_bits(self):
        column = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        codes = np.hstack([column, column])
        assert independence_loss(codes)[0] > 0.2


class TestQuantizationLoss:
    def test_zero_at_plus_minus_one(self):
        codes = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert quantization_loss(codes)[0] == pytest.approx(0.0)

    def test_maximal_at_zero(self):
        codes = np.zeros((4, 8))
        assert quantization_loss(codes)[0] == pytest.approx(1.0)

    def test_symmetric_in_sign(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(6, 8))
        assert quantization_loss(x)[0] == pytest.approx(quantization_loss(-x)[0])


class TestCombinedLoss:
    def _codes(self, seed=0):
        """Anchors, positives and negatives stacked as one (3B, K) array."""
        return np.random.default_rng(seed).uniform(-1, 1, size=(3 * 6, 16))

    def test_breakdown_contains_all_terms(self):
        breakdown, _ = milan_loss(self._codes(), MiLaNConfig(num_bits=16))
        assert {"triplet", "bit_balance", "independence", "quantization",
                "total"} <= set(breakdown)

    def test_zero_weights_skip_terms(self):
        config = MiLaNConfig(num_bits=16, weight_bit_balance=0.0,
                             weight_independence=0.0, weight_quantization=0.0)
        breakdown, _ = milan_loss(self._codes(), config)
        assert set(breakdown) == {"triplet", "total"}

    def test_all_zero_weights_yield_zero(self):
        config = MiLaNConfig(num_bits=16, weight_triplet=0.0,
                             weight_bit_balance=0.0, weight_independence=0.0,
                             weight_quantization=0.0)
        breakdown, grad = milan_loss(self._codes(), config)
        assert breakdown["total"] == 0.0
        assert not grad.any()

    def test_total_is_weighted_sum(self):
        config = MiLaNConfig(num_bits=16, weight_triplet=2.0,
                             weight_bit_balance=0.5, weight_independence=0.25,
                             weight_quantization=0.1)
        parts, _ = milan_loss(self._codes(), config)
        expected = (2.0 * parts["triplet"] + 0.5 * parts["bit_balance"]
                    + 0.25 * parts["independence"] + 0.1 * parts["quantization"])
        assert parts["total"] == pytest.approx(expected)

    def test_gradient_reaches_all_inputs(self):
        codes = self._codes()
        _, grad = milan_loss(codes, MiLaNConfig(num_bits=16))
        assert grad.shape == codes.shape
        for third in np.split(grad, 3):
            assert np.abs(third).sum() > 0

    def test_rows_must_stack_three_batches(self):
        with pytest.raises(ShapeError):
            milan_loss(np.zeros((7, 16)), MiLaNConfig(num_bits=16))


class TestBinarize:
    def test_sign_threshold(self):
        codes = np.array([[-0.5, 0.0, 0.5], [0.9, -0.9, 0.1]])
        bits = binarize_continuous(codes)
        np.testing.assert_array_equal(bits, [[0, 1, 1], [1, 0, 1]])
        assert bits.dtype == np.uint8

    def test_1d_input(self):
        np.testing.assert_array_equal(
            binarize_continuous(np.array([-1.0, 1.0])), [0, 1])

    def test_quantization_error(self):
        assert quantization_error(np.array([[1.0, -1.0]])) == 0.0
        assert quantization_error(np.array([[0.0, 0.0]])) == 1.0

    def test_activation_rates_and_entropy(self):
        bits = np.array([[1, 0], [0, 0], [1, 0], [0, 0]], dtype=np.uint8)
        rates = bit_activation_rates(bits)
        np.testing.assert_allclose(rates, [0.5, 0.0])
        # Entropy: first bit perfect (1.0), second degenerate (0.0).
        assert bit_entropy(bits) == pytest.approx(0.5, abs=1e-6)

    def test_balanced_bits_have_unit_entropy(self, rng):
        bits = (rng.random((2000, 16)) < 0.5).astype(np.uint8)
        assert bit_entropy(bits) > 0.99


@settings(max_examples=30)
@given(seed=st.integers(min_value=0, max_value=9999))
def test_property_losses_nonnegative(seed):
    rng = np.random.default_rng(seed)
    codes = rng.uniform(-2, 2, size=(5, 8))
    assert bit_balance_loss(codes)[0] >= 0
    assert independence_loss(codes)[0] >= 0
    assert quantization_loss(codes)[0] >= 0
