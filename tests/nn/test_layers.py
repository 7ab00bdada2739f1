"""Tests for layers, modules, optimizers, init, and state dicts."""

import numpy as np
import pytest

from repro.errors import ShapeError, ValidationError
from repro.nn import (
    Adam,
    BatchNorm1d,
    Dropout,
    Linear,
    ReLU,
    SGD,
    Sequential,
    Sigmoid,
    Tanh,
    Tensor,
    kaiming_uniform,
    xavier_uniform,
)


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(5, 3, rng=rng)
        out = layer(Tensor(np.ones((4, 5))))
        assert out.shape == (4, 3)

    def test_bias_optional(self, rng):
        layer = Linear(5, 3, bias=False, rng=rng)
        assert layer.bias is None
        out = layer(Tensor(np.zeros((2, 5))))
        np.testing.assert_allclose(out.data, 0.0)

    def test_wrong_input_dim_raises(self, rng):
        layer = Linear(5, 3, rng=rng)
        with pytest.raises(ShapeError):
            layer(Tensor(np.ones((4, 6))))

    def test_invalid_sizes(self):
        with pytest.raises(ValidationError):
            Linear(0, 3)

    def test_parameters_are_trainable(self, rng):
        layer = Linear(5, 3, rng=rng)
        params = list(layer.parameters())
        assert len(params) == 2
        assert all(p.requires_grad for p in params)

    def test_gradient_flows_through(self, rng):
        layer = Linear(4, 2, rng=rng)
        out = layer(Tensor(np.ones((3, 4)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None
        np.testing.assert_allclose(layer.bias.grad, np.full(2, 3.0))


class TestActivationsAndDropout:
    def test_activation_modules(self):
        x = Tensor(np.array([[-1.0, 2.0]]))
        np.testing.assert_allclose(ReLU()(x).data, [[0.0, 2.0]])
        np.testing.assert_allclose(Tanh()(x).data, np.tanh([[-1.0, 2.0]]))
        np.testing.assert_allclose(Sigmoid()(x).data, 1 / (1 + np.exp([[1.0, -2.0]])))

    def test_dropout_train_vs_eval(self):
        drop = Dropout(0.5, rng=0)
        x = Tensor(np.ones((100, 10)))
        out_train = drop(x)
        zero_fraction = float((out_train.data == 0).mean())
        assert 0.3 < zero_fraction < 0.7
        drop.eval()
        np.testing.assert_allclose(drop(x).data, 1.0)

    def test_dropout_inverted_scaling(self):
        drop = Dropout(0.5, rng=0)
        out = drop(Tensor(np.ones((2000, 10))))
        # E[out] stays ~1 because survivors are scaled by 1/keep.
        assert abs(out.data.mean() - 1.0) < 0.1

    def test_dropout_invalid_p(self):
        with pytest.raises(ValidationError):
            Dropout(1.0)


class TestBatchNorm:
    def test_normalizes_batch(self, rng):
        bn = BatchNorm1d(4)
        x = Tensor(rng.standard_normal((64, 4)) * 5 + 3)
        out = bn(x)
        assert abs(out.data.mean()) < 1e-6
        assert abs(out.data.std() - 1.0) < 0.05

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm1d(4, momentum=0.5)
        x = rng.standard_normal((64, 4)) * 2 + 1
        for _ in range(20):
            bn(Tensor(x))
        bn.eval()
        out = bn(Tensor(x))
        assert abs(out.data.mean()) < 0.2

    def test_shape_validation(self):
        bn = BatchNorm1d(4)
        with pytest.raises(ShapeError):
            bn(Tensor(np.ones((3, 5))))

    def test_invalid_config(self):
        with pytest.raises(ValidationError):
            BatchNorm1d(0)
        with pytest.raises(ValidationError):
            BatchNorm1d(4, momentum=0.0)


class TestSequentialAndModule:
    def test_forward_composition(self, rng):
        model = Sequential(Linear(4, 8, rng=1), ReLU(), Linear(8, 2, rng=2))
        out = model(Tensor(np.ones((3, 4))))
        assert out.shape == (3, 2)

    def test_len_and_getitem(self, rng):
        model = Sequential(Linear(4, 8, rng=1), ReLU())
        assert len(model) == 2
        assert isinstance(model[1], ReLU)

    def test_empty_sequential_rejected(self):
        with pytest.raises(ValidationError):
            Sequential()

    def test_parameters_recursive(self):
        model = Sequential(Linear(4, 8, rng=1), ReLU(), Linear(8, 2, rng=2))
        assert len(list(model.parameters())) == 4
        assert model.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_train_eval_recursive(self):
        model = Sequential(Linear(4, 8, rng=1), Dropout(0.5, rng=0))
        model.eval()
        assert not model.training
        assert not model[1].training
        model.train()
        assert model[1].training

    def test_zero_grad_recursive(self):
        model = Sequential(Linear(4, 2, rng=1))
        model(Tensor(np.ones((2, 4)))).sum().backward()
        assert model[0].weight.grad is not None
        model.zero_grad()
        assert model[0].weight.grad is None


class TestOptimizers:
    @staticmethod
    def quadratic_loss(param):
        return ((param - 3.0) ** 2).sum()

    def test_sgd_converges(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        opt = SGD([p], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            self.quadratic_loss(p).backward()
            opt.step()
        np.testing.assert_allclose(p.data, 3.0, atol=1e-3)

    def test_sgd_momentum_faster_than_plain(self):
        def run(momentum):
            p = Tensor(np.zeros(1), requires_grad=True)
            opt = SGD([p], lr=0.02, momentum=momentum)
            for _ in range(50):
                opt.zero_grad()
                self.quadratic_loss(p).backward()
                opt.step()
            return abs(p.data[0] - 3.0)
        assert run(0.9) < run(0.0)

    def test_adam_converges(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        opt = Adam([p], lr=0.3)
        for _ in range(200):
            opt.zero_grad()
            self.quadratic_loss(p).backward()
            opt.step()
        np.testing.assert_allclose(p.data, 3.0, atol=1e-2)

    def test_weight_decay_shrinks_solution(self):
        def run(weight_decay):
            p = Tensor(np.zeros(1), requires_grad=True)
            opt = SGD([p], lr=0.1, weight_decay=weight_decay)
            for _ in range(300):
                opt.zero_grad()
                self.quadratic_loss(p).backward()
                opt.step()
            return p.data[0]
        assert run(1.0) < run(0.0)

    def test_skips_parameters_without_grad(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = Adam([p], lr=0.1)
        opt.step()  # no backward ran; must not crash or move p
        np.testing.assert_allclose(p.data, 1.0)

    def test_validation(self):
        p = Tensor(np.ones(1), requires_grad=True)
        with pytest.raises(ValidationError):
            Adam([], lr=0.1)
        with pytest.raises(ValidationError):
            Adam([p], lr=-1.0)
        with pytest.raises(ValidationError):
            SGD([p], lr=0.1, momentum=1.5)


class TestInit:
    def test_xavier_bounds(self):
        w = xavier_uniform(100, 100, rng=0)
        limit = np.sqrt(6 / 200)
        assert w.shape == (100, 100)
        assert np.abs(w).max() <= limit

    def test_kaiming_bounds(self):
        w = kaiming_uniform(100, 50, rng=0)
        limit = np.sqrt(6 / 100)
        assert np.abs(w).max() <= limit

    def test_invalid_fans(self):
        with pytest.raises(ValidationError):
            xavier_uniform(0, 5)


class TestSerialization:
    def test_state_dict_roundtrip(self, rng):
        model = Sequential(Linear(4, 8, rng=1), ReLU(), Linear(8, 2, rng=2))
        x = Tensor(rng.standard_normal((3, 4)))
        expected = model(x).data

        fresh = Sequential(Linear(4, 8, rng=9), ReLU(), Linear(8, 2, rng=8))
        assert not np.allclose(fresh(x).data, expected)
        fresh.load_state_dict(model.state_dict())
        np.testing.assert_allclose(fresh(x).data, expected)

    def test_state_dict_includes_batchnorm_buffers(self, rng):
        bn = BatchNorm1d(3)
        bn(Tensor(rng.standard_normal((16, 3)) + 5))
        state = bn.state_dict()
        assert "running_mean" in state
        fresh = BatchNorm1d(3)
        fresh.load_state_dict(state)
        np.testing.assert_allclose(fresh._buffers["running_mean"],
                                   bn._buffers["running_mean"])

    def test_missing_parameter_raises(self):
        model = Linear(2, 2, rng=0)
        with pytest.raises(ValidationError):
            model.load_state_dict({})

    def test_shape_mismatch_raises(self):
        model = Linear(2, 2, rng=0)
        state = model.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ShapeError):
            model.load_state_dict(state)
