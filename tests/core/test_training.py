"""Tests for the sampler, trainer, model, and hasher facade.

Training-quality assertions use the session-scoped archive/features so the
expensive parts run once.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import MiLaNConfig, TrainConfig
from repro.core import MiLaNHasher, MiLaNNetwork, MiLaNTrainer, TripletSampler, milan_loss
from repro.core.similarity import shares_label_matrix
from repro.errors import NotFittedError, ShapeError, TrainingError, ValidationError
from repro.index import LinearScanIndex
from repro.utils.rng import as_rng, spawn_rng


SMALL_MILAN = MiLaNConfig(num_bits=32, hidden_sizes=(64, 32))
SMALL_TRAIN = TrainConfig(epochs=6, triplets_per_epoch=384, batch_size=64, seed=0)


@pytest.fixture(scope="module")
def trained_hasher(features, label_matrix):
    hasher = MiLaNHasher(SMALL_MILAN, SMALL_TRAIN)
    return hasher.fit(features, label_matrix)


class TestSampler:
    def test_triplet_constraints_hold(self, label_matrix, rng):
        sampler = TripletSampler(label_matrix, rng=rng)
        anchors, positives, negatives = sampler.sample(200)
        labels = label_matrix.astype(bool)
        for a, p, n in zip(anchors, positives, negatives):
            assert (labels[a] & labels[p]).any(), "positive must share a label"
            assert not (labels[a] & labels[n]).any(), "negative must share none"
            assert a != p and a != n

    def test_semi_hard_constraints_hold(self, label_matrix, rng):
        sampler = TripletSampler(label_matrix, rng=rng)
        codes = rng.standard_normal((label_matrix.shape[0], 16))
        anchors, positives, negatives = sampler.sample_semi_hard(100, codes, margin=1.0)
        labels = label_matrix.astype(bool)
        for a, p, n in zip(anchors, positives, negatives):
            assert (labels[a] & labels[p]).any()
            assert not (labels[a] & labels[n]).any()

    def test_degenerate_labels_rejected(self):
        all_same = np.ones((5, 3), dtype=bool)
        with pytest.raises(TrainingError):
            TripletSampler(all_same)

    def test_too_few_items_rejected(self):
        with pytest.raises(ValidationError):
            TripletSampler(np.eye(2, dtype=bool))

    def test_sample_count_validation(self, label_matrix):
        sampler = TripletSampler(label_matrix, rng=0)
        with pytest.raises(ValidationError):
            sampler.sample(0)

    def test_valid_anchor_fraction(self, label_matrix):
        sampler = TripletSampler(label_matrix, rng=0)
        assert 0.0 < sampler.valid_anchor_fraction <= 1.0


class TestNetwork:
    def test_output_shape_and_range(self, rng):
        net = MiLaNNetwork(20, MiLaNConfig(num_bits=16, hidden_sizes=(32,)), rng=rng)
        codes = net.encode(rng.standard_normal((5, 20)))
        assert codes.shape == (5, 16)
        assert (np.abs(codes) <= 1.0).all()

    def test_single_vector_encode(self, rng):
        net = MiLaNNetwork(20, MiLaNConfig(num_bits=16, hidden_sizes=(32,)), rng=rng)
        code = net.encode(rng.standard_normal(20))
        assert code.shape == (16,)

    def test_wrong_input_width(self, rng):
        net = MiLaNNetwork(20, MiLaNConfig(num_bits=16, hidden_sizes=(32,)), rng=rng)
        with pytest.raises(ShapeError):
            net.encode(rng.standard_normal((3, 21)))

    def test_state_dict_keys(self):
        net = MiLaNNetwork(10, SMALL_MILAN, rng=0)
        state = net.state_dict()
        assert list(state) == ["net.0.weight", "net.0.bias", "net.2.weight",
                               "net.2.bias", "net.4.weight", "net.4.bias"]
        assert [state[k].shape for k in state] == [
            (10, 64), (64,), (64, 32), (32,), (32, 32), (32,)]

    def test_invalid_feature_dim(self):
        with pytest.raises(ValidationError):
            MiLaNNetwork(0)

    def test_num_bits_property(self):
        net = MiLaNNetwork(10, MiLaNConfig(num_bits=24, hidden_sizes=(8,)))
        assert net.num_bits == 24

    @pytest.mark.parametrize("hidden_sizes", [(), (16,), (16, 8)])
    def test_init_limits(self, hidden_sizes):
        """Kaiming-uniform before each ReLU, Xavier-uniform before the tanh."""
        net = MiLaNNetwork(20, MiLaNConfig(num_bits=8, hidden_sizes=hidden_sizes), rng=0)
        for i, (weight, _) in enumerate(net.layers):
            fan_in, fan_out = weight.shape
            last = i == len(net.layers) - 1
            limit = np.sqrt(6.0 / (fan_in + fan_out)) if last else np.sqrt(6.0 / fan_in)
            assert np.abs(weight).max() <= limit
            assert np.abs(weight).max() > 0.8 * limit   # the draws span the range

    def test_biases_start_at_zero(self):
        net = MiLaNNetwork(20, SMALL_MILAN, rng=0)
        assert all((bias == 0.0).all() for _, bias in net.layers)

    def test_init_draws_one_generator_per_layer(self):
        """Layer ``i``'s weights come from the ``i``-th of ``spawn_rng(rng, layers)``,
        so a seed gives the same starting weights whatever the layer widths after it."""
        net = MiLaNNetwork(20, SMALL_MILAN, rng=11)
        children = spawn_rng(as_rng(11), len(net.layers))
        limit = np.sqrt(6.0 / 20)
        expected = children[0].uniform(-limit, limit, size=(20, 64))
        np.testing.assert_array_equal(net.layers[0][0], expected)
        widened = MiLaNNetwork(20, MiLaNConfig(num_bits=32, hidden_sizes=(64, 48)), rng=11)
        np.testing.assert_array_equal(widened.layers[0][0], expected)

    def test_same_seed_same_weights(self):
        first = MiLaNNetwork(20, SMALL_MILAN, rng=5).state_dict()
        second = MiLaNNetwork(20, SMALL_MILAN, rng=5).state_dict()
        assert all(np.array_equal(first[key], second[key]) for key in first)

    def test_different_seeds_differ(self):
        first = MiLaNNetwork(20, SMALL_MILAN, rng=5)
        second = MiLaNNetwork(20, SMALL_MILAN, rng=6)
        assert not np.array_equal(first.layers[0][0], second.layers[0][0])

    @pytest.mark.parametrize("hidden_sizes", [(), (16,), (16, 8)])
    def test_forward_activations(self, hidden_sizes, rng):
        net = MiLaNNetwork(20, MiLaNConfig(num_bits=8, hidden_sizes=hidden_sizes), rng=rng)
        x = rng.standard_normal((5, 20))
        activations = net.forward(x)
        assert len(activations) == len(hidden_sizes) + 2
        assert activations[0] is x
        assert [a.shape for a in activations] == [(5, w) for w in (20, *hidden_sizes, 8)]
        for hidden in activations[1:-1]:
            assert (hidden >= 0.0).all()             # ReLU outputs
        assert (np.abs(activations[-1]) < 1.0).all()  # tanh codes

    def test_encode_is_forward_last(self, rng):
        net = MiLaNNetwork(20, SMALL_MILAN, rng=rng)
        x = rng.standard_normal((4, 20))
        np.testing.assert_array_equal(net.encode(x), net.forward(x)[-1])
        # one row goes through a vector product, so it may differ in the last ulp
        np.testing.assert_allclose(net.encode(x[1]), net.forward(x)[-1][1], rtol=1e-12)

    def test_backward_dead_relu_passes_no_gradient(self, rng):
        net = MiLaNNetwork(20, MiLaNConfig(num_bits=8, hidden_sizes=(16,)), rng=rng)
        net.layers[0][1][:] = -1e6          # every hidden unit is off
        x = rng.standard_normal((4, 20))
        (grad_w0, grad_b0), (grad_w1, grad_b1) = net.backward(
            net.forward(x), rng.standard_normal((4, 8)))
        assert not grad_w0.any() and not grad_b0.any()
        assert not grad_w1.any()            # the code layer's inputs are all 0
        assert grad_b1.any()

    def test_backward_zero_upstream_gives_zero_gradients(self, rng):
        net = MiLaNNetwork(20, SMALL_MILAN, rng=rng)
        x = rng.standard_normal((4, 20))
        grads = net.backward(net.forward(x), np.zeros((4, 32)))
        for (weight, bias), (grad_w, grad_b) in zip(net.layers, grads):
            assert grad_w.shape == weight.shape and grad_b.shape == bias.shape
            assert not grad_w.any() and not grad_b.any()

    def test_state_dict_roundtrip(self, rng):
        source = MiLaNNetwork(20, SMALL_MILAN, rng=1)
        target = MiLaNNetwork(20, SMALL_MILAN, rng=2)
        target.load_state_dict(source.state_dict())
        x = rng.standard_normal((6, 20))
        np.testing.assert_array_equal(target.encode(x), source.encode(x))

    def test_state_dict_returns_copies(self):
        net = MiLaNNetwork(20, SMALL_MILAN, rng=0)
        net.state_dict()["net.0.weight"][:] = 7.0
        assert not (net.layers[0][0] == 7.0).any()

    def test_load_state_dict_copies_its_input(self):
        net = MiLaNNetwork(20, SMALL_MILAN, rng=0)
        state = MiLaNNetwork(20, SMALL_MILAN, rng=1).state_dict()
        net.load_state_dict(state)
        state["net.0.weight"][:] = 7.0
        assert not (net.layers[0][0] == 7.0).any()

    def test_state_dict_prefix(self):
        net = MiLaNNetwork(20, SMALL_MILAN, rng=0)
        state = net.state_dict("network.")
        assert all(key.startswith("network.net.") for key in state)
        other = MiLaNNetwork(20, SMALL_MILAN, rng=1)
        other.load_state_dict(state, "network.")
        np.testing.assert_array_equal(other.layers[2][0], net.layers[2][0])

    def test_load_refuses_missing_parameter(self):
        net = MiLaNNetwork(20, SMALL_MILAN, rng=0)
        state = net.state_dict()
        del state["net.4.weight"]
        with pytest.raises(ValidationError):
            net.load_state_dict(state)

    def test_load_refuses_shape_mismatch(self):
        net = MiLaNNetwork(20, SMALL_MILAN, rng=0)
        state = net.state_dict()
        state["net.2.bias"] = np.zeros(33)
        with pytest.raises(ShapeError):
            net.load_state_dict(state)

    def test_load_refuses_non_finite(self):
        net = MiLaNNetwork(20, SMALL_MILAN, rng=0)
        state = net.state_dict()
        state["net.0.bias"][3] = np.inf
        with pytest.raises(ValidationError):
            net.load_state_dict(state)
        assert np.isfinite(net.layers[0][1]).all()   # nothing was loaded


class TestTrainer:
    def test_loss_decreases(self, features, label_matrix):
        trainer = MiLaNTrainer(SMALL_MILAN, SMALL_TRAIN)
        std = (features - features.mean(0)) / (features.std(0) + 1e-9)
        _, history = trainer.train(std, label_matrix)
        totals = history.components["total"]
        assert totals[-1] < totals[0]

    def test_history_records_all_components(self, features, label_matrix):
        trainer = MiLaNTrainer(SMALL_MILAN, TrainConfig(
            epochs=2, triplets_per_epoch=128, batch_size=64, seed=0))
        std = (features - features.mean(0)) / (features.std(0) + 1e-9)
        _, history = trainer.train(std, label_matrix)
        assert len(history.epochs) == 2
        for key in ("triplet", "bit_balance", "independence", "quantization", "total"):
            assert key in history.components

    def test_early_stopping(self, features, label_matrix):
        trainer = MiLaNTrainer(SMALL_MILAN, TrainConfig(
            epochs=50, triplets_per_epoch=128, batch_size=64, seed=0,
            early_stop_patience=1, learning_rate=1e-6))  # LR so small it stalls
        std = (features - features.mean(0)) / (features.std(0) + 1e-9)
        _, history = trainer.train(std, label_matrix)
        assert len(history.epochs) < 50

    def test_first_adam_step_moves_each_weight_by_learning_rate(self, features, label_matrix):
        """With bias correction Adam's first step is ``lr * g / (|g| + eps)``:
        one batch moves every weight with a non-zero gradient by ~``lr``."""
        milan = MiLaNConfig(num_bits=8, hidden_sizes=(16,))
        train = TrainConfig(epochs=1, triplets_per_epoch=32, batch_size=32,
                            learning_rate=1e-3, seed=5)
        std = (features - features.mean(0)) / (features.std(0) + 1e-9)
        trained, _ = MiLaNTrainer(milan, train).train(std, label_matrix)
        # The trainer's draws, replayed: the network, then the first triplets.
        rng = as_rng(train.seed)
        start = MiLaNNetwork(std.shape[1], milan, rng=rng)
        anchors, positives, negatives = TripletSampler(label_matrix, rng=rng).sample(32)
        activations = start.forward(
            np.concatenate([std[anchors], std[positives], std[negatives]]))
        grads = start.backward(activations, milan_loss(activations[-1], milan)[1])
        for before, after, pair in zip(start.layers, trained.layers, grads):
            for old, new, grad in zip(before, after, pair):
                expected = -train.learning_rate * grad / (np.abs(grad) + 1e-8)
                np.testing.assert_allclose(new - old, expected, rtol=1e-9, atol=1e-15)

    def test_input_validation(self, label_matrix):
        trainer = MiLaNTrainer(SMALL_MILAN, SMALL_TRAIN)
        with pytest.raises(ValidationError):
            trainer.train(np.zeros((10, 5)), label_matrix)  # row mismatch


class TestHasher:
    def test_unfitted_raises(self, features):
        hasher = MiLaNHasher(SMALL_MILAN, SMALL_TRAIN)
        with pytest.raises(NotFittedError):
            hasher.hash_bits(features)

    def test_code_shapes(self, trained_hasher, features):
        bits = trained_hasher.hash_bits(features[:10])
        assert bits.shape == (10, 32)
        assert set(np.unique(bits)) <= {0, 1}
        packed = trained_hasher.hash_packed(features[:10])
        assert packed.shape == (10, 1)
        assert packed.dtype == np.uint64

    def test_continuous_codes_bounded(self, trained_hasher, features):
        continuous = trained_hasher.hash_continuous(features[:10])
        assert (np.abs(continuous) <= 1.0).all()

    def test_deterministic_inference(self, trained_hasher, features):
        a = trained_hasher.hash_packed(features[:5])
        b = trained_hasher.hash_packed(features[:5])
        np.testing.assert_array_equal(a, b)

    def test_retrieval_beats_random(self, trained_hasher, features, label_matrix):
        """The headline property: learned codes retrieve label-similar items."""
        codes = trained_hasher.hash_packed(features)
        index = LinearScanIndex(32)
        index.build(list(range(len(features))), codes)
        similar = shares_label_matrix(label_matrix)
        precisions = []
        random_rates = []
        for q in range(0, len(features), 7):
            results = [r for r in index.search_knn(codes[q], 11) if r.item_id != q][:10]
            precisions.append(np.mean([similar[q, r.item_id] for r in results]))
            random_rates.append(similar[q].mean())
        assert np.mean(precisions) > np.mean(random_rates) + 0.15

    def test_state_dict_roundtrip(self, trained_hasher, features):
        state = trained_hasher.state_dict()
        fresh = MiLaNHasher(SMALL_MILAN, SMALL_TRAIN)
        fresh.load_state_dict(state)
        np.testing.assert_array_equal(
            fresh.hash_packed(features[:20]), trained_hasher.hash_packed(features[:20]))

    def test_load_state_dict_validation(self, features):
        fresh = MiLaNHasher(SMALL_MILAN, SMALL_TRAIN)
        with pytest.raises(ValidationError):
            fresh.load_state_dict({})

    def test_hasher_state_dict_keys(self, trained_hasher):
        assert list(trained_hasher.state_dict()) == [
            "network.net.0.weight", "network.net.0.bias",
            "network.net.2.weight", "network.net.2.bias",
            "network.net.4.weight", "network.net.4.bias",
            "standardizer.mean", "standardizer.scale"]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_refused(self, trained_hasher, features, value):
        bad = features[:3].copy()
        bad[1, 4] = value
        for hash_fn in (trained_hasher.hash_continuous, trained_hasher.hash_bits,
                        trained_hasher.hash_packed):
            with pytest.raises(ValidationError):
                hash_fn(bad)
        with pytest.raises(ValidationError):
            trained_hasher.hash_bits(np.full(features.shape[1], value))

    def test_fit_refuses_non_finite_features(self, features, label_matrix):
        """A NaN training row would turn every weight NaN and every code 0."""
        bad = features.copy()
        bad[3, 2] = np.nan
        with pytest.raises(ValidationError):
            MiLaNHasher(SMALL_MILAN, SMALL_TRAIN).fit(bad, label_matrix)

    @pytest.mark.parametrize("key", ["network.net.0.weight", "network.net.2.bias",
                                     "network.net.4.weight", "standardizer.scale"])
    def test_load_refuses_missing_key(self, trained_hasher, key):
        state = trained_hasher.state_dict()
        del state[key]
        with pytest.raises(ValidationError):
            MiLaNHasher(SMALL_MILAN, SMALL_TRAIN).load_state_dict(state)

    @pytest.mark.parametrize("key", ["network.net.2.weight", "network.net.4.bias",
                                     "standardizer.mean", "standardizer.scale"])
    def test_load_refuses_wrong_shape(self, trained_hasher, key):
        state = trained_hasher.state_dict()
        state[key] = state[key][:-1]
        with pytest.raises(ShapeError):
            MiLaNHasher(SMALL_MILAN, SMALL_TRAIN).load_state_dict(state)

    @pytest.mark.parametrize("key", ["network.net.0.weight", "network.net.4.bias",
                                     "standardizer.mean", "standardizer.scale"])
    def test_load_refuses_non_finite(self, trained_hasher, key):
        state = trained_hasher.state_dict()
        state[key] = state[key].copy()
        state[key].flat[0] = np.nan
        with pytest.raises(ValidationError):
            MiLaNHasher(SMALL_MILAN, SMALL_TRAIN).load_state_dict(state)

    @pytest.mark.parametrize("scale", [0.0, -1.0])
    def test_load_refuses_non_positive_scale(self, trained_hasher, scale):
        state = trained_hasher.state_dict()
        state["standardizer.scale"] = state["standardizer.scale"].copy()
        state["standardizer.scale"][0] = scale
        with pytest.raises(ValidationError):
            MiLaNHasher(SMALL_MILAN, SMALL_TRAIN).load_state_dict(state)


ORACLE = json.loads((Path(__file__).parent / "milan_oracle.json").read_text())


@pytest.mark.parametrize("run", ORACLE["runs"],
                         ids=lambda run: f"seed{run['seed']}-{run['losses']}")
def test_matches_recorded_oracle(run, features, label_matrix):
    """Training is pinned to a recording made with the reverse-mode autograd
    trainer the closed-form gradients replaced: ``SMALL_MILAN`` on the
    ``features`` fixture, three seeds, the full loss, each E10 ablation and
    all-zero weights.  Losses match to 1e-9 relative, codes byte for byte."""
    milan = MiLaNConfig(num_bits=ORACLE["milan"]["num_bits"],
                        hidden_sizes=tuple(ORACLE["milan"]["hidden_sizes"]),
                        **run["weights"])
    train = TrainConfig(seed=run["seed"], **ORACLE["train"])
    hasher = MiLaNHasher(milan, train).fit(features, label_matrix)
    assert hasher.history.components.keys() == run["history"].keys()
    for name, losses in run["history"].items():
        np.testing.assert_allclose(hasher.history.components[name], losses,
                                   rtol=1e-9, atol=0.0)
    assert hasher.hash_packed(features).tobytes().hex() == run["codes"]
