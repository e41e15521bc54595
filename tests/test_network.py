import re
import tracemalloc

import numpy as np
import pytest
from oracles import gradient_check, network_accuracy, network_forward, network_inputs, network_train
from synthetic import feature_record, input_matrix, labelled_frames

from acoustic_lda import network
from acoustic_lda.network import (
    LdatNetwork,
    NetworkConfig,
    TrainConfig,
    _frame_columns,
    _Step,
    evaluate_accuracy,
    init_augmented_from_baseline,
    init_network,
    load_network,
    save_network,
    train,
)


def small_net(rng, input_dim=5, hidden=(6,), output_dim=4, domain_dim=0,
              activation="sigmoid"):
    net = init_network(NetworkConfig(
        input_dim=input_dim, output_dim=output_dim, hidden_dims=hidden,
        domain_dim=domain_dim, activation=activation,
        seed=int(rng.integers(0, 2**31)),
    ))
    # non-zero biases so gradient checks exercise them
    for b in net.biases:
        b += rng.normal(scale=0.1, size=b.shape)
    return net


def copied(net):
    """A network with copies of ``net``'s arrays: the constructor copies them."""
    return LdatNetwork(net.weights, net.biases, net.input_dim, net.domain_dim,
                       net.activation)


def random_frames(rng, n, dim, classes):
    """``n`` frames with uniform random labels, drawn (features, label) in
    turn."""
    draws = [(rng.normal(size=dim), int(rng.integers(0, classes))) for _ in range(n)]
    return labelled_frames(np.array([x for x, _ in draws]), np.array([y for _, y in draws]))


def peak_bytes(fn, *args):
    """Peak traced allocation while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def rows(net, x, domains=None):
    """The input rows the network is given for the frames ``x`` (one frame
    or several) and their domains, each labelled 0."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return input_matrix(net, labelled_frames(x, np.zeros(len(x), dtype=int)),
                        None if domains is None else np.atleast_1d(domains))


def probs(net, x, domain=None):
    """Class probabilities of ``net`` for the single frame ``x``."""
    return net._forward(rows(net, x, domain))[0]


def decomposed(net, row):
    """W_v @ features + b + W_d @ one-hot for one input row, in that order."""
    w, d = net.weights[0], net.input_dim
    return w[:, :d] @ row[:d] + net.biases[0] + w[:, d:] @ row[d:]


class TestForward:
    def test_baseline_softmax_normalized(self):
        rng = np.random.default_rng(0)
        net = small_net(rng)
        out = probs(net, rng.normal(size=5))
        assert abs(out.sum() - 1.0) < 1e-9
        assert np.all(out > 0)
        # saturated sigmoid units (|pre-activation| in the thousands) stay
        # finite and raise no floating-point error
        with np.errstate(over="raise", invalid="raise"):
            for scale in (-1e4, 1e4):
                out = probs(net, np.full(5, scale))
                assert abs(out.sum() - 1.0) < 1e-9

    def test_zero_domain_weights_match_baseline(self):
        rng = np.random.default_rng(1)
        baseline = small_net(rng)
        augmented = init_augmented_from_baseline(baseline, 3)
        for _ in range(20):
            x = rng.normal(size=5)
            domain = int(rng.integers(0, 3))
            np.testing.assert_allclose(
                probs(augmented, x, domain), probs(baseline, x), atol=1e-12)

    def test_one_hot_selects_column(self):
        rng = np.random.default_rng(2)
        net = small_net(rng, domain_dim=4)
        net.weights[0][:] = rng.normal(size=net.weights[0].shape)
        x = rng.normal(size=5)
        inputs = rows(net, np.tile(x, (4, 1)), np.arange(4))
        # the first layer as the network computes it, on whole rows
        pre = inputs @ net.weights[0].T + net.biases[0]
        for j in range(4):
            np.testing.assert_array_equal(inputs[j, 5:], np.eye(4)[j])
            want = (net.weights[0][:, :5] @ x + net.weights[0][:, 5 + j]
                    + net.biases[0])
            np.testing.assert_allclose(pre[j], want, atol=0)

    def test_domain_switch_is_column_difference(self):
        rng = np.random.default_rng(3)
        net = small_net(rng, domain_dim=5)
        x = rng.normal(size=5)
        w_d = net.weights[0][:, 5:]
        base = net.weights[0][:, :5] @ x + net.biases[0]
        pre_i = decomposed(net, rows(net, x, 1)[0])
        pre_j = decomposed(net, rows(net, x, 4)[0])
        # one-hot algebra: adding the selected column, bit for bit
        np.testing.assert_array_equal(pre_i, base + w_d[:, 1])
        np.testing.assert_array_equal(pre_j, base + w_d[:, 4])
        diff = w_d[:, 4] - w_d[:, 1]
        np.testing.assert_allclose(pre_j - pre_i, diff, atol=1e-12)

    def test_input_validation(self):
        rng = np.random.default_rng(4)
        net = small_net(rng, domain_dim=2)
        x = rng.normal(size=5)
        with pytest.raises(ValueError, match="needs a domain"):
            rows(net, x)
        with pytest.raises(ValueError, match="out of range"):
            rows(net, x, 2)
        with pytest.raises(ValueError, match=">= 0"):
            rows(net, x, -1)
        # a float index, even a whole one, is not a domain
        with pytest.raises(ValueError, match="integers"):
            rows(net, x, np.array([1.0]))
        baseline = small_net(rng)
        with pytest.raises(ValueError, match="baseline network got domains"):
            rows(baseline, x, 0)


class TestAugmentFromBaseline:
    def test_functionally_identical_at_init(self):
        rng = np.random.default_rng(5)
        baseline = small_net(rng, hidden=(8, 6))
        augmented = init_augmented_from_baseline(baseline, 64)
        assert augmented.weights[0].shape[1] == 5 + 64
        x = rng.normal(size=5)
        np.testing.assert_allclose(
            probs(augmented, x, 17), probs(baseline, x), atol=1e-12)
        assert np.all(augmented.weights[0][:, 5:] == 0.0)

    def test_k1_single_zero_column(self):
        rng = np.random.default_rng(6)
        baseline = small_net(rng)
        augmented = init_augmented_from_baseline(baseline, 1)
        assert augmented.weights[0][:, 5:].shape == (baseline.weights[0].shape[0], 1)

    def test_rejects_already_augmented(self):
        rng = np.random.default_rng(7)
        net = small_net(rng, domain_dim=2)
        with pytest.raises(ValueError):
            init_augmented_from_baseline(net, 2)


class TestGradientCheck:
    def test_small_net_accurate(self):
        rng = np.random.default_rng(8)
        net = small_net(rng, input_dim=4, hidden=(5,), output_dim=3)
        err = gradient_check(net, rows(net, rng.normal(size=4)), 1, epsilon=1e-5)
        assert err < 1e-5

    def test_augmented_net_accurate(self):
        rng = np.random.default_rng(9)
        net = small_net(rng, input_dim=4, hidden=(5,), output_dim=3,
                        domain_dim=3)
        err = gradient_check(net, rows(net, rng.normal(size=4), 2), 0,
                             epsilon=1e-5)
        assert err < 1e-5

    def test_wd_gradient_zero_off_column(self):
        rng = np.random.default_rng(10)
        net = small_net(rng, input_dim=4, hidden=(5,), output_dim=3,
                        domain_dim=4)
        x = rng.normal(size=4)
        step = _Step(net, 1, np.empty_like(net.params))
        step(rows(net, x, 2), np.array([1]))
        wd_grad = step.grad_w[0][:, 4:]
        assert np.all(wd_grad[:, [0, 1, 3]] == 0.0)
        assert np.any(wd_grad[:, 2] != 0.0)

    def test_relu_away_from_kinks(self):
        rng = np.random.default_rng(11)
        net = small_net(rng, activation="relu")
        # keep pre-activations away from zero so central differences are valid
        for _ in range(5):
            x = rng.normal(size=5)
            z = net.weights[0] @ x + net.biases[0]
            if np.abs(z).min() > 1e-2:
                err = gradient_check(net, rows(net, x), 0, epsilon=1e-6)
                assert err < 1e-4

    def test_epsilon_range(self):
        rng = np.random.default_rng(12)
        net = small_net(rng)
        with pytest.raises(ValueError):
            gradient_check(net, rows(net, rng.normal(size=5)), 0, epsilon=1e-2)


class TestTrain:
    def test_zero_learning_rate_rejected(self):
        """A zero step would train nothing and save the initial network."""
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=0.0)

    def test_linearly_separable_no_hidden_layer(self):
        rng = np.random.default_rng(14)
        n = 400
        labels = rng.integers(0, 2, size=n)
        x = rng.normal(size=(n, 2)) + np.where(labels[:, None] == 1, 3.0, -3.0)
        net = init_network(NetworkConfig(input_dim=2, output_dim=2,
                                         hidden_dims=(), seed=0))
        data = labelled_frames(x, labels)
        train(net, data, TrainConfig(epochs=50, learning_rate=0.5,
                                     cv_fraction=0.2, seed=1))
        acc = evaluate_accuracy(net, data)
        assert acc >= 0.99

    def test_deterministic(self):
        rng = np.random.default_rng(15)
        data = random_frames(rng, 100, 3, 2)
        nets = []
        for _ in range(2):
            net = init_network(NetworkConfig(input_dim=3, output_dim=2,
                                             hidden_dims=(4,), seed=5))
            train(net, data, TrainConfig(epochs=3, seed=7))
            nets.append(net)
        for w0, w1 in zip(nets[0].weights, nets[1].weights):
            np.testing.assert_array_equal(w0, w1)

    def test_metrics_reported_per_epoch(self):
        rng = np.random.default_rng(16)
        data = random_frames(rng, 50, 3, 2)
        net = init_network(NetworkConfig(input_dim=3, output_dim=2, seed=0))
        metrics = train(net, data, TrainConfig(epochs=4, cv_fraction=0.2))
        assert [m["epoch"] for m in metrics] == [0, 1, 2, 3]
        assert all(m["cv_accuracy"] is not None for m in metrics)

    def test_held_weight_array_follows_training(self):
        rng = np.random.default_rng(23)
        net = small_net(rng, domain_dim=2)
        held = net.weights[0]
        before = held.copy()
        train(net, labelled_frames(rng.normal(size=(40, 5)), rng.integers(0, 4, size=40)),
              TrainConfig(epochs=2, cv_fraction=0.0), domains=rng.integers(0, 2, size=40))
        assert not np.array_equal(held, before)
        np.testing.assert_array_equal(held, net.weights[0])

    def test_train_memory_independent_of_input_copies(self):
        # a per-epoch copy of the inputs alone would take 4 times the bound
        rng = np.random.default_rng(24)
        data = labelled_frames(rng.normal(size=(20_000, 39)), rng.integers(0, 8, size=20_000))
        net = init_network(NetworkConfig(input_dim=39, output_dim=8, seed=0))
        config = TrainConfig(epochs=2, cv_fraction=0.0)
        assert peak_bytes(train, net, data, config) < data.frames.nbytes / 4

    def test_domain_aware_training_builds_no_input_matrix(self):
        """The input rows are gathered a block at a time: the whole
        [frames | one-hot] matrix, N * (D + K) floats, is never formed."""
        rng = np.random.default_rng(30)
        n, dim, k = 20_000, 39, 4
        data = labelled_frames(rng.normal(size=(n, dim)), rng.integers(0, 8, size=n))
        net = init_network(NetworkConfig(input_dim=dim, output_dim=8, domain_dim=k, seed=0))
        config = TrainConfig(epochs=1, cv_fraction=0.0)
        peak = peak_bytes(train, net, data, config, rng.integers(0, k, size=n))
        assert peak < 0.5 * n * (dim + k) * 8, peak / (n * (dim + k) * 8)

    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_batch_size_must_be_positive(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=batch_size)

    @pytest.mark.parametrize("changes, field", [
        pytest.param({"epochs": 0}, "epochs", id="zero-epochs"),
        pytest.param({"epochs": -2}, "epochs", id="negative-epochs"),
        pytest.param({"cv_fraction": -0.5}, "cv_fraction", id="negative-cv-fraction"),
        pytest.param({"cv_fraction": 1.0}, "cv_fraction", id="whole-cv-fraction"),
        pytest.param({"cv_fraction": float("nan")}, "cv_fraction", id="nan-cv-fraction"),
    ])
    def test_train_config_rejects_out_of_range(self, changes, field):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**changes)

    @pytest.mark.parametrize("hidden", [(0,), (8, 0), (-3,)],
                             ids=["zero", "zero-second", "negative"])
    def test_hidden_widths_must_be_positive(self, hidden):
        with pytest.raises(ValueError, match="hidden"):
            NetworkConfig(input_dim=2, output_dim=2, hidden_dims=hidden)

    def test_label_out_of_range(self):
        rng = np.random.default_rng(17)
        net = init_network(NetworkConfig(input_dim=2, output_dim=2, seed=0))
        with pytest.raises(ValueError):
            train(net, labelled_frames(rng.normal(size=(1, 2)), [5]), TrainConfig())


class TestTrainMatchesOracle:
    """``train`` gives bitwise the weights, biases and metric dicts of the
    per-array, per-batch reference loop."""

    @pytest.mark.parametrize("cv_fraction", [0.0, 0.2])
    @pytest.mark.parametrize("domain_dim", [0, 3])
    @pytest.mark.parametrize("hidden", [(), (7,), (6, 5)])
    @pytest.mark.parametrize("activation", ["sigmoid", "relu"])
    def test_bitwise_equal(self, activation, hidden, domain_dim, cv_fraction):
        rng = np.random.default_rng(25)
        n = 83                    # 67 or 83 training frames: a ragged last batch
        domains = rng.integers(0, domain_dim, size=n) if domain_dim else None
        data = labelled_frames(rng.normal(size=(n, 5)), rng.integers(0, 4, size=n))
        net = small_net(rng, hidden=hidden, domain_dim=domain_dim,
                        activation=activation)
        reference = copied(net)
        config = TrainConfig(epochs=6, learning_rate=0.8, batch_size=7, seed=3,
                             cv_fraction=cv_fraction)
        metrics = train(net, data, config, domains)
        assert metrics == network_train(reference, data, config, domains)
        for got, want in zip((*net.weights, *net.biases),
                             (*reference.weights, *reference.biases)):
            np.testing.assert_array_equal(got, want)

    def test_paper_sizes_with_a_16_row_last_batch(self):
        """D=39, K=4 and hidden (64, 64) at batch 32, as the classifier runs,
        with 80 training frames: two full batches and a 16-row last one. On
        rows this few the split first layer x @ W_v.T + W_d[:, d] rounds
        differently from [x | e_d] @ W.T, and this case tells them apart."""
        rng = np.random.default_rng(28)
        n = 80
        data = labelled_frames(rng.normal(size=(n, 39)), rng.integers(0, 8, size=n))
        domains = rng.integers(0, 4, size=n)
        net = small_net(rng, input_dim=39, hidden=(64, 64), output_dim=8, domain_dim=4)
        net.weights[0][:, 39:] = rng.normal(size=(64, 4))
        reference = copied(net)
        config = TrainConfig(epochs=3, batch_size=32, seed=4, cv_fraction=0.0)
        assert (train(net, data, config, domains)
                == network_train(reference, data, config, domains))
        np.testing.assert_array_equal(net.params, reference.params)

    @pytest.mark.parametrize("cv_fraction", [0.0, 0.2])
    @pytest.mark.parametrize("domain_dim, batch_size", [(0, 7), (3, 7), (3, 50)],
                             ids=["baseline", "domain-aware", "batch-beyond-block"])
    def test_bitwise_equal_across_blocks(self, monkeypatch, domain_dim, batch_size,
                                         cv_fraction):
        """Blocks of 40 rows: 35 rows (five batches) at batch 7, so 83 or 66
        training frames span three or two blocks, the last one short and
        ending in a short batch; at batch 50 a block is one batch."""
        monkeypatch.setattr(network, "_BLOCK_ROWS", 40)
        rng = np.random.default_rng(32)
        n = 83
        domains = rng.integers(0, domain_dim, size=n) if domain_dim else None
        data = labelled_frames(rng.normal(size=(n, 5)), rng.integers(0, 4, size=n))
        net = small_net(rng, hidden=(6, 5), domain_dim=domain_dim)
        reference = copied(net)
        config = TrainConfig(epochs=4, learning_rate=0.8, batch_size=batch_size,
                             seed=5, cv_fraction=cv_fraction)
        assert (train(net, data, config, domains)
                == network_train(reference, data, config, domains))
        np.testing.assert_array_equal(net.params, reference.params)

    @pytest.mark.parametrize("domain_dim", [0, 3], ids=["baseline", "domain-aware"])
    def test_held_out_across_blocks(self, monkeypatch, domain_dim):
        """Blocks of 40 rows: 130 held-out frames run as 40, 40 and 50 rows,
        the short last block folded into the one before."""
        monkeypatch.setattr(network, "_BLOCK_ROWS", 40)
        rng = np.random.default_rng(33)
        n = 200
        domains = rng.integers(0, domain_dim, size=n) if domain_dim else None
        data = labelled_frames(rng.normal(size=(n, 5)), rng.integers(0, 4, size=n))
        net = small_net(rng, hidden=(6, 5), domain_dim=domain_dim)
        reference = copied(net)
        config = TrainConfig(epochs=3, learning_rate=0.8, batch_size=7, seed=6,
                             cv_fraction=0.65)
        metrics = train(net, data, config, domains)
        assert metrics == network_train(reference, data, config, domains)
        assert all(0 < m["cv_accuracy"] < 1 for m in metrics)
        np.testing.assert_array_equal(net.params, reference.params)

    def test_single_short_batch(self):
        rng = np.random.default_rng(26)
        data = random_frames(rng, 5, 5, 4)
        net = small_net(rng, hidden=(6, 5))
        reference = copied(net)
        config = TrainConfig(epochs=3, batch_size=32, cv_fraction=0.0)
        assert train(net, data, config) == network_train(reference, data, config)
        np.testing.assert_array_equal(net.params, reference.params)


class TestEvaluate:
    @pytest.mark.parametrize("n", [1, 39, 40, 41, 80, 81, 121])
    @pytest.mark.parametrize("domain_dim", [0, 4], ids=["baseline", "domain-aware"])
    def test_matches_whole_pass_across_blocks(self, monkeypatch, domain_dim, n):
        """Blocks of 40 rows, the short last block folded into the one
        before: the accuracy is that of one pass over every row. Every third
        frame is labelled with the class the whole pass ranks first, and the
        others with another class, so a row lost or paired with another
        frame's label changes the count."""
        monkeypatch.setattr(network, "_BLOCK_ROWS", 40)
        rng = np.random.default_rng(34)
        domains = rng.integers(0, domain_dim, size=n) if domain_dim else None
        x = rng.normal(size=(n, 5))
        net = small_net(rng, hidden=(6, 5), domain_dim=domain_dim)
        if domain_dim:
            net.weights[0][:, 5:] = rng.normal(size=(6, domain_dim))
        inputs = network_inputs(net, labelled_frames(x, np.zeros(n, dtype=int)), domains)
        first = network_forward(net, inputs)[0].argmax(axis=1)
        labels = np.where(np.arange(n) % 3 == 0, first, (first + 1) % 4)
        accuracy = evaluate_accuracy(net, labelled_frames(x, labels), domains)
        assert accuracy == network_accuracy(net, inputs, labels) == len(range(0, n, 3)) / n

    @pytest.mark.parametrize("n, runs", [
        (1, [(0, 1)]), (39, [(0, 39)]), (40, [(0, 40)]), (79, [(0, 79)]),
        (80, [(0, 40), (40, 80)]), (121, [(0, 40), (40, 80), (80, 121)])])
    def test_short_last_block_is_folded(self, n, runs):
        """No product is taken over fewer rows than a block unless the rows
        are fewer than a block."""
        assert list(network._runs(n, 40)) == runs

    def test_memory_does_not_grow_with_the_frames(self):
        """Four times the frames raise the peak by at most 16 bytes a frame:
        no array of (N, D + K) inputs or (N, width) activations is formed.
        The frames themselves take 312 bytes each."""
        rng = np.random.default_rng(27)
        net = init_network(NetworkConfig(input_dim=39, output_dim=8,
                                         hidden_dims=(64, 64), seed=0))
        peaks = []
        for n in (20_000, 80_000):
            data = labelled_frames(rng.normal(size=(n, 39)), rng.integers(0, 8, size=n))
            peaks.append(peak_bytes(evaluate_accuracy, net, data))
        assert peaks[1] - peaks[0] <= 16 * 60_000, (peaks[1] - peaks[0]) / 60_000


class TestFrameData:
    def test_len_is_frame_count(self):
        data = labelled_frames(np.zeros((3, 2)), [0, 1, 0])
        assert len(data) == 3
        assert data.labels.dtype == np.int64
        net = small_net(np.random.default_rng(19), input_dim=2, domain_dim=2)
        np.testing.assert_array_equal(input_matrix(net, data, [1, 0, 1])[:, 2:],
                                      [[0, 1], [1, 0], [0, 1]])

    def test_rejects_code_row_not_one_hot(self):
        """A domain is one index >= 0 per document: the index form of a code
        row that must be one-hot."""
        net = small_net(np.random.default_rng(18), input_dim=2, domain_dim=3)
        data = labelled_frames(np.zeros((3, 2)), [0, 1, 2])
        with pytest.raises(ValueError, match="domains must be integers"):
            _frame_columns(net, data, [0.0, 0.5, 1.0])
        with pytest.raises(ValueError, match="domains must be >= 0"):
            _frame_columns(net, data, [0, -1, 1])
        with pytest.raises(ValueError, match="domains must have shape"):
            _frame_columns(net, data, np.eye(3, dtype=int))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="labels must have shape"):
            labelled_frames(np.zeros((3, 2)), [0, 1])
        net = small_net(np.random.default_rng(18), input_dim=2, domain_dim=3)
        with pytest.raises(ValueError, match="domains must have shape"):
            _frame_columns(net, labelled_frames(np.zeros((3, 2)), [0, 1, 2]), [0, 1])

    def test_rejects_negative_label(self):
        with pytest.raises(ValueError, match=">= 0"):
            labelled_frames(np.zeros((2, 2)), [0, -1])

    def test_rejects_non_finite_features(self):
        with pytest.raises(ValueError, match="finite"):
            labelled_frames(np.array([[0.0, np.nan]]), [0])

    def test_codes_passed_to_baseline_net(self):
        rng = np.random.default_rng(20)
        net = small_net(rng)
        data = labelled_frames(rng.normal(size=(4, 5)), [0, 1, 2, 3])
        with pytest.raises(ValueError, match="baseline network got domains"):
            train(net, data, TrainConfig(epochs=1), domains=[0, 1, 2, 3])
        with pytest.raises(ValueError, match="baseline network got domains"):
            evaluate_accuracy(net, data, [0, 1, 2, 3])

    def test_no_codes_passed_to_augmented_net(self):
        rng = np.random.default_rng(21)
        net = small_net(rng, domain_dim=2)
        data = labelled_frames(rng.normal(size=(4, 5)), [0, 1, 2, 3])
        with pytest.raises(ValueError, match="needs a domain"):
            train(net, data, TrainConfig(epochs=1))
        with pytest.raises(ValueError, match="needs a domain"):
            evaluate_accuracy(net, data)

    def test_code_width_checked_against_net(self):
        rng = np.random.default_rng(22)
        net = small_net(rng, domain_dim=2)
        data = labelled_frames(rng.normal(size=(3, 5)), [0, 1, 2])
        with pytest.raises(ValueError, match="domain 2 out of range"):
            evaluate_accuracy(net, data, [0, 1, 2])
        with pytest.raises(ValueError, match="domain 2 out of range"):
            train(net, data, TrainConfig(epochs=1), domains=[0, 1, 2])

    def test_dataset_must_be_labelled_frames(self):
        rng = np.random.default_rng(29)
        net = small_net(rng)
        with pytest.raises(TypeError, match="labelled Frames"):
            train(net, feature_record(rng.normal(size=(4, 5))), TrainConfig(epochs=1))


@pytest.mark.parametrize("field, layer, value, message", [
    pytest.param("weights", 1, np.nan, "layer 1: weights must be finite", id="nan-weight"),
    pytest.param("biases", 0, np.inf, "layer 0: bias must be finite", id="inf-bias"),
    pytest.param("activation", None, "tanh", "unknown activation 'tanh'", id="tanh"),
    pytest.param("biases", None, [np.zeros(6)], "2 layers need as many biases, got 1",
                 id="missing-bias"),
    pytest.param("weights", 0, np.zeros((6, 4)),
                 "layer 0: cols 4 != input_dim + domain_dim = 5", id="first-cols"),
    pytest.param("weights", 1, np.zeros((4, 5)), "layer 1: cols 5 != rows of layer 0 = 6",
                 id="layers-do-not-chain"),
    pytest.param("biases", 1, np.zeros(3), "layer 1: bias must be rows = 4 numbers",
                 id="bias-length"),
    pytest.param("weights", 0, np.zeros(30), "layer 0: weights must be 2-d, got shape (30,)",
                 id="1-d-weights"),
])
def test_network_checks_its_parameters(field, layer, value, message):
    """A network built by hand is checked like a loaded one, each fault
    naming its layer: a scalar ``value`` goes into entry 1 of the layer's
    array, an array replaces it."""
    net = small_net(np.random.default_rng(30))
    arrays = {"weights": [w.copy() for w in net.weights],
              "biases": [b.copy() for b in net.biases], "activation": net.activation}
    if layer is None:
        arrays[field] = value
    elif np.ndim(value):
        arrays[field][layer] = value
    else:
        arrays[field][layer].flat[1] = value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LdatNetwork(arrays["weights"], arrays["biases"], net.input_dim, net.domain_dim,
                    arrays["activation"])


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(18)
        net = small_net(rng, domain_dim=3)
        path = tmp_path / "net.json"
        save_network(path, net, seed=4)
        back = load_network(path)
        assert back.input_dim == net.input_dim
        assert back.domain_dim == net.domain_dim
        x = rng.normal(size=5)
        np.testing.assert_allclose(probs(back, x, 1), probs(net, x, 1), atol=1e-15)
