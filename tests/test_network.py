import numpy as np
import pytest

from acoustic_lda.network import (
    LdatNetwork,
    NetworkConfig,
    TrainConfig,
    evaluate_accuracy,
    gradient_check,
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


def one_hot(k, j):
    code = np.zeros(k)
    code[j] = 1.0
    return code


class TestForward:
    def test_baseline_softmax_normalized(self):
        rng = np.random.default_rng(0)
        net = small_net(rng)
        out = net.forward(rng.normal(size=5))
        assert abs(out.sum() - 1.0) < 1e-9
        assert np.all(out > 0)
        # saturated sigmoid units (|pre-activation| in the thousands) stay
        # finite and raise no floating-point error
        with np.errstate(over="raise", invalid="raise"):
            for scale in (-1e4, 1e4):
                out = net.forward(np.full(5, scale))
                assert abs(out.sum() - 1.0) < 1e-9

    def test_zero_domain_weights_match_baseline(self):
        rng = np.random.default_rng(1)
        baseline = small_net(rng)
        augmented = init_augmented_from_baseline(baseline, 3)
        for _ in range(20):
            x = rng.normal(size=5)
            code = one_hot(3, int(rng.integers(0, 3)))
            np.testing.assert_allclose(
                augmented.forward(x, code), baseline.forward(x), atol=1e-12)

    def test_one_hot_selects_column(self):
        rng = np.random.default_rng(2)
        net = small_net(rng, domain_dim=4)
        net.weights[0][:] = rng.normal(size=net.weights[0].shape)
        x = rng.normal(size=5)
        for j in range(4):
            pre = net.first_layer_preactivation(x, one_hot(4, j))
            want = (net.feature_weights @ x + net.domain_weights[:, j]
                    + net.biases[0])
            np.testing.assert_allclose(pre, want, atol=0)

    def test_domain_switch_is_column_difference(self):
        rng = np.random.default_rng(3)
        net = small_net(rng, domain_dim=5)
        x = rng.normal(size=5)
        base = net.feature_weights @ x + net.biases[0]
        pre_i = net.first_layer_preactivation(x, one_hot(5, 1))
        pre_j = net.first_layer_preactivation(x, one_hot(5, 4))
        # one-hot algebra: adding the selected column, bit for bit
        np.testing.assert_array_equal(pre_i, base + net.domain_weights[:, 1])
        np.testing.assert_array_equal(pre_j, base + net.domain_weights[:, 4])
        diff = net.domain_weights[:, 4] - net.domain_weights[:, 1]
        np.testing.assert_allclose(pre_j - pre_i, diff, atol=1e-12)

    def test_input_validation(self):
        rng = np.random.default_rng(4)
        net = small_net(rng, domain_dim=2)
        x = rng.normal(size=5)
        with pytest.raises(ValueError):
            net.forward(x)                       # missing code
        with pytest.raises(ValueError):
            net.forward(x, np.array([0.5, 0.5]))  # not one-hot
        baseline = small_net(rng)
        with pytest.raises(ValueError):
            baseline.forward(x, one_hot(2, 0))   # unexpected code


class TestAugmentFromBaseline:
    def test_functionally_identical_at_init(self):
        rng = np.random.default_rng(5)
        baseline = small_net(rng, hidden=(8, 6))
        augmented = init_augmented_from_baseline(baseline, 64)
        assert augmented.weights[0].shape[1] == 5 + 64
        x = rng.normal(size=5)
        np.testing.assert_allclose(
            augmented.forward(x, one_hot(64, 17)), baseline.forward(x),
            atol=1e-12)
        assert np.all(augmented.domain_weights == 0.0)

    def test_k1_single_zero_column(self):
        rng = np.random.default_rng(6)
        baseline = small_net(rng)
        augmented = init_augmented_from_baseline(baseline, 1)
        assert augmented.domain_weights.shape == (baseline.weights[0].shape[0], 1)

    def test_rejects_already_augmented(self):
        rng = np.random.default_rng(7)
        net = small_net(rng, domain_dim=2)
        with pytest.raises(ValueError):
            init_augmented_from_baseline(net, 2)


class TestGradientCheck:
    def test_small_net_accurate(self):
        rng = np.random.default_rng(8)
        net = small_net(rng, input_dim=4, hidden=(5,), output_dim=3)
        err = gradient_check(net, (rng.normal(size=4), None, 1), epsilon=1e-5)
        assert err < 1e-5

    def test_augmented_net_accurate(self):
        rng = np.random.default_rng(9)
        net = small_net(rng, input_dim=4, hidden=(5,), output_dim=3,
                        domain_dim=3)
        err = gradient_check(net, (rng.normal(size=4), one_hot(3, 2), 0),
                             epsilon=1e-5)
        assert err < 1e-5

    def test_wd_gradient_zero_off_column(self):
        rng = np.random.default_rng(10)
        net = small_net(rng, input_dim=4, hidden=(5,), output_dim=3,
                        domain_dim=4)
        x = np.asarray(rng.normal(size=4))[None, :]
        code = one_hot(4, 2)[None, :]
        _, gw, _ = net._backprop(x, code, np.array([1]))
        wd_grad = gw[0][:, 4:]
        assert np.all(wd_grad[:, [0, 1, 3]] == 0.0)
        assert np.any(wd_grad[:, 2] != 0.0)

    def test_relu_away_from_kinks(self):
        rng = np.random.default_rng(11)
        net = small_net(rng, activation="relu")
        # keep pre-activations away from zero so central differences are valid
        for _ in range(5):
            x = rng.normal(size=5)
            z = net.first_layer_preactivation(x)
            if np.abs(z).min() > 1e-2:
                err = gradient_check(net, (x, None, 0), epsilon=1e-6)
                assert err < 1e-4

    def test_epsilon_range(self):
        rng = np.random.default_rng(12)
        net = small_net(rng)
        with pytest.raises(ValueError):
            gradient_check(net, (rng.normal(size=5), None, 0), epsilon=1e-2)


class TestTrain:
    def test_zero_learning_rate_no_change(self):
        rng = np.random.default_rng(13)
        net = small_net(rng)
        before = [w.copy() for w in net.weights]
        data = [(rng.normal(size=5), None, int(rng.integers(0, 4)))
                for _ in range(64)]
        metrics = train(net, data, TrainConfig(epochs=3, learning_rate=0.0,
                                               cv_fraction=0.0))
        for w0, w1 in zip(before, net.weights):
            np.testing.assert_array_equal(w0, w1)
        losses = [m["train_loss"] for m in metrics]
        assert max(losses) - min(losses) < 1e-12

    def test_linearly_separable_no_hidden_layer(self):
        rng = np.random.default_rng(14)
        n = 400
        labels = rng.integers(0, 2, size=n)
        x = rng.normal(size=(n, 2)) + np.where(labels[:, None] == 1, 3.0, -3.0)
        net = init_network(NetworkConfig(input_dim=2, output_dim=2,
                                         hidden_dims=(), seed=0))
        data = [(x[i], None, int(labels[i])) for i in range(n)]
        train(net, data, TrainConfig(epochs=50, learning_rate=0.5,
                                     cv_fraction=0.2, seed=1))
        acc = evaluate_accuracy(net, data)
        assert acc >= 0.99

    def test_deterministic(self):
        rng = np.random.default_rng(15)
        data = [(rng.normal(size=3), None, int(rng.integers(0, 2)))
                for _ in range(100)]
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
        data = [(rng.normal(size=3), None, int(rng.integers(0, 2)))
                for _ in range(50)]
        net = init_network(NetworkConfig(input_dim=3, output_dim=2, seed=0))
        metrics = train(net, data, TrainConfig(epochs=4, cv_fraction=0.2))
        assert [m["epoch"] for m in metrics] == [0, 1, 2, 3]
        assert all(m["cv_accuracy"] is not None for m in metrics)

    def test_lr_halving_on_cv_regression(self):
        rng = np.random.default_rng(19)
        data = [(rng.normal(size=3), None, int(rng.integers(0, 3)))
                for _ in range(80)]   # unlearnable labels: cv loss wobbles
        net = init_network(NetworkConfig(input_dim=3, output_dim=3,
                                         hidden_dims=(4,), seed=2))
        metrics = train(net, data, TrainConfig(
            epochs=10, learning_rate=0.5, cv_fraction=0.25, seed=3,
            halve_lr_on_worse=True))
        assert len(metrics) == 10
        assert all(np.isfinite(m["train_loss"]) for m in metrics)

    def test_label_out_of_range(self):
        rng = np.random.default_rng(17)
        net = init_network(NetworkConfig(input_dim=2, output_dim=2, seed=0))
        with pytest.raises(ValueError):
            train(net, [(rng.normal(size=2), None, 5)], TrainConfig())


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
        code = one_hot(3, 1)
        np.testing.assert_allclose(back.forward(x, code), net.forward(x, code),
                                   atol=1e-15)
