"""Feedforward frame classifier with optional one-hot domain augmentation.

With a domain input the first-layer weights split into [W_v | W_d] over the
concatenated [features | code] vector, so the pre-activation is
W_v @ features + W_d @ code + b: selecting a domain adds a per-domain bias
(the column of W_d) on top of the shared bias. A network built from a
baseline with W_d = 0 is therefore functionally identical to that baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import expit

__all__ = ["NetworkConfig", "TrainConfig", "LdatNetwork",
           "init_network", "init_augmented_from_baseline",
           "train", "gradient_check", "evaluate_accuracy",
           "save_network", "load_network"]


@dataclass
class NetworkConfig:
    input_dim: int
    output_dim: int
    hidden_dims: Sequence[int] = (64, 64)
    domain_dim: int = 0          # 0 = baseline, no augmentation
    activation: str = "sigmoid"  # or "relu"
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("input_dim and output_dim must be >= 1")
        if self.domain_dim < 0:
            raise ValueError("domain_dim must be >= 0")
        if self.activation not in ("sigmoid", "relu"):
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass
class TrainConfig:
    epochs: int = 20
    learning_rate: float = 0.1
    batch_size: int = 32
    seed: int = 0
    cv_fraction: float = 0.1      # held-out slice for per-epoch frame accuracy
    halve_lr_on_worse: bool = False  # new-bob style: halve lr when CV loss rises


class LdatNetwork:
    """Plain numpy MLP; softmax output, cross-entropy training target."""

    def __init__(self, weights, biases, input_dim, domain_dim, activation):
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        self.input_dim = input_dim
        self.domain_dim = domain_dim
        self.activation = activation
        if self.weights[0].shape[1] != input_dim + domain_dim:
            raise ValueError("first-layer width must be input_dim + domain_dim")

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def feature_weights(self) -> np.ndarray:
        """W_v: first-layer columns acting on the acoustic features."""
        return self.weights[0][:, : self.input_dim]

    @property
    def domain_weights(self) -> np.ndarray:
        """W_d: first-layer columns acting on the one-hot domain code."""
        return self.weights[0][:, self.input_dim:]

    def _check_inputs(self, x, code):
        if x.shape[-1] != self.input_dim:
            raise ValueError(
                f"feature dim {x.shape[-1]} != network input dim {self.input_dim}"
            )
        if self.domain_dim == 0:
            if code is not None:
                raise ValueError("network has no domain input")
            return x
        if code is None:
            raise ValueError("network requires a domain code input")
        if code.shape[-1] != self.domain_dim:
            raise ValueError(
                f"code dim {code.shape[-1]} != network domain dim {self.domain_dim}"
            )
        one = np.isclose(code, 1.0)
        if not (np.all(one.sum(axis=-1) == 1) and np.all((code == 0) | one)):
            raise ValueError("domain code must be exactly one-hot")
        return np.concatenate([x, code], axis=-1)

    def _activate(self, z):
        if self.activation == "sigmoid":
            return expit(z)
        return np.maximum(z, 0.0)

    def _forward_batch(self, x, code=None, keep=False):
        """Returns output probabilities; with ``keep`` also the per-layer
        (pre-activation, activation) pairs needed for backprop."""
        h = self._check_inputs(np.asarray(x, dtype=float),
                               None if code is None else np.asarray(code, dtype=float))
        cache = [(None, h)]
        n_layers = len(self.weights)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w.T + b
            if i < n_layers - 1:
                h = self._activate(z)
            else:
                z = z - z.max(axis=-1, keepdims=True)
                e = np.exp(z)
                h = e / e.sum(axis=-1, keepdims=True)
            cache.append((z, h))
        if keep:
            return h, cache
        return h

    def forward(self, features, code=None) -> np.ndarray:
        """Class probabilities for a single frame (with its UBIC code when
        the network is domain-aware)."""
        features = np.asarray(features, dtype=float)
        if features.ndim != 1:
            raise ValueError("forward takes a single feature vector")
        return self._forward_batch(features[None, :],
                                   None if code is None else np.asarray(code)[None, :])[0]

    def first_layer_preactivation(self, features, code=None) -> np.ndarray:
        """W_v @ features + W_d @ code + b, computed in decomposed form.

        For a one-hot code the W_d term reduces bitwise to selecting the
        corresponding column: every other product is an exact 0.0.
        """
        features = np.asarray(features, dtype=float)
        self._check_inputs(features,
                           None if code is None else np.asarray(code, dtype=float))
        pre = self.feature_weights @ features + self.biases[0]
        if code is not None:
            pre = pre + self.domain_weights @ np.asarray(code, dtype=float)
        return pre

    def copy(self) -> "LdatNetwork":
        return LdatNetwork(
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.input_dim, self.domain_dim, self.activation,
        )

    def _backprop(self, x, code, labels):
        """Mean cross-entropy loss and parameter gradients for one batch."""
        probs, cache = self._forward_batch(x, code, keep=True)
        n = probs.shape[0]
        eps = 1e-12
        loss = -float(np.log(probs[np.arange(n), labels] + eps).mean())
        delta = probs.copy()
        delta[np.arange(n), labels] -= 1.0
        delta /= n
        grads_w, grads_b = [], []
        for i in range(len(self.weights) - 1, -1, -1):
            h_prev = cache[i][1]
            grads_w.append(delta.T @ h_prev)
            grads_b.append(delta.sum(axis=0))
            if i > 0:
                z_prev = cache[i][0]
                back = delta @ self.weights[i]
                if self.activation == "sigmoid":
                    a_prev = cache[i][1]
                    delta = back * a_prev * (1.0 - a_prev)
                else:
                    delta = back * (z_prev > 0)
        return loss, grads_w[::-1], grads_b[::-1]


def _glorot(rng, fan_out, fan_in):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def init_network(config: NetworkConfig) -> LdatNetwork:
    """Seeded Glorot-uniform initialization; biases start at zero."""
    rng = np.random.default_rng(config.seed)
    dims = [config.input_dim + config.domain_dim, *config.hidden_dims,
            config.output_dim]
    weights = [_glorot(rng, dims[i + 1], dims[i]) for i in range(len(dims) - 1)]
    biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
    return LdatNetwork(weights, biases, config.input_dim, config.domain_dim,
                       config.activation)


def init_augmented_from_baseline(baseline: LdatNetwork, num_domains: int) -> LdatNetwork:
    """Widen a baseline network's first layer with zero domain columns.

    The feature columns and every other parameter are copied, so the
    augmented network computes exactly the baseline function until the
    domain columns move away from zero.
    """
    if baseline.domain_dim != 0:
        raise ValueError("baseline network is already domain-augmented")
    if num_domains < 1:
        raise ValueError("num_domains must be >= 1")
    first = np.concatenate(
        [baseline.weights[0],
         np.zeros((baseline.weights[0].shape[0], num_domains))], axis=1
    )
    weights = [first] + [w.copy() for w in baseline.weights[1:]]
    biases = [b.copy() for b in baseline.biases]
    return LdatNetwork(weights, biases, baseline.input_dim, num_domains,
                       baseline.activation)


def _as_arrays(dataset, net):
    xs = np.asarray([row[0] for row in dataset], dtype=float)
    codes = [row[1] for row in dataset]
    labels = np.asarray([row[2] for row in dataset], dtype=np.int64)
    if net.domain_dim > 0:
        if any(c is None for c in codes):
            raise ValueError("domain-aware network needs a code for every example")
        codes = np.asarray(codes, dtype=float)
    else:
        if any(c is not None for c in codes):
            raise ValueError("baseline network got domain codes")
        codes = None
    if labels.size and labels.max() >= net.output_dim:
        raise ValueError("label out of range for the output layer")
    return xs, codes, labels


def train(net: LdatNetwork, dataset, config: Optional[TrainConfig] = None):
    """Minibatch SGD on cross-entropy; mutates ``net`` in place.

    ``dataset`` rows are (features, code-or-None, label). Returns a list of
    per-epoch metric dicts {epoch, train_loss, cv_accuracy}; cv_accuracy is
    None when cv_fraction is 0. Deterministic for a fixed config seed.
    """
    config = config or TrainConfig()
    xs, codes, labels = _as_arrays(dataset, net)
    n = xs.shape[0]
    if n == 0:
        raise ValueError("empty dataset")

    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(n)
    n_cv = int(round(config.cv_fraction * n))
    cv_idx, tr_idx = perm[:n_cv], perm[n_cv:]
    if tr_idx.size == 0:
        raise ValueError("cv_fraction leaves no training data")

    def take(idx):
        return xs[idx], None if codes is None else codes[idx], labels[idx]

    lr = config.learning_rate
    prev_cv_loss = None
    metrics = []
    for epoch in range(config.epochs):
        order = tr_idx[rng.permutation(tr_idx.size)]
        epoch_loss = 0.0
        for start in range(0, order.size, config.batch_size):
            batch = order[start:start + config.batch_size]
            bx, bc, by = take(batch)
            loss, gw, gb = net._backprop(bx, bc, by)
            if not np.isfinite(loss):
                raise FloatingPointError("training loss became non-finite")
            epoch_loss += loss * batch.size
            for w, g in zip(net.weights, gw):
                w -= lr * g
            for b, g in zip(net.biases, gb):
                b -= lr * g
        train_loss = epoch_loss / order.size

        cv_accuracy = None
        if n_cv:
            cx, cc, cy = take(cv_idx)
            probs = net._forward_batch(cx, cc)
            cv_loss = -float(
                np.log(probs[np.arange(n_cv), cy] + 1e-12).mean())
            cv_accuracy = float((probs.argmax(axis=1) == cy).mean())
            if config.halve_lr_on_worse and prev_cv_loss is not None \
                    and cv_loss > prev_cv_loss:
                lr *= 0.5
            prev_cv_loss = cv_loss
        metrics.append({"epoch": epoch, "train_loss": train_loss,
                        "cv_accuracy": cv_accuracy})
    return metrics


def evaluate_accuracy(net: LdatNetwork, dataset) -> float:
    """Frame classification accuracy over a dataset of (features, code, label)."""
    xs, codes, labels = _as_arrays(dataset, net)
    probs = net._forward_batch(xs, codes)
    return float((probs.argmax(axis=1) == labels).mean())


def gradient_check(net: LdatNetwork, sample, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients
    on one training example, over every parameter including W_d columns."""
    if not 1e-7 <= epsilon <= 1e-3:
        raise ValueError("epsilon must lie in [1e-7, 1e-3]")
    features, code, label = sample
    x = np.asarray(features, dtype=float)[None, :]
    c = None if code is None else np.asarray(code, dtype=float)[None, :]
    y = np.asarray([label], dtype=np.int64)

    _, gw, gb = net._backprop(x, c, y)

    def loss_at():
        probs = net._forward_batch(x, c)
        return -float(np.log(probs[0, label] + 1e-12))

    max_err = 0.0
    for params, grads in ((net.weights, gw), (net.biases, gb)):
        for arr, grad in zip(params, grads):
            flat, gflat = arr.ravel(), grad.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + epsilon
                hi = loss_at()
                flat[i] = orig - epsilon
                lo = loss_at()
                flat[i] = orig
                numeric = (hi - lo) / (2.0 * epsilon)
                denom = max(abs(numeric) + abs(gflat[i]), 1e-8)
                max_err = max(max_err, abs(numeric - gflat[i]) / denom)
    return max_err


def save_network(path, net: LdatNetwork, seed: Optional[int] = None) -> None:
    obj = {
        "input_dim": net.input_dim,
        "domain_dim": net.domain_dim,
        "activation": net.activation,
        "layers": [
            {"rows": w.shape[0], "cols": w.shape[1],
             "weights": w.ravel().tolist(), "bias": b.tolist()}
            for w, b in zip(net.weights, net.biases)
        ],
    }
    if seed is not None:
        obj["seed"] = seed
    with open(path, "w") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def load_network(path) -> LdatNetwork:
    with open(path) as fh:
        obj = json.load(fh)
    weights, biases = [], []
    for layer in obj["layers"]:
        w = np.asarray(layer["weights"], dtype=float).reshape(
            layer["rows"], layer["cols"])
        weights.append(w)
        biases.append(np.asarray(layer["bias"], dtype=float))
    return LdatNetwork(weights, biases, obj["input_dim"], obj["domain_dim"],
                       obj["activation"])
