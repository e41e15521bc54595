"""Feedforward frame classifier with optional one-hot domain augmentation.

With a domain input the first-layer weights split into [W_v | W_d] over the
concatenated [features | code] vector, so the pre-activation is
W_v @ features + W_d @ code + b: selecting a domain adds a per-domain bias
(the column of W_d) on top of the shared bias. A network built from a
baseline with W_d = 0 is therefore functionally identical to that baseline.

Training and evaluation take a ``FrameData``: frame features (N, D), class
labels (N,) and, for a domain-aware network, the one-hot codes (N, K). It is
validated once when built; ``train`` and ``evaluate_accuracy`` check it once
against the network, form the input matrix [features | codes] once and take
minibatches and the held-out slice as row indexes into it. The per-frame
entry points (``forward``, ``first_layer_preactivation``, ``gradient_check``)
check their single frame and code themselves, by the same exact one-hot rule.

The parameters live in one contiguous float64 vector, ``LdatNetwork.params``:
every layer's weights, then every layer's biases. ``weights[i]`` and
``biases[i]`` are reshaped views of it, so an array taken from
``net.weights[i]`` follows training, and an SGD update is one in-place
``grad *= lr; params -= grad`` on a gradient vector of the same layout.

One step routine (``_Step``) runs a batch's forward and backward pass in
place, in scratch arrays of O(batch * width) allocated once per ``train``
call, and writes the gradients into views of the gradient vector;
``gradient_check`` runs it too. Each step stores the probability every row
gave its label in a per-epoch buffer of one float per training frame. The
epoch's loss is taken from that buffer at the end of the epoch: each batch's
mean cross-entropy, weighted by its size and added in batch order. Every
floating-point operation and its order are those of the per-array,
per-batch form kept in ``tests/oracles.py``, so the trained weights and the
metrics are bitwise the same.

Inference (``evaluate_accuracy``, the per-epoch held-out pass, ``forward``)
computes one layer at a time in place and keeps only the current layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import expit

from . import formats

__all__ = ["FrameData", "NetworkConfig", "TrainConfig", "LdatNetwork",
           "init_network", "init_augmented_from_baseline",
           "train", "gradient_check", "evaluate_accuracy",
           "save_network", "load_network"]


def _check_one_hot(codes: np.ndarray) -> None:
    """Raise ValueError unless every code (along the last axis) is exactly
    one-hot: each entry 0.0 or 1.0 and exactly one 1.0."""
    if not (np.all((codes == 0.0) | (codes == 1.0)) and np.all(codes.sum(axis=-1) == 1.0)):
        raise ValueError("domain codes must be exactly one-hot")


def _views(flat: np.ndarray, shapes) -> list:
    """Consecutive views of the vector ``flat`` with the given shapes."""
    views, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[at:at + size].reshape(shape))
        at += size
    return views


@dataclass(frozen=True)
class FrameData:
    """Classifier frames as arrays: ``features`` (N, D) finite, ``labels``
    (N,) non-negative integers and ``codes`` (N, K) exactly one-hot, or None
    for a baseline network. ``len()`` is the frame count N."""

    features: np.ndarray
    labels: np.ndarray
    codes: Optional[np.ndarray] = None

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels)
        if features.ndim != 2:
            raise ValueError(f"features must have shape (N, D), got {features.shape}")
        if not np.isfinite(features).all():
            raise ValueError("features must be finite")
        if labels.shape != (features.shape[0],):
            raise ValueError(f"labels must have shape ({features.shape[0]},), "
                             f"got {labels.shape}")
        if labels.size and labels.dtype.kind not in "iu":
            raise ValueError("labels must be integers")
        if labels.size and labels.min() < 0:
            raise ValueError("labels must be >= 0")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels.astype(np.int64, copy=False))
        if self.codes is None:
            return
        codes = np.asarray(self.codes, dtype=float)
        if codes.ndim != 2 or codes.shape[0] != features.shape[0] or codes.shape[1] == 0:
            raise ValueError(f"codes must have shape ({features.shape[0]}, K), "
                             f"got {codes.shape}")
        _check_one_hot(codes)
        object.__setattr__(self, "codes", codes)

    def __len__(self) -> int:
        return self.features.shape[0]


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
        if any(width < 1 for width in self.hidden_dims):
            raise ValueError("hidden layer widths must be >= 1")
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

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.cv_fraction < 1.0:
            raise ValueError("cv_fraction must lie in [0, 1)")


class LdatNetwork:
    """Plain numpy MLP; softmax output, cross-entropy training target.

    ``params`` holds every layer's weights, then every layer's biases, in
    one float64 vector; ``weights`` and ``biases`` are tuples of views of
    it. The constructor copies the arrays it is given."""

    def __init__(self, weights, biases, input_dim, domain_dim, activation):
        arrays = [np.asarray(a, dtype=float) for a in (*weights, *biases)]
        self.params = np.concatenate([a.ravel() for a in arrays])
        views = _views(self.params, [a.shape for a in arrays])
        self.weights, self.biases = tuple(views[:len(weights)]), tuple(views[len(weights):])
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
        _check_one_hot(code)
        return np.concatenate([x, code], axis=-1)

    def _layer(self, i, h, out=None):
        """Layer ``i``'s output for the rows ``h``, written to ``out`` when
        given: its activation, or for the last layer the softmax of each row.
        Everything after the matrix product works in place."""
        z = np.matmul(h, self.weights[i].T, out=out)
        z += self.biases[i]
        if i == len(self.weights) - 1:
            z -= np.maximum.reduce(z, axis=1, keepdims=True)
            np.exp(z, out=z)
            z /= np.add.reduce(z, axis=1, keepdims=True)
        elif self.activation == "sigmoid":
            expit(z, out=z)
        else:
            np.maximum(z, 0.0, out=z)
        return z

    def _forward(self, inputs):
        """Output probabilities for rows of [features | code]; only the
        current layer's array is kept."""
        h = inputs
        for i in range(len(self.weights)):
            h = self._layer(i, h)
        return h

    def forward(self, features, code=None) -> np.ndarray:
        """Class probabilities for a single frame (with its UBIC code when
        the network is domain-aware)."""
        features = np.asarray(features, dtype=float)
        if features.ndim != 1:
            raise ValueError("forward takes a single feature vector")
        return self._forward(self._check_inputs(
            features[None, :],
            None if code is None else np.asarray(code, dtype=float)[None, :]))[0]

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
        return LdatNetwork(self.weights, self.biases, self.input_dim,
                           self.domain_dim, self.activation)


class _Step:
    """Forward and backward pass of one SGD step on batches of ``m`` rows.

    Works in place in scratch arrays of O(m * width) allocated once, keeping
    each layer's activation for backprop, and writes the gradients of the
    batch's mean cross-entropy into ``grad_w`` and ``grad_b``: views of
    ``grad``, which is laid out like ``net.params``.
    """

    def __init__(self, net: LdatNetwork, m: int, grad: np.ndarray):
        self.net = net
        self.rows = np.arange(m)
        self.acts = [np.empty((m, w.shape[0])) for w in net.weights]
        self.backs = [np.empty((m, w.shape[1])) for w in net.weights[1:]]
        # 1 - a for sigmoid, the a > 0 mask for relu
        dtype = float if net.activation == "sigmoid" else bool
        self.slopes = [np.empty((m, w.shape[1]), dtype=dtype) for w in net.weights[1:]]
        views = _views(grad, [a.shape for a in (*net.weights, *net.biases)])
        self.grad_w, self.grad_b = views[:len(net.weights)], views[len(net.weights):]

    def __call__(self, x: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Gradients for the rows ``x`` of [features | code] with ``labels``;
        returns the probability each row gave its label."""
        net, acts = self.net, self.acts
        h = x
        for i, out in enumerate(acts):
            h = net._layer(i, h, out)
        picked = h[self.rows, labels]
        h[self.rows, labels] = picked - 1.0
        h /= self.rows.size
        delta = h
        for i in range(len(acts) - 1, -1, -1):
            prev = acts[i - 1] if i else x
            np.matmul(delta.T, prev, out=self.grad_w[i])
            np.add.reduce(delta, axis=0, out=self.grad_b[i])
            if i:
                back = np.matmul(delta, net.weights[i], out=self.backs[i - 1])
                slope = self.slopes[i - 1]
                if net.activation == "sigmoid":
                    back *= prev
                    back *= np.subtract(1.0, prev, out=slope)
                else:
                    # a > 0 exactly where the pre-activation is > 0
                    back *= np.greater(prev, 0.0, out=slope)
                delta = back
        return picked


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
    return LdatNetwork([first, *baseline.weights[1:]], baseline.biases,
                       baseline.input_dim, num_domains, baseline.activation)


def _inputs(net: LdatNetwork, dataset: FrameData) -> np.ndarray:
    """The input matrix [features | codes] of ``dataset``, checked against
    ``net``'s input, domain and output sizes."""
    if not isinstance(dataset, FrameData):
        raise TypeError(f"dataset must be a FrameData, got {type(dataset).__name__}")
    if dataset.features.shape[1] != net.input_dim:
        raise ValueError(f"feature dim {dataset.features.shape[1]} != "
                         f"network input dim {net.input_dim}")
    if len(dataset) and dataset.labels.max() >= net.output_dim:
        raise ValueError("label out of range for the output layer")
    if net.domain_dim == 0:
        if dataset.codes is not None:
            raise ValueError("baseline network got domain codes")
        return dataset.features
    if dataset.codes is None:
        raise ValueError("domain-aware network needs a code for every frame")
    if dataset.codes.shape[1] != net.domain_dim:
        raise ValueError(f"code dim {dataset.codes.shape[1]} != "
                         f"network domain dim {net.domain_dim}")
    return np.concatenate([dataset.features, dataset.codes], axis=1)


@np.errstate(over="raise", invalid="raise")
def train(net: LdatNetwork, dataset: FrameData,
          config: Optional[TrainConfig] = None):
    """Minibatch SGD on cross-entropy; mutates ``net`` in place.

    Returns a list of per-epoch metric dicts {epoch, train_loss,
    cv_accuracy}; cv_accuracy is None when cv_fraction is 0. Deterministic
    for a fixed config seed. Overflow, or a non-finite loss at the end of an
    epoch, raises FloatingPointError.
    """
    config = config or TrainConfig()
    inputs, labels = _inputs(net, dataset), dataset.labels
    n = len(dataset)
    if n == 0:
        raise ValueError("empty dataset")

    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(n)
    n_cv = int(round(config.cv_fraction * n))
    cv_idx, tr_idx = perm[:n_cv], perm[n_cv:]
    if tr_idx.size == 0:
        raise ValueError("cv_fraction leaves no training data")

    lr = config.learning_rate
    grad = np.empty_like(net.params)
    steps = {}                       # one _Step per batch size: full and last
    picked = np.empty(tr_idx.size)   # each training frame's label probability
    prev_cv_loss = None
    metrics = []
    for epoch in range(config.epochs):
        order = tr_idx[rng.permutation(tr_idx.size)]
        for start in range(0, order.size, config.batch_size):
            batch = order[start:start + config.batch_size]
            step = steps.get(batch.size) or steps.setdefault(
                batch.size, _Step(net, batch.size, grad))
            picked[start:start + batch.size] = step(inputs[batch], labels[batch])
            grad *= lr
            net.params -= grad
        picked += 1e-12
        np.log(picked, out=picked)
        epoch_loss = 0.0
        for start in range(0, order.size, config.batch_size):
            log_p = picked[start:start + config.batch_size]
            epoch_loss += -float(np.add.reduce(log_p) / log_p.size) * log_p.size
        if not math.isfinite(epoch_loss):
            raise FloatingPointError("training loss became non-finite")
        train_loss = epoch_loss / order.size

        cv_accuracy = None
        if n_cv:
            cy = labels[cv_idx]
            probs = net._forward(inputs[cv_idx])
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


@np.errstate(over="raise", invalid="raise")
def evaluate_accuracy(net: LdatNetwork, dataset: FrameData) -> float:
    """Frame classification accuracy over ``dataset``; overflow raises
    FloatingPointError."""
    inputs = _inputs(net, dataset)
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    probs = net._forward(inputs)
    return float((probs.argmax(axis=1) == dataset.labels).mean())


def gradient_check(net: LdatNetwork, sample, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients
    on one training example, over every parameter including W_d columns."""
    if not 1e-7 <= epsilon <= 1e-3:
        raise ValueError("epsilon must lie in [1e-7, 1e-3]")
    features, code, label = sample
    x = net._check_inputs(np.asarray(features, dtype=float)[None, :],
                          None if code is None else np.asarray(code, dtype=float)[None, :])
    y = np.asarray([label], dtype=np.int64)

    grad = np.empty_like(net.params)
    _Step(net, 1, grad)(x, y)

    def loss_at():
        probs = net._forward(x)
        return -float(np.log(probs[0, label] + 1e-12))

    max_err = 0.0
    flat = net.params
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + epsilon
        hi = loss_at()
        flat[i] = orig - epsilon
        lo = loss_at()
        flat[i] = orig
        numeric = (hi - lo) / (2.0 * epsilon)
        denom = max(abs(numeric) + abs(grad[i]), 1e-8)
        max_err = max(max_err, abs(numeric - grad[i]) / denom)
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
    formats.write_json(path, obj)


def load_network(path) -> LdatNetwork:
    """Read a ``save_network`` file; a malformed one raises ValueError
    naming ``path``."""
    def build(obj):
        input_dim, domain_dim, layers = obj["input_dim"], obj["domain_dim"], obj["layers"]
        if not (type(input_dim) is int and input_dim >= 1
                and type(domain_dim) is int and domain_dim >= 0):
            raise ValueError("input_dim must be an integer >= 1 and domain_dim >= 0")
        if obj["activation"] not in ("sigmoid", "relu"):
            raise ValueError(f"unknown activation {obj['activation']!r}")
        if not (isinstance(layers, list) and layers):
            raise ValueError("layers must be a non-empty list")
        weights, biases = [], []
        width = input_dim + domain_dim
        for i, layer in enumerate(layers):
            if not (isinstance(layer, dict)
                    and {"rows", "cols", "weights", "bias"} <= set(layer)):
                raise ValueError(
                    f"layer {i}: expected an object with rows, cols, weights and bias")
            rows, cols = layer["rows"], layer["cols"]
            if not (type(rows) is int and rows >= 1 and type(cols) is int):
                raise ValueError(f"layer {i}: rows and cols must be integers >= 1")
            if cols != width:
                raise ValueError(f"layer {i}: cols {cols} != " + (
                    f"input_dim + domain_dim = {width}" if i == 0
                    else f"rows of layer {i - 1} = {width}"))
            w = formats.numbers(layer["weights"], f"layer {i}: weights", (None,))
            b = formats.numbers(layer["bias"], f"layer {i}: bias", (None,))
            if w.shape != (rows * cols,):
                raise ValueError(
                    f"layer {i}: weights must be rows*cols = {rows * cols} numbers")
            if b.shape != (rows,):
                raise ValueError(f"layer {i}: bias must be rows = {rows} numbers")
            weights.append(w.reshape(rows, cols))
            biases.append(b)
            width = rows
        return LdatNetwork(weights, biases, input_dim, domain_dim, obj["activation"])
    return formats.read_json(path, ("input_dim", "domain_dim", "activation", "layers"),
                             build)
