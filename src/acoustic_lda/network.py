"""Feedforward frame classifier with optional UBIC domain augmentation.

A domain-aware network takes each frame with the LDA domain of its document,
an integer d in [0, K). The domain enters the first layer as its one-hot
code e_d (the UBIC), so the first-layer weights split into [W_v | W_d] over
the input [features | e_d], and the pre-activation is
W_v @ features + W_d @ e_d + b: selecting a domain adds a per-domain bias
(column d of W_d) on top of the shared bias. A network built from a baseline
with W_d = 0 is therefore functionally identical to that baseline.

Training and evaluation take a labelled ``corpus.Frames`` record as loaded,
frames (N, D) and labels (N,), and for a domain-aware network one domain
index per document (M,). ``_frame_columns`` checks them once against the
network and gives each frame the input column of its document's one-hot
domain; ``_input_rows`` builds the rows [frames | one-hot] of any set of
frames. Every pass over frames walks its rows in ``_runs``: blocks of a
fixed size, a short last block folded into the one before. ``train`` walks
each epoch's shuffled order in blocks of ``_BLOCK_ROWS`` rows, rounded down
to a whole number of batches, gathers a block's input rows and labels once
and gives each step a contiguous slice of them, so a step sees the same
C-contiguous values a gather of its batch alone would give. Inference
(``evaluate_accuracy`` and the per-epoch held-out pass, both ``_accuracy``)
takes the forward pass a block of ``_BLOCK_ROWS`` input rows at a time. No
pass holds the (N, D + K) input matrix. The first layer multiplies the whole
row: ``x @ W_v.T + W_d[:, d]`` is the same sum in another order, and on short
batches the BLAS rounds it differently. OpenBLAS can also round a product
over a few rows differently from the same rows inside a product over many
(0.3.31: up to about 20 rows in the 43 -> 64 first layer, a few hundred in
the 64 -> 8 output layer); with the last block folded, inference gave the
bits of one pass over all rows at 1 and 2 threads.

The parameters live in one contiguous float64 vector, ``LdatNetwork.params``:
every layer's weights, then every layer's biases. ``weights[i]`` and
``biases[i]`` are reshaped views of it, so an array taken from
``net.weights[i]`` follows training, and an SGD update is one in-place
``grad *= lr; params -= grad`` on a gradient vector of the same layout.

One step routine (``_Step``) runs a batch's forward and backward pass in
place, in scratch arrays of O(batch * width) allocated once per ``train``
call, and writes the gradients into views of the gradient vector. Each step
stores the probability every row gave its label in a per-epoch buffer of one
float per training frame. The epoch's loss is taken from that buffer at the
end of the epoch: each batch's mean cross-entropy, weighted by its size and
added in batch order. Every floating-point operation and its order are those
of the per-array, per-batch form kept in ``tests/oracles.py``, so the trained
weights and the metrics are bitwise the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import expit

from . import formats
from .corpus import Frames

_BLOCK_ROWS = 1024   # input rows per forward pass; training rounds it to whole batches

__all__ = ["NetworkConfig", "TrainConfig", "LdatNetwork",
           "init_network", "init_augmented_from_baseline",
           "train", "evaluate_accuracy",
           "save_network", "load_network"]


def _views(flat: np.ndarray, shapes) -> list:
    """Consecutive views of the vector ``flat`` with the given shapes."""
    views, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[at:at + size].reshape(shape))
        at += size
    return views


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


@dataclass
class TrainConfig:
    epochs: int = 20
    learning_rate: float = 0.1
    batch_size: int = 32
    seed: int = 0
    cv_fraction: float = 0.1      # held-out slice for per-epoch frame accuracy

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.cv_fraction < 1.0:
            raise ValueError("cv_fraction must lie in [0, 1)")


class LdatNetwork:
    """Plain numpy MLP; softmax output, cross-entropy training target.

    ``params`` holds every layer's weights, then every layer's biases, in
    one float64 vector; ``weights`` and ``biases`` are tuples of views of
    it. The constructor copies the arrays it is given and checks them, so a
    network built by hand is held to the rules of a loaded one: the
    activation is sigmoid or relu, and each layer has 2-d finite weights
    whose cols equal the previous layer's rows (``input_dim + domain_dim``
    for layer 0) and its own finite bias of one value per row. A fault in a
    layer raises ValueError naming the layer."""

    def __init__(self, weights, biases, input_dim, domain_dim, activation):
        if activation not in ("sigmoid", "relu"):
            raise ValueError(f"unknown activation {activation!r}")
        if len(biases) != len(weights):
            raise ValueError(f"{len(weights)} layers need as many biases, got {len(biases)}")
        arrays = [np.asarray(a, dtype=float) for a in (*weights, *biases)]
        width = input_dim + domain_dim
        for i, (w, b) in enumerate(zip(arrays[:len(weights)], arrays[len(weights):])):
            if w.ndim != 2:
                raise ValueError(f"layer {i}: weights must be 2-d, got shape {w.shape}")
            if w.shape[1] != width:
                raise ValueError(f"layer {i}: cols {w.shape[1]} != " + (
                    f"input_dim + domain_dim = {width}" if i == 0
                    else f"rows of layer {i - 1} = {width}"))
            width = w.shape[0]
            if b.shape != (width,):
                raise ValueError(f"layer {i}: bias must be rows = {width} numbers")
            for name, arr in (("weights", w), ("bias", b)):
                if not np.isfinite(arr).all():
                    raise ValueError(f"layer {i}: {name} must be finite")
        self.params = np.concatenate([a.ravel() for a in arrays])
        views = _views(self.params, [a.shape for a in arrays])
        self.weights, self.biases = tuple(views[:len(weights)]), tuple(views[len(weights):])
        self.input_dim = input_dim
        self.domain_dim = domain_dim
        self.activation = activation

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[0]

    def _layer(self, i, h, out=None):
        """Layer ``i``'s output for the rows ``h``, written to ``out`` when
        given: its activation, or for the last layer the softmax of each row.
        Everything after the matrix product works in place."""
        z = np.matmul(h, self.weights[i].T, out=out)
        z += self.biases[i]
        if i == len(self.weights) - 1:
            z -= np.maximum.reduce(z.T.copy())[:, None]
            np.exp(z, out=z)
            z /= np.add.reduce(z, axis=1, keepdims=True)
        elif self.activation == "sigmoid":
            expit(z, out=z)
        else:
            np.maximum(z, 0.0, out=z)
        return z

    def _forward(self, inputs):
        """Output probabilities for rows of [features | one-hot]; only the
        current layer's array is kept."""
        h = inputs
        for i in range(len(self.weights)):
            h = self._layer(i, h)
        return h


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
        """Gradients for the rows ``x`` of [features | one-hot] with ``labels``;
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


def _frame_columns(net: LdatNetwork, dataset: Frames, domains) -> Optional[np.ndarray]:
    """The column of each frame's one-hot domain in the input matrix, (N,),
    each frame taking ``domains[i]``, the domain of its document i, or None
    for a baseline network. Checks the labelled frames ``dataset`` and
    ``domains`` against ``net``'s input, domain and output sizes."""
    if not isinstance(dataset, Frames) or dataset.labels is None:
        raise TypeError(f"dataset must be a labelled Frames record, "
                        f"got {type(dataset).__name__}")
    n, d = dataset.frames.shape
    if d != net.input_dim:
        raise ValueError(f"feature dim {d} != network input dim {net.input_dim}")
    if n and dataset.labels.max() >= net.output_dim:
        raise ValueError("label out of range for the output layer")
    if net.domain_dim == 0:
        if domains is not None:
            raise ValueError("baseline network got domains")
        return None
    if domains is None:
        raise ValueError("domain-aware network needs a domain for every document")
    domains = np.asarray(domains)
    m = len(dataset.ids)
    if domains.shape != (m,):
        raise ValueError(f"domains must have shape ({m},), one per document, "
                         f"got {domains.shape}")
    if m and domains.dtype.kind not in "iu":
        raise ValueError("domains must be integers")
    if m and domains.min() < 0:
        raise ValueError("domains must be >= 0")
    if m and domains.max() >= net.domain_dim:
        raise ValueError(f"domain {domains.max()} out of range for "
                         f"network domain dim {net.domain_dim}")
    return d + np.repeat(domains, np.diff(dataset.offsets))


def _input_rows(net: LdatNetwork, dataset: Frames, columns, index) -> np.ndarray:
    """The rows ``index`` of the input matrix [frames | one-hot domain],
    given each frame's one-hot ``columns`` from ``_frame_columns``."""
    frames = dataset.frames[index]
    if columns is None:
        return frames
    inputs = np.zeros((len(frames), net.input_dim + net.domain_dim))
    inputs[:, :net.input_dim] = frames
    inputs[np.arange(len(frames)), columns[index]] = 1.0
    return inputs


def _runs(n: int, block: int):
    """(start, stop) runs of ``block`` rows over range(n), a short last run
    folded into the one before."""
    stops = [*range(block, n - block + 1, block), n]
    return zip([0, *stops[:-1]], stops)


def _accuracy(net: LdatNetwork, dataset: Frames, columns, index) -> float:
    """The share of the frames ``index`` whose most probable class is their
    label, from forward passes over runs of ``_BLOCK_ROWS`` input rows."""
    hits = 0
    for start, stop in _runs(index.size, _BLOCK_ROWS):
        rows = index[start:stop]
        probs = net._forward(_input_rows(net, dataset, columns, rows))
        hits += int(np.count_nonzero(probs.argmax(axis=1) == dataset.labels[rows]))
    return hits / index.size


@np.errstate(over="raise", invalid="raise")
def train(net: LdatNetwork, dataset: Frames,
          config: Optional[TrainConfig] = None, domains=None):
    """Minibatch SGD on cross-entropy over the labelled frames ``dataset``,
    with one domain per document for a domain-aware network; mutates ``net``
    in place.

    Returns a list of per-epoch metric dicts {epoch, train_loss,
    cv_accuracy}; cv_accuracy is None when cv_fraction is 0. Deterministic
    for a fixed config seed. Overflow, or a non-finite loss at the end of an
    epoch, raises FloatingPointError.
    """
    config = config or TrainConfig()
    columns, labels = _frame_columns(net, dataset, domains), dataset.labels
    n = len(dataset)
    if n == 0:
        raise ValueError("empty dataset")

    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(n)
    n_cv = int(round(config.cv_fraction * n))
    cv_idx, tr_idx = perm[:n_cv], perm[n_cv:]
    if tr_idx.size == 0:
        raise ValueError("cv_fraction leaves no training data")

    size = config.batch_size
    block = max(_BLOCK_ROWS // size, 1) * size
    grad = np.empty_like(net.params)
    steps = {}                       # one _Step per batch size: full and last
    picked = np.empty(tr_idx.size)   # each training frame's label probability
    metrics = []
    for epoch in range(config.epochs):
        order = tr_idx[rng.permutation(tr_idx.size)]
        for first, last in _runs(order.size, block):
            rows = order[first:last]
            x, y = _input_rows(net, dataset, columns, rows), labels[rows]
            for start in range(0, rows.size, size):
                m = min(size, rows.size - start)
                step = steps.get(m) or steps.setdefault(m, _Step(net, m, grad))
                at = first + start
                picked[at:at + m] = step(x[start:start + m], y[start:start + m])
                grad *= config.learning_rate
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

        cv_accuracy = _accuracy(net, dataset, columns, cv_idx) if n_cv else None
        metrics.append({"epoch": epoch, "train_loss": train_loss,
                        "cv_accuracy": cv_accuracy})
    return metrics


@np.errstate(over="raise", invalid="raise")
def evaluate_accuracy(net: LdatNetwork, dataset: Frames, domains=None) -> float:
    """Frame classification accuracy over the labelled frames ``dataset``,
    with one domain per document for a domain-aware network; overflow raises
    FloatingPointError."""
    columns = _frame_columns(net, dataset, domains)
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    return _accuracy(net, dataset, columns, np.arange(len(dataset)))


def save_network(path, net: LdatNetwork, seed: int) -> None:
    formats.write_json(path, {
        "input_dim": net.input_dim,
        "domain_dim": net.domain_dim,
        "activation": net.activation,
        "layers": [
            {"rows": w.shape[0], "cols": w.shape[1],
             "weights": w.ravel().tolist(), "bias": b.tolist()}
            for w, b in zip(net.weights, net.biases)
        ],
        "seed": seed,
    })


def load_network(path) -> LdatNetwork:
    """Read a ``save_network`` file; a malformed one raises ValueError
    naming ``path``."""
    def build(obj):
        input_dim, domain_dim, layers = obj["input_dim"], obj["domain_dim"], obj["layers"]
        if not (type(input_dim) is int and input_dim >= 1
                and type(domain_dim) is int and domain_dim >= 0):
            raise ValueError("input_dim must be an integer >= 1 and domain_dim >= 0")
        if not (isinstance(layers, list) and layers):
            raise ValueError("layers must be a non-empty list")
        weights, biases = [], []
        for i, layer in enumerate(layers):
            if not (isinstance(layer, dict)
                    and {"rows", "cols", "weights", "bias"} <= set(layer)):
                raise ValueError(
                    f"layer {i}: expected an object with rows, cols, weights and bias")
            rows, cols = layer["rows"], layer["cols"]
            if not (type(rows) is int and rows >= 1 and type(cols) is int):
                raise ValueError(f"layer {i}: rows and cols must be integers >= 1")
            w = formats.numbers(layer["weights"], f"layer {i}: weights", (None,))
            biases.append(formats.numbers(layer["bias"], f"layer {i}: bias", (None,)))
            if w.shape != (rows * cols,):
                raise ValueError(
                    f"layer {i}: weights must be rows*cols = {rows * cols} numbers")
            weights.append(w.reshape(rows, cols))
        return LdatNetwork(weights, biases, input_dim, domain_dim, obj["activation"])
    return formats.read_json(path, ("input_dim", "domain_dim", "activation", "layers"),
                             build)
