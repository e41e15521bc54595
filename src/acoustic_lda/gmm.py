"""Diagonal-covariance GMM training (mix-up schedule) and frame quantization.

The quantizer maps each frame to the index of the Gaussian component with the
highest posterior, turning an utterance into a sequence of discrete symbols.
All density math is done in the log domain.

The log joint of frame x and component i is computed as two matrix products,
from the diagonal-covariance expansion

    log w_i - 1/2 (D log 2pi + sum log var_i + sum m_i^2 / var_i)
            - 1/2 (x^2) . (1 / var_i) + x . (m_i / var_i),

where x and m_i are the frame and the mean shifted by one common centre, so
that a large common offset does not cancel.

``quantize`` centres on the mean of the component means and takes the
frames in fixed-size blocks of ``_BLOCK_FRAMES``. The expansion rounds
differently from the direct form sum (x - mu)^2 / var; ``quantize`` bounds
that error per frame and re-scores, with the direct form, only the frames
whose best and runner-up components lie within the bound.
Its symbols are therefore those of the direct form, ties going to the lowest
index. The model-only terms of the log joint and of that bound (the centre,
the two matrix operands, the constant and the bound's per-dimension maxima)
are built once per model, on first use, and kept on the immutable
``GmmModel``; each block of frames is shifted by the centre once, for both.

EM centres on the mean g of the training frames, which is a safe centre
because every EM mean is a weighted average of frames. ``train_gmm`` builds
the design matrix Z = [x^2 | x]^T, (2D, N) with x = frames - g, once per fit.
Each EM pass then takes Z in blocks of ``_BLOCK_FRAMES`` columns and does two
matrix products per block: the (V, B) log joint W @ Z_b + const, with
W = [-prec / 2 | (means - g) * prec], and, after normalising it along the
components into responsibilities r, the statistics (Z_b @ r^T)^T, which hold
the centred sums [sum r x^2 | sum r x]. The M-step reads the variances off
the centred second moment. Z costs 2 N D floats for the fit; every other
temporary is O(block * V), and no (frames, components, dims) array is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import formats
from .corpus import Frames, read_only

__all__ = ["GmmModel", "train_gmm", "quantize", "save_gmm", "load_gmm"]

_LOG_2PI = np.log(2.0 * np.pi)
_EPS = np.finfo(float).eps
_BLOCK_FRAMES = 4096   # frames per block in EM statistics and in quantize
_SPLIT_EM_ITERS = 4    # EM passes after each mix-up split
_FINAL_TOL = 1e-6      # relative log-likelihood change that ends the final EM
_MAX_FINAL_ITERS = 50
_VARIANCE_FLOOR = 1e-4  # times the global per-dimension variance
_PERTURBATION = 0.2    # split offset, in per-dimension std units
_EMPTY_MASS = 1e-8     # posterior mass below which a component is re-seeded


@dataclass(frozen=True)
class GmmModel:
    """Diagonal-covariance mixture; immutable and safe to share. It keeps its
    arrays read-only (``corpus.read_only``), so the quantizer terms it keeps
    stay those of its parameters."""

    weights: np.ndarray   # (V,)
    means: np.ndarray     # (V, D)
    variances: np.ndarray  # (V, D)

    def __post_init__(self):
        for name in ("weights", "means", "variances"):
            try:
                arr = read_only(getattr(self, name), float)
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"{name} must be a regular array of numbers") from None
            object.__setattr__(self, name, arr)
        if self.weights.ndim != 1 or self.weights.size == 0:
            raise ValueError(f"weights must have shape (V,), got {self.weights.shape}")
        v = self.weights.size
        if self.means.ndim != 2 or self.means.shape[0] != v or self.means.shape[1] == 0:
            raise ValueError(f"means must have shape (V, D) with V={v}, "
                             f"got {self.means.shape}")
        if self.variances.shape != self.means.shape:
            raise ValueError(f"variances must have shape {self.means.shape}, "
                             f"got {self.variances.shape}")
        for name in ("weights", "means", "variances"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if np.any(self.weights <= 0):
            raise ValueError("component weights must be positive")
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("component weights must sum to 1")
        if np.any(self.variances <= 0):
            raise ValueError("variances must be positive")

    @cached_property
    def _terms(self):
        """The model-only terms of the quantizer, built on first use."""
        return _model_terms(self)

    @property
    def num_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _blocks(n):
    """Slices of at most ``_BLOCK_FRAMES`` frames covering ``range(n)``."""
    for start in range(0, n, _BLOCK_FRAMES):
        yield slice(start, min(start + _BLOCK_FRAMES, n))


def _log_const(weights, variances, m, prec):
    """The frame-free terms of the log joint, (V,), for means ``m`` shifted
    by the centre and precisions ``prec``."""
    return np.log(weights) - 0.5 * (
        m.shape[1] * _LOG_2PI + np.log(variances).sum(axis=1)
        + (m * m * prec).sum(axis=1))


class _Terms(NamedTuple):
    """The model-only terms of ``quantize``'s log joint and tie margin, for
    frames x shifted by ``centre``, the mean of the component means."""

    centre: np.ndarray         # (D,)
    neg_half_prec: np.ndarray  # (D, V): -prec^T / 2
    m_prec: np.ndarray         # (D, V): ((means - centre) * prec)^T
    const: np.ndarray          # (V,): the frame-free terms of the log joint
    reach: np.ndarray          # (D,): max |means - centre| over the components
    max_prec: np.ndarray       # (D,): max prec over the components
    margin_const: float        # the frame-free part of the margin's magnitude


def _model_terms(model):
    """The ``_Terms`` of ``model``, built once per model by ``GmmModel._terms``."""
    weights, means, variances = model.weights, model.means, model.variances
    centre = means.mean(axis=0)
    m = means - centre
    prec = 1.0 / variances
    return _Terms(
        centre=centre, neg_half_prec=-0.5 * prec.T, m_prec=(m * prec).T,
        const=_log_const(weights, variances, m, prec),
        reach=np.abs(m).max(axis=0), max_prec=prec.max(axis=0),
        margin_const=means.shape[1] * _LOG_2PI + np.max(
            np.abs(np.log(weights)) + np.abs(np.log(variances)).sum(axis=1)))


def _log_joint(terms, x):
    """log(w_i * N(x; mu_i, var_i)) for a block of frames ``x`` shifted by
    ``terms.centre``, (N, V), as two matrix products."""
    return terms.const + (x * x) @ terms.neg_half_prec + x @ terms.m_prec


def _log_joint_direct(weights, means, variances, frames):
    """The same log joint from sum (x - mu)^2 / var, through an (N, V, D)
    temporary: the reference ``quantize`` re-scores near-tie frames with."""
    diff = frames[:, None, :] - means[None, :, :]        # (N, V, D)
    quad = np.sum(diff * diff / variances[None, :, :], axis=2)
    log_det = np.sum(np.log(variances), axis=1)          # (V,)
    d = means.shape[1]
    log_pdf = -0.5 * (d * _LOG_2PI + log_det[None, :] + quad)
    return np.log(weights)[None, :] + log_pdf


def _tie_margin(terms, x):
    """Per frame of ``x`` (frames shifted by ``terms.centre``), a gap between
    the best and the runner-up log joint above which ``_log_joint`` and
    ``_log_joint_direct`` pick the same component.

    Either form of one component's log joint is off by at most about
    (D + 6) * eps/2 times the magnitudes it sums, which per-dimension maxima
    over the components bound from above; the margin is four times the worst
    case for two components under both forms.
    """
    size = (np.abs(x) + terms.reach) ** 2 @ terms.max_prec
    size += terms.margin_const
    return 8.0 * (terms.centre.size + 6) * _EPS * size


@np.errstate(over="raise", invalid="raise")
def quantize(model: GmmModel, doc: Frames) -> np.ndarray:
    """Map each frame of the record ``doc`` (the CLI passes one document at a
    time) to its maximum-posterior component index: the (N,) symbols, in
    the order of ``doc.frames``.

    Ties break toward the lowest component index. The posterior argmax equals
    the argmax of the log joint, so no normalization is needed. Frames whose
    best two components lie within ``_tie_margin`` are re-scored with the
    direct form, so the symbols are those of sum (x - mu)^2 / var, and a
    frame's symbol does not depend on the block it is scored in. Frames so
    large that their squares overflow raise FloatingPointError. (The record
    is named ``doc``, the name ``perfbench/tracing.py`` binds.)
    """
    if doc.ids and doc.dim != model.dim:
        raise ValueError(
            f"document {doc.ids[0]!r} has dim {doc.dim}, model dim is {model.dim}"
        )
    terms = model._terms
    symbols = np.empty(doc.num_frames, dtype=np.int64)
    for rows in _blocks(doc.num_frames):
        frames = doc.frames[rows]
        x = frames - terms.centre
        lj = _log_joint(terms, x)
        best = lj.argmax(axis=1)
        at = np.arange(best.size)
        top = lj[at, best]
        lj[at, best] = -np.inf
        near = top - lj.max(axis=1) <= _tie_margin(terms, x)
        if near.any():
            best[near] = _log_joint_direct(model.weights, model.means, model.variances,
                                           frames[near]).argmax(axis=1)
        symbols[rows] = best
    return symbols


def _design_matrix(frames):
    """The frames' mean g and the contiguous (2D, N) design matrix
    [x^2 | x]^T with x = frames - g, built once per fit."""
    n, d = frames.shape
    g = frames.mean(axis=0)
    z = np.empty((2 * d, n))
    np.subtract(frames.T, g[:, None], out=z[d:])
    np.multiply(z[d:], z[d:], out=z[:d])
    return g, z


def _em_statistics(weights, means, variances, g, z):
    """One E-step on the design matrix ``z`` of frames centred on ``g``,
    block by block: the total log-likelihood, each component's posterior
    mass and the centred sums [sum r*x^2 | sum r*x], (V, 2D)."""
    v, d = means.shape
    prec = 1.0 / variances
    m = means - g
    w = np.hstack([-0.5 * prec, m * prec])                  # (V, 2D)
    const = _log_const(weights, variances, m, prec)[:, None]
    ll, mass, acc = 0.0, np.zeros(v), np.zeros((v, 2 * d))
    for cols in _blocks(z.shape[1]):
        zb = z[:, cols]
        lj = w @ zb
        lj += const                                         # (V, B)
        top = lj.max(axis=0)
        resp = np.exp(np.subtract(lj, top, out=lj), out=lj)
        norm = resp.sum(axis=0)
        resp /= norm
        ll += float(np.sum(top + np.log(norm)))
        mass += resp.sum(axis=1)
        acc += (zb @ resp.T).T    # the bits of resp @ zb.T at one BLAS thread, faster
    return ll, mass, acc


def _em_iterations(weights, means, variances, g, z, floor, n_iters, tol):
    """Run EM at a fixed component count on the design matrix ``z`` of frames
    centred on ``g``; returns updated parameters.

    Stops early when ``tol`` is set and the relative change of the average
    log-likelihood falls below it. A component whose posterior mass falls
    below ``_EMPTY_MASS`` is re-seeded by splitting the heaviest one into it.
    A re-seed on the last pass earns one extra pass, so that the re-seeded
    parameters are re-fitted before they are returned.
    """
    n, d = z.shape[1], means.shape[1]
    prev_ll, reseeded = None, False
    for it in range(n_iters + 1):
        if it == n_iters and not reseeded:
            break
        total, mass, acc = _em_statistics(weights, means, variances, g, z)
        ll = total / n
        if not np.isfinite(ll):
            raise FloatingPointError("EM produced a non-finite log-likelihood")

        empties = np.flatnonzero(mass < _EMPTY_MASS)
        reseeded = bool(empties.size)
        if reseeded:
            for dst in empties:
                _split(weights, means, variances, int(np.argmax(weights)), dst)
            prev_ll = None   # restart monotonicity tracking after a reseed
            continue

        weights = mass / n
        centred = acc[:, d:] / mass[:, None]
        means = centred + g
        variances = np.maximum(acc[:, :d] / mass[:, None] - centred * centred,
                               floor[None, :])

        if tol is not None and prev_ll is not None:
            if abs(ll - prev_ll) <= tol * max(1.0, abs(prev_ll)):
                break
        prev_ll = ll
    return weights, means, variances


def _split(weights, means, variances, src, dst):
    """Split component ``src`` in place into itself and ``dst``: half its
    weight each, means ``_PERTURBATION`` std below and above its mean, and its
    variances for both."""
    offset = _PERTURBATION * np.sqrt(variances[src])
    weights[src] = weights[dst] = weights[src] / 2.0
    means[dst] = means[src] + offset
    means[src] -= offset
    variances[dst] = variances[src]


@np.errstate(over="raise", invalid="raise")
def train_gmm(frames: np.ndarray, target_components: int) -> GmmModel:
    """Train a diagonal GMM by EM with mix-up component splitting.

    Starts from the single-component maximum-likelihood solution and grows the
    mixture one split at a time (heaviest component first) until it reaches
    ``target_components``, running ``_SPLIT_EM_ITERS`` EM passes after every
    split, then a final EM of at most ``_MAX_FINAL_ITERS`` passes to the
    relative tolerance ``_FINAL_TOL``. Variances are floored at
    ``_VARIANCE_FLOOR`` times the global per-dimension variance.
    Deterministic: no randomness is involved. Overflow, as from frames whose
    squares exceed the float range, raises FloatingPointError.
    """
    frames = np.asarray(frames, dtype=float)
    if frames.ndim != 2:
        raise ValueError("frames must be an N x D matrix")
    n, d = frames.shape
    if not np.isfinite(frames).all():
        raise ValueError("frames contain non-finite values")
    if n < target_components:
        raise ValueError(
            f"need at least {target_components} frames, got {n}"
        )
    if target_components < 1:
        raise ValueError("target_components must be >= 1")

    global_var = frames.var(axis=0)
    floor = np.maximum(_VARIANCE_FLOOR * global_var, 1e-12)
    g, z = _design_matrix(frames)

    weights = np.array([1.0])
    means = g[None, :]
    variances = np.maximum(global_var, floor)[None, :]

    while weights.shape[0] < target_components:
        heavy = int(np.argmax(weights))
        # a zero-weight slot for the split to fill
        weights = np.append(weights, 0.0)
        means, variances = (np.vstack([a, np.zeros(d)]) for a in (means, variances))
        _split(weights, means, variances, heavy, weights.shape[0] - 1)
        weights, means, variances = _em_iterations(
            weights, means, variances, g, z, floor, _SPLIT_EM_ITERS, None)

    weights, means, variances = _em_iterations(
        weights, means, variances, g, z, floor, _MAX_FINAL_ITERS, _FINAL_TOL)
    return GmmModel(weights=weights / weights.sum(), means=means, variances=variances)


def save_gmm(path, model: GmmModel, seed: int) -> None:
    formats.write_json(path, {
        "D": model.dim,
        "V": model.num_components,
        "weights": model.weights.tolist(),
        "means": model.means.tolist(),
        "variances": model.variances.tolist(),
        "seed": seed,
    })


def load_gmm(path) -> GmmModel:
    """Read a model written by :func:`save_gmm`; a malformed file raises
    ValueError naming the path. ``GmmModel`` checks the values."""
    def build(obj):
        for key in ("D", "V"):
            if type(obj[key]) is not int or obj[key] < 1:
                raise ValueError(f"{key} must be a positive integer, got {obj[key]!r}")
        v, d = obj["V"], obj["D"]
        return GmmModel(weights=formats.numbers(obj["weights"], "weights", (v,)),
                        means=formats.numbers(obj["means"], "means", (v, d)),
                        variances=formats.numbers(obj["variances"], "variances", (v, d)))
    return formats.read_json(path, ("D", "V", "weights", "means", "variances"), build)
