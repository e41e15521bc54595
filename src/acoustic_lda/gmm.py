"""Diagonal-covariance GMM training (mix-up schedule) and frame quantization.

The quantizer maps each frame to the index of the Gaussian component with the
highest posterior, turning an utterance into a sequence of discrete symbols.
All density math is done in the log domain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import logsumexp

from .corpus import FeatureDocument, SymbolDocument

__all__ = ["GmmConfig", "GmmModel", "train_gmm", "responsibilities", "quantize",
           "save_gmm", "load_gmm"]

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass
class GmmConfig:
    split_em_iters: int = 4          # EM iterations after each mix-up split
    final_tol: float = 1e-6          # relative log-likelihood change to stop
    max_final_iters: int = 50
    variance_floor_factor: float = 1e-4   # times the global per-dim variance
    mean_perturbation: float = 0.2   # split offset, in per-dim std units
    empty_mass_threshold: float = 1e-8


@dataclass(frozen=True)
class GmmModel:
    """Diagonal-covariance mixture; immutable and safe to share."""

    weights: np.ndarray   # (V,)
    means: np.ndarray     # (V, D)
    variances: np.ndarray  # (V, D)

    def __post_init__(self):
        for name in ("weights", "means", "variances"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("component weights must sum to 1")
        if np.any(self.variances <= 0):
            raise ValueError("variances must be positive")

    @property
    def num_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _log_joint(weights, means, variances, frames):
    """log(w_i * N(x; mu_i, var_i)) for all frames and components, (N, V)."""
    # (N, V) via broadcasting; quadratic term expanded per dimension
    diff = frames[:, None, :] - means[None, :, :]        # (N, V, D)
    quad = np.sum(diff * diff / variances[None, :, :], axis=2)
    log_det = np.sum(np.log(variances), axis=1)          # (V,)
    d = means.shape[1]
    log_pdf = -0.5 * (d * _LOG_2PI + log_det[None, :] + quad)
    return np.log(weights)[None, :] + log_pdf


def responsibilities(model: GmmModel, frame: np.ndarray) -> np.ndarray:
    """Posterior P(G_i | x) over components for a single frame."""
    frame = np.asarray(frame, dtype=float)
    if frame.shape != (model.dim,):
        raise ValueError(f"frame has shape {frame.shape}, model dim is {model.dim}")
    lj = _log_joint(model.weights, model.means, model.variances, frame[None, :])[0]
    return np.exp(lj - logsumexp(lj))


def quantize(model: GmmModel, doc: FeatureDocument) -> SymbolDocument:
    """Map each frame to its maximum-posterior component index.

    Ties break toward the lowest component index. The posterior argmax equals
    the argmax of the log joint, so no normalization is needed.
    """
    if doc.dim != model.dim:
        raise ValueError(
            f"document {doc.id!r} has dim {doc.dim}, model dim is {model.dim}"
        )
    lj = _log_joint(model.weights, model.means, model.variances, doc.frames)
    return SymbolDocument(id=doc.id, symbols=np.argmax(lj, axis=1), group=doc.group)


def _em_iterations(weights, means, variances, frames, floor, n_iters, tol,
                   empty_threshold, perturbation, history):
    """Run EM at a fixed component count; returns updated parameters.

    Appends per-iteration average log-likelihood to ``history``. Stops early
    when ``tol`` is set and the relative change falls below it.
    """
    n = frames.shape[0]
    prev_ll = None
    for _ in range(n_iters):
        lj = _log_joint(weights, means, variances, frames)   # (N, V)
        norm = logsumexp(lj, axis=1)
        ll = float(norm.sum()) / n
        if not np.isfinite(ll):
            raise FloatingPointError("EM produced a non-finite log-likelihood")
        history.append(ll)
        resp = np.exp(lj - norm[:, None])                    # (N, V)
        mass = resp.sum(axis=0)                              # (V,)

        empties = np.flatnonzero(mass < empty_threshold)
        if empties.size:
            weights, means, variances = _reseed_empties(
                weights.copy(), means.copy(), variances.copy(), empties, perturbation
            )
            prev_ll = None   # restart monotonicity tracking after a reseed
            continue

        weights = mass / n
        means = (resp.T @ frames) / mass[:, None]
        second = (resp.T @ (frames * frames)) / mass[:, None]
        variances = np.maximum(second - means * means, floor[None, :])

        if tol is not None and prev_ll is not None:
            if abs(ll - prev_ll) <= tol * max(1.0, abs(prev_ll)):
                break
        prev_ll = ll
    return weights, means, variances


def _split_component(weights, means, variances, idx, perturbation):
    """Split component ``idx`` into two, offsetting means by +-0.2 std."""
    sigma = np.sqrt(variances[idx])
    offset = perturbation * sigma
    w = weights[idx] / 2.0
    new_weights = np.concatenate([weights, [w]])
    new_weights[idx] = w
    new_means = np.vstack([means, means[idx] + offset])
    new_means[idx] = means[idx] - offset
    new_variances = np.vstack([variances, variances[idx]])
    return new_weights, new_means, new_variances


def _reseed_empties(weights, means, variances, empties, perturbation):
    """Re-seed dead components by re-splitting the heaviest one."""
    for idx in empties:
        heavy = int(np.argmax(weights))
        sigma = np.sqrt(variances[heavy])
        offset = perturbation * sigma
        w = weights[heavy] / 2.0
        weights[heavy] = w
        weights[idx] = w
        means[idx] = means[heavy] + offset
        means[heavy] = means[heavy] - offset
        variances[idx] = variances[heavy]
    return weights, means, variances


def train_gmm(
    frames: np.ndarray,
    target_components: int,
    config: Optional[GmmConfig] = None,
    return_history: bool = False,
):
    """Train a diagonal GMM by EM with mix-up component splitting.

    Starts from the single-component maximum-likelihood solution and grows the
    mixture one split at a time (heaviest component first) until it reaches
    ``target_components``, running a few EM passes after every split, then a
    final EM to convergence. Deterministic: no randomness is involved.

    With ``return_history=True`` returns ``(model, history)`` where history is
    a list of ``(component_count, [avg log-likelihood per EM iteration])``
    stages, for monotonicity checks.
    """
    config = config or GmmConfig()
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
    floor = np.maximum(config.variance_floor_factor * global_var, 1e-12)

    weights = np.array([1.0])
    means = frames.mean(axis=0)[None, :]
    variances = np.maximum(frames.var(axis=0), floor)[None, :]

    stages = []
    while weights.shape[0] < target_components:
        heavy = int(np.argmax(weights))
        weights, means, variances = _split_component(
            weights, means, variances, heavy, config.mean_perturbation
        )
        stage_ll: list[float] = []
        weights, means, variances = _em_iterations(
            weights, means, variances, frames, floor,
            config.split_em_iters, None,
            config.empty_mass_threshold, config.mean_perturbation, stage_ll,
        )
        stages.append((weights.shape[0], stage_ll))

    final_ll: list[float] = []
    weights, means, variances = _em_iterations(
        weights, means, variances, frames, floor,
        config.max_final_iters, config.final_tol,
        config.empty_mass_threshold, config.mean_perturbation, final_ll,
    )
    stages.append((weights.shape[0], final_ll))

    weights = weights / weights.sum()
    model = GmmModel(weights=weights, means=means, variances=variances)
    if return_history:
        return model, stages
    return model


def save_gmm(path, model: GmmModel, seed: Optional[int] = None) -> None:
    obj = {
        "D": model.dim,
        "V": model.num_components,
        "weights": model.weights.tolist(),
        "means": model.means.tolist(),
        "variances": model.variances.tolist(),
    }
    if seed is not None:
        obj["seed"] = seed
    with open(path, "w") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def load_gmm(path) -> GmmModel:
    with open(path) as fh:
        obj = json.load(fh)
    model = GmmModel(
        weights=np.asarray(obj["weights"], dtype=float),
        means=np.asarray(obj["means"], dtype=float),
        variances=np.asarray(obj["variances"], dtype=float),
    )
    if model.num_components != obj["V"] or model.dim != obj["D"]:
        raise ValueError(f"{path}: inconsistent model dimensions")
    return model
