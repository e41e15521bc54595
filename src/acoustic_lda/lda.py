"""Latent Dirichlet Allocation over bags-of-sounds, trained by variational EM.

Inference runs the standard coordinate-ascent updates on the variational
parameters (gamma, phi) of every document at once:

    phi_{wk}  proportional to  beta_{kw} * exp(digamma(gamma_k))
    gamma_k   =  alpha_k + sum_w count_w * phi_{wk}

Documents are padded to a common number of distinct symbols, and each one
stops updating as soon as its own relative gamma change falls below the
tolerance. Training, single-document inference and corpus inference all run
this one E-step and one evidence lower bound; a single document is the
batch of one.

The M-step re-estimates each topic row from the phi-weighted symbol counts,
with optional additive smoothing. ``log_beta`` stores K rows of length V
(log-probability of each symbol given the latent domain).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import gammaln, logsumexp, psi

from .corpus import BagOfSounds

__all__ = ["LdaConfig", "LdaModel", "VariationalState", "digamma",
           "e_step_document", "elbo", "fit", "infer_theta", "infer_thetas",
           "save_lda", "load_lda"]


def digamma(x):
    """scipy's digamma, restricted to positive arguments."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("digamma requires positive arguments")
    return psi(x)


@dataclass
class LdaConfig:
    gamma_tol: float = 1e-5      # max relative gamma change to stop the E-step
    max_e_iters: int = 100
    em_tol: float = 1e-4         # relative corpus-ELBO change to stop EM
    max_em_iters: int = 50
    smoothing: float = 1e-3      # additive pseudo-count per (k, w) cell; 0 disables
    alpha: Optional[float] = None  # symmetric Dirichlet scale; None means 1/K
    seed: int = 0
    subtract_prior: bool = False  # theta = (gamma - alpha)/sum if True


@dataclass(frozen=True)
class LdaModel:
    """Topic-symbol matrix in the log domain plus the Dirichlet scale."""

    alpha: np.ndarray      # (K,) positive
    log_beta: np.ndarray   # (K, V), each row normalized in probability space
    elbo_history: Optional[list] = None   # per-EM-iteration corpus ELBO; not serialized

    def __post_init__(self):
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        log_beta = np.asarray(self.log_beta, dtype=float)
        if alpha.shape != (log_beta.shape[0],):
            raise ValueError("alpha length must equal the number of rows of log_beta")
        if np.any(alpha <= 0):
            raise ValueError("alpha entries must be positive")
        row_mass = np.exp(logsumexp(log_beta, axis=1))
        if not np.all(np.abs(row_mass - 1.0) < 1e-8):
            raise ValueError("each exp(log_beta) row must sum to 1")
        alpha.setflags(write=False)
        log_beta.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "log_beta", log_beta)

    @property
    def num_domains(self) -> int:
        return self.log_beta.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.log_beta.shape[1]


@dataclass(frozen=True)
class VariationalState:
    """Per-document variational posterior: Dirichlet gamma and one phi row
    per distinct symbol present in the document."""

    gamma: np.ndarray      # (K,)
    phi: np.ndarray        # (U, K), row-stochastic
    word_ids: np.ndarray   # (U,) the distinct symbols, aligned with phi rows
    counts: np.ndarray     # (U,) occurrence counts of each distinct symbol


def _pad_supports(docs: Sequence[BagOfSounds], v: int):
    """Each document's distinct symbols and their counts, padded to a common
    width U: (M, U) symbol ids and (M, U) float counts.

    Padded slots repeat the document's first symbol with count 0, so they
    stay on a symbol with mass and contribute nothing.
    """
    supports = []
    for doc in docs:
        if doc.vocab_size != v:
            raise ValueError(f"document {doc.id!r} has V={doc.vocab_size}, expected V={v}")
        ids = np.flatnonzero(doc.counts)
        if ids.size == 0:
            raise ValueError(f"document {doc.id!r} is empty")
        supports.append(ids)
    word_ids = np.zeros((len(docs), max(ids.size for ids in supports)), dtype=np.int64)
    counts = np.zeros(word_ids.shape)
    for i, (doc, ids) in enumerate(zip(docs, supports)):
        word_ids[i] = ids[0]
        word_ids[i, : ids.size] = ids
        counts[i, : ids.size] = doc.counts[ids]
    return word_ids, counts


def _e_step(lb, counts, alpha, gamma_tol, max_iters):
    """Iterate the (phi, gamma) updates for M documents at once.

    ``lb`` is (M, U, K): model log-probabilities at each document's padded
    symbols; ``counts`` is (M, U). A document is frozen once its max relative
    gamma change falls below ``gamma_tol``. Returns gamma (M, K) and phi
    (M, U, K).
    """
    k = lb.shape[2]
    gamma = alpha + counts.sum(axis=1, keepdims=True) / k
    phi = np.full(lb.shape, 1.0 / k)
    live = np.arange(lb.shape[0])
    for _ in range(max_iters):
        log_phi = lb[live] + psi(gamma[live])[:, None, :]
        log_phi -= log_phi.max(axis=2, keepdims=True)
        new_phi = np.exp(log_phi)
        new_phi /= new_phi.sum(axis=2, keepdims=True)
        new_gamma = alpha + np.einsum("mu,muk->mk", counts[live], new_phi)
        delta = np.max(np.abs(new_gamma - gamma[live]) / gamma[live], axis=1)
        phi[live] = new_phi
        gamma[live] = new_gamma
        live = live[delta >= gamma_tol]
        if live.size == 0:
            break
    return gamma, phi


def _elbo(lb, counts, alpha, gamma, phi):
    """Evidence lower bound of each of M documents, from the E-step's arrays."""
    dig = psi(gamma) - psi(gamma.sum(axis=1, keepdims=True))   # E_q[log theta_k]
    bound = gammaln(alpha.sum()) - gammaln(alpha).sum() + dig @ (alpha - 1)
    bound -= gammaln(gamma.sum(axis=1)) - gammaln(gamma).sum(axis=1)
    bound -= ((gamma - 1) * dig).sum(axis=1)
    # E_q[log p(z | theta) + log p(w | z, beta) - log q(z)], per symbol slot
    with np.errstate(divide="ignore", invalid="ignore"):
        per_slot = np.where(phi > 0, phi * (dig[:, None, :] + lb - np.log(phi)), 0.0)
    return bound + (counts * per_slot.sum(axis=2)).sum(axis=1)


def _posterior(model: LdaModel, docs: Sequence[BagOfSounds], config: LdaConfig):
    """The E-step over non-empty documents under a trained model.

    Returns the padded (word_ids, counts) with gamma (M, K) and phi (M, U, K).
    """
    word_ids, counts = _pad_supports(docs, model.vocab_size)
    lb = model.log_beta.T[word_ids]                      # (M, U, K)
    dead = np.isinf(lb).all(axis=2).any(axis=1)
    if dead.any():
        raise FloatingPointError(f"document {docs[dead.argmax()].id!r}: "
                                 "observed symbol has zero mass in every topic")
    gamma, phi = _e_step(lb, counts, model.alpha, config.gamma_tol, config.max_e_iters)
    bad = ~np.isfinite(gamma).all(axis=1)
    if bad.any():
        raise FloatingPointError(f"document {docs[bad.argmax()].id!r}: non-finite gamma")
    return word_ids, counts, gamma, phi


def e_step_document(
    model: LdaModel,
    doc: BagOfSounds,
    config: Optional[LdaConfig] = None,
) -> VariationalState:
    """Variational inference for one document (the E-step on a batch of one)."""
    word_ids, counts, gamma, phi = _posterior(model, [doc], config or LdaConfig())
    return VariationalState(gamma=gamma[0], phi=phi[0], word_ids=word_ids[0],
                            counts=counts[0])


def elbo(model: LdaModel, doc: BagOfSounds, state: VariationalState) -> float:
    """Evidence lower bound for one document under the given variational state."""
    if state.gamma.shape != (model.num_domains,):
        raise ValueError("gamma length does not match the model")
    if state.phi.shape != (state.word_ids.shape[0], model.num_domains):
        raise ValueError("phi shape does not match the state's word ids")
    ids = np.flatnonzero(doc.counts)
    if not (np.array_equal(ids, state.word_ids)
            and np.array_equal(doc.counts[ids], state.counts)):
        raise ValueError(f"document {doc.id!r} does not match the state's "
                         "symbols and counts")
    lb = model.log_beta.T[state.word_ids]
    return float(_elbo(lb[None], state.counts[None], model.alpha,
                       state.gamma[None], state.phi[None])[0])


def _init_log_beta(corpus, k, v, smoothing, rng):
    """Empirical symbol distribution times seeded multiplicative noise."""
    totals = np.zeros(v)
    for doc in corpus:
        totals += doc.counts
    emp = totals + max(smoothing, 1e-3)
    emp /= emp.sum()
    beta = emp[None, :] * rng.uniform(0.5, 1.5, size=(k, v))
    beta /= beta.sum(axis=1, keepdims=True)
    return np.log(beta)


def fit(
    corpus: Sequence[BagOfSounds],
    num_domains: int,
    config: Optional[LdaConfig] = None,
) -> LdaModel:
    """Variational EM over a corpus of bags-of-sounds.

    Alternates the batched E-step with the topic-row M-step until the
    relative change of the corpus ELBO falls below ``config.em_tol``.
    Deterministic for a fixed ``config.seed``.
    """
    config = config or LdaConfig()
    if not corpus:
        raise ValueError("corpus is empty")
    if num_domains < 1:
        raise ValueError("num_domains must be >= 1")
    v = corpus[0].vocab_size
    word_ids, counts = _pad_supports(corpus, v)

    rng = np.random.default_rng(config.seed)
    alpha_scale = config.alpha if config.alpha is not None else 1.0 / num_domains
    if alpha_scale <= 0:
        raise ValueError("alpha must be positive")
    alpha = np.full(num_domains, alpha_scale)
    log_beta = _init_log_beta(corpus, num_domains, v, config.smoothing, rng)

    history: list[float] = []
    prev = None
    for _ in range(config.max_em_iters):
        lb = log_beta.T[word_ids]
        gamma, phi = _e_step(lb, counts, alpha, config.gamma_tol, config.max_e_iters)
        corpus_elbo = float(_elbo(lb, counts, alpha, gamma, phi).sum())
        if not np.isfinite(corpus_elbo):
            raise FloatingPointError("variational EM produced a non-finite ELBO")
        history.append(corpus_elbo)
        stats = np.zeros((num_domains, v))
        weighted = phi * counts[:, :, None]          # (M, U, K)
        np.add.at(stats.T, word_ids.ravel(),
                  weighted.reshape(-1, num_domains))

        stats += config.smoothing
        with np.errstate(divide="ignore"):
            log_beta = np.log(stats) - np.log(stats.sum(axis=1, keepdims=True))

        if prev is not None and abs(corpus_elbo - prev) <= config.em_tol * abs(prev):
            break
        prev = corpus_elbo

    return LdaModel(alpha=alpha, log_beta=log_beta, elbo_history=history)


def infer_thetas(
    model: LdaModel,
    docs: Sequence[BagOfSounds],
    config: Optional[LdaConfig] = None,
) -> np.ndarray:
    """Normalized domain posterior of each document, (M, K): gamma over its
    sum, or gamma minus alpha over its sum with ``config.subtract_prior``.

    An empty document yields the uniform vector with a warning; training-time
    empty documents are rejected by :func:`fit` instead.
    """
    config = config or LdaConfig()
    k = model.num_domains
    theta = np.full((len(docs), k), 1.0 / k)
    live = []
    for i, doc in enumerate(docs):
        if doc.total < 1:
            warnings.warn(f"document {doc.id!r} is empty; returning uniform theta")
        else:
            live.append(i)
    if live:
        _, _, gamma, _ = _posterior(model, [docs[i] for i in live], config)
        if config.subtract_prior:
            gamma = gamma - model.alpha
        theta[live] = gamma / gamma.sum(axis=1, keepdims=True)
    return theta


def infer_theta(
    model: LdaModel,
    doc: BagOfSounds,
    config: Optional[LdaConfig] = None,
) -> np.ndarray:
    """:func:`infer_thetas` for a single document."""
    return infer_thetas(model, [doc], config)[0]


def save_lda(path, model: LdaModel, seed: Optional[int] = None) -> None:
    obj = {
        "K": model.num_domains,
        "V": model.vocab_size,
        "alpha": model.alpha.tolist(),
        "log_beta": model.log_beta.tolist(),
    }
    if seed is not None:
        obj["seed"] = seed
    with open(path, "w") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def load_lda(path) -> LdaModel:
    with open(path) as fh:
        obj = json.load(fh)
    model = LdaModel(
        alpha=np.asarray(obj["alpha"], dtype=float),
        log_beta=np.asarray(obj["log_beta"], dtype=float),
    )
    if model.num_domains != obj["K"] or model.vocab_size != obj["V"]:
        raise ValueError(f"{path}: inconsistent model dimensions")
    return model
