"""Latent Dirichlet Allocation over bags-of-sounds, trained by variational EM.

Inference runs the standard coordinate-ascent updates on the variational
parameters (gamma, phi) of every document at once:

    phi_{wk}  proportional to  beta_{kw} * exp(digamma(gamma_k))
    gamma_k   =  alpha_k + sum_w count_w * phi_{wk}

phi is never formed (the batch form of Hoffman, Blei & Bach 2010, "Online
learning for LDA"). Let C be the (M, V) counts of a ``corpus.Bags`` record, eb
the matrix exp(log_beta) with each symbol's column scaled so that its
largest entry is 1, and el the matrix exp(digamma(gamma)) with each
document's row scaled likewise. phi is unchanged by either scaling, so one
sweep is two matrix products:

    norm   =  el @ eb                                  (M, V)
    gamma  =  alpha + el * ((C / norm) @ eb.T)

Each document stops updating as soon as its own relative gamma change falls
below the tolerance. Working memory is O(M * V + M * K), the size of the
counts. A document whose norm falls below ``_NORM_FLOOR`` at a symbol it
contains (the mixture underflows) is re-run alone with the log-domain sweep,
through its phi.

The evidence lower bound needs no phi either: it is the Dirichlet terms plus
sum_k (gamma_k - alpha_k)(E_q[log theta_k] - digamma(gamma_prev)_k) plus
sum_w C_w log(norm_w), with the two scalings added back, where gamma_prev
and norm are those of the document's last sweep. The M-step re-estimates
the topic rows from the expected counts eb * (el.T @ (C / norm)) plus the
pseudo-count ``_SMOOTHING`` in every cell. ``fit`` and ``infer_thetas`` run
this one E-step, to the tolerance ``_GAMMA_TOL`` or ``_MAX_E_ITERS``
sweeps. An empty document has nothing to update: ``fit`` rejects it, and
``infer_thetas`` gives it the uniform theta 1/K with no warning. ``log_beta``
stores K rows of length V (log-probability of each symbol given the latent
domain).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammaln, logsumexp, psi

from . import formats
from .corpus import Bags

__all__ = ["LdaConfig", "LdaModel", "fit", "infer_thetas", "save_lda", "load_lda"]


# Below this a scaled norm loses precision and C / norm may overflow; a
# document with such a norm at a symbol it contains goes to the log domain.
_NORM_FLOOR = 1e-250

# The E-step stops a document once its max relative gamma change falls below
# _GAMMA_TOL, or after _MAX_E_ITERS sweeps.
_GAMMA_TOL = 1e-5
_MAX_E_ITERS = 100

# The M-step's pseudo-count per (k, w) cell, also added to the empirical
# symbol counts the topic rows start from.
_SMOOTHING = 1e-3


@dataclass
class LdaConfig:
    em_tol: float = 1e-4         # relative corpus-ELBO change to stop EM
    max_em_iters: int = 50
    alpha: Optional[float] = None  # symmetric Dirichlet scale; None means 1/K
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.em_tol < np.inf:
            raise ValueError("em_tol must be finite and >= 0")
        if self.max_em_iters < 1:
            raise ValueError("max_em_iters must be >= 1")


@dataclass(frozen=True)
class LdaModel:
    """Topic-symbol matrix in the log domain plus the Dirichlet scale. It
    holds read-only copies of the arrays it is given."""

    alpha: np.ndarray      # (K,) positive
    log_beta: np.ndarray   # (K, V), each row normalized in probability space
    elbo_history: Optional[list] = None   # per-EM-iteration corpus ELBO; not serialized

    def __post_init__(self):
        alpha = np.atleast_1d(np.array(self.alpha, dtype=float))
        log_beta = np.array(self.log_beta, dtype=float)
        if log_beta.ndim != 2 or 0 in log_beta.shape:
            raise ValueError(f"log_beta must have shape (K, V) with K, V >= 1, "
                             f"got {log_beta.shape}")
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


def _scaled_beta(log_beta):
    """exp(log_beta) with each symbol's column divided by its largest entry,
    and the log of that divisor (0 for a symbol with no mass in any topic)."""
    top = log_beta.max(axis=0)
    top = np.where(np.isfinite(top), top, 0.0)
    return np.exp(log_beta - top), top


def _scaled_norm(dig, eb, c):
    """One sweep's el = exp(dig - row max) and norm = el @ eb, and which
    documents have a norm below ``_NORM_FLOOR`` at a symbol they contain.

    Entries below the floor where the count is 0 take no part in the updates
    and are set to 1, so that c / norm and log(norm) stay finite.
    """
    el = np.exp(dig - dig.max(axis=1, keepdims=True))
    norm = el @ eb
    under = np.zeros(c.shape[0], dtype=bool)
    if norm.min() < _NORM_FLOOR:
        small = norm < _NORM_FLOOR
        under = (small & (c > 0)).any(axis=1)
        norm[small] = 1.0
    return el, norm, under


def _log_domain_e_step(lb, counts, alpha):
    """The same updates for one document in the log domain, through phi.

    ``lb`` is (U, K): the model's log-probabilities at the document's
    distinct symbols; ``counts`` is (U,). Exact where the scaled norm
    underflows. Returns gamma (K,) and the phi (U, K) of the last sweep.
    """
    gamma = alpha + counts.sum() / lb.shape[1]
    for _ in range(_MAX_E_ITERS):
        log_phi = lb + psi(gamma)
        log_phi -= log_phi.max(axis=1, keepdims=True)
        phi = np.exp(log_phi)
        phi /= phi.sum(axis=1, keepdims=True)
        new_gamma = alpha + counts @ phi
        delta = np.max(np.abs(new_gamma - gamma) / gamma)
        gamma = new_gamma
        if delta < _GAMMA_TOL:
            break
    return gamma, phi


def _e_step(log_beta, eb, alpha, c):
    """Iterate the phi-free updates for the M documents of ``c`` (M, V) at once.

    ``eb`` is the scaled beta of :func:`_scaled_beta`. A document is frozen
    once its max relative gamma change falls below ``_GAMMA_TOL``. A document
    whose norm falls below ``_NORM_FLOOR`` at a symbol it contains is re-run
    from the start by :func:`_log_domain_e_step`. Returns gamma (M, K); for
    each document, digamma(gamma) at the start of its last sweep (M, K); and
    the phi of each re-run document, by row.
    """
    gamma = alpha + c.sum(axis=1, keepdims=True) / eb.shape[0]
    dig = np.empty_like(gamma)
    under = np.zeros(c.shape[0], dtype=bool)
    live, c_live = np.arange(c.shape[0]), c
    for _ in range(_MAX_E_ITERS):
        old = gamma[live]
        d = psi(old)
        el, norm, low = _scaled_norm(d, eb, c_live)
        new_gamma = alpha + el * ((c_live / norm) @ eb.T)
        gamma[live] = new_gamma
        dig[live] = d
        under[live[low]] = True
        keep = (np.max(np.abs(new_gamma - old) / old, axis=1) >= _GAMMA_TOL) & ~low
        live, c_live = live[keep], c_live[keep]
        if live.size == 0:
            break
    fallback = {}
    for i in np.flatnonzero(under):
        ids = np.flatnonzero(c[i])
        gamma[i], fallback[i] = _log_domain_e_step(log_beta.T[ids], c[i, ids], alpha)
    return gamma, dig, fallback


def _elog_theta(gamma):
    """E_q[log theta_k] of each row of gamma."""
    return psi(gamma) - psi(gamma.sum(axis=1, keepdims=True))


def _dirichlet_terms(alpha, gamma, dig):
    """E_q[log p(theta | alpha)] - E_q[log q(theta | gamma)] of each row of
    gamma, where dig = E_q[log theta]."""
    return (gammaln(alpha.sum()) - gammaln(alpha).sum() + dig @ (alpha - 1)
            - gammaln(gamma.sum(axis=1)) + gammaln(gamma).sum(axis=1)
            - ((gamma - 1) * dig).sum(axis=1))


def _phi_bound(alpha, lb, counts, gamma, phi):
    """Evidence lower bound of one document from its phi (U, K), with ``lb``
    (U, K) the model's log-probabilities at its distinct symbols."""
    dig = _elog_theta(gamma[None])
    # E_q[log p(z | theta) + log p(w | z, beta) - log q(z)], per symbol
    with np.errstate(divide="ignore", invalid="ignore"):
        per_symbol = np.where(phi > 0, phi * (dig + lb - np.log(phi)), 0.0)
    return float(_dirichlet_terms(alpha, gamma[None], dig)[0]
                 + counts @ per_symbol.sum(axis=1))


def _bound(alpha, top, c, gamma, dig_prev, norm):
    """Evidence lower bound of each document from its last sweep, without phi.

    With phi_wk = exp(log_beta_kw + dig_prev_k) / Z_w, the phi terms reduce
    to sum_k (gamma_k - alpha_k)(E_q[log theta_k] - dig_prev_k) plus
    sum_w c_w log Z_w, and log Z_w is log norm_w plus the row shift of
    dig_prev and the column shift ``top`` of :func:`_scaled_beta`.
    """
    dig = _elog_theta(gamma)
    return (_dirichlet_terms(alpha, gamma, dig)
            + ((gamma - alpha) * (dig - dig_prev)).sum(axis=1)
            + (c * np.log(norm)).sum(axis=1)
            + c.sum(axis=1) * dig_prev.max(axis=1) + c @ top)


def _em_terms(log_beta, alpha, c):
    """The E-step of variational EM on the counts ``c`` (M, V): each
    document's evidence lower bound (M,) and the expected counts (K, V)
    the M-step normalises, eb * (el.T @ (c / norm)) from the last sweeps."""
    eb, top = _scaled_beta(log_beta)
    gamma, dig, fallback = _e_step(log_beta, eb, alpha, c)
    el, norm, _ = _scaled_norm(dig, eb, c)
    bounds = _bound(alpha, top, c, gamma, dig, norm)
    el[list(fallback)] = 0.0      # a re-run document's counts go through its phi
    stats = eb * (el.T @ (c / norm))
    for i, phi in fallback.items():
        ids = np.flatnonzero(c[i])
        bounds[i] = _phi_bound(alpha, log_beta.T[ids], c[i, ids], gamma[i], phi)
        stats[:, ids] += (c[i, ids, None] * phi).T
    return bounds, stats


def _init_log_beta(c, k, rng):
    """Empirical symbol distribution of the counts ``c`` (M, V) times seeded
    multiplicative noise."""
    emp = c.sum(axis=0) + _SMOOTHING
    emp /= emp.sum()
    beta = emp[None, :] * rng.uniform(0.5, 1.5, size=(k, c.shape[1]))
    beta /= beta.sum(axis=1, keepdims=True)
    return np.log(beta)


def fit(
    corpus: Bags,
    num_domains: int,
    config: Optional[LdaConfig] = None,
) -> LdaModel:
    """Variational EM over a corpus of bags-of-sounds.

    Alternates the batched E-step with the topic-row M-step for at most
    ``config.max_em_iters`` iterations, stopping once the relative change of
    the corpus ELBO falls below ``config.em_tol``. Deterministic for a fixed
    ``config.seed``.
    """
    config = config or LdaConfig()
    if not len(corpus):
        raise ValueError("corpus is empty")
    if num_domains < 1:
        raise ValueError("num_domains must be >= 1")
    empty = ~corpus.counts.any(axis=1)
    if empty.any():
        raise ValueError(f"document {corpus.ids[empty.argmax()]!r} is empty")
    c = corpus.counts.astype(float)

    rng = np.random.default_rng(config.seed)
    alpha_scale = config.alpha if config.alpha is not None else 1.0 / num_domains
    if alpha_scale <= 0:
        raise ValueError("alpha must be positive")
    alpha = np.full(num_domains, alpha_scale)
    log_beta = _init_log_beta(c, num_domains, rng)

    history: list[float] = []
    prev = None
    for _ in range(config.max_em_iters):
        bounds, stats = _em_terms(log_beta, alpha, c)
        corpus_elbo = float(bounds.sum())
        if not np.isfinite(corpus_elbo):
            raise FloatingPointError("variational EM produced a non-finite ELBO")
        history.append(corpus_elbo)

        stats += _SMOOTHING
        log_beta = np.log(stats) - np.log(stats.sum(axis=1, keepdims=True))

        if prev is not None and abs(corpus_elbo - prev) <= config.em_tol * abs(prev):
            break
        prev = corpus_elbo

    return LdaModel(alpha=alpha, log_beta=log_beta, elbo_history=history)


def infer_thetas(model: LdaModel, docs: Bags) -> np.ndarray:
    """Normalized domain posterior of each document, (M, K): gamma over its
    sum, from the E-step.

    Bags of another vocabulary size than the model's are rejected, whether
    or not a document is empty, and so is a document holding a symbol that
    no topic emits. An empty document has nothing to update: it takes the
    uniform vector 1/K, without a warning (the CLI counts such documents on
    stderr); training-time empty documents are rejected by :func:`fit`.
    """
    if docs.vocab_size != model.vocab_size:
        raise ValueError(f"bags have V={docs.vocab_size}, expected V={model.vocab_size}")
    dead = (docs.counts[:, np.isneginf(model.log_beta).all(axis=0)] > 0).any(axis=1)
    if dead.any():
        raise FloatingPointError(f"document {docs.ids[dead.argmax()]!r}: "
                                 "observed symbol has zero mass in every topic")
    gamma = np.ones((len(docs), model.num_domains))   # an empty row stays uniform
    live = docs.counts.any(axis=1)
    if live.any():
        eb, _ = _scaled_beta(model.log_beta)
        gamma[live], _, _ = _e_step(model.log_beta, eb, model.alpha,
                                    docs.counts[live].astype(float))
    bad = ~np.isfinite(gamma).all(axis=1)
    if bad.any():
        raise FloatingPointError(f"document {docs.ids[bad.argmax()]!r}: non-finite gamma")
    return gamma / gamma.sum(axis=1, keepdims=True)


def save_lda(path, model: LdaModel, seed: Optional[int] = None) -> None:
    obj = {
        "K": model.num_domains,
        "V": model.vocab_size,
        "alpha": model.alpha.tolist(),
        "log_beta": model.log_beta.tolist(),
    }
    if seed is not None:
        obj["seed"] = seed
    formats.write_json(path, obj)


def load_lda(path) -> LdaModel:
    """Read a model written by :func:`save_lda`; a malformed file raises
    ValueError naming the path. ``-inf`` in ``log_beta`` (a symbol a topic
    never emits) is legal, although ``fit``, whose M-step adds a positive
    pseudo-count to every cell, never writes it."""
    def build(obj):
        for key in ("K", "V"):
            if type(obj[key]) is not int or obj[key] < 1:
                raise ValueError(f"{key} must be a positive integer, got {obj[key]!r}")
        k, v = obj["K"], obj["V"]
        return LdaModel(alpha=formats.numbers(obj["alpha"], "alpha", (k,)),
                        log_beta=formats.numbers(obj["log_beta"], "log_beta", (k, v),
                                                 finite="or -inf"))
    return formats.read_json(path, ("K", "V", "alpha", "log_beta"), build)
