"""Synthetic corpora for the tests: symbol documents sampled from the LDA
generative process with numpy's PCG64 generator, so a fixed seed gives the
same symbol sequences on any platform."""

import numpy as np

from acoustic_lda.corpus import Frames, SymbolDocument


def generate_synthetic_lda_corpus(alpha, beta, num_docs, doc_len, seed,
                                  return_thetas=False):
    """Sample symbol documents from the LDA generative process.

    For each document a K-vector theta is drawn from Dir(alpha), then each of
    the ``doc_len`` symbols draws a latent component from Mult(theta) and a
    symbol from the corresponding row of ``beta``. Deterministic for a fixed
    seed (PCG64).

    With ``return_thetas=True`` also returns the M x K matrix of generating
    mixture weights, for recovery experiments.
    """
    beta = np.asarray(beta, dtype=float)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if num_docs < 1 or doc_len < 1:
        raise ValueError("num_docs and doc_len must be >= 1")
    if beta.ndim != 2:
        raise ValueError("beta must be a K x V matrix")
    row_sums = beta.sum(axis=1)
    if not np.all(np.abs(row_sums - 1.0) < 1e-9):
        raise ValueError("every beta row must sum to 1")
    K, V = beta.shape
    rng = np.random.default_rng(seed)
    width = max(4, len(str(num_docs - 1)))
    docs = []
    thetas = np.empty((num_docs, K))
    for m in range(num_docs):
        theta = rng.dirichlet(np.full(K, alpha))
        z = rng.choice(K, size=doc_len, p=theta)
        symbols = np.empty(doc_len, dtype=np.int64)
        for k in np.unique(z):
            mask = z == k
            symbols[mask] = rng.choice(V, size=int(mask.sum()), p=beta[k])
        thetas[m] = theta
        docs.append(SymbolDocument(id=f"doc{m:0{width}d}", symbols=symbols))
    if return_thetas:
        return docs, thetas
    return docs


def feature_record(*frames, ids=None, groups=None):
    """A ``corpus.Frames`` record of documents with these (T, D) frames,
    named d0, d1, ... unless ``ids`` are given."""
    ids = [f"d{i}" for i in range(len(frames))] if ids is None else ids
    return Frames(ids=ids, groups=[None] * len(frames) if groups is None else groups,
                  offsets=np.cumsum([0, *map(len, frames)]),
                  frames=np.concatenate(frames) if frames else np.empty((0, 0)))
