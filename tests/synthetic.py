"""Synthetic corpora for the tests: a symbols record sampled from the LDA
generative process with numpy's PCG64 generator, so a fixed seed gives the
same symbol sequences on any platform; small records built directly; and
the network input rows of a labelled record."""

import numpy as np

from acoustic_lda.corpus import Bags, Frames, Symbols
from acoustic_lda.domains import Assignments
from acoustic_lda.network import _frame_columns, _input_rows


def generate_synthetic_lda_corpus(alpha, beta, num_docs, doc_len, seed,
                                  return_thetas=False):
    """Sample a ``corpus.Symbols`` record from the LDA generative process.

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
    symbols = np.empty((num_docs, doc_len), dtype=np.int64)
    thetas = np.empty((num_docs, K))
    for m in range(num_docs):
        theta = rng.dirichlet(np.full(K, alpha))
        z = rng.choice(K, size=doc_len, p=theta)
        for k in np.unique(z):
            mask = z == k
            symbols[m, mask] = rng.choice(V, size=int(mask.sum()), p=beta[k])
        thetas[m] = theta
    docs = Symbols(ids=[f"doc{m:0{width}d}" for m in range(num_docs)],
                   groups=[None] * num_docs, offsets=np.arange(num_docs + 1) * doc_len,
                   symbols=symbols.ravel())
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


def labelled_frames(frames, labels):
    """A labelled ``corpus.Frames`` record of the (N, D) ``frames`` with one
    document per frame, named f0, f1, ...: a domain per document is then a
    domain per frame."""
    frames = np.asarray(frames, dtype=float)
    return Frames(ids=[f"f{i}" for i in range(len(frames))], groups=[None] * len(frames),
                  offsets=np.arange(len(frames) + 1), frames=frames, labels=labels)


def symbols_record(*docs, ids=None, groups=None):
    """A ``corpus.Symbols`` record of documents with these symbol lists,
    named d0, d1, ... unless ``ids`` are given."""
    ids = [f"d{i}" for i in range(len(docs))] if ids is None else ids
    return Symbols(ids=ids, groups=[None] * len(docs) if groups is None else groups,
                   offsets=np.cumsum([0, *map(len, docs)]),
                   symbols=[symbol for doc in docs for symbol in doc])


def bag_record(*counts, ids=None, groups=None):
    """A ``corpus.Bags`` record of documents with these count vectors, named
    d0, d1, ... unless ``ids`` are given."""
    ids = [f"d{i}" for i in range(len(counts))] if ids is None else ids
    return Bags(ids=ids, groups=[None] * len(counts) if groups is None else groups,
                counts=np.array(counts if counts else np.empty((0, 0)), dtype=np.int64))


def assignments_record(*thetas, weights=None, ids=None, k=2):
    """A ``domains.Assignments`` record of documents with these posteriors,
    of weight 1 unless ``weights`` are given, named d0, d1, ... unless
    ``ids`` are given; with no posteriors, an empty record of K = ``k``."""
    ids = [f"d{i}" for i in range(len(thetas))] if ids is None else ids
    return Assignments(ids=ids, thetas=np.array(thetas, dtype=float) if thetas
                       else np.empty((0, k)),
                       weights=np.ones(len(thetas)) if weights is None else weights)


def input_matrix(net, record, domains=None):
    """Every input row [frames | one-hot domain] of the labelled frames
    ``record`` for ``net``, each document with its entry of ``domains``,
    checked and built by ``network._frame_columns`` and ``_input_rows``."""
    columns = _frame_columns(net, record, domains)
    return _input_rows(net, record, columns, np.arange(len(record)))
