"""Corpus types and I/O: feature documents, symbol sequences, bags of sounds.

File formats:
  features  jsonl: one object per line {"id", "group", "frames": [[...], ...]}
  features  csv:   header ``id,group,frame_index,f0..fD-1``, one row per frame
  symbols   jsonl: {"id", "group", "symbols": [...]}
  bags      jsonl: {"id", "group", "counts": [...]}

All document types are immutable after construction. The synthetic corpus
generator uses numpy's PCG64 generator, so a fixed seed reproduces the exact
symbol sequences on any platform running this package.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "CorpusError",
    "FeatureDocument",
    "SymbolDocument",
    "BagOfSounds",
    "load_features",
    "save_features",
    "load_symbols",
    "save_symbols",
    "load_bags",
    "save_bags",
    "to_bag",
    "generate_synthetic_lda_corpus",
]


class CorpusError(ValueError):
    """Raised for malformed corpus files or invalid document contents."""


@dataclass(frozen=True)
class FeatureDocument:
    """One acoustic document: a T x D sequence of real-valued frame vectors."""

    id: str
    frames: np.ndarray
    group: Optional[str] = None

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=float)
        if frames.ndim != 2:
            raise CorpusError(f"document {self.id!r}: frames must be 2-d (T x D)")
        frames.setflags(write=False)
        object.__setattr__(self, "frames", frames)

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


@dataclass(frozen=True)
class SymbolDocument:
    """Quantized document: the per-frame maximum-posterior component indices."""

    id: str
    symbols: np.ndarray
    group: Optional[str] = None

    def __post_init__(self):
        symbols = np.asarray(self.symbols, dtype=np.int64)
        if symbols.ndim != 1:
            raise CorpusError(f"document {self.id!r}: symbols must be 1-d")
        if symbols.size and symbols.min() < 0:
            raise CorpusError(f"document {self.id!r}: negative symbol")
        symbols.setflags(write=False)
        object.__setattr__(self, "symbols", symbols)

    def __len__(self) -> int:
        return self.symbols.shape[0]


@dataclass(frozen=True)
class BagOfSounds:
    """Count vector over the V quantizer symbols for one document."""

    id: str
    counts: np.ndarray
    group: Optional[str] = None

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1:
            raise CorpusError(f"document {self.id!r}: counts must be 1-d")
        if counts.size and counts.min() < 0:
            raise CorpusError(f"document {self.id!r}: negative count")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def vocab_size(self) -> int:
        return self.counts.shape[0]


def to_bag(doc: SymbolDocument, vocab_size: int) -> BagOfSounds:
    """Count symbol occurrences; the bag-of-sounds representation."""
    if doc.symbols.size and doc.symbols.max() >= vocab_size:
        bad = int(doc.symbols.max())
        raise CorpusError(
            f"document {doc.id!r}: symbol {bad} out of range for V={vocab_size}"
        )
    counts = np.bincount(doc.symbols, minlength=vocab_size)
    return BagOfSounds(id=doc.id, counts=counts, group=doc.group)


def _check_unique_ids(docs: Sequence) -> None:
    seen = set()
    for doc in docs:
        if doc.id in seen:
            raise CorpusError(f"duplicate document id {doc.id!r}")
        seen.add(doc.id)


def _check_frames(doc_id: str, frames: np.ndarray, expected_dim: Optional[int]) -> int:
    if expected_dim is not None and frames.shape[1] != expected_dim:
        raise CorpusError(
            f"document {doc_id!r}: frame dimension {frames.shape[1]} "
            f"!= expected {expected_dim}"
        )
    finite = np.isfinite(frames)
    if not finite.all():
        t, d = np.argwhere(~finite)[0]
        raise CorpusError(
            f"document {doc_id!r}: non-finite value at frame {t}, dim {d}"
        )
    return frames.shape[1]


def load_features(path, format: str = "jsonl") -> list[FeatureDocument]:
    """Load feature documents from a jsonl or csv file.

    All documents must share the frame dimension, ids must be unique and all
    values finite. An empty file yields an empty list.
    """
    if format == "jsonl":
        docs = _load_features_jsonl(path)
    elif format == "csv":
        docs = _load_features_csv(path)
    else:
        raise ValueError(f"unknown feature format {format!r}")
    _check_unique_ids(docs)
    dim = None
    for doc in docs:
        dim = _check_frames(doc.id, doc.frames, dim)
    return docs


def json_ints(value, name: str) -> np.ndarray:
    """A json list of integers as an int64 array. Floats, booleans, nesting
    and integers beyond int64 raise ValueError naming the field ``name``,
    instead of being truncated or cast."""
    if not isinstance(value, list) or not set(map(type, value)) <= {int}:
        raise ValueError(f"{name!r} must be a list of integers")
    try:
        return np.asarray(value, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{name!r} must be a list of integers") from None


def _jsonl_objects(path):
    """(line number, object) for each jsonl line other than blank and
    ``_meta`` lines; bad json or a line that is not a json object raises
    CorpusError naming ``path:line``."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: bad json: {exc}") from exc
            if not isinstance(obj, dict):
                raise CorpusError(f"{path}:{lineno}: expected a json object, "
                                  f"got {type(obj).__name__}")
            if "_meta" not in obj:
                yield lineno, obj


def _load_features_jsonl(path) -> list[FeatureDocument]:
    docs = []
    for lineno, obj in _jsonl_objects(path):
        try:
            frames = np.asarray(obj["frames"], dtype=float)
            doc_id = str(obj["id"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CorpusError(f"{path}:{lineno}: malformed record: {exc}") from exc
        if frames.ndim != 2:
            raise CorpusError(
                f"{path}:{lineno}: document {doc_id!r} has ragged or empty frames"
            )
        docs.append(FeatureDocument(id=doc_id, frames=frames, group=obj.get("group")))
    return docs


def _load_features_csv(path) -> list[FeatureDocument]:
    rows_by_doc: dict[str, list] = {}
    group_by_doc: dict[str, Optional[str]] = {}
    order: list[str] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return []
        if header[:3] != ["id", "group", "frame_index"]:
            raise CorpusError(f"{path}: unexpected csv header {header[:3]}")
        for lineno, row in enumerate(reader, 2):
            if not row:
                continue
            if len(row) != len(header):
                raise CorpusError(f"{path}:{lineno}: expected {len(header)} fields")
            doc_id, group = row[0], row[1] or None
            try:
                idx = int(row[2])
                values = [float(v) for v in row[3:]]
            except ValueError as exc:
                raise CorpusError(f"{path}:{lineno}: bad value: {exc}") from exc
            if doc_id not in rows_by_doc:
                rows_by_doc[doc_id] = []
                group_by_doc[doc_id] = group
                order.append(doc_id)
            rows_by_doc[doc_id].append((idx, values))
    docs = []
    for doc_id in order:
        rows = sorted(rows_by_doc[doc_id])
        frames = np.asarray([v for _, v in rows], dtype=float)
        docs.append(
            FeatureDocument(id=doc_id, frames=frames, group=group_by_doc[doc_id])
        )
    return docs


def save_features(path, docs: Iterable[FeatureDocument], format: str = "jsonl") -> None:
    docs = list(docs)
    if format == "jsonl":
        with open(path, "w") as fh:
            for doc in docs:
                fh.write(
                    json.dumps(
                        {"id": doc.id, "group": doc.group,
                         "frames": doc.frames.tolist()}
                    )
                    + "\n"
                )
    elif format == "csv":
        dim = docs[0].dim if docs else 0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "group", "frame_index"] + [f"f{i}" for i in range(dim)])
            for doc in docs:
                for t, frame in enumerate(doc.frames):
                    writer.writerow(
                        [doc.id, doc.group or "", t] + [repr(float(v)) for v in frame]
                    )
    else:
        raise ValueError(f"unknown feature format {format!r}")


def load_symbols(path) -> list[SymbolDocument]:
    docs = []
    for lineno, obj in _jsonl_objects(path):
        try:
            docs.append(
                SymbolDocument(
                    id=str(obj["id"]),
                    symbols=json_ints(obj["symbols"], "symbols"),
                    group=obj.get("group"),
                )
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CorpusError(f"{path}:{lineno}: malformed record: {exc}") from exc
    _check_unique_ids(docs)
    return docs


def save_symbols(path, docs: Iterable[SymbolDocument]) -> None:
    with open(path, "w") as fh:
        for doc in docs:
            fh.write(
                json.dumps(
                    {"id": doc.id, "group": doc.group, "symbols": doc.symbols.tolist()}
                )
                + "\n"
            )


def load_bags(path) -> list[BagOfSounds]:
    docs = []
    for lineno, obj in _jsonl_objects(path):
        try:
            docs.append(
                BagOfSounds(
                    id=str(obj["id"]),
                    counts=json_ints(obj["counts"], "counts"),
                    group=obj.get("group"),
                )
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CorpusError(f"{path}:{lineno}: malformed record: {exc}") from exc
    _check_unique_ids(docs)
    return docs


def save_bags(path, docs: Iterable[BagOfSounds]) -> None:
    with open(path, "w") as fh:
        for doc in docs:
            fh.write(
                json.dumps(
                    {"id": doc.id, "group": doc.group, "counts": doc.counts.tolist()}
                )
                + "\n"
            )


def generate_synthetic_lda_corpus(
    alpha: float,
    beta: np.ndarray,
    num_docs: int,
    doc_len: int,
    seed: int,
    return_thetas: bool = False,
):
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
