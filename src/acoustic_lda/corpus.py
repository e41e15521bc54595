"""Corpus documents: feature frames, symbol sequences and bags of sounds.

Each document type is immutable: it keeps a read-only copy of the array it
is given and checks it when built. The files that hold them follow the
shared jsonl rules of :mod:`.formats`; this module adds their fields:

  features  jsonl: {"id", "group", "frames"}, frames T x D numbers
  symbols   jsonl: {"id", "group", "symbols"}, a list of json integers
  bags      jsonl: {"id", "group", "counts"}, a list of json integers

Ids are unique within a file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from . import formats

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
]


# malformed corpus files and invalid document contents raise the one fault
# class of the file formats, under its corpus name
CorpusError = formats.FormatError


@dataclass(frozen=True)
class FeatureDocument:
    """One acoustic document: a T x D sequence of real-valued frame vectors."""

    id: str
    frames: np.ndarray
    group: Optional[str] = None

    def __post_init__(self):
        frames = np.array(self.frames, dtype=float)
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
        symbols = np.array(self.symbols, dtype=np.int64)
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
        counts = np.array(self.counts, dtype=np.int64)
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


def load_features(path) -> list[FeatureDocument]:
    """Load feature documents from a jsonl file.

    All documents must share the frame dimension, ids must be unique and all
    values finite. An empty file yields an empty list.
    """
    docs = formats.read_jsonl(path, lambda obj: FeatureDocument(
        id=obj["id"], group=obj.get("group"),
        frames=formats.numbers(obj.get("frames"), "'frames'", (None, None),
                               finite=False)))
    _check_unique_ids(docs)
    dim = None
    for doc in docs:
        dim = _check_frames(doc.id, doc.frames, dim)
    return docs


def save_features(path, docs: Iterable[FeatureDocument]) -> None:
    formats.write_jsonl(path, ({"id": doc.id, "group": doc.group,
                                "frames": doc.frames.tolist()} for doc in docs))


def _load_docs(path, cls, field):
    """Symbol or bag documents: ``field`` is a list of json integers."""
    docs = formats.read_jsonl(path, lambda obj: cls(
        id=obj["id"], group=obj.get("group"),
        **{field: formats.json_ints(obj.get(field), field)}))
    _check_unique_ids(docs)
    return docs


def _save_docs(path, docs, field):
    formats.write_jsonl(path, ({"id": doc.id, "group": doc.group,
                                field: getattr(doc, field).tolist()} for doc in docs))


def load_symbols(path) -> list[SymbolDocument]:
    return _load_docs(path, SymbolDocument, "symbols")


def save_symbols(path, docs: Iterable[SymbolDocument]) -> None:
    _save_docs(path, docs, "symbols")


def load_bags(path) -> list[BagOfSounds]:
    return _load_docs(path, BagOfSounds, "counts")


def save_bags(path, docs: Iterable[BagOfSounds]) -> None:
    _save_docs(path, docs, "counts")
