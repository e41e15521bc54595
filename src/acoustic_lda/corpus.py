"""Corpus records: feature frames, symbol sequences and bags of sounds.

A corpus's frames are one record, ``Frames``: the documents' ids and groups,
and every frame in one (N, D) matrix, document i holding rows
``offsets[i]:offsets[i + 1]``, as Kaldi keeps an utterance's features in one
matrix. Labelled frames (the classifier's data) add one class label per frame.
The loaders copy each line's frames into one buffer that grows by a realloc,
so a corpus's frames are held once; ``read_features`` streams a features
file one document at a time, for a stage that needs no more. Symbol
sequences and bags of sounds are one record per document.

Every record is immutable and checked when built. It keeps its arrays
read-only (``read_only``): an array that owns its data and is already
read-only is kept as given, and any other is copied, so a caller's array, or
a view of it, cannot write into the record. The files that hold them follow
the shared jsonl rules of :mod:`.formats`; this module adds their fields:

  features        jsonl: {"id", "group", "frames"}, frames T x D numbers
  labelled frames jsonl: {"id", "frames", "labels"}, frames T x D finite
                  numbers or [] (T = 0), labels T integers >= 0
  symbols         jsonl: {"id", "group", "symbols"}, a list of json integers
  bags            jsonl: {"id", "group", "counts"}, a list of json integers

Ids are unique within a features, symbols or bags file. All frames of a file
share one dimension D.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from . import formats

__all__ = [
    "CorpusError",
    "read_only",
    "Frames",
    "SymbolDocument",
    "BagOfSounds",
    "read_features",
    "load_features",
    "load_labeled_frames",
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


def read_only(values, dtype) -> np.ndarray:
    """``values`` as a read-only array of ``dtype``. An array of that dtype
    that owns its data and is read-only is returned as it is; anything else
    is copied."""
    if (isinstance(values, np.ndarray) and values.dtype == dtype
            and values.flags.owndata and not values.flags.writeable):
        return values
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _offsets(lengths) -> np.ndarray:
    """The (M + 1,) row offsets of documents of ``lengths`` rows."""
    return np.cumsum([0, *lengths], dtype=np.int64)


@dataclass(frozen=True)
class Frames:
    """A corpus's frames: document i is ``ids[i]``, in group ``groups[i]``
    (a string or None), with frames ``frames[offsets[i]:offsets[i + 1]]``
    of the (N, D) ``frames`` and, for labelled frames, the class labels
    ``labels`` (N,), else None. ``offsets`` (M + 1,) runs from 0 to N."""

    ids: tuple
    groups: tuple
    offsets: np.ndarray
    frames: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        frames = read_only(self.frames, float)
        offsets = read_only(self.offsets, np.int64)
        if frames.ndim != 2:
            raise CorpusError(f"frames must be 2-d (N x D), got shape {frames.shape}")
        if not (len(self.groups) == len(self.ids) and offsets.shape == (len(self.ids) + 1,)
                and offsets[0] == 0 and offsets[-1] == len(frames)
                and (np.diff(offsets) >= 0).all()):
            raise CorpusError("ids, groups and offsets must describe M documents "
                              "whose rows run in order from 0 to N")
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "groups", tuple(self.groups))
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "frames", frames)
        if self.labels is not None:
            labels = read_only(self.labels, np.int64)
            if labels.shape != (len(frames),):
                raise CorpusError(f"labels must have shape ({len(frames)},), "
                                  f"got {labels.shape}")
            object.__setattr__(self, "labels", labels)

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]

    def subset(self, keep) -> Frames:
        """The documents whose id is in ``keep``, in order; their frames and
        labels are taken with one row mask."""
        kept = np.array([doc_id in keep for doc_id in self.ids], dtype=bool)
        lengths = np.diff(self.offsets)
        rows = np.repeat(kept, lengths)
        return Frames(ids=[i for i, k in zip(self.ids, kept) if k],
                      groups=[g for g, k in zip(self.groups, kept) if k],
                      offsets=_offsets(lengths[kept]), frames=_frozen(self.frames[rows]),
                      labels=None if self.labels is None else _frozen(self.labels[rows]))


def _frozen(arr):
    """``arr``, a fresh array, made read-only, so that a record keeps it."""
    arr.setflags(write=False)
    return arr


class _Rows:
    """Rows appended to one array that grows by ``ndarray.resize``, a
    realloc, so the pages past the rows written never become resident. The
    first rows appended set the row shape.

    The array is private until ``frozen`` hands it out, and the only views
    of it are the slices an append writes through, which end with the
    statement; so no view outlives a resize, and ``resize`` runs without its
    reference-count check, which a profiler's own references would fail."""

    def __init__(self, ndim, dtype):
        self._buf = np.empty((0,) * ndim, dtype)
        self._n = 0

    def append(self, rows):
        if not len(rows):
            return
        if not self._n:
            self._buf = np.empty((0, *rows.shape[1:]), self._buf.dtype)
        end = self._n + len(rows)
        if end > len(self._buf):
            self._buf.resize((max(end, 2 * len(self._buf)), *self._buf.shape[1:]),
                             refcheck=False)
        self._buf[self._n:end] = rows
        self._n = end

    def frozen(self) -> np.ndarray:
        """The rows appended, as a read-only array trimmed to them."""
        self._buf.resize((self._n, *self._buf.shape[1:]), refcheck=False)
        buf, self._buf = self._buf, None
        return _frozen(buf)


@dataclass(frozen=True)
class SymbolDocument:
    """Quantized document: the per-frame maximum-posterior component indices."""

    id: str
    symbols: np.ndarray
    group: Optional[str] = None

    def __post_init__(self):
        symbols = read_only(self.symbols, np.int64)
        if symbols.ndim != 1:
            raise CorpusError(f"document {self.id!r}: symbols must be 1-d")
        if symbols.size and symbols.min() < 0:
            raise CorpusError(f"document {self.id!r}: negative symbol")
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
        counts = read_only(self.counts, np.int64)
        if counts.ndim != 1:
            raise CorpusError(f"document {self.id!r}: counts must be 1-d")
        if counts.size and counts.min() < 0:
            raise CorpusError(f"document {self.id!r}: negative count")
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


def _check_unique_ids(ids: Sequence[str]) -> None:
    seen = set()
    for doc_id in ids:
        if doc_id in seen:
            raise CorpusError(f"duplicate document id {doc_id!r}")
        seen.add(doc_id)


def read_features(path, each) -> list:
    """Stream the features jsonl file ``path``: call ``each(doc)`` with each
    document, in file order, as a one-document ``Frames`` record, and return
    the documents' (id, group, T). Only one document's frames are held at a
    time.

    All documents must share the frame dimension, ids must be unique and all
    values finite. The faults are raised as a check of the whole file, then
    of each document in turn, would raise them: a line that does not parse,
    then a duplicate id, then the first document whose dimension differs
    from the first document's or that holds a non-finite value, then the
    first ValueError or FloatingPointError of ``each``. From the first fault
    on, ``each`` is not called.
    """
    dim = doc_fault = each_fault = None

    def build(obj):
        nonlocal dim, doc_fault, each_fault
        doc_id, group = obj["id"], obj.get("group")
        frames = formats.numbers(obj.get("frames"), "'frames'", (None, None),
                                 finite=False)
        dim = frames.shape[1] if dim is None else dim
        finite = np.isfinite(frames)
        if doc_fault is None and frames.shape[1] != dim:
            doc_fault = CorpusError(f"document {doc_id!r}: frame dimension "
                                    f"{frames.shape[1]} != expected {dim}")
        elif doc_fault is None and not finite.all():
            t, d = np.argwhere(~finite)[0]
            doc_fault = CorpusError(f"document {doc_id!r}: non-finite value at "
                                    f"frame {t}, dim {d}")
        if doc_fault is None and each_fault is None:
            try:
                each(Frames(ids=[doc_id], groups=[group], offsets=[0, len(frames)],
                            frames=_frozen(frames)))
            except (ValueError, FloatingPointError) as exc:
                each_fault = exc
        return doc_id, group, len(frames)

    docs = formats.read_jsonl(path, build)
    _check_unique_ids([doc_id for doc_id, _, _ in docs])
    for fault in (doc_fault, each_fault):
        if fault is not None:
            raise fault
    return docs


def load_features(path) -> Frames:
    """A features jsonl file as one ``Frames`` record, with the faults of
    ``read_features``. An empty file yields a record with no documents."""
    rows = _Rows(2, float)
    docs = read_features(path, lambda doc: rows.append(doc.frames))
    return Frames(ids=[doc_id for doc_id, _, _ in docs],
                  groups=[group for _, group, _ in docs],
                  offsets=_offsets([n for _, _, n in docs]), frames=rows.frozen())


def load_labeled_frames(path) -> Frames:
    """Load a labelled frames jsonl file as one ``Frames`` record with
    labels; a document whose frames are ``[]`` has no rows. Each line's
    faults are raised naming its ``file:line``."""
    rows, labels = _Rows(2, float), _Rows(1, np.int64)
    width = 0

    def build(obj):
        nonlocal width
        if obj.get("frames") == []:
            frames = np.empty((0, 0))
        else:
            frames = formats.numbers(obj.get("frames"), "'frames'", (None, None))
            if not frames.shape[1]:
                raise ValueError("'frames' must have width >= 1")
            if width and frames.shape[1] != width:
                raise ValueError(f"frames have width {frames.shape[1]}, "
                                 f"earlier lines {width}")
            width = frames.shape[1]
        doc_labels = formats.json_ints(obj.get("labels"), "labels")
        if np.any(doc_labels < 0):
            raise ValueError("'labels' must be >= 0")
        if frames.shape[0] != doc_labels.shape[0]:
            raise ValueError("frames/labels length mismatch")
        rows.append(frames)
        labels.append(doc_labels)
        return obj["id"], obj.get("group"), len(doc_labels)

    docs = formats.read_jsonl(path, build)
    return Frames(ids=[doc_id for doc_id, _, _ in docs],
                  groups=[group for _, group, _ in docs],
                  offsets=_offsets([n for _, _, n in docs]),
                  frames=rows.frozen(), labels=labels.frozen())


def save_features(path, record: Frames) -> None:
    bounds = record.offsets.tolist()
    formats.write_jsonl(path, ({"id": doc_id, "group": group,
                                "frames": record.frames[start:stop].tolist()}
                               for doc_id, group, start, stop
                               in zip(record.ids, record.groups, bounds, bounds[1:])))


def _load_docs(path, cls, field):
    """Symbol or bag documents: ``field`` is a list of json integers."""
    docs = formats.read_jsonl(path, lambda obj: cls(
        id=obj["id"], group=obj.get("group"),
        **{field: formats.json_ints(obj.get(field), field)}))
    _check_unique_ids([doc.id for doc in docs])
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
