"""Corpus records: feature frames, symbol sequences and bags of sounds.

A corpus's frames are one record, ``Frames``: the documents' ids and groups,
and every frame in one (N, D) matrix, document i holding rows
``offsets[i]:offsets[i + 1]``, as Kaldi keeps an utterance's features in one
matrix. Labelled frames (the classifier's data) add one class label per frame.
A corpus's symbol sequences are one record too, ``Symbols``, laid out as
``Frames`` is with one symbol per frame in one (N,) array, and so are its
bags of sounds, ``Bags``, document i's counts in row i of one (M, V) matrix;
the stages compute on them as loaded. The loaders check each line with the
record's own checks and copy its rows into one buffer that grows by a
realloc, so a corpus's frames, symbols or counts are held once and its
record is built once; ``quantize_features`` streams a features file one
document at a time, for a stage that needs no more.

Every record is immutable and checked when built. It keeps its arrays
read-only (``read_only``): an array the package froze itself is kept as
given, any other is copied, so a caller's array, or a view of it, cannot
write into the record, even with writes turned back on. Their files follow
the shared jsonl rules of :mod:`.formats`; this module adds their fields:

  features        jsonl: {"id", "group", "frames"}, frames T x D finite
                  numbers, T >= 1
  labelled frames jsonl: {"id", "frames", "labels"}, frames T x D finite
                  numbers or [] (T = 0), labels T integers >= 0
  symbols         jsonl: {"id", "group", "symbols"}, json integers >= 0
  bags            jsonl: {"id", "group", "counts"}, V json integers >= 0

Ids are unique within a features, symbols or bags file. All frames of a file
share one dimension D >= 1, and all counts of a bags file one length V. As
every jsonl file's, a file's fault is that of its first faulty line, raised
naming its ``file:line`` as the line is read.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import formats

__all__ = [
    "CorpusError",
    "read_only",
    "Frames",
    "Symbols",
    "Bags",
    "load_features",
    "quantize_features",
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

# the buffers ``_frozen`` made read-only, by id, which no caller holds writable
_FROZEN = weakref.WeakValueDictionary()


def read_only(values, dtype) -> np.ndarray:
    """``values`` as a read-only array of ``dtype``. An array of that dtype
    that this package froze itself (``_frozen``) is returned as it is;
    anything else is copied, since its owner could make it writable again."""
    if (isinstance(values, np.ndarray) and values.dtype == dtype
            and _FROZEN.get(id(values)) is values):
        return values
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _naturals(values, name) -> np.ndarray:
    """``values`` as an array, checked to hold integers >= 0 without a copy;
    a float is rejected, not cast. The records freeze it with ``read_only``."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise CorpusError(f"{name} must be integers")
    if arr.size and arr.min() < 0:
        raise CorpusError(f"{name} must be >= 0")
    return arr


def _layout(docs) -> dict:
    """The ids, groups and offsets of the documents ``docs``, each an (id,
    group, row count)."""
    return {"ids": [doc[0] for doc in docs], "groups": [doc[1] for doc in docs],
            "offsets": np.cumsum([0, *(doc[2] for doc in docs)], dtype=np.int64)}


def _set_layout(record, n) -> None:
    """Check that ``record``'s ids, groups and offsets describe M documents
    whose rows run in order from 0 to ``n``, and keep them read-only."""
    offsets = read_only(record.offsets, np.int64)
    if not (len(record.groups) == len(record.ids) and offsets.shape == (len(record.ids) + 1,)
            and offsets[0] == 0 and offsets[-1] == n and (np.diff(offsets) >= 0).all()):
        raise CorpusError("ids, groups and offsets must describe M documents "
                          "whose rows run in order from 0 to N")
    object.__setattr__(record, "ids", tuple(record.ids))
    object.__setattr__(record, "groups", tuple(record.groups))
    object.__setattr__(record, "offsets", offsets)


def _first_doc(offsets, bad) -> int:
    """The first document whose rows (``offsets``) hold a True of ``bad``."""
    return int(np.searchsorted(offsets, np.argmax(bad), side="right")) - 1


@dataclass(frozen=True)
class Frames:
    """A corpus's frames: document i is ``ids[i]``, in group ``groups[i]``
    (a string or None), with frames ``frames[offsets[i]:offsets[i + 1]]``
    of the (N, D) ``frames``, which are finite, and, for labelled frames, the
    class labels ``labels`` (N,), integers >= 0, else None. ``offsets``
    (M + 1,) runs from 0 to N. ``len()`` is the frame count N."""

    ids: tuple
    groups: tuple
    offsets: np.ndarray
    frames: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        frames = read_only(self.frames, float)
        if frames.ndim != 2:
            raise CorpusError(f"frames must be 2-d (N x D), got shape {frames.shape}")
        _set_layout(self, len(frames))
        _check_frames(self.ids, self.offsets, frames)
        object.__setattr__(self, "frames", frames)
        if self.labels is not None:
            labels = read_only(_naturals(self.labels, "labels"), np.int64)
            if labels.shape != (len(frames),):
                raise CorpusError(f"labels must have shape ({len(frames)},), "
                                  f"got {labels.shape}")
            object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.frames.shape[0]

    num_frames = property(__len__)

    @property
    def dim(self) -> int:
        return self.frames.shape[1]

    def subset(self, keep) -> Frames:
        """The documents whose id is in ``keep``, in order; their frames and
        labels are taken with one row mask."""
        lengths = np.diff(self.offsets)
        rows = np.repeat(np.array([doc_id in keep for doc_id in self.ids], bool), lengths)
        docs = [doc for doc in zip(self.ids, self.groups, lengths) if doc[0] in keep]
        return Frames(**_layout(docs), frames=_frozen(self.frames[rows]),
                      labels=None if self.labels is None else _frozen(self.labels[rows]))


def _check_frames(ids, offsets, frames) -> None:
    """Raise CorpusError naming the document, frame and dim of the first
    non-finite value of ``frames``."""
    if not np.isfinite(frames).all():
        row, dim = np.argwhere(~np.isfinite(frames))[0]
        doc = _first_doc(offsets, ~np.isfinite(frames).all(axis=1))
        raise CorpusError(f"document {ids[doc]!r}: non-finite value at frame "
                          f"{row - offsets[doc]}, dim {dim}")


def _frozen(arr):
    """``arr``, a fresh array, made read-only, so that a record keeps it."""
    arr.setflags(write=False)
    _FROZEN[id(arr)] = arr
    return arr


class _Rows:
    """Rows appended to one array that grows by ``ndarray.resize``, a
    realloc, so the pages past the rows written never become resident. The
    first rows appended set the row shape, and ``width`` reports it.

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

    @property
    def width(self):
        """The length of the 2-d rows appended, or None before the first."""
        return self._buf.shape[1] if self._n else None

    def frozen(self) -> np.ndarray:
        """The rows appended, as a read-only array trimmed to them."""
        self._buf.resize((self._n, *self._buf.shape[1:]), refcheck=False)
        buf, self._buf = self._buf, None
        return _frozen(buf)


@dataclass(frozen=True)
class Symbols:
    """A corpus's quantized documents, laid out as ``Frames``: document i's
    symbols, each frame's maximum-posterior component index, are
    ``symbols[offsets[i]:offsets[i + 1]]`` of the (N,) ``symbols``, >= 0."""

    ids: tuple
    groups: tuple
    offsets: np.ndarray
    symbols: np.ndarray

    def __post_init__(self):
        symbols = read_only(self.symbols, np.int64)
        if symbols.ndim != 1:
            raise CorpusError(f"symbols must be 1-d, got shape {symbols.shape}")
        _set_layout(self, len(symbols))
        _check_symbols(self.ids, self.offsets, symbols)
        object.__setattr__(self, "symbols", symbols)


def _check_symbols(ids, offsets, symbols) -> None:
    """Raise CorpusError naming the first document of a negative symbol."""
    if symbols.size and symbols.min() < 0:
        raise CorpusError(f"document {ids[_first_doc(offsets, symbols < 0)]!r}: "
                          f"negative symbol")


@dataclass(frozen=True)
class Bags:
    """A corpus's bags of sounds: document i is ``ids[i]``, in group
    ``groups[i]`` (a string or None), with the counts ``counts[i]`` over the
    V quantizer symbols of the (M, V) ``counts``, integers >= 0. ``len()``
    is the document count M."""

    ids: tuple
    groups: tuple
    counts: np.ndarray

    def __post_init__(self):
        counts = read_only(_naturals(self.counts, "counts"), np.int64)
        if not (counts.ndim == 2 and len(counts) == len(self.ids) == len(self.groups)):
            raise CorpusError(f"counts {counts.shape} must be M x V, for M ids and groups")
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "groups", tuple(self.groups))
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return self.counts.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.counts.shape[1]


def to_bag(symbols: Symbols, vocab_size: int) -> Bags:
    """Each document's counts of the ``vocab_size`` symbols, in one
    ``np.bincount`` of the flat (document, symbol) cells. A symbol >=
    ``vocab_size`` raises naming the first document that holds one and that
    document's largest symbol."""
    ids, offsets, values = symbols.ids, symbols.offsets, symbols.symbols
    over = values >= vocab_size
    if over.any():
        doc = _first_doc(offsets, over)
        raise CorpusError(f"document {ids[doc]!r}: symbol "
                          f"{values[offsets[doc]:offsets[doc + 1]].max()} "
                          f"out of range for V={vocab_size}")
    cells = np.repeat(np.arange(len(ids)) * vocab_size, np.diff(offsets)) + values
    counts = np.bincount(cells, minlength=len(ids) * vocab_size)
    counts.resize((len(ids), vocab_size), refcheck=False)   # in place: the record keeps it
    return Bags(ids=ids, groups=symbols.groups, counts=_frozen(counts))


def _read_frames(path, each, labelled=False) -> list:
    """``each(obj, frames)`` on each line of the frames jsonl file ``path``
    and its frames, T x D json numbers with D >= 1 and D that of the earlier
    lines, as the line is read; return the documents' (id, group, T). Ids are
    unique, but in a ``labelled`` file, where ids may repeat and ``"frames":
    []`` is a document with no rows, which sets no D."""
    width = 0

    def build(obj):
        nonlocal width
        if labelled and obj.get("frames") == []:
            frames = np.empty((0, width))
        else:
            frames = formats.numbers(obj.get("frames"), "'frames'", (None, None))
            if not frames.shape[1]:
                raise ValueError("'frames' must have width >= 1")
            if width and frames.shape[1] != width:
                raise ValueError(f"'frames' have width {frames.shape[1]}, "
                                 f"earlier lines {width}")
            width = frames.shape[1]
        each(obj, frames)
        return obj["id"], obj.get("group"), len(frames)

    return formats.read_jsonl(path, build, unique=not labelled)


def load_features(path) -> Frames:
    """A features jsonl file as one ``Frames`` record, each line's frames
    checked by the record's check and its faults raised naming its
    ``file:line``. An empty file yields a record with no documents."""
    rows = _Rows(2, float)

    def append(obj, frames):
        _check_frames([obj["id"]], [0, len(frames)], frames)
        rows.append(frames)

    docs = _read_frames(path, append)
    return Frames(**_layout(docs), frames=rows.frozen())


def quantize_features(path, quantize) -> Symbols:
    """The ``Symbols`` record of each document's ``quantize(doc)``, streaming
    the features jsonl file ``path``: ``doc`` is each line's document, as a
    one-document ``Frames`` record (which checks its frames), built as the
    line is read. Only one document's frames are held at a time. Ids are
    unique.

    The first faulty line is the fault: its own fault, or a ValueError or
    FloatingPointError of ``quantize`` on its document, raises FormatError
    naming its ``file:line``, and ``quantize`` has seen every earlier line
    and no later one.
    """
    rows = _Rows(1, np.int64)
    docs = _read_frames(path, lambda obj, frames: rows.append(quantize(Frames(
        ids=[obj["id"]], groups=[obj.get("group")], offsets=[0, len(frames)],
        frames=_frozen(frames)))))
    return Symbols(**_layout(docs), symbols=rows.frozen())


def load_labeled_frames(path) -> Frames:
    """Load a labelled frames jsonl file as one ``Frames`` record with
    labels. Frames are checked as in a features file, but ids may repeat
    and a document whose frames are ``[]`` has no rows. Each line's faults
    are raised naming its ``file:line``."""
    rows, labels = _Rows(2, float), _Rows(1, np.int64)

    def append(obj, frames):
        _check_frames([obj["id"]], [0, len(frames)], frames)
        doc_labels = _naturals(formats.json_ints(obj.get("labels"), "labels"), "'labels'")
        if frames.shape[0] != doc_labels.shape[0]:
            raise ValueError("frames/labels length mismatch")
        rows.append(frames)
        labels.append(doc_labels)

    docs = _read_frames(path, append, labelled=True)
    return Frames(**_layout(docs), frames=rows.frozen(), labels=labels.frozen())


def _documents(record, values):
    """Each document of ``record`` as (id, group, its rows of ``values``)."""
    bounds = record.offsets.tolist()
    return zip(record.ids, record.groups, (values[start:stop]
                                           for start, stop in zip(bounds, bounds[1:])))


def save_features(path, record: Frames) -> None:
    formats.write_jsonl(path, ({"id": doc_id, "group": group, "frames": frames.tolist()}
                               for doc_id, group, frames
                               in _documents(record, record.frames)))


def load_symbols(path) -> Symbols:
    """A symbols jsonl file as one ``Symbols`` record. Each line's symbols
    are checked as the record checks them, and its faults are raised naming
    its ``file:line``."""
    rows = _Rows(1, np.int64)

    def build(obj):
        symbols = formats.json_ints(obj.get("symbols"), "symbols")
        _check_symbols([obj["id"]], [0, len(symbols)], symbols)
        rows.append(symbols)
        return obj["id"], obj.get("group"), len(symbols)

    docs = formats.read_jsonl(path, build, unique=True)
    return Symbols(**_layout(docs), symbols=rows.frozen())


def save_symbols(path, symbols: Symbols) -> None:
    formats.write_jsonl(path, ({"id": doc_id, "group": group, "symbols": values.tolist()}
                               for doc_id, group, values
                               in _documents(symbols, symbols.symbols)))


def load_bags(path) -> Bags:
    """A bags jsonl file as one ``Bags`` record. Each line's counts are
    checked as the record checks them, and for the earlier lines' length;
    its faults are raised naming its ``file:line``."""
    rows = _Rows(2, np.int64)

    def build(obj):
        counts = _naturals(formats.json_ints(obj.get("counts"), "counts"), "counts")
        if rows.width is not None and len(counts) != rows.width:
            raise ValueError(f"'counts' has {len(counts)} symbols, earlier lines {rows.width}")
        rows.append(counts[None])
        return obj["id"], obj.get("group")

    docs = formats.read_jsonl(path, build, unique=True)
    return Bags(ids=[doc_id for doc_id, _ in docs], groups=[group for _, group in docs],
                counts=rows.frozen())


def save_bags(path, bags: Bags) -> None:
    formats.write_jsonl(path, ({"id": doc_id, "group": group, "counts": row.tolist()}
                               for doc_id, group, row
                               in zip(bags.ids, bags.groups, bags.counts)))
