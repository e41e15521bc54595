"""The package's file formats: every artifact is read and written here.

Shared rules, which each format's loader adds its own fields to:

- jsonl: each non-blank line is one json object. A line holding ``_meta``
  (the writer's seed and settings) is skipped on read. Every other line has
  a json string ``id`` and a ``group`` that is absent, null or a string.
  Where a format's ids are unique, a line repeating an earlier line's id
  is a fault of that line.
- json: one json object holding the format's required keys.
- csv is written only, for the stats and metrics tables; no loader reads it.
- decoding: a json file and a jsonl line are decoded by one rule. orjson
  decodes the text; where it rejects the text or the text is not a json
  object, the stdlib json module decodes it again, which also reads
  ``NaN``, ``Infinity``, ``1e400`` and lone surrogate escapes and words the
  error for bad json. So an integer beyond 64 bits is a float wherever
  orjson decodes it, and nesting deeper than the stdlib's recursion limit
  is bad json only where the stdlib decodes it.
- numbers: a numeric field is nested lists of json integers and floats, one
  length per axis; strings and booleans are rejected, not cast. One path
  types every field: numpy's typing, a cast of integers beyond 64 bits and
  a scan for booleans of the rows holding a 0 or a 1.
  Integer fields (symbols, counts, labels) take json integers only. The
  values (finite, >= 0, summing to 1) are checked by the record the loader
  builds, whose check a jsonl loader also runs on each line.
- faults raise ``FormatError``, a ValueError, naming ``file:line`` for jsonl
  and the file for json; a ValueError or a FloatingPointError from a line's
  or a file's build is named the same way. A jsonl file's fault is its
  first faulty line's, raised as that line is read. A byte that does not
  decode as text is a fault naming the file.
- writes are atomic: a temp file in the target's directory, then a rename,
  so a reader never sees half a file. The file gets mode 0666 less the
  umask, as a plain ``open`` would give it. A failed write names the
  target, never the temp file, and leaves no temp file behind.
- json is written strict: a NaN or an infinity, which json cannot hold,
  raises FormatError naming the file, and nothing is written.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np
import orjson

__all__ = ["FormatError", "read_jsonl", "read_json", "check_unique_ids", "numbers",
           "json_ints", "same_file", "write_jsonl", "write_csv"]


class FormatError(ValueError):
    """A malformed file, record or field."""


def _build(where, build, *args):
    """``build(*args)``, with a ValueError or FloatingPointError it raises
    re-raised as FormatError naming ``where``."""
    try:
        return build(*args)
    except (ValueError, FloatingPointError) as exc:
        raise FormatError(f"{where}: {exc}") from exc


def _loads(text):
    """The json value of ``text``: orjson's where it is a json object, else
    the stdlib's. Where both reject the text, the stdlib's error is raised;
    a text that is not an object, which the readers reject, is typed as the
    stdlib reads it (orjson reads an integer beyond 64 bits as a float)."""
    try:
        obj = orjson.loads(text)
    except orjson.JSONDecodeError:
        return json.loads(text)
    return obj if isinstance(obj, dict) else json.loads(text)


def _object(where, text):
    """The json object ``text`` holds; bad json or another json value raises
    FormatError naming ``where``."""
    try:
        obj = _loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{where}: bad json: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected a json object, got {type(obj).__name__}")
    return obj


def _lines(fh, path):
    """The lines of the open text file ``fh``; a byte that does not decode
    raises FormatError naming ``path`` (the codec's offset is in one chunk)."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not {exc.encoding} text: byte "
                          f"{exc.object[exc.start]:#04x}: {exc.reason}") from exc


def read_jsonl(path, build, unique=False) -> list:
    """``build(record)`` for each record line of the jsonl file ``path``.

    Blank and ``_meta`` lines are skipped. Bad json, a line that is not a
    json object, an ``id`` that is not a string, a ``group`` that is not a
    string or null, a ValueError or FloatingPointError from ``build`` and,
    with ``unique``, an id
    that an earlier line holds raise FormatError naming ``path:line`` as the
    line is read.
    """
    out, seen = [], set()
    with open(path) as fh:
        for lineno, line in enumerate(_lines(fh, path), 1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            obj = _object(where, line)
            if "_meta" in obj:
                continue
            doc_id = obj.get("id")
            if not isinstance(doc_id, str):
                raise FormatError(f"{where}: 'id' must be a string")
            group = obj.get("group")
            if group is not None and not isinstance(group, str):
                raise FormatError(f"{where}: 'group' must be a string or null")
            if unique:
                _build(where, check_unique_ids, (doc_id,), seen)
            out.append(_build(where, build, obj))
    return out


def read_json(path, keys, build):
    """``build(obj)`` for the json object in ``path``, which must hold every
    key in ``keys``. Bad json, another json value, a missing key and a
    ValueError or FloatingPointError from ``build`` raise FormatError naming
    ``path``."""
    with open(path) as fh:
        obj = _object(path, "".join(_lines(fh, path)))
    missing = [k for k in keys if k not in obj]
    if missing:
        raise FormatError(f"{path}: missing key(s) {', '.join(missing)}")
    return _build(path, build, obj)


def check_unique_ids(ids, seen) -> None:
    """Raise FormatError naming the first of ``ids`` already in ``seen``,
    which gains each id as it is passed."""
    for doc_id in ids:
        if doc_id in seen:
            raise FormatError(f"duplicate document id {doc_id!r}")
        seen.add(doc_id)


def numbers(value, name, shape) -> np.ndarray:
    """The json field ``value`` as a float array of ``shape``, a tuple of one
    or two axis lengths where None takes any length. Its values, NaN and
    infinities included, are the record's to check.

    ``value`` must be nested lists of json integers and floats; np.asarray
    with a float dtype would read ``"1.5"`` and ``true`` as numbers. Without
    one, np.asarray rejects ragged lists and gives a string, object or bool
    array wherever a string, None, a dict, an integer beyond 64 bits or only
    booleans appear; an object array of ints and floats alone is cast. A
    boolean mixed with numbers is cast to 0 or 1, so the rows holding an
    entry equal to 0 or 1 are scanned for one; where every row holds one, as
    in one-hot frames, every entry is. Faults raise FormatError starting
    with ``name`` as given, so a jsonl field passes its key quoted.
    """
    ndim = len(shape)
    try:
        arr = np.asarray(value)
        if arr.dtype == object and {type(v) for v in arr.flat} <= {int, float}:
            arr = arr.astype(float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    typed = arr is not None and arr.ndim == ndim and arr.dtype.kind in "iuf"
    if typed:
        rows = [value] if ndim == 1 else value
        suspect = ((arr == 0) | (arr == 1)).any(axis=-1, keepdims=ndim == 1)
        typed = bool not in {type(v) for i in np.flatnonzero(suspect).tolist()
                             for v in rows[i]}
    if not typed:
        raise FormatError(f"{name} must be a regular array of numbers: {ndim}-d "
                          f"nested lists of numbers, no strings or booleans")
    if any(n is not None and n != m for n, m in zip(shape, arr.shape)):
        raise FormatError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr.astype(float, copy=False)


def json_ints(value, name) -> np.ndarray:
    """A json list of integers as an int64 array. Floats, booleans, nesting
    and integers beyond int64 raise FormatError naming the field ``name``,
    instead of being truncated or cast."""
    if not isinstance(value, list) or not set(map(type, value)) <= {int}:
        raise FormatError(f"{name!r} must be a list of integers")
    try:
        return np.asarray(value, dtype=np.int64)
    except OverflowError:
        raise FormatError(f"{name!r} must be a list of integers") from None


def same_file(a, b) -> bool:
    """Whether the paths ``a`` and ``b`` name one file: they have one real
    path, or both exist and are one file, as hard links are."""
    try:
        return os.path.realpath(a) == os.path.realpath(b) or os.path.samefile(a, b)
    except OSError:
        return False


def _replace(path, write, newline=None) -> None:
    """Call ``write(fh)`` on a temp file beside ``path``, then rename it to
    ``path``; on any failure the temp file is removed. A ValueError, and an
    OSError that names the temp file, are raised naming ``path`` alone."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f"tmp{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", newline=newline) as fh:
                write(fh)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    except OSError as exc:
        if exc.filename != tmp:
            raise
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def write_jsonl(path, records, meta=None) -> None:
    """One json object per line, after a ``{"_meta": meta}`` line when
    ``meta`` is given; a json file is one record, ``(obj,)``. Each line is
    formed whole by ``json.dumps``, which takes the stdlib's C encoder
    (``json.dump`` takes the pure-Python one), then written."""
    def write(fh):
        if meta is not None:
            fh.write(json.dumps({"_meta": meta}, allow_nan=False) + "\n")
        for rec in records:
            fh.write(json.dumps(rec, allow_nan=False) + "\n")
    _replace(path, write)


def write_csv(path, header, rows) -> None:
    """A ``header`` row, then ``rows``, as csv."""
    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    _replace(path, write, newline="")
