"""The package's file formats: every artifact is read and written here.

Shared rules, which each format's loader adds its own fields to:

- jsonl: each non-blank line is one json object. A line holding ``_meta``
  (the writer's seed and settings) is skipped on read. Every other line has
  a json string ``id`` and a ``group`` that is absent, null or a string.
  Lines are decoded with orjson, and a line that orjson rejects or that is
  not a json object is decoded again with the stdlib json module, which
  also reads ``NaN``, ``Infinity``, ``1e400`` and lone surrogate escapes,
  types an integer beyond 64 bits as an integer and words the error for
  bad json.
- json: one json object holding the format's required keys.
- csv is written only, for the stats and metrics tables; no loader reads it.
- json nested deeper than the stdlib decoder's recursion limit is bad json.
- numbers: a numeric field is nested lists of json integers and floats, one
  length per axis; strings and booleans are rejected, not cast. numpy types
  the value first, and a value it types as integers or floats needs only
  its rows holding a 0 or a 1 scanned for booleans; an exact scan of every
  entry takes what numpy cannot type as numbers, and words the error.
  Integer fields (symbols, counts, labels) take json integers only.
- faults raise ``FormatError``, a ValueError, naming ``file:line`` for jsonl
  and the file for json.
- writes are atomic: a temp file in the target's directory, then a rename,
  so a reader never sees half a file. The file gets mode 0666 less the
  umask, as a plain ``open`` would give it.
- json is written strict: a NaN or an infinity, which json cannot hold,
  raises FormatError naming the file, and nothing is written.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np
import orjson

__all__ = ["FormatError", "read_jsonl", "read_json", "numbers", "json_ints",
           "write_jsonl", "write_json", "write_csv"]


class FormatError(ValueError):
    """A malformed file, record or field."""


def _build(where, build, obj):
    """``build(obj)``, with a ValueError it raises re-raised naming ``where``."""
    try:
        return build(obj)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def _loads(line):
    """The json value of one jsonl line: orjson's where it is a json object,
    else the stdlib's. Where both reject the line, the stdlib's error is
    raised; a line that is not an object, which the reader rejects, is typed
    as the stdlib reads it (orjson reads an integer beyond 64 bits as a
    float)."""
    try:
        obj = orjson.loads(line)
    except orjson.JSONDecodeError:
        return json.loads(line)
    return obj if isinstance(obj, dict) else json.loads(line)


def read_jsonl(path, build) -> list:
    """``build(record)`` for each record line of the jsonl file ``path``.

    Blank and ``_meta`` lines are skipped. Bad json, a line that is not a
    json object, an ``id`` that is not a string, a ``group`` that is not a
    string or null, and a ValueError from ``build`` raise FormatError naming
    ``path:line``.
    """
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                obj = _loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise FormatError(f"{where}: bad json: {exc}") from exc
            if not isinstance(obj, dict):
                raise FormatError(f"{where}: expected a json object, "
                                  f"got {type(obj).__name__}")
            if "_meta" in obj:
                continue
            if not isinstance(obj.get("id"), str):
                raise FormatError(f"{where}: 'id' must be a string")
            group = obj.get("group")
            if group is not None and not isinstance(group, str):
                raise FormatError(f"{where}: 'group' must be a string or null")
            out.append(_build(where, build, obj))
    return out


def read_json(path, keys, build):
    """``build(obj)`` for the json object in ``path``, which must hold every
    key in ``keys``. Bad json, another json value, a missing key and a
    ValueError from ``build`` raise FormatError naming ``path``."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise FormatError(f"{path}: bad json: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: expected a json object, got {type(obj).__name__}")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise FormatError(f"{path}: missing key(s) {', '.join(missing)}")
    return _build(path, build, obj)


def numbers(value, name, shape, finite=True) -> np.ndarray:
    """The json field ``value`` as a float array of ``shape``, a tuple of one
    or two axis lengths where None takes any length.

    ``value`` must be nested lists of json integers and floats; np.asarray
    with a float dtype would read ``"1.5"`` and ``true`` as numbers. numpy
    types the value first (``_typed``); what it cannot type as numbers goes
    to the exact element scan (``_scanned``), which words the error.
    ``finite`` is True, False (the caller checks) or ``"or -inf"`` (finite or
    -inf: the log of a zero probability). Faults raise FormatError starting
    with ``name`` as given, so a jsonl field passes its key quoted.
    """
    arr = _typed(value, len(shape))
    if arr is None:
        arr = _scanned(value, name, len(shape))
    if any(n is not None and n != m for n, m in zip(shape, arr.shape)):
        raise FormatError(f"{name} must have shape {shape}, got {arr.shape}")
    if finite is True and not np.isfinite(arr).all():
        raise FormatError(f"{name} must be finite")
    if finite == "or -inf" and (np.isnan(arr).any() or np.isposinf(arr).any()):
        raise FormatError(f"{name} must be finite or -inf")
    return arr


def _typed(value, ndim):
    """``value`` as a float array where numpy types it as an ``ndim``-d array
    of ints, uints or floats with no boolean among its entries; else None.

    Without a dtype, np.asarray rejects ragged lists and gives a string,
    object or bool array wherever a string, None, a dict, an integer beyond
    64 bits or only booleans appear. A boolean mixed with numbers is cast to
    0 or 1, so only the rows holding an entry equal to 0 or 1 are scanned;
    where every row holds one, as in one-hot frames, every entry is.
    """
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError, OverflowError):
        return None
    if arr.ndim != ndim or arr.dtype.kind not in "iuf":
        return None
    rows = [value] if ndim == 1 else value
    suspect = ((arr == 0) | (arr == 1)).any(axis=-1, keepdims=ndim == 1)
    if bool in {type(v) for i in np.flatnonzero(suspect).tolist() for v in rows[i]}:
        return None
    return arr.astype(float, copy=False)


def _scanned(value, name, ndim):
    """``value`` as a float array after an exact type scan of every entry;
    anything but ``ndim``-d regular nested lists of json integers and floats
    raises FormatError."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or arr.ndim != ndim or not (
            {type(v) for v in value} if ndim == 1
            else {type(v) for row in value for v in row}) <= {int, float}:
        raise FormatError(f"{name} must be a regular array of numbers: {ndim}-d "
                          f"nested lists of numbers, no strings or booleans")
    return arr


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


def _replace(path, write, newline=None) -> None:
    """Call ``write(fh)`` on a temp file beside ``path``, then rename it to
    ``path``; on any failure the temp file is removed, and a ValueError is
    raised as a FormatError naming ``path``."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", newline=newline) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException as exc:
        os.unlink(tmp)
        if isinstance(exc, ValueError):
            raise FormatError(f"{path}: {exc}") from exc
        raise


def write_jsonl(path, records, meta=None) -> None:
    """One json object per line, after a ``{"_meta": meta}`` line when
    ``meta`` is given."""
    def write(fh):
        if meta is not None:
            fh.write(json.dumps({"_meta": meta}, allow_nan=False) + "\n")
        for rec in records:
            fh.write(json.dumps(rec, allow_nan=False) + "\n")
    _replace(path, write)


def write_json(path, obj) -> None:
    """``obj`` as one line of json, streamed: a model's json text is never
    held whole in memory."""
    def write(fh):
        json.dump(obj, fh, allow_nan=False)
        fh.write("\n")
    _replace(path, write)


def write_csv(path, header, rows) -> None:
    """A ``header`` row, then ``rows``, as csv."""
    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    _replace(path, write, newline="")
