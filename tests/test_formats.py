"""The shared file rules of ``acoustic_lda.formats``: the decoder of json
files and jsonl lines agrees with the stdlib json module, the numbers rule
agrees with an exact type scan of every entry, and written files get the
umask's mode."""

import json
import os
import stat
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acoustic_lda import formats
from oracles import json_numbers

INT64_MIN, UINT64_END = -2 ** 63, 2 ** 64


def same(ref, got):
    """``got`` equals the stdlib's ``ref``, floats bitwise, except that an
    integer outside [-2**63, 2**64) may come back as the nearest float."""
    if type(ref) is int and not INT64_MIN <= ref < UINT64_END and type(got) is float:
        return got.hex() == float(ref).hex()
    if type(ref) is not type(got):
        return False
    if type(ref) is float:
        return ref.hex() == got.hex()
    if type(ref) is list:
        return len(ref) == len(got) and all(map(same, ref, got))
    if type(ref) is dict:
        return list(ref) == list(got) and all(same(ref[k], got[k]) for k in ref)
    return ref == got


def read_jsonl(path):
    return formats.read_jsonl(path, lambda obj: obj)


def read_json(path):
    return formats.read_json(path, (), lambda obj: obj)


def outcome(read, path):
    """("ok", value) or (error type, error text) of ``read(path)``."""
    try:
        return "ok", read(path)
    except (formats.FormatError, UnicodeDecodeError) as exc:
        return type(exc).__name__, str(exc)


def assert_decoders_agree(path, read=read_jsonl):
    """``read`` gives the stdlib's values and faults, except that an integer
    beyond 64 bits may be a float. Where the stdlib hits its recursion limit,
    orjson may decode the text, so the outcomes are not compared."""
    got = outcome(read, path)
    with mock.patch.object(formats, "_loads", json.loads):
        ref = outcome(read, path)
    if ref[0] == "ok":
        assert got[0] == "ok" and same(ref[1], got[1]), (ref, got)
    elif "maximum recursion depth exceeded" not in ref[1]:
        assert got == ref


def join(items):
    return "[" + ", ".join(items) + "]"


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
number_texts = st.one_of(
    finite_floats.map(repr),
    finite_floats.map(lambda x: "%.17e" % x),
    st.builds("{}{}.{}e{}".format, st.sampled_from(["", "-"]), st.integers(0, 10 ** 20),
              st.integers(0, 10 ** 25), st.integers(-330, 310)),
    st.integers().map(str),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "-0", "-0.0",
                     str(INT64_MIN), str(INT64_MIN - 1), str(UINT64_END - 1),
                     str(UINT64_END), str(10 ** 400)]))
string_texts = st.one_of(
    st.builds(json.dumps, st.text(max_size=8), ensure_ascii=st.booleans()),
    st.sampled_from(['"\\ud800"', '"a\\udfff"', '"\\ud83d\\ude00"', '"\\u00e9\\n"']))
nested_texts = st.recursive(number_texts, lambda inner: st.lists(inner, max_size=3).map(join),
                            max_leaves=12)
deep_texts = st.sampled_from([2, 50, 5000]).map(lambda n: "[" * n + "]" * n)
value_texts = (nested_texts | string_texts | deep_texts
               | st.sampled_from(["null", "true", "{}"]))
frame_texts = st.lists(st.lists(number_texts, max_size=4).map(join), max_size=3).map(join)
record_texts = st.builds(
    lambda doc_id, group, frames, extra: "{" + ", ".join(
        [f'"id": {doc_id}'] + ([f'"group": {group}'] if group else [])
        + [f'"frames": {frames}'] + [f"{key}: {value}" for key, value in extra]) + "}",
    string_texts | value_texts, st.sampled_from([None, "null"]) | string_texts,
    frame_texts | value_texts,
    st.lists(st.tuples(string_texts, value_texts), max_size=2))
line_texts = st.one_of(
    record_texts,
    value_texts.map('{{"_meta": {}}}'.format),
    value_texts,
    st.tuples(record_texts, st.integers(1, 40)).map(lambda t: t[0][:t[1]]),
    st.sampled_from(["", "  "]))
jsonl_texts = st.lists(st.tuples(st.sampled_from(["", "", "\ufeff", " "]), line_texts,
                                 st.sampled_from(["\n", "\r\n", "\r"])),
                       min_size=1, max_size=4).map(
    lambda lines: "".join(prefix + line + end for prefix, line, end in lines))


@settings(max_examples=300, deadline=None)
@given(text=jsonl_texts)
def test_read_jsonl_agrees_with_stdlib_json(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("jsonl") / "f.jsonl"
    path.write_bytes(text.encode())
    assert_decoders_agree(path)


@settings(max_examples=300, deadline=None)
@given(text=st.tuples(st.sampled_from(["", "\ufeff", " ", "\n"]), line_texts,
                      st.sampled_from(["", "\n", " \n"])).map("".join))
def test_read_json_agrees_with_stdlib_json(tmp_path_factory, text):
    """A json file decodes by the jsonl lines' rule: records, ``_meta``
    objects, other json values and cut texts alike."""
    path = tmp_path_factory.mktemp("json") / "f.json"
    path.write_bytes(text.encode())
    assert_decoders_agree(path, read_json)


@settings(max_examples=200, deadline=None)
@given(numbers=st.lists(number_texts, min_size=1, max_size=40))
def test_numbers_decode_bitwise_as_stdlib_json(tmp_path_factory, numbers):
    # one number per line: a number orjson rejects sends only its own line
    # to the stdlib decoder
    path = tmp_path_factory.mktemp("jsonl") / "f.jsonl"
    path.write_text("".join(f'{{"id": "a", "x": {n}}}\n' for n in numbers))
    assert_decoders_agree(path)


def test_integers_beyond_64_bits_decode_as_floats(tmp_path):
    """The one way the decoded values differ: a json integer outside
    [-2**63, 2**64) comes back as the nearest float, up to the float range;
    beyond it orjson rejects the line and the stdlib reads the integer."""
    path = tmp_path / "f.jsonl"
    values = [INT64_MIN, INT64_MIN - 1, UINT64_END - 1, UINT64_END, 10 ** 400]
    path.write_text("".join(json.dumps({"id": "a", "x": v}) + "\n" for v in values))
    got = [record["x"] for record in formats.read_jsonl(path, lambda obj: obj)]
    assert [type(v) for v in got] == [int, float, int, float, int]
    assert got == [INT64_MIN, float(INT64_MIN - 1), UINT64_END - 1, float(UINT64_END),
                   10 ** 400]


def test_json_file_integers_beyond_64_bits_decode_as_floats(tmp_path):
    """As in a jsonl line: orjson reads an integer outside [-2**63, 2**64) as
    the nearest float, and a file orjson rejects, as for 10**400, is read
    whole by the stdlib, whose integers stay integers."""
    values = [INT64_MIN, INT64_MIN - 1, UINT64_END - 1, UINT64_END]
    path = tmp_path / "f.json"
    for extra, types in [([], [int, float, int, float]), ([10 ** 400], [int] * 5)]:
        path.write_text(json.dumps({"x": values + extra}) + "\n")
        got = formats.read_json(path, ("x",), lambda obj: obj["x"])
        assert [type(v) for v in got] == types
        assert got == [t(v) for t, v in zip(types, values + extra)]


def test_deep_nesting_is_bad_json_only_where_the_stdlib_decodes(tmp_path):
    path, deep = tmp_path / "f.json", "[" * 5000 + "]" * 5000
    path.write_text('{"x": ' + deep + "}\n")
    assert len(read_json(path)["x"]) == 1
    for text in ('{"x": NaN, "y": ' + deep + "}\n", deep + "\n"):
        path.write_text(text)
        with pytest.raises(formats.FormatError, match="f.json: bad json: maximum recursion"):
            read_json(path)


def test_non_object_line_is_typed_as_the_stdlib_reads_it(tmp_path):
    path = tmp_path / "f.jsonl"
    path.write_text(f"{INT64_MIN - 1}\n")
    with pytest.raises(formats.FormatError, match="f.jsonl:1: expected a json object, got int$"):
        formats.read_jsonl(path, lambda obj: obj)


def test_lines_orjson_rejects_decode_with_stdlib_json(tmp_path):
    path = tmp_path / "f.jsonl"
    path.write_text('{"id": "a", "x": NaN}\n{"id": "b", "x": -Infinity}\n'
                    '{"id": "c", "x": 1e400}\n{"id": "\\ud800", "x": 0}\n')
    records = formats.read_jsonl(path, lambda obj: obj)
    assert [str(r["x"]) for r in records] == ["nan", "-inf", "inf", "0"]
    assert records[-1]["id"] == "\ud800"


def number_outcome(rule, value, shape):
    """("ok", float64 bytes and shape) or (error type, error text) of ``rule``."""
    try:
        arr = rule(value, "'x'", shape)
    except formats.FormatError as exc:
        return type(exc).__name__, str(exc)
    assert arr.dtype == np.float64
    return "ok", arr.shape, arr.tobytes()


edge_ints = st.sampled_from([
    n + e for n in (2 ** 63, -2 ** 63, 2 ** 64, -2 ** 64, 2 ** 1024, -2 ** 1024)
    for e in (-1, 0, 1)] + [10 ** 308, 10 ** 400])
number_pools = [
    st.floats(),
    st.integers() | edge_ints,
    st.floats() | st.integers() | edge_ints,
    st.sampled_from([0, 1, 0.0, 1.0, -0.0, True, False]),
    st.sampled_from([0.0, 1.0]) | st.floats() | st.booleans(),
    st.integers(-3, 3) | st.booleans(),
    st.floats() | st.integers() | edge_ints | st.booleans() | st.none()
    | st.sampled_from(["1.5", "0", "nan", "true", ""])
    | st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
]


def json_arrays(entries):
    """0-d, 1-d, regular 2-d, ragged and deeper json values of ``entries``."""
    return st.one_of(
        entries,
        st.lists(entries, max_size=8),
        st.integers(0, 5).flatmap(lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), max_size=6)),
        st.lists(st.lists(entries, max_size=4) | entries, max_size=5),
        st.recursive(entries, lambda inner: st.lists(inner, max_size=3), max_leaves=10))


@settings(deadline=None)
@given(value=st.sampled_from(number_pools).flatmap(json_arrays),
       shape=st.sampled_from([(None,), (None, None)]) | st.integers(0, 3).map(
           lambda k: (k,)) | st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_numbers_match_the_exact_type_scan(value, shape):
    """numpy's typing with a scan of the rows that may hide a boolean gives
    the arrays and the errors of a scan of every entry. ``max_examples`` is
    left to the profile (``--hypothesis-profile=ci`` runs 2,000)."""
    assert (number_outcome(formats.numbers, value, shape)
            == number_outcome(json_numbers, value, shape))


@pytest.mark.parametrize("value, ok", [
    ([[0.0, 1.0], [1.0, 0.0]], True), ([[0.0, 1.0], [True, 0.0]], False),
    ([[0.5, 2.5], [0.0, False]], False), ([[2, 3], [1, 4]], True),
    ([[2, 3], [True, 4]], False), ([1.0, 0.0, 1.0], True), ([0.5, True], False),
    ([7, 1, False], False),
], ids=["one-hot", "one-hot-bool", "float-bool-late-row", "ints", "int-bool",
        "one-hot-1d", "float-bool-1d", "int-bool-1d"])
def test_booleans_among_zeros_and_ones_are_rejected(value, ok):
    shape = (None,) * (2 if isinstance(value[0], list) else 1)
    assert number_outcome(formats.numbers, value, shape)[0] == (
        "ok" if ok else "FormatError")


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)],
                         ids=["umask-022", "umask-077", "umask-002"])
@pytest.mark.parametrize("write", [
    lambda path: formats.write_jsonl(path, ({"a": 1},)),
    lambda path: formats.write_jsonl(path, [{"id": "a"}], meta={"seed": 0}),
    lambda path: formats.write_csv(path, ["a"], [[1]]),
], ids=["json", "jsonl", "csv"])
def test_written_files_get_the_umask_mode(tmp_path, umask, mode, write):
    path = tmp_path / "out"
    old = os.umask(umask)
    try:
        write(path)
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert os.listdir(tmp_path) == ["out"]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("write", [
    lambda path, v: formats.write_jsonl(path, ({"a": [1.0, v]},)),
    lambda path, v: formats.write_jsonl(path, [{"id": "a", "x": v}], meta={"seed": 0}),
    lambda path, v: formats.write_jsonl(path, [{"id": "a"}], meta={"target": v}),
], ids=["json", "jsonl-record", "jsonl-meta"])
def test_json_writers_refuse_non_finite_numbers(tmp_path, write, value):
    """json has no NaN or Infinity: the writer names the file, and neither
    the file nor its temp file is left."""
    path = tmp_path / "out"
    with pytest.raises(formats.FormatError, match=f"{path}: Out of range float"):
        write(path, value)
    assert os.listdir(tmp_path) == []


def test_write_json_bytes_are_those_of_json_dump(tmp_path):
    """A json file is one record of ``write_jsonl``, which forms its text
    with ``json.dumps`` (the C encoder); the bytes are those ``json.dump``
    (the pure-Python encoder) streams, for extreme floats, big integers and
    non-ASCII strings alike."""
    obj = {"floats": [5e-324, -0.0, 1e22, 1e-300, 0.1, -1.7976931348623157e308],
           "ints": [2 ** 70, -2 ** 70, 0], "text": ["é", "日本", "\U0001f600", " "],
           "nested": {"ü": [[1.5, None, True]]}}
    path = tmp_path / "out.json"
    formats.write_jsonl(path, (obj,))
    with open(tmp_path / "ref.json", "w") as fh:
        json.dump(obj, fh, allow_nan=False)
        fh.write("\n")
    assert path.read_bytes() == (tmp_path / "ref.json").read_bytes()
