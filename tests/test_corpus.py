import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from acoustic_lda import cli, corpus, domains, gmm
from acoustic_lda.corpus import (
    Bags,
    CorpusError,
    Frames,
    Symbols,
    load_features,
    save_features,
    to_bag,
)
from acoustic_lda.domains import Assignments
from acoustic_lda.lda import LdaModel
from synthetic import (bag_record, feature_record, generate_synthetic_lda_corpus,
                       symbols_record)


def write_jsonl(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


class TestLoadFeatures:
    def test_two_documents(self, tmp_path):
        path = tmp_path / "f.jsonl"
        write_jsonl(path, [
            {"id": "a", "group": "news", "frames": [[1, 2], [3, 4], [5, 6]]},
            {"id": "b", "group": None, "frames": [[0, 0], [1, 1], [2, 2]]},
        ])
        record = load_features(path)
        assert record.ids == ("a", "b")
        np.testing.assert_array_equal(record.offsets, [0, 3, 6])
        assert record.num_frames == 6 and record.dim == 2
        assert record.groups == ("news", None)
        np.testing.assert_array_equal(record.frames[:3], [[1, 2], [3, 4], [5, 6]])

    def test_nan_names_document_and_frame(self, tmp_path):
        path = tmp_path / "f.jsonl"
        write_jsonl(path, [
            {"id": "ok", "frames": [[1.0]]},
            {"id": "bad", "frames": [[1.0], [float("nan")]]},
        ])
        with pytest.raises(CorpusError, match="'bad'.*frame 1"):
            load_features(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text("")
        record = load_features(path)
        assert record.ids == () and record.num_frames == 0

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "f.jsonl"
        write_jsonl(path, [
            {"id": "a", "frames": [[1, 2]]},
            {"id": "b", "frames": [[1, 2, 3]]},
        ])
        with pytest.raises(CorpusError,
                           match=f"^{path}:2: 'frames' have width 3, earlier lines 2$"):
            load_features(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "f.jsonl"
        write_jsonl(path, [
            {"id": "a", "frames": [[1.0]]},
            {"id": "a", "frames": [[2.0]]},
        ])
        with pytest.raises(CorpusError, match=f"^{path}:2: duplicate document id 'a'$"):
            load_features(path)

    def test_one_hot_frames(self, tmp_path):
        # every entry 0.0 or 1.0: the rows where a boolean could hide as 0 or 1
        path = tmp_path / "f.jsonl"
        frames = np.eye(4)[[0, 2, 1, 3, 3, 0]]
        write_jsonl(path, [{"id": "a", "frames": frames.tolist()},
                           {"id": "b", "frames": frames[:2].tolist()}])
        record = load_features(path)
        np.testing.assert_array_equal(record.frames[:6], frames)
        assert record.frames.dtype == np.float64
        rows = frames.tolist()
        rows[4][3] = True
        write_jsonl(path, [{"id": "a", "frames": frames[:2].tolist()},
                           {"id": "b", "frames": rows}])
        with pytest.raises(CorpusError, match=f"{path}:2: 'frames' must be a regular"):
            load_features(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(CorpusError, match="bad json"):
            load_features(path)


class TestReadFeatures:
    """``quantize_features``, the reader that streams a features file, hands
    ``quantize`` each line's document as a one-document record."""

    def test_each_document_in_order(self, tmp_path):
        path = tmp_path / "f.jsonl"
        write_jsonl(path, [{"id": "a", "group": "g", "frames": [[1, 2]]},
                           {"id": "b", "frames": [[3, 4], [5, 6]]}])
        seen = []
        symbols = corpus.quantize_features(
            path, lambda doc: seen.append(doc) or np.zeros(len(doc), np.int64))
        assert (symbols.ids, symbols.groups, symbols.offsets.tolist()) == (
            ("a", "b"), ("g", None), [0, 1, 3])
        assert [(d.ids, d.groups, d.offsets.tolist()) for d in seen] == [
            (("a",), ("g",), [0, 1]), (("b",), (None,), [0, 2])]
        np.testing.assert_array_equal(seen[1].frames, [[3, 4], [5, 6]])

    @pytest.mark.parametrize("lines, called, message, error", [
        pytest.param([("d0", [[1.0]]), ("d1", [[np.nan]]), ("d2", [[1e9]])], ["d0"],
                     "document 'd1': non-finite value at frame 0, dim 0", None,
                     id="own-fault"),
        pytest.param([("d0", [[1.0]]), ("d1", [[1.0, 2.0]]), ("d2", [[1e9]])], ["d0"],
                     "'frames' have width 2, earlier lines 1", None, id="width"),
        pytest.param([("d0", [[1.0]]), ("d0", [[1e9]]), ("d2", [[np.nan]])], ["d0"],
                     "duplicate document id 'd0'", None, id="duplicate-id"),
        pytest.param([("d0", [[1.0]]), ("d1", [[1e9]]), ("d2", [[np.nan]])], ["d0", "d1"],
                     "quantize rejects 'd1'", ValueError, id="each-value-error"),
        pytest.param([("d0", [[1.0]]), ("d1", [[1e9]]), ("d2", [[np.nan]])], ["d0", "d1"],
                     "quantize rejects 'd1'", FloatingPointError,
                     id="each-floating-point-error"),
    ])
    def test_first_faulty_line_is_the_fault(self, tmp_path, lines, called, message,
                                            error):
        """Line 2 is the first faulty line, by its own fault or by one that
        ``quantize`` raises on its document: ``quantize`` sees every line
        before it and none after it, and the fault names ``file:line``. A
        FloatingPointError of ``quantize`` propagates as it was raised."""
        path = tmp_path / "f.jsonl"
        write_jsonl(path, [{"id": doc_id, "frames": frames} for doc_id, frames in lines]
                    + [{"id": "d3", "frames": [[1.0]]}])
        seen, raised = [], []

        def quantize(doc):
            seen.append(doc.ids[0])
            if doc.frames.max() > 1e8:
                raised.append(error(f"quantize rejects {doc.ids[0]!r}"))
                raise raised[0]
            return np.zeros(len(doc), np.int64)

        with pytest.raises((CorpusError, FloatingPointError)) as info:
            corpus.quantize_features(path, quantize)
        if error is FloatingPointError:
            assert info.value is raised[0]
        else:
            assert type(info.value) is CorpusError
            assert str(info.value) == f"{path}:2: {message}"
        assert seen == called


class TestRoundTrips:
    def test_features_jsonl(self, tmp_path):
        rng = np.random.default_rng(0)
        record = feature_record(*rng.normal(size=(5, 4, 3)),
                                groups=["g" if i % 2 else None for i in range(5)])
        path = tmp_path / "f.jsonl"
        save_features(path, record)
        loaded = load_features(path)
        assert loaded.ids == record.ids and loaded.groups == record.groups
        np.testing.assert_array_equal(loaded.offsets, record.offsets)
        np.testing.assert_allclose(loaded.frames, record.frames, atol=1e-12)

    def test_symbols_and_bags(self, tmp_path):
        symbols = symbols_record([0, 1, 1, 3], [], [2], ids=["x", "y", "z"],
                                 groups=["g", None, "h"])
        corpus.save_symbols(tmp_path / "s.jsonl", symbols)
        assert (tmp_path / "s.jsonl").read_text() == (
            '{"id": "x", "group": "g", "symbols": [0, 1, 1, 3]}\n'
            '{"id": "y", "group": null, "symbols": []}\n'
            '{"id": "z", "group": "h", "symbols": [2]}\n')
        back = corpus.load_symbols(tmp_path / "s.jsonl")
        assert back.ids == symbols.ids and back.groups == symbols.groups
        np.testing.assert_array_equal(back.offsets, [0, 4, 4, 5])
        np.testing.assert_array_equal(back.symbols, symbols.symbols)
        assert back.symbols.flags.owndata and not back.symbols.flags.writeable

        bags = bag_record([2, 0, 1], ids=["x"], groups=["g"])
        corpus.save_bags(tmp_path / "b.jsonl", bags)
        back = corpus.load_bags(tmp_path / "b.jsonl")
        np.testing.assert_array_equal(back.counts, bags.counts)
        assert back.groups == ("g",)


class TestIntegerFields:
    @pytest.mark.parametrize("values", [
        pytest.param([1.7, 2, 0], id="float"),
        pytest.param([2.0, 1, 0], id="integral-float"),
        pytest.param([True, 2, 1], id="bool"),
        pytest.param([[1], 2], id="nested"),
        pytest.param([10**30, 1], id="beyond-int64"),
        pytest.param("120", id="string"),
    ])
    @pytest.mark.parametrize("loader, field", [
        (corpus.load_symbols, "symbols"),
        (corpus.load_bags, "counts"),
    ])
    def test_non_integer_values_rejected(self, tmp_path, loader, field, values):
        path = tmp_path / "docs.jsonl"
        write_jsonl(path, [{"id": "a", field: [0, 1]}, {"id": "b", field: values}])
        with pytest.raises(CorpusError,
                           match=f"{path}:2: .*'{field}' must be a list of integers"):
            loader(path)


THETA = {"theta": [0.25, 0.75], "map_domain": 1}


@pytest.mark.parametrize("loader, fields, line2, message", [
    pytest.param(corpus.load_features, {"frames": [[1.0, 2.0]]},
                 {"id": "a", "frames": [[1.0, 2.0]]}, "duplicate document id 'a'",
                 id="features"),
    pytest.param(corpus.load_symbols, {"symbols": [0, 1]}, {"id": "a", "symbols": [0, 1]},
                 "duplicate document id 'a'", id="symbols"),
    pytest.param(corpus.load_bags, {"counts": [0, 1]}, {"id": "a", "counts": [0, 1]},
                 "duplicate document id 'a'", id="bags"),
    pytest.param(domains.load_assignments, THETA, {"id": "a", **THETA},
                 "duplicate document id 'a'", id="assignments"),
    pytest.param(corpus.load_symbols, {"symbols": [0, 1]}, {"id": "b", "symbols": [0, -1]},
                 "document 'b': negative symbol", id="symbols-negative-symbol"),
    pytest.param(corpus.load_bags, {"counts": [0, 1]}, {"id": "b", "counts": [0, -1]},
                 "counts must be >= 0", id="bags-negative-count"),
    pytest.param(domains.load_assignments, THETA,
                 {"id": "b", "theta": [-0.25, 1.25], "map_domain": 1},
                 "document 'b': theta must not be negative",
                 id="assignments-negative-theta"),
    pytest.param(domains.load_assignments, THETA,
                 {"id": "b", "theta": [0.5, 0.6], "map_domain": 1},
                 "document 'b': theta must sum to 1", id="assignments-theta-sum"),
    pytest.param(domains.load_assignments, THETA, {"id": "b", **THETA, "weight": -1.0},
                 "document 'b': negative weight", id="assignments-negative-weight"),
])
def test_repeated_id_names_the_line_that_repeats_it(tmp_path, loader, fields, line2,
                                                     message):
    """The first line that repeats an id is the fault, raised as it is read:
    a later line that does not parse is never reached, and an earlier one
    is the fault instead. So is a line 2 whose one fault is a repeated id
    or one that the record checks, which each line is checked for: bad json
    on line 4 is never reached."""
    path = tmp_path / "docs.jsonl"
    write_jsonl(path, [{"id": doc_id, **fields} for doc_id in ("a", "b", "a", "b")])
    with pytest.raises(CorpusError, match=f"^{path}:3: duplicate document id 'a'$"):
        loader(path)
    write_jsonl(path, [{"id": doc_id, **fields} for doc_id in ("a", "b", "a")]
                + [{"id": "c"}])
    with pytest.raises(CorpusError, match=f"^{path}:3: duplicate document id 'a'$"):
        loader(path)
    write_jsonl(path, [{"id": "a", **fields}, {"id": "c"}, {"id": "a", **fields}])
    with pytest.raises(CorpusError, match=f"^{path}:2: "):
        loader(path)
    write_jsonl(path, [{"id": "a", **fields}, line2, {"id": "c", **fields}])
    with open(path, "a") as fh:
        fh.write("{not json\n")
    with pytest.raises(CorpusError) as info:
        loader(path)
    assert str(info.value) == f"{path}:2: {message}"


@pytest.mark.parametrize("loader, fields", [
    pytest.param(corpus.load_features, {}, id="features"),
    pytest.param(corpus.load_labeled_frames, {"labels": [0]}, id="labelled-frames"),
])
def test_loaders_build_one_frames_record(tmp_path, monkeypatch, loader, fields):
    """A loader checks each line with the record's check and builds the
    record once, not once per line."""
    path = tmp_path / "f.jsonl"
    write_jsonl(path, [{"id": doc_id, "frames": [[1.0, 2.0]], **fields}
                       for doc_id in ("a", "b", "c")])
    built, post_init = [], Frames.__post_init__
    monkeypatch.setattr(Frames, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    record = loader(path)
    assert len(built) == 1 and built[0] is record and record.ids == ("a", "b", "c")


RECORD_ARRAYS = [
    pytest.param(lambda a: Frames(ids=["d"], groups=[None], offsets=[0, 1], frames=a),
                 "frames", [[1.0, 2.0]], np.nan, id="Frames"),
    pytest.param(lambda a: Symbols(ids=["d"], groups=[None], offsets=[0, 3], symbols=a),
                 "symbols", [0, 1, 2], -5, id="Symbols"),
    pytest.param(lambda a: Bags(ids=["d"], groups=[None], counts=a), "counts",
                 [[3, 0, 1]], -5, id="Bags"),
    pytest.param(lambda a: LdaModel(alpha=a, log_beta=np.log([[0.5, 0.5], [0.2, 0.8]])),
                 "alpha", [0.5, 0.5], -3.0, id="LdaModel"),
    pytest.param(lambda a: Assignments(ids=["d"], thetas=a, weights=[1.0]), "thetas",
                 [[0.7, 0.3]], 0.0, id="Assignments"),
    pytest.param(lambda a: Frames(ids=["d"], groups=[None], offsets=[0, 2],
                                  frames=np.zeros((2, 1)), labels=a),
                 "labels", [0, 1], -1, id="Frames-labels"),
    pytest.param(lambda a: gmm.GmmModel(weights=[1.0], means=a, variances=[[1.0, 1.0]]),
                 "means", [[0.0, 1.0]], np.nan, id="GmmModel"),
]


@pytest.mark.parametrize("build, field, given, bad", RECORD_ARRAYS)
def test_records_own_their_arrays(build, field, given, bad):
    """A record keeps a read-only copy: a view of the caller's array taken
    before cannot write into it, and the caller's array stays writable."""
    arr = np.array(given)
    view = arr[:]
    record = build(arr)
    view[0] = bad
    assert arr.flags.writeable
    np.testing.assert_array_equal(getattr(record, field), given)
    assert not getattr(record, field).flags.writeable


@pytest.mark.parametrize("build, field, given, bad", RECORD_ARRAYS)
def test_records_copy_a_callers_read_only_array(build, field, given, bad):
    """A caller's array that owns its data and is read-only is copied too:
    its owner can turn writes back on, and a value written then, which the
    record's checks would reject, must not reach the record."""
    arr = np.array(given)
    arr.setflags(write=False)
    record = build(arr)
    arr.setflags(write=True)
    arr.flat[0] = bad
    np.testing.assert_array_equal(getattr(record, field), given)
    assert not getattr(record, field).flags.writeable


@pytest.mark.parametrize("make", [
    pytest.param(lambda a: a, id="writable"),
    pytest.param(lambda a: _frozen(a[:]), id="read-only-view"),
])
def test_frame_data_copies_an_array_it_does_not_own(make):
    """Frames keeps an array uncopied only when the package froze it itself,
    as a loaded record's frames: a writable array, or a read-only view of a
    writable base, could still be written, so it is copied."""
    def record(frames):
        return Frames(ids=["d"], groups=[None], offsets=[0, 2], frames=frames)
    owned = corpus._frozen(np.zeros((2, 1)))
    assert record(owned).frames is owned
    given = make(np.zeros((2, 1)))
    assert not np.shares_memory(record(given).frames, given)


def _frozen(arr):
    arr.setflags(write=False)
    return arr


@pytest.mark.parametrize("changes, message", [
    pytest.param({"offsets": [0, 1, 2]}, "offsets", id="offsets-short-of-N"),
    pytest.param({"offsets": [0, 3, 1]}, "offsets", id="offsets-decreasing"),
    pytest.param({"offsets": [1, 2, 3]}, "offsets", id="offsets-not-from-0"),
    pytest.param({"groups": [None]}, "groups", id="groups-length"),
    pytest.param({"frames": np.zeros(3)}, "2-d", id="one-d-frames"),
    pytest.param({"labels": [0, 1]}, "labels", id="labels-length"),
    pytest.param({"frames": [[0.0, 1.0], [np.inf, 0.0], [0.0, 0.0]]}, "finite",
                 id="non-finite-frames"),
    pytest.param({"frames": [[0.0, 1.0], [0.0, 0.0], [0.0, np.nan]]},
                 "^document 'b': non-finite value at frame 1, dim 1$",
                 id="nan-at-frame-1-of-the-second-document"),
    pytest.param({"labels": [0.0, 1.5, 2.0]}, "labels must be integers", id="float-labels"),
    pytest.param({"labels": [0, -1, 2]}, "labels must be >= 0", id="negative-label"),
])
def test_frames_record_checks_its_layout(changes, message):
    fields = {"ids": ["a", "b"], "groups": [None, "g"], "offsets": [0, 1, 3],
              "frames": np.zeros((3, 2)), "labels": [0, 1, 2]}
    Frames(**fields)
    with pytest.raises(CorpusError, match=message):
        Frames(**{**fields, **changes})


@pytest.mark.parametrize("changes, message", [
    pytest.param({"counts": [3, 0, 1, 2]}, "counts", id="one-d-counts"),
    pytest.param({"counts": [[3, 0], [1, 2], [0, 1]]}, "counts", id="counts-rows"),
    pytest.param({"groups": [None]}, "groups", id="groups-length"),
    pytest.param({"counts": [[3.0, 0.0], [1.5, 2.0]]}, "counts must be integers",
                 id="float-counts"),
    pytest.param({"counts": [[3, 0], [-1, 2]]}, "counts must be >= 0", id="negative-count"),
])
def test_bags_record_checks_its_layout(changes, message):
    fields = {"ids": ["a", "b"], "groups": [None, "g"], "counts": [[3, 0], [1, 2]]}
    bags = Bags(**fields)
    assert len(bags) == 2 and bags.vocab_size == 2
    with pytest.raises(CorpusError, match=message):
        Bags(**{**fields, **changes})


class TestLoadBags:
    def test_one_matrix_in_file_order(self, tmp_path):
        path = tmp_path / "bags.jsonl"
        write_jsonl(path, [{"id": "b", "group": "g", "counts": [0, 2, 1]},
                           {"id": "a", "counts": [4, 0, 0]}])
        bags = corpus.load_bags(path)
        assert bags.ids == ("b", "a") and bags.groups == ("g", None)
        np.testing.assert_array_equal(bags.counts, [[0, 2, 1], [4, 0, 0]])
        assert bags.counts.flags.owndata and not bags.counts.flags.writeable

    def test_empty_file_has_no_documents(self, tmp_path):
        path = tmp_path / "bags.jsonl"
        path.write_text("")
        assert len(corpus.load_bags(path)) == 0

    @pytest.mark.parametrize("counts, message", [
        pytest.param([1, 2], "'counts' has 2 symbols, earlier lines 3", id="short-row"),
        pytest.param([1], "'counts' has 1 symbols, earlier lines 3", id="one-count"),
        pytest.param([1, 2, -1], "counts must be >= 0", id="negative-count"),
    ])
    def test_bad_line_named(self, tmp_path, counts, message):
        path = tmp_path / "bags.jsonl"
        write_jsonl(path, [{"id": "a", "counts": [1, 2, 3]}, {"id": "b", "counts": counts}])
        with pytest.raises(CorpusError, match=f"{path}:2: {message}"):
            corpus.load_bags(path)


def write_frames(path, docs, frames, dim, labelled):
    """A features (or labelled frames) file of ``docs`` documents of
    ``frames`` frames of ``dim`` 5-decimal values."""
    rng = np.random.default_rng(31)
    with open(path, "w") as fh:
        for i in range(docs):
            x = np.round(rng.normal(size=(frames, dim)), 5)
            rec = {"id": f"d{i}", "frames": x.tolist()}
            if labelled:
                rec["labels"] = rng.integers(0, 8, size=frames).tolist()
            fh.write(json.dumps(rec) + "\n")


class TestFrameMemory:
    """A corpus's frames are held once: the loaders fill one buffer and
    train-gmm takes the features record's matrix as it is. Training, ``eval``
    and the held-out pass gather their input rows a block at a time
    (``tests/test_network.py`` bounds their peaks), so they hold no second
    copy of the frames either."""

    @pytest.mark.parametrize("labelled", [False, True], ids=["features", "labelled"])
    def test_loading_peaks_below_two_and_a_half_times_the_frames(self, tmp_path, labelled):
        # per document, parsing holds one line's text and json values, so the
        # documents are many and short beside the whole
        path = tmp_path / "frames.jsonl"
        write_frames(path, 60, 100, 39, labelled)
        tracemalloc.start()
        try:
            if labelled:
                record = corpus.load_labeled_frames(path)
            else:
                record = corpus.load_features(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert record.frames.shape == (6000, 39)
        assert peak < 2.5 * record.frames.nbytes, peak / record.frames.nbytes

    def test_quantize_holds_one_document_at_a_time(self, tmp_path):
        path, model = tmp_path / "frames.jsonl", tmp_path / "gmm.json"
        write_frames(path, 60, 100, 39, labelled=False)
        gmm.save_gmm(model, gmm.GmmModel(weights=[0.5, 0.5], means=np.eye(2, 39),
                                         variances=np.ones((2, 39))), seed=0)
        argv = ["quantize", "--gmm", str(model), "--features", str(path),
                "--out", str(tmp_path / "symbols.jsonl")]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        frames_bytes = 6000 * 39 * 8
        assert peak < 0.5 * frames_bytes, peak / frames_bytes

    def test_records_are_read_only_and_own_their_buffers(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        write_frames(path, 3, 4, 2, labelled=True)
        record = corpus.load_labeled_frames(path)
        for arr in (record.frames, record.labels, record.offsets):
            assert arr.flags.owndata and not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            record.frames[0, 0] = 1.0

    def test_train_gmm_takes_the_records_frames(self, tmp_path, monkeypatch):
        path = tmp_path / "features.jsonl"
        write_frames(path, 4, 10, 2, labelled=False)
        loaded, trained = [], []
        load, train = corpus.load_features, gmm.train_gmm
        monkeypatch.setattr(corpus, "load_features",
                            lambda p: loaded.append(load(p)) or loaded[-1])
        monkeypatch.setattr(gmm, "train_gmm",
                            lambda frames, k: trained.append(frames) or train(frames, k))
        assert cli.main(["train-gmm", "--features", str(path), "--components", "2",
                         "--out", str(tmp_path / "gmm.json")]) == 0
        assert trained[0] is loaded[0].frames


class TestToBag:
    def test_basic_counts(self):
        bag = to_bag(symbols_record([0, 0, 2]), 3)
        np.testing.assert_array_equal(bag.counts, [[2, 0, 1]])
        assert bag.counts.sum() == 3

    def test_single_symbol(self):
        bag = to_bag(symbols_record([1]), 4)
        np.testing.assert_array_equal(bag.counts, [[0, 1, 0, 0]])

    def test_out_of_range(self):
        with pytest.raises(CorpusError, match="out of range"):
            to_bag(symbols_record([5]), 4)

    def test_documents_in_order(self):
        bags = to_bag(symbols_record([2, 2], [], ids=["x", "y"], groups=["g", None]), 3)
        assert bags.ids == ("x", "y") and bags.groups == ("g", None)
        np.testing.assert_array_equal(bags.counts, [[0, 0, 2], [0, 0, 0]])
        assert bags.counts.flags.owndata and not bags.counts.flags.writeable

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=0, max_size=200))
    def test_mass_preserved(self, symbols):
        bag = to_bag(symbols_record(symbols), 10)
        assert bag.counts.sum() == len(symbols)

    @given(st.integers(1, 6).flatmap(lambda v: st.tuples(
        st.just(v), st.lists(st.lists(st.integers(0, v - 1), max_size=8), max_size=8))))
    def test_counts_are_each_documents_bincount(self, case):
        """The one bincount over the record gives each document the counts of
        its own np.bincount, empty documents and V=1 among them."""
        v, docs = case
        bags = to_bag(symbols_record(*docs), v)
        assert bags.counts.shape == (len(docs), v)
        for row, doc in zip(bags.counts, docs):
            np.testing.assert_array_equal(row, np.bincount(np.array(doc, dtype=np.int64),
                                                           minlength=v))

    @given(st.lists(st.lists(st.integers(-2, 7), max_size=6), min_size=1, max_size=8),
           st.integers(1, 5))
    def test_a_bad_symbol_names_the_first_faulty_document(self, docs, v):
        """A negative symbol fails the record, and a symbol >= V fails
        ``to_bag``; each names the first document that holds one."""
        negative = [i for i, doc in enumerate(docs) if min(doc, default=0) < 0]
        over = [i for i, doc in enumerate(docs) if max(doc, default=0) >= v]
        if negative:
            with pytest.raises(CorpusError) as info:
                symbols_record(*docs)
            assert str(info.value) == f"document 'd{negative[0]}': negative symbol"
        elif over:
            with pytest.raises(CorpusError) as info:
                to_bag(symbols_record(*docs), v)
            assert str(info.value) == (f"document 'd{over[0]}': symbol "
                                       f"{max(docs[over[0]])} out of range for V={v}")
        else:
            assert to_bag(symbols_record(*docs), v).counts.sum() == sum(map(len, docs))


class TestSyntheticCorpus:
    def test_single_topic_matches_row(self):
        beta = np.array([[0.7, 0.2, 0.1]])
        docs = generate_synthetic_lda_corpus(1.0, beta, 200, 50, seed=0)
        assert len(docs.ids) == 200
        np.testing.assert_array_equal(docs.offsets, np.arange(201) * 50)
        counts = np.bincount(docs.symbols, minlength=3)
        freq = counts / counts.sum()
        np.testing.assert_allclose(freq, beta[0], atol=0.02)

    def test_disjoint_support_sparse_dirichlet(self):
        beta = np.array([
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
        ])
        docs = generate_synthetic_lda_corpus(0.01, beta, 1000, 40, seed=1)
        dominated = 0
        for symbols in docs.symbols.reshape(1000, 40):
            frac0 = np.isin(symbols, [0, 1]).mean()
            if max(frac0, 1 - frac0) >= 0.9:
                dominated += 1
        assert dominated >= 950

    def test_same_seed_identical(self):
        beta = np.array([[0.25, 0.25, 0.25, 0.25], [0.1, 0.2, 0.3, 0.4]])
        a = generate_synthetic_lda_corpus(0.3, beta, 20, 15, seed=9)
        b = generate_synthetic_lda_corpus(0.3, beta, 20, 15, seed=9)
        assert a.ids == b.ids
        np.testing.assert_array_equal(a.symbols, b.symbols)

    def test_rejects_bad_inputs(self):
        good = np.array([[0.5, 0.5]])
        with pytest.raises(ValueError):
            generate_synthetic_lda_corpus(0.0, good, 1, 1, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic_lda_corpus(1.0, np.array([[0.5, 0.6]]), 1, 1, seed=0)
