import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from acoustic_lda import cli, corpus, gmm
from acoustic_lda.corpus import (
    BagOfSounds,
    CorpusError,
    Frames,
    SymbolDocument,
    load_features,
    save_features,
    to_bag,
)
from acoustic_lda.domains import DomainAssignment
from acoustic_lda.lda import LdaModel
from acoustic_lda.network import FrameData
from synthetic import feature_record, generate_synthetic_lda_corpus


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
        with pytest.raises(CorpusError, match="dimension"):
            load_features(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "f.jsonl"
        write_jsonl(path, [
            {"id": "a", "frames": [[1.0]]},
            {"id": "a", "frames": [[2.0]]},
        ])
        with pytest.raises(CorpusError, match="duplicate"):
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
    def test_each_document_in_order(self, tmp_path):
        path = tmp_path / "f.jsonl"
        write_jsonl(path, [{"id": "a", "group": "g", "frames": [[1, 2]]},
                           {"id": "b", "frames": [[3, 4], [5, 6]]}])
        seen = []
        docs = corpus.read_features(path, seen.append)
        assert docs == [("a", "g", 1), ("b", None, 2)]
        assert [(d.ids, d.groups, d.offsets.tolist()) for d in seen] == [
            (("a",), ("g",), [0, 1]), (("b",), (None,), [0, 2])]
        np.testing.assert_array_equal(seen[1].frames, [[3, 4], [5, 6]])

    @pytest.mark.parametrize("lines, message, called", [
        pytest.param([[[1e9]], [[np.nan]], [[2.0]]], "'d1': non-finite value at frame 0",
                     ["d0"], id="later-document-fault-beats-each-fault"),
        pytest.param([[[np.nan]], [[1e9]], [[1.0, 2.0]]], "'d0': non-finite", [],
                     id="first-document-fault"),
        pytest.param([[[1.0]], [[1e9]], [[1e9]]], "each d1", ["d0", "d1"],
                     id="first-each-fault"),
    ])
    def test_faults_in_the_order_of_a_whole_file_check(self, tmp_path, lines, message,
                                                        called):
        """A document's own fault beats any fault of ``each``, and ``each``
        is not called from the first fault on."""
        path = tmp_path / "f.jsonl"
        write_jsonl(path, [{"id": f"d{i}", "frames": f} for i, f in enumerate(lines)])
        seen = []

        def each(doc):
            seen.append(doc.ids[0])
            if doc.frames.max() > 1e8:
                raise FloatingPointError(f"each {doc.ids[0]}")

        with pytest.raises((CorpusError, FloatingPointError), match=message):
            corpus.read_features(path, each)
        assert seen == called

    def test_duplicate_id_beats_document_faults(self, tmp_path):
        path = tmp_path / "f.jsonl"
        write_jsonl(path, [{"id": "a", "frames": [[np.nan]]}, {"id": "a", "frames": [[1.0]]}])
        with pytest.raises(CorpusError, match="duplicate document id 'a'"):
            corpus.read_features(path, lambda doc: None)


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
        sdocs = [SymbolDocument(id="x", symbols=np.array([0, 1, 1, 3]), group="g")]
        corpus.save_symbols(tmp_path / "s.jsonl", sdocs)
        back = corpus.load_symbols(tmp_path / "s.jsonl")
        np.testing.assert_array_equal(back[0].symbols, sdocs[0].symbols)

        bags = [BagOfSounds(id="x", counts=np.array([2, 0, 1]), group="g")]
        corpus.save_bags(tmp_path / "b.jsonl", bags)
        back = corpus.load_bags(tmp_path / "b.jsonl")
        np.testing.assert_array_equal(back[0].counts, bags[0].counts)
        assert back[0].group == "g"


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


@pytest.mark.parametrize("build, field, given, bad", [
    pytest.param(lambda a: Frames(ids=["d"], groups=[None], offsets=[0, 1], frames=a),
                 "frames", [[1.0, 2.0]], np.nan, id="Frames"),
    pytest.param(lambda a: SymbolDocument(id="d", symbols=a), "symbols",
                 [0, 1, 2], -5, id="SymbolDocument"),
    pytest.param(lambda a: BagOfSounds(id="d", counts=a), "counts",
                 [3, 0, 1], -5, id="BagOfSounds"),
    pytest.param(lambda a: LdaModel(alpha=a, log_beta=np.log([[0.5, 0.5], [0.2, 0.8]])),
                 "alpha", [0.5, 0.5], -3.0, id="LdaModel"),
    pytest.param(lambda a: DomainAssignment(doc_id="d", theta=a, map_domain=0), "theta",
                 [0.7, 0.3], 0.0, id="DomainAssignment"),
    pytest.param(lambda a: FrameData(a, [0]), "features", [[1.0, 2.0]], np.nan,
                 id="FrameData-features"),
    pytest.param(lambda a: FrameData(np.zeros((2, 1)), a), "labels", [0, 1], -1,
                 id="FrameData-labels"),
    pytest.param(lambda a: FrameData(np.zeros((2, 1)), [0, 0], domains=a), "domains",
                 [0, 1], -1, id="FrameData-domains"),
])
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


@pytest.mark.parametrize("make", [
    pytest.param(lambda a: a, id="writable"),
    pytest.param(lambda a: _frozen(a[:]), id="read-only-view"),
])
def test_frame_data_copies_an_array_it_does_not_own(make):
    """FrameData keeps an array uncopied only when the array owns its data
    and is read-only: a writable array, or a read-only view of a writable
    base, could still be written, so it is copied."""
    owned = _frozen(np.zeros((2, 1)))
    assert FrameData(owned, [0, 0]).features is owned
    given = make(np.zeros((2, 1)))
    assert not np.shares_memory(FrameData(given, [0, 0]).features, given)


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
])
def test_frames_record_checks_its_layout(changes, message):
    fields = {"ids": ["a", "b"], "groups": [None, "g"], "offsets": [0, 1, 3],
              "frames": np.zeros((3, 2)), "labels": [0, 1, 2]}
    Frames(**fields)
    with pytest.raises(CorpusError, match=message):
        Frames(**{**fields, **changes})


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
    """A corpus's frames are held once: the loaders fill one buffer, a
    FrameData shares the labelled record's arrays and train-gmm takes the
    features record's matrix as it is."""

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
                dataset = cli._frame_dataset(record, None)
            else:
                record = corpus.load_features(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert record.frames.shape == (6000, 39)
        assert peak < 2.5 * record.frames.nbytes, peak / record.frames.nbytes
        if labelled:
            assert np.shares_memory(dataset.features, record.frames)
            assert np.shares_memory(dataset.labels, record.labels)

    def test_quantize_holds_one_document_at_a_time(self, tmp_path):
        path, model = tmp_path / "frames.jsonl", tmp_path / "gmm.json"
        write_frames(path, 60, 100, 39, labelled=False)
        gmm.save_gmm(model, gmm.GmmModel(weights=[0.5, 0.5], means=np.eye(2, 39),
                                         variances=np.ones((2, 39))))
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
        bag = to_bag(SymbolDocument(id="d", symbols=np.array([0, 0, 2])), 3)
        np.testing.assert_array_equal(bag.counts, [2, 0, 1])
        assert bag.total == 3

    def test_single_symbol(self):
        bag = to_bag(SymbolDocument(id="d", symbols=np.array([1])), 4)
        np.testing.assert_array_equal(bag.counts, [0, 1, 0, 0])

    def test_out_of_range(self):
        with pytest.raises(CorpusError, match="out of range"):
            to_bag(SymbolDocument(id="d", symbols=np.array([5])), 4)

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=0, max_size=200))
    def test_mass_preserved(self, symbols):
        doc = SymbolDocument(id="d", symbols=np.asarray(symbols, dtype=np.int64))
        bag = to_bag(doc, 10)
        assert bag.total == len(symbols)


class TestSyntheticCorpus:
    def test_single_topic_matches_row(self):
        beta = np.array([[0.7, 0.2, 0.1]])
        docs = generate_synthetic_lda_corpus(1.0, beta, 200, 50, seed=0)
        counts = np.zeros(3)
        for d in docs:
            counts += np.bincount(d.symbols, minlength=3)
        freq = counts / counts.sum()
        np.testing.assert_allclose(freq, beta[0], atol=0.02)

    def test_disjoint_support_sparse_dirichlet(self):
        beta = np.array([
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
        ])
        docs = generate_synthetic_lda_corpus(0.01, beta, 1000, 40, seed=1)
        dominated = 0
        for d in docs:
            frac0 = np.isin(d.symbols, [0, 1]).mean()
            if max(frac0, 1 - frac0) >= 0.9:
                dominated += 1
        assert dominated >= 950

    def test_same_seed_identical(self):
        beta = np.array([[0.25, 0.25, 0.25, 0.25], [0.1, 0.2, 0.3, 0.4]])
        a = generate_synthetic_lda_corpus(0.3, beta, 20, 15, seed=9)
        b = generate_synthetic_lda_corpus(0.3, beta, 20, 15, seed=9)
        for da, db in zip(a, b):
            np.testing.assert_array_equal(da.symbols, db.symbols)

    def test_rejects_bad_inputs(self):
        good = np.array([[0.5, 0.5]])
        with pytest.raises(ValueError):
            generate_synthetic_lda_corpus(0.0, good, 1, 1, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic_lda_corpus(1.0, np.array([[0.5, 0.6]]), 1, 1, seed=0)
