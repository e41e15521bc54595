import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from acoustic_lda import corpus
from acoustic_lda.corpus import (
    BagOfSounds,
    CorpusError,
    FeatureDocument,
    SymbolDocument,
    load_features,
    save_features,
    to_bag,
)
from acoustic_lda.domains import DomainAssignment
from acoustic_lda.lda import LdaModel
from acoustic_lda.network import FrameData
from synthetic import generate_synthetic_lda_corpus


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
        docs = load_features(path)
        assert [d.id for d in docs] == ["a", "b"]
        assert all(d.num_frames == 3 and d.dim == 2 for d in docs)
        assert docs[0].group == "news"
        np.testing.assert_array_equal(docs[0].frames, [[1, 2], [3, 4], [5, 6]])

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
        assert load_features(path) == []

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
        docs = load_features(path)
        np.testing.assert_array_equal(docs[0].frames, frames)
        assert docs[0].frames.dtype == np.float64
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


class TestRoundTrips:
    def test_features_jsonl(self, tmp_path):
        rng = np.random.default_rng(0)
        docs = [
            FeatureDocument(id=f"d{i}", frames=rng.normal(size=(4, 3)),
                            group="g" if i % 2 else None)
            for i in range(5)
        ]
        path = tmp_path / "f.jsonl"
        save_features(path, docs)
        loaded = load_features(path)
        for orig, back in zip(docs, loaded):
            assert orig.id == back.id and orig.group == back.group
            np.testing.assert_allclose(back.frames, orig.frames, atol=1e-12)

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
    pytest.param(lambda a: FeatureDocument(id="d", frames=a), "frames",
                 [[1.0, 2.0]], np.nan, id="FeatureDocument"),
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
