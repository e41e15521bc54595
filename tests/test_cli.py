import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acoustic_lda import cli, corpus, gmm, network
from acoustic_lda.cli import _doc_domains, main
from acoustic_lda.network import NetworkConfig, init_network, save_network
from synthetic import assignments_record, bag_record, feature_record


@pytest.fixture
def pipeline_inputs(tmp_path):
    """Small synthetic feature corpus with two acoustically distinct groups."""
    rng = np.random.default_rng(0)
    groups = ["music" if i % 2 else "speech" for i in range(24)]
    record = feature_record(
        *[rng.normal(4.0 if group == "music" else -4.0, 1.0, size=(30, 3))
          for group in groups],
        ids=[f"d{i:02d}" for i in range(24)], groups=groups)
    path = tmp_path / "features.jsonl"
    corpus.save_features(path, record)
    return path


def gmm_json(**changes):
    """A valid V=2, D=3 GMM artifact as json text; a change to None drops
    the key."""
    obj = {"D": 3, "V": 2, "weights": [0.5, 0.5], "means": [[0.0] * 3, [1.0] * 3],
           "variances": [[1.0] * 3, [2.0] * 3], **changes}
    return json.dumps({k: v for k, v in obj.items() if v is not None}) + "\n"


def lda_json(**changes):
    """A valid K=2, V=3 LDA artifact as json text, with a symbol that topic 0
    never emits (-inf, legal on load although ``fit`` never writes it); a
    change to None drops the key."""
    obj = {"K": 2, "V": 3, "alpha": [0.5, 0.5],
           "log_beta": [[np.log(0.5), np.log(0.5), -np.inf],
                        [np.log(0.2), np.log(0.3), np.log(0.5)]], **changes}
    return json.dumps({k: v for k, v in obj.items() if v is not None}) + "\n"


def net_json(layer_changes=(), **changes):
    """A valid 2-input, 2-hidden, 3-class baseline network as json text;
    ``layer_changes`` holds (index, changes) pairs for single layers, and a
    change to None drops the key."""
    obj = {"input_dim": 2, "domain_dim": 0, "activation": "sigmoid", "layers": [
        {"rows": 2, "cols": 2, "weights": [0.1, -0.2, 0.3, 0.4], "bias": [0.0, 0.1]},
        {"rows": 3, "cols": 2, "weights": [0.5, 0.6, -0.7, 0.8, 0.9, -1.0],
         "bias": [0.0, 0.0, 0.1]}]}
    for i, change in layer_changes:
        obj["layers"][i].update(change)
    obj.update(changes)
    return json.dumps({k: v for k, v in obj.items() if v is not None}) + "\n"


# deeper than the stdlib json decoder's recursion limit
DEEP = "[" * 5000 + "]" * 5000
GOOD_FRAMES = '{"id": "d0", "frames": [[0.0, 1.0], [1.0, 0.0]], "labels": [0, 1]}'


def run(*argv):
    return main([str(a) for a in argv])


class TestStages:
    def test_full_pipeline(self, tmp_path, pipeline_inputs, capsys):
        gmm_path = tmp_path / "gmm.json"
        assert run("train-gmm", "--features", pipeline_inputs,
                   "--components", 4, "--seed", 1, "--out", gmm_path) == 0
        assert gmm_path.exists()

        symbols = tmp_path / "symbols.jsonl"
        bags = tmp_path / "bags.jsonl"
        assert run("quantize", "--gmm", gmm_path, "--features", pipeline_inputs,
                   "--out", symbols, "--bags-out", bags) == 0
        loaded = corpus.load_bags(bags)
        assert len(loaded) == 24 and loaded.groups[0] in ("speech", "music")
        # the CLI cuts the corpus's symbols into its documents at the offsets
        record = corpus.load_features(pipeline_inputs)
        symbol_docs = corpus.load_symbols(symbols)
        assert [d.id for d in symbol_docs] == list(record.ids)
        assert [d.group for d in symbol_docs] == list(record.groups)
        assert all(len(d) == 30 for d in symbol_docs)
        np.testing.assert_array_equal(np.concatenate([d.symbols for d in symbol_docs]),
                                      gmm.quantize(gmm.load_gmm(gmm_path), record))

        lda2 = tmp_path / "lda2.json"
        lda3 = tmp_path / "lda3.json"
        assert run("train-lda", "--bags", bags, "--k", 2, "--seed", 3,
                   "--out", lda2) == 0
        assert run("train-lda", "--bags", bags, "--k", 3, "--seed", 3,
                   "--out", lda3) == 0

        a2 = tmp_path / "assign2.jsonl"
        a3 = tmp_path / "assign3.jsonl"
        assert run("assign", "--model", lda2, "--bags", bags, "--out", a2) == 0
        assert run("assign", "--model", lda3, "--bags", bags, "--out", a3) == 0

        capsys.readouterr()
        assert run("entropy", "--model", lda2, "--bags", bags) == 0
        value = float(capsys.readouterr().out.strip())
        assert 0.0 <= value <= 1.0

        filt = tmp_path / "filter.jsonl"
        assert run("filter", "--assign-a", a2, "--assign-b", a3,
                   "--target-frac", 0.6, "--out", filt) == 0
        lines = filt.read_text().strip().splitlines()
        meta = json.loads(lines[0])["_meta"]
        assert meta["kept_weight"] >= meta["target_weight"]
        assert len(lines) - 1 == len(meta.get("histogram", [])) or len(lines) > 1

        stats = tmp_path / "stats.csv"
        assert run("stats", "--assignments", a2, "--bags", bags,
                   "--top-n", 1, "--out", stats) == 0
        text = stats.read_text().splitlines()
        assert text[0] == "group,domain,weight"
        assert len(text) > 1

    def test_entropy_one_hot_prints_zero(self, tmp_path, capsys):
        # model with disjoint supports and documents fully inside one support
        log_beta = np.log(np.array([
            [0.5, 0.5, 1e-12, 1e-12],
            [1e-12, 1e-12, 0.5, 0.5],
        ]))
        log_beta -= np.log(np.exp(log_beta).sum(axis=1, keepdims=True))
        from acoustic_lda.lda import LdaModel, save_lda
        model_path = tmp_path / "lda.json"
        save_lda(model_path, LdaModel(alpha=np.array([0.01, 0.01]),
                                      log_beta=log_beta))
        bags_path = tmp_path / "bags.jsonl"
        corpus.save_bags(bags_path, bag_record([40, 40, 0, 0], [0, 0, 40, 40],
                                               ids=["a", "b"]))
        capsys.readouterr()
        assert run("entropy", "--model", model_path, "--bags", bags_path) == 0
        assert float(capsys.readouterr().out.strip()) < 0.005

    @pytest.mark.parametrize("counts, empty", [
        (([0, 0, 0], [2, 1, 1]), 1), (([0, 0, 0], [0, 0, 0]), 2)])
    def test_empty_documents_take_uniform_theta_and_are_counted(self, tmp_path, capsys,
                                                                 counts, empty):
        """An empty document takes theta 1/K with no warning, which under
        ``-W error`` would escape ``main`` as a traceback; ``assign`` and
        ``entropy`` count such documents on stderr."""
        model, bags, out = tmp_path / "lda.json", tmp_path / "bags.jsonl", tmp_path / "a.jsonl"
        model.write_text(lda_json())
        corpus.save_bags(bags, bag_record(*counts))
        assert run("assign", "--model", model, "--bags", bags, "--out", out) == 0
        assert capsys.readouterr().err == f"assigned 2 documents, {empty} empty\n"
        thetas = [json.loads(line)["theta"] for line in out.read_text().splitlines()[1:]]
        assert thetas[:empty] == [[0.5, 0.5]] * empty
        assert run("entropy", "--model", model, "--bags", bags) == 0
        captured = capsys.readouterr()
        assert captured.err == f"entropy over 2 documents, {empty} empty\n"
        assert captured.out.count("\n") == 1 and float(captured.out) <= 1.0


class TestTrainEval:
    def test_augment_train_and_eval(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        rows = []
        for i in range(10):
            frames = rng.normal(size=(20, 3))
            labels = (frames[:, 0] > 0).astype(int)
            rows.append({"id": f"d{i}", "frames": frames.tolist(),
                         "labels": labels.tolist()})
        data = tmp_path / "data.jsonl"
        with open(data, "w") as fh:
            for r in rows:
                fh.write(json.dumps(r) + "\n")

        net_path = tmp_path / "net.json"
        metrics = tmp_path / "metrics.csv"
        assert run("augment-train", "--data", data, "--hidden", "8",
                   "--epochs", 5, "--seed", 2, "--out", net_path,
                   "--metrics", metrics) == 0
        header = metrics.read_text().splitlines()[0]
        assert header == "epoch,train_loss,cv_accuracy"

        capsys.readouterr()
        assert run("eval", "--net", net_path, "--data", data) == 0
        acc = float(capsys.readouterr().out.strip())
        assert 0.0 <= acc <= 1.0

    def test_augmented_training_with_assignments(self, tmp_path):
        rng = np.random.default_rng(2)
        rows, assignments = [], []
        for i in range(8):
            frames = rng.normal(size=(15, 2))
            labels = rng.integers(0, 2, size=15)
            rows.append({"id": f"d{i}", "frames": frames.tolist(),
                         "labels": labels.tolist()})
            theta = [0.9, 0.1] if i % 2 else [0.1, 0.9]
            assignments.append({"id": f"d{i}", "theta": theta,
                                "map_domain": int(np.argmax(theta)),
                                "weight": 15.0})
        data = tmp_path / "data.jsonl"
        assigns = tmp_path / "assign.jsonl"
        for path, recs in ((data, rows), (assigns, assignments)):
            with open(path, "w") as fh:
                for r in recs:
                    fh.write(json.dumps(r) + "\n")
        net_path = tmp_path / "net.json"
        assert run("augment-train", "--data", data, "--assignments", assigns,
                   "--hidden", "6", "--epochs", 2, "--seed", 0,
                   "--out", net_path) == 0
        from acoustic_lda.network import load_network
        net = load_network(net_path)
        assert net.domain_dim == 2


class TestFrameDataset:
    def test_documents_expand_to_frames_in_order(self, tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_text("".join(json.dumps(r) + "\n" for r in [
            {"id": "empty", "frames": [], "labels": []},
            {"id": "b", "frames": [[1, 2], [3, 4]], "labels": [1, 0]},
            {"id": "c", "frames": [[5, 6], [7, 8], [9, 10]], "labels": [2, 2, 1]},
        ]))
        record = corpus.load_labeled_frames(data)
        assert record.ids == ("empty", "b", "c")
        assert record.frames[record.offsets[0]:record.offsets[1]].shape == (0, 2)
        assignments = assignments_record([0.6, 0.3, 0.1], [0.1, 0.2, 0.7], [0.2, 0.7, 0.1],
                                         ids=["c", "b", "empty"])
        doc_domains = _doc_domains(record, assignments)
        assert _doc_domains(record, None) is None
        np.testing.assert_array_equal(doc_domains, [1, 2, 0])
        net = init_network(NetworkConfig(input_dim=2, output_dim=3, domain_dim=3))
        augmented = network._inputs(net, record, doc_domains)
        features = [[1, 2], [3, 4], [5, 6], [7, 8], [9, 10]]
        assert len(record) == 5
        np.testing.assert_array_equal(record.frames, features)
        np.testing.assert_array_equal(record.labels, [1, 0, 2, 2, 1])
        np.testing.assert_array_equal(augmented[:, :2], features)
        np.testing.assert_array_equal(augmented[:, 2:].argmax(axis=1), [2, 2, 0, 0, 0])

    def test_keep_ids_trains_as_on_the_kept_documents_alone(self, tmp_path):
        """``--keep-ids`` selects the kept documents' frames and labels with
        one row mask: the network and metrics are those trained on a file
        of only those documents."""
        rng = np.random.default_rng(8)
        lines = [{"id": f"d{i}", "frames": rng.normal(size=(n, 2)).tolist(),
                  "labels": rng.integers(0, 3, size=n).tolist()}
                 for i, n in enumerate([4, 0, 3, 5, 2])]
        kept = {"d1", "d2", "d4"}
        data, alone, keep = (tmp_path / name for name in ("data.jsonl", "alone.jsonl",
                                                          "keep.jsonl"))
        data.write_text("".join(json.dumps(r) + "\n" for r in lines))
        alone.write_text("".join(json.dumps(r) + "\n" for r in lines if r["id"] in kept))
        keep.write_text('{"_meta": {"seed": 0}}\n'
                        + "".join(json.dumps({"id": i}) + "\n" for i in ["d4", "d2", "d1", "x"]))
        record = corpus.load_labeled_frames(data).subset(kept)
        assert record.ids == ("d1", "d2", "d4")
        np.testing.assert_array_equal(record.offsets, [0, 0, 3, 5])
        np.testing.assert_array_equal(record.frames, [f for r in lines if r["id"] in kept
                                                      for f in r["frames"]])
        np.testing.assert_array_equal(record.labels, [y for r in lines if r["id"] in kept
                                                      for y in r["labels"]])
        outs = []
        for argv in (("--data", data, "--keep-ids", keep), ("--data", alone)):
            net, metrics = tmp_path / f"net{len(outs)}.json", tmp_path / f"m{len(outs)}.csv"
            assert run("augment-train", *argv, "--hidden", "3", "--epochs", 2, "--classes", 3,
                       "--batch-size", 2, "--out", net, "--metrics", metrics) == 0
            outs.append((net.read_bytes(), metrics.read_bytes()))
        assert outs[0] == outs[1]

    def test_missing_assignment_exit_1(self, tmp_path, capsys):
        data, assign = tmp_path / "data.jsonl", tmp_path / "assign.jsonl"
        data.write_text(GOOD_FRAMES + "\n")
        assign.write_text(json.dumps({"id": "other", "theta": [1.0], "map_domain": 0}) + "\n")
        assert run("augment-train", "--data", data, "--assignments", assign,
                   "--out", tmp_path / "net.json") == 1
        assert "no domain assignment for document 'd0'" in capsys.readouterr().err


def assignments_text(*thetas):
    """An assignments file for documents d0, d1, ... with these thetas."""
    return "".join(json.dumps({"id": f"d{i}", "theta": theta,
                               "map_domain": int(np.argmax(theta))}) + "\n"
                   for i, theta in enumerate(thetas))


def two_document_frames(path):
    path.write_text(json.dumps({"id": "d0", "frames": [[0.0, 1.0]], "labels": [0]}) + "\n"
                    + json.dumps({"id": "d1", "frames": [[1.0, 0.0]], "labels": [1]}) + "\n")


def argv_reading_assignments(tmp_path, command, assign):
    """Argv for ``command`` reading the assignments file ``assign`` for two
    documents d0 and d1 of K=2, with its other inputs written to
    ``tmp_path`` and its output to ``tmp_path``/out*."""
    other, data = tmp_path / "other.jsonl", tmp_path / "data.jsonl"
    bags, net = tmp_path / "bags.jsonl", tmp_path / "net.json"
    other.write_text(assignments_text([0.25, 0.75], [0.75, 0.25]))
    two_document_frames(data)
    bags.write_text(json.dumps({"id": "d0", "group": "a", "counts": [1, 2]}) + "\n"
                    + json.dumps({"id": "d1", "group": "b", "counts": [2, 1]}) + "\n")
    save_network(net, init_network(NetworkConfig(input_dim=2, output_dim=2, domain_dim=2)))
    return [command, *{
        "augment-train": ["--data", data, "--assignments", assign,
                          "--out", tmp_path / "out.json"],
        "eval": ["--net", net, "--data", data, "--assignments", assign],
        "filter": ["--assign-a", assign, "--assign-b", other, "--target-frac", 0.5,
                   "--out", tmp_path / "out.jsonl"],
        "stats": ["--assignments", assign, "--bags", bags, "--out", tmp_path / "out.csv"],
    }[command]]


class TestAssignmentsK:
    @pytest.mark.parametrize("command", ["augment-train", "eval", "filter", "stats"])
    def test_two_k_file_exit_1(self, tmp_path, capsys, command):
        """A theta whose length differs from earlier lines is a fault of its
        line, whichever subcommand reads the file."""
        assign = tmp_path / "assign.jsonl"
        assign.write_text(assignments_text([0.25, 0.75], [0.6, 0.3, 0.1]))
        assert run(*argv_reading_assignments(tmp_path, command, assign)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()
        assert f"{assign}:2: 'theta' has 3 domains, earlier lines 2" in err
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("command", ["augment-train", "eval", "filter", "stats"])
    def test_repeated_id_exit_1(self, tmp_path, capsys, command):
        """An id that an earlier line holds is a fault of its line: the
        document would otherwise count twice, or take the last line's
        domain."""
        assign = tmp_path / "assign.jsonl"
        assign.write_text(assignments_text([0.25, 0.75], [0.75, 0.25])
                          + json.dumps({"id": "d0", "theta": [0.75, 0.25],
                                        "map_domain": 0}) + "\n")
        assert run(*argv_reading_assignments(tmp_path, command, assign)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()
        assert f"{assign}:3: duplicate document id 'd0'" in err
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("command", ["augment-train", "eval", "stats"])
    def test_empty_file(self, tmp_path, capsys, command):
        """An assignments file with no documents leaves every document of
        the labelled frames without a domain; ``stats`` has no rows to
        write."""
        assign = tmp_path / "assign.jsonl"
        assign.write_text('{"_meta": {"seed": 0}}\n')
        code = run(*argv_reading_assignments(tmp_path, command, assign))
        if command == "stats":
            assert code == 0
            assert (tmp_path / "out.csv").read_bytes() == b"group,domain,weight\r\n"
        else:
            assert code == 1
            assert "no domain assignment for document 'd0'" in capsys.readouterr().err
            assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("k_file, k_net, code", [(2, 3, 1), (3, 2, 1), (3, 3, 0)])
    def test_eval_k_must_be_the_network_domain_dim(self, tmp_path, capsys,
                                                     k_file, k_net, code):
        """Every document's domain is 0, an index that fits either way; K
        itself must match."""
        assign, data, net = tmp_path / "assign.jsonl", tmp_path / "data.jsonl", tmp_path / "n.json"
        theta = [0.5] + [0.5 / (k_file - 1)] * (k_file - 1)
        assign.write_text(assignments_text(theta, theta))
        two_document_frames(data)
        save_network(net, init_network(NetworkConfig(input_dim=2, output_dim=2,
                                                     domain_dim=k_net)))
        assert run("eval", "--net", net, "--data", data, "--assignments", assign) == code
        if code:
            assert f"K={k_file} != network domain dim {k_net}" in capsys.readouterr().err


class TestContracts:
    def test_rerun_byte_identical(self, tmp_path, pipeline_inputs):
        gmm_path = tmp_path / "gmm.json"
        run("train-gmm", "--features", pipeline_inputs, "--components", 3,
            "--seed", 5, "--out", gmm_path)
        first = gmm_path.read_bytes()
        run("train-gmm", "--features", pipeline_inputs, "--components", 3,
            "--seed", 5, "--out", gmm_path)
        assert gmm_path.read_bytes() == first

    def test_data_error_exit_1(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        code = run("train-lda", "--bags", missing, "--k", 2,
                   "--out", tmp_path / "x.json")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()

    def test_bad_flags_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["train-lda", "--bags"])
        assert exc.value.code == 2

    def test_manifest_provides_defaults(self, tmp_path, pipeline_inputs):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "seed": 11,
            "stages": {"train-gmm": {"components": 2}},
        }))
        out = tmp_path / "gmm.json"
        assert run("--manifest", manifest, "train-gmm",
                   "--features", pipeline_inputs, "--out", out) == 0
        obj = json.loads(out.read_text())
        assert obj["V"] == 2 and obj["seed"] == 11

    def test_flag_overrides_manifest(self, tmp_path, pipeline_inputs):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "stages": {"train-gmm": {"components": 2}},
        }))
        out = tmp_path / "gmm.json"
        assert run("--manifest", manifest, "train-gmm",
                   "--features", pipeline_inputs, "--components", 4,
                   "--out", out) == 0
        assert json.loads(out.read_text())["V"] == 4

    @pytest.mark.parametrize("manifest", [
        pytest.param(None, id="missing-file"),
        pytest.param('{"stages": ', id="malformed-json"),
        pytest.param("[1, 2]", id="not-an-object"),
        pytest.param({"stages": {"train-lda": {"k": "two"}}}, id="bad-int"),
        pytest.param({"stages": {"train-lda": {"k": 2.5}}}, id="float-for-int"),
        pytest.param({"stages": {"train-lda": {"k": [2]}}}, id="non-scalar"),
        pytest.param({"stages": {"train-lda": {"kk": 2}}}, id="unknown-flag"),
        pytest.param({"stages": {"train-lad": {"k": 2}}}, id="unknown-stage"),
        pytest.param({"stages": [1]}, id="stages-not-an-object"),
        pytest.param({"seed": "x", "stages": {"train-lda": {"k": 2}}}, id="bad-seed"),
        pytest.param({"sed": 1}, id="unknown-top-level-key"),
        pytest.param('{"stages": ' + DEEP + "}", id="deeply-nested"),
        pytest.param({"stages": {"train-lda": {"em": 0.5}}}, id="prefix-of-em-tol"),
        pytest.param({"stages": {"train-lda": {"max": 3}}}, id="prefix-of-max-em-iters"),
        pytest.param({"stages": {"train-lda": {"out=evil.json": "1"}}}, id="key-holding-equals"),
    ])
    def test_manifest_fault_exit_2(self, tmp_path, capsys, manifest):
        path = tmp_path / "manifest.json"
        if manifest is not None:
            path.write_text(manifest if isinstance(manifest, str)
                            else json.dumps(manifest))
        with pytest.raises(SystemExit) as exc:
            main(["--manifest", str(path), "train-lda", "--bags",
                  str(tmp_path / "bags.jsonl"), "--out", str(tmp_path / "lda.json")])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", [
        ["train-gmm", "--components", "2", "--out", "gmm.json"],
        ["quantize", "--gmm", "gmm.json", "--out", "symbols.jsonl"],
    ], ids=["train-gmm", "quantize"])
    def test_csv_feature_format_flag_exit_2(self, tmp_path, capsys, monkeypatch,
                                            pipeline_inputs, stage):
        # features are read from jsonl only; --format is not a flag
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(*stage, "--features", pipeline_inputs, "--format", "csv")
        assert exc.value.code == 2
        assert not (tmp_path / stage[-1]).exists()
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        pytest.param(gmm_json(variances=[[1.0], [1.0]]), "variances must have shape",
                     id="variances-v-by-1"),
        pytest.param(gmm_json(means=[[0.0, float("nan"), 0.0], [1.0] * 3]),
                     "means must be finite", id="nan-mean"),
        pytest.param(gmm_json(weights=[1.5, -0.5]), "weights must be positive",
                     id="negative-weight"),
        pytest.param(gmm_json(means=[[0.0] * 3, [1.0] * 2]),
                     "means must be a regular array", id="ragged-means"),
        pytest.param("[1, 2]\n", "expected a json object", id="json-list"),
        pytest.param(gmm_json(variances=None), "missing key(s) variances",
                     id="missing-key"),
        pytest.param('{"D": 3,\n', "bad json", id="malformed-json"),
        pytest.param(gmm_json(means=[[10**400, 0.0, 0.0], [1.0] * 3]),
                     "means must be a regular array", id="int-overflows-float"),
        pytest.param(gmm_json(weights=["0.5", 0.5]), "weights must be a regular array",
                     id="string-weight"),
        pytest.param(gmm_json(D=3.0), "D must be a positive integer", id="float-D"),
        pytest.param(gmm_json(V=True), "V must be a positive integer", id="bool-V"),
        pytest.param(gmm_json(means=[[True, 0.0, 0.0], [1.0] * 3]),
                     "means must be a regular array", id="bool-mean"),
        pytest.param(gmm_json(variances=[[1.0] * 3, ["2", 2.0, 2.0]]),
                     "variances must be a regular array", id="string-variance"),
        pytest.param('{"D": 3, "V": 2, "means": ' + DEEP + "}\n", "bad json",
                     id="deeply-nested"),
    ])
    def test_bad_gmm_artifact_exit_1(self, tmp_path, capsys, pipeline_inputs,
                                     text, message):
        path = tmp_path / "gmm.json"
        args = ("quantize", "--gmm", path, "--features", pipeline_inputs,
                "--out", tmp_path / "symbols.jsonl")
        path.write_text(gmm_json())
        assert run(*args) == 0
        capsys.readouterr()
        path.write_text(text)
        assert run(*args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()
        assert f"{path}:" in err and message in err

    @pytest.mark.parametrize("text, message", [
        pytest.param('{"K": 2,\n', "bad json", id="malformed-json"),
        pytest.param("[1, 2]\n", "expected a json object, got list", id="json-list"),
        pytest.param("5\n", "expected a json object, got int", id="json-number"),
        pytest.param(lda_json(K=None), "missing key(s) K", id="missing-K"),
        pytest.param(lda_json(V=None), "missing key(s) V", id="missing-V"),
        pytest.param(lda_json(alpha=None), "missing key(s) alpha", id="missing-alpha"),
        pytest.param(lda_json(log_beta=None), "missing key(s) log_beta",
                     id="missing-log-beta"),
        pytest.param(lda_json(K="2"), "K must be a positive integer", id="string-K"),
        pytest.param(lda_json(V=3.0), "V must be a positive integer", id="float-V"),
        pytest.param(lda_json(K=True), "K must be a positive integer", id="bool-K"),
        pytest.param(lda_json(K=0), "K must be a positive integer", id="zero-K"),
        pytest.param(lda_json(alpha=["a", 0.5]), "alpha must be a regular array",
                     id="string-alpha"),
        pytest.param(lda_json(log_beta=[[0.0, 0.0, 0.0], [0.0]]),
                     "log_beta must be a regular array", id="ragged-log-beta"),
        pytest.param(lda_json(alpha=[10**400, 0.5]), "alpha must be a regular array",
                     id="int-overflows-float"),
        pytest.param(lda_json(alpha=["0.5", 0.5]), "alpha must be a regular array",
                     id="numeric-string-alpha"),
        pytest.param(lda_json(alpha=[True, 0.5]), "alpha must be a regular array",
                     id="bool-alpha"),
        pytest.param(lda_json(log_beta=[[str(np.log(0.5)), np.log(0.5), -np.inf],
                                        [np.log(0.2), np.log(0.3), np.log(0.5)]]),
                     "log_beta must be a regular array", id="numeric-string-log-beta"),
        pytest.param(lda_json(alpha=[float("nan"), 0.5]), "alpha must be finite",
                     id="nan-alpha"),
        pytest.param(lda_json(alpha=[float("inf"), 0.5]), "alpha must be finite",
                     id="inf-alpha"),
        pytest.param(lda_json(log_beta=[[float("nan"), 0.0, -np.inf], [0.0] * 3]),
                     "log_beta must be finite or -inf", id="nan-log-beta"),
        pytest.param(lda_json(log_beta=[[np.inf, 0.0, -np.inf], [0.0] * 3]),
                     "log_beta must be finite or -inf", id="inf-log-beta"),
        pytest.param(lda_json(alpha=[0.5, 0.5, 0.5]), "alpha must have shape (2,)",
                     id="alpha-length"),
        pytest.param(lda_json(V=4), "log_beta must have shape (2, 4)", id="V-mismatch"),
        pytest.param(lda_json(K=3), "alpha must have shape (3,)", id="K-mismatch"),
        pytest.param(lda_json(alpha=[0.5, -0.5]), "alpha entries must be positive",
                     id="negative-alpha"),
        pytest.param(lda_json(log_beta=[[0.0, 0.0, -np.inf], [0.0, 0.0, 0.0]]),
                     "must sum to 1", id="rows-not-normalized"),
        pytest.param('{"K": 2, "alpha": ' + DEEP + "}\n", "bad json", id="deeply-nested"),
    ])
    def test_bad_lda_artifact_exit_1(self, tmp_path, capsys, text, message):
        model, bags = tmp_path / "lda.json", tmp_path / "bags.jsonl"
        corpus.save_bags(bags, bag_record([2, 1, 0], [0, 1, 3]))
        commands = (("assign", "--model", model, "--bags", bags,
                     "--out", tmp_path / "assign.jsonl"),
                    ("entropy", "--model", model, "--bags", bags))
        model.write_text(lda_json())
        for argv in commands:
            assert run(*argv) == 0
        capsys.readouterr()
        model.write_text(text)
        for argv in commands:
            assert run(*argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "\n" not in err.strip()
            assert f"{model}:" in err and message in err

    @pytest.mark.parametrize("counts", [
        pytest.param([1.5, 2, 0], id="float-count"),
        pytest.param([2.0, 1, 0], id="integral-float-count"),
        pytest.param([True, 2, 1], id="bool-count"),
        pytest.param(["1", 2, 0], id="string-count"),
        pytest.param([[1], 2, 0], id="nested-count"),
        pytest.param([10**30, 1, 0], id="count-beyond-int64"),
        pytest.param("210", id="string-counts"),
    ])
    def test_non_integer_bag_counts_exit_1(self, tmp_path, capsys, counts):
        model, bags = tmp_path / "lda.json", tmp_path / "bags.jsonl"
        model.write_text(lda_json())
        good = json.dumps({"id": "d0", "counts": [2, 1, 0]}) + "\n"
        commands = (("train-lda", "--bags", bags, "--k", 2,
                     "--out", tmp_path / "trained.json"),
                    ("assign", "--model", model, "--bags", bags,
                     "--out", tmp_path / "assign.jsonl"))
        bags.write_text(good + json.dumps({"id": "d1", "counts": [0, 1, 3]}) + "\n")
        for argv in commands:
            assert run(*argv) == 0
        capsys.readouterr()
        bags.write_text(good + json.dumps({"id": "d1", "counts": counts}) + "\n")
        for argv in commands:
            assert run(*argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "\n" not in err.strip()
            assert f"{bags}:2:" in err and "'counts' must be a list of integers" in err

    @pytest.mark.parametrize("line, kind", [
        pytest.param("5", "int", id="json-number"),
        pytest.param('"d1"', "str", id="json-string"),
        pytest.param("[1, 2]", "list", id="json-list"),
    ])
    def test_non_object_features_line_exit_1(self, tmp_path, capsys, line, kind):
        features = tmp_path / "features.jsonl"
        features.write_text('{"id": "d0", "frames": [[0.0, 1.0], [1.0, 0.0]]}\n'
                            + line + "\n")
        assert run("train-gmm", "--features", features, "--components", 1,
                   "--out", tmp_path / "gmm.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()
        assert f"{features}:2: expected a json object, got {kind}" in err

    @pytest.mark.parametrize("line, message", [
        pytest.param('{"id": "d1", "frames": [["1.5", 2.0], [2, 3]]}', "'frames'",
                     id="numeric-string-frames"),
        pytest.param('{"id": "d1", "frames": [[1.5, true], [2, 3]]}', "'frames'",
                     id="bool-frames"),
        pytest.param('{"id": 7, "frames": [[1.5, 2.0]]}', "'id'", id="int-id"),
        pytest.param('{"id": "d1", "group": 7, "frames": [[1.5, 2.0]]}', "'group'",
                     id="int-group"),
        pytest.param('{"id": "d1", "frames": ' + DEEP + "}", "'frames'",
                     id="deeply-nested-frames"),
        # NaN sends the line to the stdlib decoder, which hits its recursion limit
        pytest.param('{"id": "d1", "x": NaN, "frames": ' + DEEP + "}", "bad json",
                     id="deeply-nested-stdlib-json"),
        pytest.param('{"id": "d1", "frames": [[1.0, NaN]]}',
                     "document 'd1': non-finite value at frame 0, dim 1", id="nan-frames"),
        pytest.param('{"id": "d1", "frames": [[1.0, 2.0, 3.0]]}',
                     "'frames' have width 3, earlier lines 2", id="width-mismatch"),
        pytest.param('{"id": "d1", "frames": [[]]}', "'frames' must have width >= 1",
                     id="zero-width-frames"),
        pytest.param('{"id": "d1", "frames": []}', "'frames' must be a regular array",
                     id="empty-frames"),
    ])
    def test_bad_features_record_exit_1(self, tmp_path, capsys, line, message):
        features, model = tmp_path / "features.jsonl", tmp_path / "gmm.json"
        model.write_text(json.dumps({"D": 2, "V": 1, "weights": [1.0],
                                     "means": [[0.0, 0.0]], "variances": [[1.0, 1.0]]}))
        features.write_text('{"id": "d0", "frames": [[0.0, 1.0], [1.0, 0.0]]}\n'
                            + line + "\n")
        for argv in (("train-gmm", "--features", features, "--components", 1,
                      "--out", tmp_path / "out.json"),
                     ("quantize", "--gmm", model, "--features", features,
                      "--out", tmp_path / "symbols.jsonl")):
            assert run(*argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "\n" not in err.strip()
            assert f"{features}:2:" in err and message in err

    def test_quantize_against_a_model_of_another_dim_exit_1(self, tmp_path, capsys):
        """A features file whose D is not the model's is a fault of its first
        line, named as it is read."""
        features, model = tmp_path / "features.jsonl", tmp_path / "gmm.json"
        model.write_text(gmm_json())
        features.write_text('{"id": "d0", "frames": [[0.0, 1.0], [1.0, 0.0]]}\n'
                            '{"id": "d1", "frames": [[0.0, 1.0]]}\n')
        out = tmp_path / "symbols.jsonl"
        assert run("quantize", "--gmm", model, "--features", features, "--out", out) == 1
        assert capsys.readouterr().err == (f"error: {features}:1: document 'd0' "
                                           "has dim 2, model dim is 3\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["assign", "entropy"])
    @pytest.mark.parametrize("counts", [[[1, 0, 2], [0, 0, 0]], [[0, 0, 0], [0, 0, 0]]],
                             ids=["one-non-empty", "all-empty"])
    def test_bags_of_another_vocabulary_size_exit_1(self, tmp_path, capsys, command,
                                                    counts):
        """Bags of V=3 against a V=2 model are a fault even where every
        document is empty and would take the uniform theta."""
        bags, model, out = tmp_path / "bags.jsonl", tmp_path / "lda.json", tmp_path / "out"
        bags.write_text("".join(json.dumps({"id": f"d{i}", "counts": row}) + "\n"
                                for i, row in enumerate(counts)))
        model.write_text(lda_json(V=2, log_beta=np.log([[0.5, 0.5], [0.2, 0.8]]).tolist()))
        argv = ["--model", model, "--bags", bags] + (["--out", out] * (command == "assign"))
        assert run(command, *argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: bags have V=3, expected V=2\n" and not captured.out
        assert not out.exists()

    @pytest.mark.parametrize("group", [[1], 7, {"a": 1}, True],
                             ids=["list", "int", "object", "bool"])
    def test_non_string_group_exit_1(self, tmp_path, capsys, group):
        bags, assign = tmp_path / "bags.jsonl", tmp_path / "assign.jsonl"
        bags.write_text(json.dumps({"id": "d0", "group": "speech", "counts": [1, 2]}) + "\n"
                        + json.dumps({"id": "d1", "group": group, "counts": [2, 1]}) + "\n")
        assign.write_text("".join(
            json.dumps({"id": doc_id, "theta": [0.25, 0.75], "map_domain": 1}) + "\n"
            for doc_id in ("d0", "d1")))
        assert run("stats", "--assignments", assign, "--bags", bags,
                   "--out", tmp_path / "stats.csv") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()
        assert f"{bags}:2:" in err and "'group' must be a string or null" in err
        assert not (tmp_path / "stats.csv").exists()

    @pytest.mark.parametrize("command", ["stats", "train-lda", "assign"])
    def test_ragged_bags_exit_1(self, tmp_path, capsys, command):
        """Bags whose count rows differ in length are a fault of the first
        line that differs, found when the file is loaded."""
        bags, assign, model = (tmp_path / name for name in
                               ("bags.jsonl", "assign.jsonl", "lda.json"))
        bags.write_text(json.dumps({"id": "d0", "group": "a", "counts": [1, 2]}) + "\n"
                        + json.dumps({"id": "d1", "group": "b", "counts": [2, 1, 4]}) + "\n")
        assign.write_text(assignments_text([0.25, 0.75], [0.75, 0.25]))
        model.write_text(lda_json(V=2, log_beta=np.log([[0.5, 0.5], [0.2, 0.8]]).tolist()))
        out = tmp_path / "out"
        argv = {"stats": ["--assignments", assign, "--bags", bags, "--out", out],
                "train-lda": ["--bags", bags, "--k", 2, "--out", out],
                "assign": ["--model", model, "--bags", bags, "--out", out]}[command]
        assert run(command, *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()
        assert f"{bags}:2: 'counts' has 3 symbols, earlier lines 2" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train-gmm", "stats"])
    def test_repeated_corpus_id_names_its_line(self, tmp_path, capsys, command):
        """A features or bags file that repeats ``d0`` on line 3 names that
        line, so that with two input files the one at fault is known."""
        corpus_file, assign, out = (tmp_path / name for name in
                                    ("corpus.jsonl", "assign.jsonl", "out"))
        line = {"train-gmm": '{{"id": "{}", "frames": [[0.0, 1.0], [1.0, 0.0]]}}',
                "stats": '{{"id": "{}", "counts": [1, 2]}}'}[command]
        corpus_file.write_text("".join(line.format(doc_id) + "\n"
                                       for doc_id in ("d0", "d1", "d0")))
        assign.write_text(assignments_text([0.25, 0.75], [0.75, 0.25]))
        argv = {"train-gmm": ["--features", corpus_file, "--components", 1],
                "stats": ["--assignments", assign, "--bags", corpus_file]}[command]
        assert run(command, *argv, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == f"error: {corpus_file}:3: duplicate document id 'd0'\n"
        assert not out.exists()

    @pytest.mark.parametrize("target", [("--target-weight", 1.0), ("--target-frac", 0.5)],
                             ids=["weight", "frac"])
    def test_filter_on_empty_assignments_exit_1(self, tmp_path, capsys, target):
        a, b, out = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "filter.jsonl"
        for path in (a, b):
            path.write_text('{"_meta": {"seed": 0}}\n')
        assert run("filter", "--assign-a", a, "--assign-b", b, *target, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no assignments to filter" in err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        pytest.param("[1, 2]", "expected a json object", id="json-list"),
        pytest.param('{"id": "d0", "theta": [', "bad json", id="malformed-json"),
        pytest.param('{"theta": [1.0], "map_domain": 0}', "'id'", id="missing-id"),
        pytest.param('{"id": 3, "theta": [1.0], "map_domain": 0}', "'id'", id="int-id"),
        pytest.param('{"id": "d0", "map_domain": 0}', "'theta'", id="missing-theta"),
        pytest.param('{"id": "d0", "theta": "1", "map_domain": 0}', "'theta'",
                     id="string-theta"),
        pytest.param('{"id": "d0", "theta": [], "map_domain": 0}', "'theta'",
                     id="empty-theta"),
        pytest.param('{"id": "d0", "theta": [0.5, NaN], "map_domain": 0}', "finite",
                     id="nan-theta"),
        pytest.param('{"id": "d0", "theta": [1.0]}', "'map_domain'", id="missing-map"),
        pytest.param('{"id": "d0", "theta": [1.0], "map_domain": "0"}', "'map_domain'",
                     id="string-map"),
        pytest.param('{"id": "d0", "theta": [0.3, 0.7], "map_domain": 0}', "argmax",
                     id="map-not-argmax"),
        pytest.param('{"id": "d0", "theta": [1.5, -0.5], "map_domain": 0}', "negative",
                     id="negative-theta"),
        pytest.param('{"id": "d0", "theta": [1.0], "map_domain": 0, "weight": "1"}',
                     "'weight'", id="string-weight"),
        # orjson reads this integer as a float; the verdict is the same
        pytest.param('{"id": "d0", "theta": [1.0], "map_domain": 18446744073709551616}',
                     "map_domain", id="map-beyond-64-bits"),
        pytest.param('{"id": "d1", "theta": [0.25, 0.75], "map_domain": 1}',
                     "duplicate document id 'd1'", id="repeated-id"),
    ])
    def test_bad_assignment_record_exit_1(self, tmp_path, capsys, line, message):
        good = json.dumps({"id": "d1", "theta": [0.25, 0.75], "map_domain": 1})
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text(good + "\n" + line + "\n")
        b.write_text(good + "\n")
        code = run("filter", "--assign-a", a, "--assign-b", b, "--target-frac", 0.5,
                   "--out", tmp_path / "filter.jsonl")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()
        assert f"{a}:2:" in err and message in err

    @pytest.mark.parametrize("line, message", [
        pytest.param("[1, 2]", "expected a json object", id="json-list"),
        pytest.param('{"id": "d1", "frames": [', "bad json", id="malformed-json"),
        pytest.param('{"frames": [[1, 2]], "labels": [0]}', "'id'", id="missing-id"),
        pytest.param('{"id": 1, "frames": [[1, 2]], "labels": [0]}', "'id'", id="int-id"),
        pytest.param('{"id": "d1", "labels": [0]}', "'frames'", id="missing-frames"),
        pytest.param('{"id": "d1", "frames": [[1, 2], [3]], "labels": [0, 1]}',
                     "'frames'", id="ragged-frames"),
        pytest.param('{"id": "d1", "frames": [1, 2], "labels": [0, 1]}', "'frames'",
                     id="one-d-frames"),
        pytest.param('{"id": "d1", "frames": [["1", "2"]], "labels": [0]}', "'frames'",
                     id="string-frames"),
        pytest.param('{"id": "d1", "frames": [[]], "labels": [0]}', "'frames'",
                     id="zero-width-frames"),
        pytest.param('{"id": "d1", "frames": [[NaN, 1]], "labels": [0]}', "finite",
                     id="nan-frames"),
        pytest.param('{"id": "d1", "frames": [[true, 2]], "labels": [0]}', "'frames'",
                     id="bool-frames"),
        pytest.param('{"id": "d1", "frames": [[1.5, false]], "labels": [0]}', "'frames'",
                     id="bool-among-float-frames"),
        pytest.param('{"id": "d1", "frames": [[1, 2, 3]], "labels": [0]}',
                     "width 3, earlier lines 2", id="width-mismatch"),
        pytest.param('{"id": "d1", "frames": [[1, 2]]}', "'labels'", id="missing-labels"),
        pytest.param('{"id": "d1", "frames": [[1, 2]], "labels": [0.5]}', "'labels'",
                     id="float-labels"),
        pytest.param('{"id": "d1", "frames": [[1, 2]], "labels": [true]}', "'labels'",
                     id="bool-labels"),
        pytest.param('{"id": "d1", "frames": [[1, 2], [3, 4]], "labels": [true, 2]}',
                     "'labels'", id="bool-among-int-labels"),
        pytest.param('{"id": "d1", "frames": [[1, 2]], "labels": [1.0]}', "'labels'",
                     id="integral-float-labels"),
        pytest.param('{"id": "d1", "frames": [[1, 2]], "labels": [[0]]}', "'labels'",
                     id="two-d-labels"),
        pytest.param('{"id": "d1", "frames": [[1, 2]], "labels": [-1]}', ">= 0",
                     id="negative-label"),
        pytest.param('{"id": "d1", "frames": [[1, 2]], "labels": [0, 1]}',
                     "length mismatch", id="length-mismatch"),
        # orjson reads this integer as a float; the verdict is the same
        pytest.param('{"id": "d1", "frames": [[1, 2]], "labels": [18446744073709551616]}',
                     "'labels'", id="labels-beyond-64-bits"),
    ])
    def test_bad_labeled_frames_exit_1(self, tmp_path, capsys, line, message):
        data, net = tmp_path / "data.jsonl", tmp_path / "net.json"
        net.write_text(net_json())
        data.write_text(GOOD_FRAMES + "\n" + line + "\n")
        for argv in (("augment-train", "--data", data, "--out", tmp_path / "out.json"),
                     ("eval", "--net", net, "--data", data)):
            assert run(*argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "\n" not in err.strip()
            assert f"{data}:2:" in err and message in err

    def test_overflowing_frames_exit_1(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        # finite frames whose first-layer sums exceed the float range
        data.write_text(json.dumps({"id": "d0", "frames": [[1.7e308] * 20],
                                    "labels": [0]}) + "\n")
        assert run("augment-train", "--data", data, "--hidden", 8, "--epochs", 1,
                   "--out", tmp_path / "net.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflow" in err

    def test_overflowing_features_exit_1(self, tmp_path, capsys):
        features, model = tmp_path / "features.jsonl", tmp_path / "gmm.json"
        # finite frames whose squares exceed the float range
        features.write_text(json.dumps({"id": "d0", "frames": [[1e200, 0.0], [0.0, 1.0]]})
                            + "\n")
        model.write_text(json.dumps({"D": 2, "V": 1, "weights": [1.0],
                                     "means": [[0.0, 0.0]], "variances": [[1.0, 1.0]]}))
        for argv in (("train-gmm", "--features", features, "--components", 1,
                      "--out", tmp_path / "out.json"),
                     ("quantize", "--gmm", model, "--features", features,
                      "--out", tmp_path / "symbols.jsonl")):
            assert run(*argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "overflow" in err

    @pytest.mark.parametrize("flags, message", [
        pytest.param(("--epochs", 0), "epochs must be >= 1", id="zero-epochs"),
        pytest.param(("--cv-fraction", -0.5), "cv_fraction must lie in [0, 1)",
                     id="negative-cv-fraction"),
        pytest.param(("--hidden", "0"), "hidden layer widths must be >= 1", id="zero-hidden"),
        pytest.param(("--hidden", "4,0"), "hidden layer widths must be >= 1",
                     id="zero-second-hidden"),
        pytest.param(("--lr", "nan"), "learning_rate must be finite and > 0", id="nan-lr"),
        pytest.param(("--lr", "inf"), "learning_rate must be finite and > 0", id="inf-lr"),
        pytest.param(("--lr", "-0.1"), "learning_rate must be finite and > 0",
                     id="negative-lr"),
        pytest.param(("--lr", "0"), "learning_rate must be finite and > 0", id="zero-lr"),
        pytest.param(("--cv-fraction", "nan"), "cv_fraction must lie in [0, 1)",
                     id="nan-cv-fraction"),
    ])
    def test_bad_classifier_flags_exit_1(self, tmp_path, capsys, flags, message):
        data, net = tmp_path / "data.jsonl", tmp_path / "net.json"
        data.write_text(GOOD_FRAMES + "\n")
        assert run("augment-train", "--data", data, *flags, "--out", net) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip() and message in err
        assert not net.exists()

    @pytest.mark.parametrize("argv, manifest", [
        pytest.param(("--hidden", "abc"), None, id="letters"),
        pytest.param(("--hidden", "64,x"), None, id="letter-after-width"),
        pytest.param((), {"stages": {"augment-train": {"hidden": "abc"}}}, id="manifest"),
    ])
    def test_bad_hidden_flag_exit_2(self, tmp_path, capsys, argv, manifest):
        data, net, path = tmp_path / "data.jsonl", tmp_path / "net.json", tmp_path / "m.json"
        data.write_text(GOOD_FRAMES + "\n")
        top = ()
        if manifest is not None:
            path.write_text(json.dumps(manifest))
            top = ("--manifest", path)
        with pytest.raises(SystemExit) as exc:
            run(*top, "augment-train", "--data", data, *argv, "--out", net)
        assert exc.value.code == 2
        assert "--hidden" in capsys.readouterr().err
        assert not net.exists()

    @pytest.mark.parametrize("line, message", [
        pytest.param("[1, 2]", "expected a json object", id="json-list"),
        pytest.param('"d0"', "expected a json object", id="json-string"),
        pytest.param('{"id": "d0"', "bad json", id="malformed-json"),
        pytest.param('{"name": "d0"}', "'id'", id="missing-id"),
        pytest.param('{"id": 0}', "'id'", id="int-id"),
    ])
    def test_bad_keep_ids_exit_1(self, tmp_path, capsys, line, message):
        data, keep = tmp_path / "data.jsonl", tmp_path / "keep.jsonl"
        data.write_text(GOOD_FRAMES + "\n")
        keep.write_text('{"_meta": {"seed": 0}}\n' + line + "\n")
        assert run("augment-train", "--data", data, "--keep-ids", keep,
                   "--out", tmp_path / "net.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()
        assert f"{keep}:2:" in err and message in err

    @pytest.mark.parametrize("text, message", [
        pytest.param("[1, 2]\n", "expected a json object", id="json-list"),
        pytest.param('{"input_dim": 2,\n', "bad json", id="malformed-json"),
        pytest.param(net_json(layers=None), "missing key(s) layers", id="missing-key"),
        pytest.param(net_json(input_dim="2"), "input_dim", id="string-input-dim"),
        pytest.param(net_json(activation="tanh"), "unknown activation 'tanh'",
                     id="bad-activation"),
        pytest.param(net_json(layers=[]), "non-empty list", id="no-layers"),
        pytest.param(net_json(layers=[1]), "layer 0: expected an object",
                     id="layer-not-an-object"),
        pytest.param(net_json(layer_changes=[(0, {"weights": [0.1, 0.2, 0.3]})]),
                     "layer 0: weights must be rows*cols = 4", id="weight-count"),
        pytest.param(net_json(layer_changes=[(1, {"bias": [0.0, 0.0]})]),
                     "layer 1: bias must be rows = 3", id="bias-length"),
        pytest.param(net_json(domain_dim=1), "cols 2 != input_dim + domain_dim = 3",
                     id="first-cols"),
        pytest.param(net_json(layer_changes=[(1, {"cols": 3, "weights": [0.0] * 9})]),
                     "layer 1: cols 3 != rows of layer 0 = 2", id="layers-do-not-chain"),
        pytest.param(net_json(layer_changes=[(0, {"weights": ["a", 0.2, 0.3, 0.4]})]),
                     "lists of numbers", id="string-weight"),
        pytest.param(net_json(layer_changes=[(1, {"bias": [0.0, float("inf"), 0.0]})]),
                     "finite", id="infinite-bias"),
        pytest.param(net_json(layer_changes=[(0, {"weights": ["0.1", -0.2, 0.3, 0.4]})]),
                     "layer 0: weights must be a regular array", id="numeric-string-weight"),
        pytest.param(net_json(layer_changes=[(0, {"bias": [False, 0.1]})]),
                     "layer 0: bias must be a regular array", id="bool-bias"),
        pytest.param('{"input_dim": 2, "layers": ' + DEEP + "}\n", "bad json",
                     id="deeply-nested"),
    ])
    def test_bad_network_artifact_exit_1(self, tmp_path, capsys, text, message):
        data, net = tmp_path / "data.jsonl", tmp_path / "net.json"
        data.write_text(GOOD_FRAMES + "\n")
        net.write_text(net_json())
        assert run("eval", "--net", net, "--data", data) == 0
        capsys.readouterr()
        net.write_text(text)
        assert run("eval", "--net", net, "--data", data) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()
        assert f"{net}:" in err and message in err

    def test_manifest_values_read_as_flags(self, tmp_path):
        bags = tmp_path / "bags.jsonl"
        corpus.save_bags(bags, bag_record(*([3, i, 1, 0] for i in range(4))))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "stages": {"train-lda": {"k": "2", "max-em-iters": 3}}}))
        out = tmp_path / "lda.json"
        assert run("--manifest", manifest, "train-lda", "--bags", bags,
                   "--out", out) == 0
        assert json.loads(out.read_text())["K"] == 2

    @pytest.mark.parametrize("argv, manifest", [
        pytest.param(("--max-em-iters", 0), None, id="flag"),
        pytest.param((), {"stages": {"train-lda": {"max-em-iters": 0}}}, id="manifest"),
    ])
    def test_zero_em_iterations_exit_1(self, tmp_path, capsys, argv, manifest):
        bags, out, path = tmp_path / "bags.jsonl", tmp_path / "lda.json", tmp_path / "m.json"
        corpus.save_bags(bags, bag_record([3, 1]))
        top = ()
        if manifest is not None:
            path.write_text(json.dumps(manifest))
            top = ("--manifest", path)
        assert run(*top, "train-lda", "--bags", bags, "--k", 2, *argv, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "max_em_iters must be >= 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("em_tol", ["nan", "inf", "-1"])
    def test_bad_em_tol_exit_1(self, tmp_path, capsys, em_tol):
        bags, out = tmp_path / "bags.jsonl", tmp_path / "lda.json"
        corpus.save_bags(bags, bag_record([3, 1]))
        assert run("train-lda", "--bags", bags, "--k", 2, f"--em-tol={em_tol}",
                   "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "em_tol must be finite and >= 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--target-frac", "nan", "target_weight must be positive"),
        ("--target-weight", "nan", "target_weight must be positive"),
        ("--target-frac", "-inf", "target_weight must be positive"),
        ("--target-weight", "inf", "target_weight must be finite"),
    ])
    def test_bad_filter_target_exit_1(self, tmp_path, capsys, flag, value, message):
        a, out = tmp_path / "a.jsonl", tmp_path / "filter.jsonl"
        a.write_text(assignments_text([0.25, 0.75], [0.75, 0.25]))
        assert run("filter", "--assign-a", a, "--assign-b", a, f"{flag}={value}",
                   "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train-lda", "augment-train"])
    def test_impossible_size_exit_1(self, tmp_path, capsys, command):
        """A size no machine can allocate is a data error: numpy refuses the
        first array of that size before allocating any of it."""
        bags, data, out = tmp_path / "bags.jsonl", tmp_path / "data.jsonl", tmp_path / "out"
        corpus.save_bags(bags, bag_record([1, 2], [2, 1]))
        two_document_frames(data)
        huge = 10**17
        argv = {"train-lda": ["--bags", bags, "--k", huge, "--out", out],
                "augment-train": ["--data", data, "--hidden", huge, "--out", out]}[command]
        assert run(command, *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and "\n" not in err.strip()
        assert not out.exists()

    def test_overflowing_filter_weights_exit_1_and_leave_no_file(self, tmp_path, capsys):
        """Finite weights whose total overflows to inf would put inf and NaN
        into the filter's ``_meta``; json cannot hold them, so the write
        fails, naming the file, and leaves neither it nor a temp file."""
        a, out = tmp_path / "a.jsonl", tmp_path / "filter.jsonl"
        a.write_text("".join(json.dumps({"id": f"d{i}", "theta": [1.0, 0.0], "map_domain": 0,
                                         "weight": 1e308}) + "\n" for i in range(2)))
        assert run("filter", "--assign-a", a, "--assign-b", a, "--target-weight", 1.0,
                   "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{out}: Out of range float" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.jsonl"]

    def test_target_frac_1_is_the_total_weight(self, tmp_path):
        """The target of ``--target-frac`` is the same in-order sum as the
        filter's total, not a compensated one (Python 3.12's ``sum``), which
        for these weights is 1.0 where the in-order sum is 0.9999999999999999."""
        a, out = tmp_path / "a.jsonl", tmp_path / "filter.jsonl"
        a.write_text("".join(json.dumps({"id": f"d{i}", "theta": [1.0, 0.0], "map_domain": 0,
                                         "weight": 0.1}) + "\n" for i in range(10)))
        assert run("filter", "--assign-a", a, "--assign-b", a, "--target-frac", 1,
                   "--out", out) == 0
        meta = json.loads(out.read_text().splitlines()[0])["_meta"]
        assert meta["target_weight"] == meta["total_weight"] == 0.9999999999999999

    def test_filter_without_a_target_exit_2(self, tmp_path, capsys):
        a, out, path = tmp_path / "a.jsonl", tmp_path / "filter.jsonl", tmp_path / "m.json"
        a.write_text(assignments_text([0.25, 0.75], [0.75, 0.25]))
        argv = ("filter", "--assign-a", a, "--assign-b", a, "--out", out)
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--target-frac or --target-weight" in err
        assert not out.exists()
        path.write_text(json.dumps({"stages": {"filter": {"target-frac": 0.5}}}))
        assert run("--manifest", path, *argv) == 0
        assert out.exists()

    @pytest.mark.parametrize("top_n, code, domains", [
        (-1, 1, None), (0, 0, ["other"]), (2, 0, ["0", "1", "other"])])
    def test_stats_top_n(self, tmp_path, capsys, top_n, code, domains):
        assign, bags, out = tmp_path / "a.jsonl", tmp_path / "bags.jsonl", tmp_path / "s.csv"
        # domain 0 weighs the most and domain 2 the least
        assign.write_text(assignments_text([0.8, 0.1, 0.1], [0.1, 0.8, 0.1],
                                           [0.1, 0.1, 0.8], [0.8, 0.1, 0.1]))
        corpus.save_bags(bags, bag_record(*[[1]] * 4, groups=["g"] * 4))
        assert run("stats", "--assignments", assign, "--bags", bags,
                   "--top-n", top_n, "--out", out) == code
        if domains is None:
            assert "top_n must be >= 0" in capsys.readouterr().err
            assert not out.exists()
        else:
            rows = out.read_text().splitlines()[1:]
            assert [row.split(",")[1] for row in rows] == domains

    def test_calls_sharing_the_parser_match_a_fresh_parser_each(
            self, tmp_path, pipeline_inputs, capsys, monkeypatch):
        """``main`` builds its parser once per process. A run of calls mixing
        subcommands, manifests and failing parses exits, prints and writes
        what it does with a fresh parser per call, as one process per call
        would have, and no call's manifest leaks into the next."""
        steps = [
            ["--manifest", "m.json", "train-gmm", "--features", "f.jsonl", "--out", "g.json"],
            ["train-lda", "--bags"],
            ["quantize", "--gmm", "g.json", "--features", "f.jsonl", "--out", "s.jsonl",
             "--bags-out", "b.jsonl"],
            ["--manifest", "m.json", "train-lda", "--bags", "b.jsonl", "--out", "l.json"],
            ["train-gmm", "--features", "f.jsonl", "--out", "g2.json"],
            ["train-lda", "--bags", "b.jsonl", "--k", "3", "--out", "l3.json"],
            ["entropy", "--model", "l.json", "--bags", "b.jsonl"],
        ]
        manifest = json.dumps({"seed": 7, "stages": {"train-gmm": {"components": 2},
                                                     "train-lda": {"k": 2}}})

        def run_steps(d):
            d.mkdir()
            (d / "f.jsonl").write_bytes(pipeline_inputs.read_bytes())
            (d / "m.json").write_text(manifest)
            monkeypatch.chdir(d)
            results = []
            for argv in steps:
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                results.append((code, capsys.readouterr().out))
            return results, {p.name: p.read_bytes() for p in sorted(d.iterdir())}

        assert cli._build_parser() is cli._build_parser()
        shared = run_steps(tmp_path / "shared")
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        assert cli._build_parser() is not cli._build_parser()
        fresh = run_steps(tmp_path / "fresh")
        assert [code for code, _ in shared[0]] == [0, 2, 0, 0, 2, 0, 0]
        assert shared == fresh


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)
doc_ids = st.sampled_from(["a", "b"]) | json_values
labelled_frames = st.lists(st.tuples(st.lists(st.floats(), min_size=1, max_size=2),
                                     st.integers(-1, 3)), max_size=3)
frame_records = (
    json_values
    | st.builds(lambda doc_id, pairs: {"id": doc_id, "frames": [f for f, _ in pairs],
                                       "labels": [y for _, y in pairs]},
                st.sampled_from(["a", "b"]), labelled_frames)
    | st.fixed_dictionaries({"id": doc_ids, "frames": json_values,
                             "labels": json_values}))
keep_records = json_values | st.fixed_dictionaries({"id": doc_ids})
groups = st.sampled_from(["g", None]) | json_values
feature_records = json_values | st.fixed_dictionaries({
    "id": doc_ids, "group": groups,
    "frames": st.lists(st.lists(st.floats(), min_size=2, max_size=2),
                       min_size=1, max_size=3) | json_values})
bag_records = json_values | st.fixed_dictionaries({
    "id": doc_ids, "group": groups,
    "counts": st.lists(st.integers(0, 5), min_size=2, max_size=2) | json_values})
assignment_records = json_values | st.fixed_dictionaries({
    "id": doc_ids,
    "theta": st.sampled_from([[0.25, 0.75], [1.0, 0.0]]) | json_values,
    "map_domain": st.sampled_from([0, 1]) | json_values,
    "weight": st.floats(0, 10) | json_values})


def artifacts(obj):
    """json text of ``obj``, of ``obj`` with any of its values replaced by a
    random json value, or of a random json value."""
    return st.builds(lambda v: json.dumps(v) + "\n", json_values | st.fixed_dictionaries(
        {key: st.just(value) | json_values for key, value in obj.items()}))


GMM_D2 = {"D": 2, "V": 2, "weights": [0.5, 0.5], "means": [[0.0, 0.0], [1.0, 1.0]],
          "variances": [[1.0, 1.0], [2.0, 2.0]]}
LDA_K2 = {"K": 2, "V": 2, "alpha": [0.5, 0.5],
          "log_beta": [[np.log(0.25), np.log(0.75)], [np.log(0.5), np.log(0.5)]]}
NET_D2 = json.loads(net_json())


class TestFuzz:
    @settings(max_examples=60, deadline=None)
    @given(data_lines=st.lists(frame_records, min_size=1, max_size=3),
           keep_lines=st.lists(keep_records, max_size=3))
    def test_fuzzed_data_and_keep_ids_exit_0_or_1(self, tmp_path_factory,
                                                  data_lines, keep_lines):
        d = tmp_path_factory.mktemp("fuzz")
        data, keep, net = d / "data.jsonl", d / "keep.jsonl", d / "net.json"
        data.write_text("".join(json.dumps(v) + "\n" for v in data_lines))
        keep.write_text("".join(json.dumps(v) + "\n" for v in keep_lines))
        save_network(net, init_network(NetworkConfig(input_dim=2, output_dim=4,
                                                     hidden_dims=(2,))))
        common = ("--hidden", "2", "--epochs", "1", "--out", d / "out.json")
        assert run("augment-train", "--data", data, *common) in (0, 1)
        assert run("augment-train", "--data", data, "--keep-ids", keep, *common) in (0, 1)
        assert run("eval", "--net", net, "--data", data) in (0, 1)

    @settings(max_examples=40, deadline=None)
    @given(feature_lines=st.lists(feature_records, min_size=1, max_size=3),
           gmm_text=artifacts(GMM_D2))
    def test_fuzzed_features_and_gmm_exit_0_or_1(self, tmp_path_factory,
                                                 feature_lines, gmm_text):
        d = tmp_path_factory.mktemp("fuzz")
        features, model = d / "features.jsonl", d / "gmm.json"
        features.write_text("".join(json.dumps(v) + "\n" for v in feature_lines))
        model.write_text(gmm_text)
        assert run("train-gmm", "--features", features, "--components", 1,
                   "--out", d / "out.json") in (0, 1)
        assert run("quantize", "--gmm", model, "--features", features,
                   "--out", d / "symbols.jsonl", "--bags-out", d / "bags.jsonl") in (0, 1)

    @settings(max_examples=40, deadline=None)
    @given(bag_lines=st.lists(bag_records, min_size=1, max_size=3),
           assignment_lines=st.lists(assignment_records, min_size=1, max_size=3),
           lda_text=artifacts(LDA_K2))
    def test_fuzzed_bags_assignments_and_lda_exit_0_or_1(
            self, tmp_path_factory, bag_lines, assignment_lines, lda_text):
        d = tmp_path_factory.mktemp("fuzz")
        bags, assign, model = d / "bags.jsonl", d / "assign.jsonl", d / "lda.json"
        bags.write_text("".join(json.dumps(v) + "\n" for v in bag_lines))
        assign.write_text("".join(json.dumps(v) + "\n" for v in assignment_lines))
        model.write_text(lda_text)
        assert run("train-lda", "--bags", bags, "--k", 2, "--max-em-iters", 2,
                   "--out", d / "out.json") in (0, 1)
        assert run("assign", "--model", model, "--bags", bags,
                   "--out", d / "assigned.jsonl") in (0, 1)
        assert run("filter", "--assign-a", assign, "--assign-b", assign,
                   "--target-frac", 0.5, "--out", d / "filter.jsonl") in (0, 1)
        assert run("stats", "--assignments", assign, "--bags", bags,
                   "--out", d / "stats.csv") in (0, 1)

    @settings(max_examples=40, deadline=None)
    @given(net_text=artifacts(NET_D2),
           layer=st.fixed_dictionaries({key: st.just(value) | json_values
                                        for key, value in NET_D2["layers"][0].items()}))
    def test_fuzzed_network_exit_0_or_1(self, tmp_path_factory, net_text, layer):
        d = tmp_path_factory.mktemp("fuzz")
        data, net, layered = d / "data.jsonl", d / "net.json", d / "layered.json"
        data.write_text(GOOD_FRAMES + "\n")
        net.write_text(net_text)
        layered.write_text(json.dumps({**NET_D2, "layers": [layer, NET_D2["layers"][1]]}))
        for path in (net, layered):
            assert run("eval", "--net", path, "--data", data) in (0, 1)


def stage_flags():
    """Each subcommand's long flag names without the leading ``--``, read
    off the parser's own actions."""
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a.choices, dict))
    return {name: sorted(opt[2:] for action in p._actions for opt in action.option_strings
                         if opt.startswith("--") and opt != "--help")
            for name, p in sub.choices.items()}


STAGE_FLAGS = stage_flags()
ALL_FLAGS = sorted({flag for flags in STAGE_FLAGS.values() for flag in flags})
# every file a stage writes is named here, so a manifest value cannot move it;
# the inputs are absent, so no manifest path is ever read
STAGE_ARGV = {
    "train-gmm": ["--features", "f.jsonl", "--out", "o.json"],
    "quantize": ["--gmm", "g.json", "--features", "f.jsonl", "--out", "o.jsonl",
                 "--bags-out", "b.jsonl"],
    "train-lda": ["--bags", "b.jsonl", "--out", "o.json"],
    "assign": ["--model", "l.json", "--bags", "b.jsonl", "--out", "o.jsonl"],
    "entropy": ["--model", "l.json", "--bags", "b.jsonl"],
    "filter": ["--assign-a", "a.jsonl", "--assign-b", "a.jsonl", "--out", "o.jsonl"],
    "augment-train": ["--data", "d.jsonl", "--out", "o.json", "--metrics", "m.csv"],
    "eval": ["--net", "n.json", "--data", "d.jsonl"],
    "stats": ["--assignments", "a.jsonl", "--bags", "b.jsonl", "--out", "o.csv"],
}


@st.composite
def manifest_runs(draw):
    """A subcommand and a manifest text for it. Its entry for that
    subcommand takes keys from the subcommand's flag names, their prefixes,
    flag names with ``=`` or whitespace and text after them, other
    subcommands' flag names and any text; the draws lean towards manifests
    whose only fault is one key."""
    command = draw(st.sampled_from(sorted(STAGE_FLAGS)))
    own = st.sampled_from(STAGE_FLAGS[command])
    # a one-letter flag such as train-lda's "k" has no proper prefix
    prefixes = st.sampled_from([f for f in STAGE_FLAGS[command] if len(f) >= 2]).flatmap(
        lambda flag: st.integers(1, len(flag) - 1).map(lambda n: flag[:n]))
    keys = st.one_of(
        own, prefixes, prefixes,
        st.builds(lambda flag, sep, tail: flag + sep + tail, own,
                  st.sampled_from(["=", " ", "\t", " =", "\n"]), st.text(max_size=4)),
        st.sampled_from(ALL_FLAGS), st.text(max_size=6))
    values = st.one_of(st.integers(0, 5), st.sampled_from(["1", "2", "0.5", "relu", "4,4"]),
                       json_values)
    entry = st.dictionaries(keys, values, min_size=1, max_size=3)
    others = st.dictionaries(st.sampled_from(sorted(STAGE_FLAGS)) | st.text(max_size=6),
                             entry | json_values, max_size=2)
    stages = st.one_of(*[st.builds(lambda e, rest: {**rest, command: e}, entry, others)] * 3,
                       others | json_values)
    structured = st.fixed_dictionaries({"stages": stages}, optional={
        "seed": st.integers(0, 9) | json_values, "sed": json_values})
    manifest = draw(st.one_of(structured, structured, structured, json_values))
    return json.dumps(manifest) + "\n", command


def manifest_fault(text, command):
    """Whether the manifest ``text`` is at fault for ``command``: an
    unknown key, stage or flag name, or a value that is not a string or a
    number."""
    manifest = json.loads(text)
    if not (isinstance(manifest, dict) and set(manifest) <= {"seed", "stages"}):
        return True
    stages = manifest.get("stages", {})
    if not (isinstance(stages, dict) and set(stages) <= set(STAGE_FLAGS)
            and all(isinstance(entry, dict) for entry in stages.values())):
        return True
    entry = dict(stages.get(command, {}))
    if "seed" in manifest and "seed" in STAGE_FLAGS[command]:
        entry["seed"] = manifest["seed"]
    return any(key not in STAGE_FLAGS[command] or isinstance(value, bool)
               or not isinstance(value, (str, int, float)) for key, value in entry.items())


class TestManifestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(run_args=manifest_runs())
    def test_fuzzed_manifest_exits_0_1_or_2(self, tmp_path_factory, run_args):
        """Every run exits 0, 1 or 2 without a traceback, and a manifest at
        fault exits 2."""
        text, command = run_args
        d = tmp_path_factory.mktemp("manifest")
        path = d / "manifest.json"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = main(["--manifest", str(path), command,
                             *[a if a.startswith("--") else str(d / a)
                               for a in STAGE_ARGV[command]]])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if manifest_fault(text, command):
            assert code == 2, err.getvalue()


# each subcommand's numeric flags, each with a valid value; quantize, entropy
# and eval have none. A fuzz draw may leave out any flag but those of
# REQUIRED_FLAGS, which it always sets.
NUMERIC_FLAGS = {
    "train-gmm": {"components": "2", "seed": "1"},
    "train-lda": {"k": "2", "seed": "1", "em-tol": "1e-3", "max-em-iters": "3"},
    "assign": {"seed": "1"},
    "filter": {"target-frac": "0.5", "target-weight": "1.5", "seed": "1"},
    "augment-train": {"hidden": "4", "classes": "2", "epochs": "2", "lr": "0.1",
                      "batch-size": "3", "cv-fraction": "0.25", "seed": "1"},
    "stats": {"top-n": "1"},
}
REQUIRED_FLAGS = {"components", "k", "target-frac"}
EDGE_VALUES = ["nan", "inf", "-inf", "-1", "0", "5e-324", "1e308"]


@pytest.fixture(scope="module")
def numeric_inputs(tmp_path_factory):
    """Valid inputs for every subcommand with numeric flags: four documents
    d0..d3 of D=2 frames, their bags (V=3), labels and K=2 assignments, and
    a K=2, V=3 LDA model."""
    d = tmp_path_factory.mktemp("numeric")
    rng = np.random.default_rng(5)
    frames = [rng.normal(size=(5, 2)) + 3 * (i % 2) for i in range(4)]
    (d / "features.jsonl").write_text("".join(
        json.dumps({"id": f"d{i}", "frames": f.tolist()}) + "\n"
        for i, f in enumerate(frames)))
    corpus.save_bags(d / "bags.jsonl", bag_record(*([3, i, 1] for i in range(4)),
                                                  groups=["g"] * 4))
    (d / "data.jsonl").write_text("".join(
        json.dumps({"id": f"d{i}", "frames": f.tolist(),
                    "labels": (f[:, 0] > f[:, 1]).astype(int).tolist()}) + "\n"
        for i, f in enumerate(frames)))
    (d / "assign.jsonl").write_text(assignments_text(
        [0.75, 0.25], [0.25, 0.75], [0.5, 0.5], [0.125, 0.875]))
    (d / "lda.json").write_text(lda_json(log_beta=np.log([[0.5, 0.25, 0.25],
                                                          [0.2, 0.3, 0.5]]).tolist()))
    return {"train-gmm": ["--features", d / "features.jsonl", "--out", "gmm.json"],
            "train-lda": ["--bags", d / "bags.jsonl", "--out", "lda.json"],
            "assign": ["--model", d / "lda.json", "--bags", d / "bags.jsonl",
                       "--out", "assign.jsonl"],
            "filter": ["--assign-a", d / "assign.jsonl", "--assign-b", d / "assign.jsonl",
                       "--out", "filter.jsonl"],
            "augment-train": ["--data", d / "data.jsonl", "--assignments", d / "assign.jsonl",
                              "--out", "net.json", "--metrics", "metrics.csv"],
            "stats": ["--assignments", d / "assign.jsonl", "--bags", d / "bags.jsonl",
                      "--out", "stats.csv"]}


@st.composite
def numeric_runs(draw):
    """A subcommand and ``--flag=value`` tokens for its numeric flags: one
    or two of them take a value of ``EDGE_VALUES``, and each other one its
    valid value, unless the draw leaves it out."""
    command = draw(st.sampled_from(sorted(NUMERIC_FLAGS)))
    flags = NUMERIC_FLAGS[command]
    edge = draw(st.lists(st.sampled_from(sorted(flags)), min_size=1, max_size=2,
                         unique=True))
    tokens = []
    for flag, valid in flags.items():
        value = (draw(st.sampled_from(EDGE_VALUES)) if flag in edge
                 else valid if flag in REQUIRED_FLAGS
                 else draw(st.sampled_from([valid, valid, None])))
        if value is not None:
            tokens.append(f"--{flag}={value}")
    return command, tokens


def reject_constant(name):
    raise ValueError(f"{name} is not json")


class TestNumericFlagFuzz:
    @settings(max_examples=300, deadline=None)
    @given(run_args=numeric_runs())
    def test_numeric_flags_exit_0_1_or_2_and_write_strict_json(
            self, tmp_path_factory, numeric_inputs, run_args):
        """Every run exits 0, 1 or 2 without an exception escaping ``main``,
        and every file written on exit 0 is strict json (no NaN or
        Infinity) or a csv holding no such value."""
        command, tokens = run_args
        d = tmp_path_factory.mktemp("numeric-run")
        # the inputs are paths; an output is a name, written into ``d``
        argv = [str(d / a) if isinstance(a, str) and not a.startswith("--") else str(a)
                for a in numeric_inputs[command]]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = main([command, *argv, *tokens])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), err.getvalue()
        written = sorted(d.iterdir())
        if code != 0:
            assert written == [], err.getvalue()
            return
        assert written
        for path in written:
            text = path.read_text()
            if path.suffix == ".csv":
                cells = {c.strip().lower() for line in text.splitlines()
                         for c in line.split(",")}
                assert not cells & {"nan", "inf", "-inf", "infinity", "-infinity"}, text
            else:
                for line in text.splitlines():
                    json.loads(line, parse_constant=reject_constant)
