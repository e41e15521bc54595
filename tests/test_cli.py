import json

import numpy as np
import pytest

from acoustic_lda import corpus
from acoustic_lda.cli import main


@pytest.fixture
def pipeline_inputs(tmp_path):
    """Small synthetic feature corpus with two acoustically distinct groups."""
    rng = np.random.default_rng(0)
    docs = []
    for i in range(24):
        group = "music" if i % 2 else "speech"
        center = 4.0 if group == "music" else -4.0
        frames = rng.normal(center, 1.0, size=(30, 3))
        docs.append(corpus.FeatureDocument(id=f"d{i:02d}", frames=frames,
                                           group=group))
    path = tmp_path / "features.jsonl"
    corpus.save_features(path, docs)
    return path


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
        assert len(loaded) == 24 and loaded[0].group in ("speech", "music")

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
        corpus.save_bags(bags_path, [
            corpus.BagOfSounds(id="a", counts=np.array([40, 40, 0, 0])),
            corpus.BagOfSounds(id="b", counts=np.array([0, 0, 40, 40])),
        ])
        capsys.readouterr()
        assert run("entropy", "--model", model_path, "--bags", bags_path) == 0
        assert float(capsys.readouterr().out.strip()) < 0.005


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

    def test_manifest_values_read_as_flags(self, tmp_path):
        bags = tmp_path / "bags.jsonl"
        corpus.save_bags(bags, [
            corpus.BagOfSounds(id=f"d{i}", counts=np.array([3, i, 1, 0]))
            for i in range(4)])
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "stages": {"train-lda": {"k": "2", "max-em-iters": 3}}}))
        out = tmp_path / "lda.json"
        assert run("--manifest", manifest, "train-lda", "--bags", bags,
                   "--out", out) == 0
        assert json.loads(out.read_text())["K"] == 2
