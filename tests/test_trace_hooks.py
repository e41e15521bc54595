"""The benchmark's span tracer (``perfbench/tracing.py``) binds to the
package's functions by name and reads work counts from their arguments.
This runs a small pipeline through ``cli.main`` with the tracer installed,
unchanged, and checks each count against the sizes of the inputs: a renamed
parameter or a ``len()`` that counts documents where frames are meant would
pass ``pytest perfbench`` and still skew the benchmark's rates."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import acoustic_lda
from acoustic_lda import cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
DOCS, FRAMES, DIM, EPOCHS = 6, (5, 9, 4, 7, 6, 8), 3, 3


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_inputs(d):
    rng = np.random.default_rng(3)
    frames = [rng.normal(3.0 * (i % 2), 1.0, size=(n, DIM)) for i, n in enumerate(FRAMES)]
    features, data = d / "features.jsonl", d / "data.jsonl"
    features.write_text("".join(
        json.dumps({"id": f"d{i}", "group": f"g{i % 2}", "frames": x.tolist()}) + "\n"
        for i, x in enumerate(frames)))
    data.write_text("".join(
        json.dumps({"id": f"d{i}", "frames": x.tolist(),
                    "labels": (x[:, 0] > 1.5).astype(int).tolist()}) + "\n"
        for i, x in enumerate(frames)))
    return features, data


def test_trace_counts_match_the_inputs(tmp_path, tracing):
    features, data = write_inputs(tmp_path)
    p = {name: tmp_path / name for name in
         ("gmm.json", "symbols.jsonl", "bags.jsonl", "lda.json", "assign.jsonl",
          "filter.jsonl", "stats.csv", "net.json")}
    originals = {(m, f): getattr(getattr(acoustic_lda, m), f)
                 for m, names in tracing.TRACED.items() for f in names}
    tracer = tracing.Tracer()
    restore = tracer.install(acoustic_lda)
    try:
        for argv in (
                ["train-gmm", "--features", features, "--components", 4,
                 "--out", p["gmm.json"]],
                ["quantize", "--gmm", p["gmm.json"], "--features", features,
                 "--out", p["symbols.jsonl"], "--bags-out", p["bags.jsonl"]],
                ["train-lda", "--bags", p["bags.jsonl"], "--k", 2, "--em-tol", 0,
                 "--max-em-iters", 4, "--out", p["lda.json"]],
                ["assign", "--model", p["lda.json"], "--bags", p["bags.jsonl"],
                 "--out", p["assign.jsonl"]],
                ["filter", "--assign-a", p["assign.jsonl"], "--assign-b", p["assign.jsonl"],
                 "--target-frac", 0.5, "--out", p["filter.jsonl"]],
                ["stats", "--assignments", p["assign.jsonl"], "--bags", p["bags.jsonl"],
                 "--out", p["stats.csv"]],
                ["augment-train", "--data", data, "--assignments", p["assign.jsonl"],
                 "--hidden", 4, "--epochs", EPOCHS, "--out", p["net.json"]],
                ["eval", "--net", p["net.json"], "--data", data,
                 "--assignments", p["assign.jsonl"]]):
            assert cli.main([str(a) for a in argv]) == 0, argv[0]
    finally:
        restore()
    assert {(m, f): getattr(getattr(acoustic_lda, m), f) for m, f in originals} == originals

    def spans(name):
        return [s for s in tracer.spans if s["name"] == name]

    assert len(spans("gmm.quantize")) == DOCS
    assert sum(s["frames"] for s in spans("gmm.quantize")) == sum(FRAMES)
    assert [s["docs"] for s in spans("domains.assign")] == [DOCS]
    assert [s["frame_epochs"] for s in spans("network.train")] == [sum(FRAMES) * EPOCHS]
    assert [s["em_iters"] for s in spans("lda.fit")] == [4]
    assert [s["bytes"] for s in spans("corpus.load_features")] == [features.stat().st_size]
    bags_bytes = p["bags.jsonl"].stat().st_size
    # train-lda, assign and stats each load the bags
    assert [s["bytes"] for s in spans("corpus.load_bags")] == [bags_bytes] * 3
    for name in ("corpus.to_bag", "corpus.save_bags", "corpus.save_symbols",
                 "domains.cross_agreement_filter", "domains.distribution_stats",
                 "network.evaluate_accuracy"):
        assert len(spans(name)) == 1, name
