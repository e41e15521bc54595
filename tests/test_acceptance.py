"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``."""

import json
import time

import numpy as np
import pytest

from acoustic_lda import corpus, domains, gmm, lda, network
from acoustic_lda.cli import main as cli_main
from oracles import (
    brute_log_evidence,
    gaussian_responsibilities,
    gmm_stages,
    gradient_check,
    greedy_row_match,
    prefix_filter_oracle,
)
from synthetic import (assignments_record, feature_record, generate_synthetic_lda_corpus,
                       input_matrix, labelled_frames)


def report(number, name, ok=True):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} [{status}] {name}")
    assert ok


def test_01_lda_recovery():
    start = time.time()
    k, v = 4, 50
    rng = np.random.default_rng(42)
    true_beta = rng.dirichlet(np.full(v, 0.2), size=k)
    docs, thetas = generate_synthetic_lda_corpus(
        0.1, true_beta, 500, 200, seed=7, return_thetas=True)
    bags = corpus.to_bag(docs, v)
    model = lda.fit(bags, k)
    tvs, perm = greedy_row_match(true_beta, np.exp(model.log_beta))
    assert tvs.max() < 0.1, f"worst TV {tvs.max():.3f}"

    generating = thetas.argmax(axis=1)
    fitted_to_true = {fitted: true for true, fitted in enumerate(perm)}
    assignments = domains.assign(model, bags)
    agree = np.mean([
        fitted_to_true[domain] == generating[i]
        for i, domain in enumerate(assignments.map_domains.tolist())
    ])
    elapsed = time.time() - start
    assert agree >= 0.90, f"MAP agreement {agree:.3f}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(1, f"LDA recovery (max TV {tvs.max():.3f}, MAP agreement "
              f"{agree:.2%}, {elapsed:.1f}s)")


def test_02_elbo_soundness():
    # the bound fit maximises: the E-step of EM on a corpus of one document
    rng = np.random.default_rng(2)
    worst_gap = np.inf
    for _ in range(100):
        k = int(rng.integers(1, 4))
        v = int(rng.integers(2, 5))
        n = int(rng.integers(1, 5))
        beta = rng.dirichlet(np.ones(v), size=k)
        alpha = rng.uniform(0.1, 2.0, size=k)
        symbols = rng.integers(0, v, size=n)
        counts = np.bincount(symbols, minlength=v)[None].astype(float)
        bounds, _ = lda._em_terms(np.log(beta), alpha, counts)
        bound = bounds[0]
        evidence = brute_log_evidence(alpha, beta, symbols)
        gap = evidence - bound
        assert gap > -1e-6, f"ELBO above evidence by {-gap:.2e}"
        if k == 1:
            assert abs(gap) < 1e-6, f"K=1 gap {gap:.2e}"
        worst_gap = min(worst_gap, gap)
    report(2, f"ELBO soundness on 100 brute-force instances "
              f"(tightest slack {worst_gap:.2e})")


def test_03_em_monotonicity():
    rng = np.random.default_rng(3)
    for trial in range(20):
        k = int(rng.integers(2, 4))
        v = int(rng.integers(5, 12))
        beta = rng.dirichlet(np.ones(v), size=k)
        docs = generate_synthetic_lda_corpus(
            0.5, beta, 20, 15, seed=300 + trial)
        model = lda.fit(corpus.to_bag(docs, v), k,
                        lda.LdaConfig(seed=trial))
        history = np.asarray(model.elbo_history)
        drops = np.diff(history) / np.abs(history[:-1])
        assert (drops >= -1e-6).all(), f"LDA ELBO drop {drops.min():.2e}"

    for trial in range(20):
        n = int(rng.integers(150, 400))
        d = int(rng.integers(1, 4))
        centers = rng.normal(scale=3.0, size=(3, d))
        frames = np.concatenate(
            [rng.normal(c, rng.uniform(0.5, 1.5), size=(n, d)) for c in centers])
        _, history = gmm_stages(frames, int(rng.integers(2, 6)))
        for _, lls in history:
            assert (np.diff(lls) >= -1e-8).all()
    report(3, "EM monotonicity (20 LDA corpora at 1e-6, 20 GMM runs at 1e-8)")


def test_04_quantizer_correctness():
    rng = np.random.default_rng(4)
    centers = np.array([[0.0, 0.0], [15.0, 0.0], [0.0, 15.0]])
    labels = np.repeat(np.arange(3), 800)
    frames = np.concatenate([rng.normal(c, 1.0, size=(800, 2)) for c in centers])
    model = gmm.train_gmm(frames, 3)
    symbols = gmm.quantize(model, feature_record(frames, ids=["all"]))
    # align components with generating clusters by mean proximity
    comp_of = {c: int(np.argmin(np.linalg.norm(model.means - centers[c], axis=1)))
               for c in range(3)}
    accuracy = np.mean([symbols[i] == comp_of[labels[i]]
                        for i in range(len(labels))])
    assert accuracy >= 0.99, f"quantizer accuracy {accuracy:.4f}"

    worst = 0.0
    for _ in range(1000):
        v, d = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        rm = gmm.GmmModel(
            weights=rng.dirichlet(np.ones(v)),
            means=rng.normal(size=(v, d)),
            variances=rng.uniform(0.2, 2.0, size=(v, d)),
        )
        frame = rng.normal(size=d)
        # the posterior from the log joint quantize takes its argmax of
        terms = rm._terms
        lj = gmm._log_joint(terms.w, terms.const,
                            gmm._design_block(frame[None, :], terms.centre))[:, 0]
        got = np.exp(lj - lj.max())
        got /= got.sum()
        want = gaussian_responsibilities(rm.weights, rm.means, rm.variances, frame)
        worst = max(worst, np.abs(got - want).max())
    assert worst < 1e-10, f"responsibility error {worst:.2e}"
    report(4, f"quantizer correctness (cluster accuracy {accuracy:.2%}, "
              f"max oracle error {worst:.1e})")


def _rows(net, x, domain=None):
    """The network input row for the single frame ``x`` with its domain,
    labelled 0."""
    return input_matrix(net, labelled_frames(x[None, :], [0]),
                        None if domain is None else [domain])


def test_05_domain_bias_algebra():
    rng = np.random.default_rng(5)
    baseline = network.init_network(network.NetworkConfig(
        input_dim=12, output_dim=6, hidden_dims=(16, 8), seed=50))
    augmented = network.init_augmented_from_baseline(baseline, 8)
    for _ in range(100):
        x = rng.normal(size=12)
        domain = int(rng.integers(0, 8))
        np.testing.assert_allclose(augmented._forward(_rows(augmented, x, domain)),
                                   baseline._forward(_rows(baseline, x)), atol=1e-12)

    trained = network.LdatNetwork(augmented.weights, augmented.biases,
                                  augmented.input_dim, augmented.domain_dim,
                                  augmented.activation)
    trained.weights[0][:] = rng.normal(size=trained.weights[0].shape)
    x = rng.normal(size=12)
    w_v, w_d = trained.weights[0][:, :12], trained.weights[0][:, 12:]
    base = w_v @ x + trained.biases[0]
    for i in range(8):
        row = _rows(trained, x, i)[0]
        # the decomposed product of the row the network is given
        pre = w_v @ row[:12] + trained.biases[0] + w_d @ row[12:]
        np.testing.assert_array_equal(pre, base + w_d[:, i])
    report(5, "domain-bias algebra (baseline equivalence at init, "
              "one-hot column selection)")


def test_06_gradient_fidelity():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        input_dim = int(rng.integers(2, 8))
        output_dim = int(rng.integers(2, 6))
        hidden = tuple(int(h) for h in
                       rng.integers(2, 9, size=rng.integers(1, 3)))
        domain_dim = int(rng.integers(0, 5))
        net = network.init_network(network.NetworkConfig(
            input_dim=input_dim, output_dim=output_dim, hidden_dims=hidden,
            domain_dim=domain_dim, seed=int(rng.integers(0, 2**31))))
        for b in net.biases:
            b += rng.normal(scale=0.1, size=b.shape)
        domain = int(rng.integers(0, domain_dim)) if domain_dim else None
        inputs = _rows(net, rng.normal(size=input_dim), domain)
        label = int(rng.integers(0, output_dim))
        worst = max(worst, gradient_check(net, inputs, label, epsilon=1e-5))
    assert worst < 1e-4, f"max relative gradient error {worst:.2e}"
    report(6, f"gradient fidelity over 100 networks (max error {worst:.1e})")


def _domain_shifted_task(seed, n):
    """Frames whose informative dimension confounds class and domain: the
    observable is roughly class + domain, so class is ambiguous without the
    domain."""
    rng = np.random.default_rng(seed)
    n_classes, n_domains, dim = 8, 4, 6
    cls = rng.integers(0, n_classes, size=n)
    dom = rng.integers(0, n_domains, size=n)
    x = rng.normal(0.0, 0.3, size=(n, dim))
    x[:, 0] += cls + dom
    x[:, 0] = (x[:, 0] - 5.0) / 3.0
    return x, dom, cls


def test_07_ldat_benefit():
    start = time.time()
    gaps = []
    for seed in range(5):
        xtr, dtr, ytr = _domain_shifted_task(seed, 20_000)
        xte, dte, yte = _domain_shifted_task(seed + 1000, 5_000)
        cfg = network.TrainConfig(epochs=8, learning_rate=0.2, batch_size=32,
                                  seed=seed, cv_fraction=0.0)

        base = network.init_network(network.NetworkConfig(
            input_dim=6, output_dim=8, hidden_dims=(64, 64), seed=seed))
        train, test = labelled_frames(xtr, ytr), labelled_frames(xte, yte)
        network.train(base, train, cfg)
        acc_base = network.evaluate_accuracy(base, test)

        aug = network.init_network(network.NetworkConfig(
            input_dim=6, domain_dim=4, output_dim=8, hidden_dims=(64, 64),
            seed=seed))
        network.train(aug, train, cfg, domains=dtr)
        acc_aug = network.evaluate_accuracy(aug, test, dte)
        gaps.append(acc_aug - acc_base)
    mean_gap = float(np.mean(gaps))
    elapsed = time.time() - start
    assert mean_gap >= 0.03, f"mean accuracy gap {mean_gap:.3f}"
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    report(7, f"domain-aware training benefit (+{mean_gap:.1%} over baseline "
              f"across 5 seeds, {elapsed:.0f}s)")


def test_08_entropy_trend():
    rng = np.random.default_rng(5)
    v = 40
    true_beta = rng.dirichlet(np.full(v, 0.3), size=32)
    docs = generate_synthetic_lda_corpus(0.5, true_beta, 150, 20, seed=6)
    bags = corpus.to_bag(docs, v)
    entropies = []
    for k in (4, 8, 16, 32):
        model = lda.fit(bags, k, lda.LdaConfig(seed=3, alpha=0.5))
        assignments = domains.assign(model, bags)
        entropies.append(domains.average_domain_entropy(assignments))
    assert all(b >= a - 1e-9 for a, b in zip(entropies, entropies[1:])), \
        f"entropies {entropies}"
    report(8, "entropy non-decreasing in K "
              f"({', '.join(f'{e:.2f}' for e in entropies)} bits)")


def test_09_cross_agreement_filter():
    rng = np.random.default_rng(9)
    for _ in range(50):
        k_a = int(rng.integers(2, 6))
        k_b = int(rng.integers(2, 7))
        n = int(rng.integers(10, 60))
        weights, thetas_a, thetas_b = [], [], []
        for i in range(n):
            weights.append(float(rng.uniform(0.5, 4.0)))
            thetas_a.append(rng.dirichlet(np.ones(k_a)))
            thetas_b.append(rng.dirichlet(np.ones(k_b)))
        assign_a = assignments_record(*thetas_a, weights=weights)
        assign_b = assignments_record(*thetas_b, weights=weights)
        total = sum(assign_a.weights.tolist())
        target = float(rng.uniform(0.3, 0.95)) * total
        result = domains.cross_agreement_filter(assign_a, assign_b, target)

        pairs = list(zip(assign_a.map_domains.tolist(), assign_b.map_domains.tolist()))
        oracle_tuples = prefix_filter_oracle(list(zip(pairs, weights)), k_b, target)
        oracle_ids = {doc_id for doc_id, pair in zip(assign_a.ids, pairs)
                      if pair in oracle_tuples}
        assert set(result.kept_ids) == oracle_ids
        assert result.kept_weight >= target
        cutoff_weight = result.tuple_histogram[result.cutoff[0]]
        assert result.kept_weight - cutoff_weight < target

    # tuple space is the Cartesian product of the two domain inventories
    assert 64 * 128 == 8192
    rng = np.random.default_rng(99)
    thetas_a, thetas_b = [], []
    for i in range(2000):
        thetas_a.append(rng.dirichlet(np.ones(4)))
        thetas_b.append(rng.dirichlet(np.ones(8)))
    result = domains.cross_agreement_filter(assignments_record(*thetas_a),
                                            assignments_record(*thetas_b), 2000.0)
    assert len(result.tuple_histogram) == 4 * 8
    report(9, "cross-agreement filter matches prefix oracle on 50 pairs; "
              "4x8 tuple space fully populated")


def test_10_pipeline_determinism(tmp_path):
    rng = np.random.default_rng(10)
    groups = ["a" if i < 10 else "b" for i in range(20)]
    record = feature_record(
        *[rng.normal(-3.0 if group == "a" else 3.0, 1.0, size=(25, 2)) for group in groups],
        ids=[f"d{i:02d}" for i in range(20)], groups=groups)
    features = tmp_path / "features.jsonl"
    corpus.save_features(features, record)

    data = tmp_path / "data.jsonl"
    with open(data, "w") as fh:
        bounds = record.offsets.tolist()
        for doc_id, start, stop in zip(record.ids, bounds, bounds[1:]):
            frames = record.frames[start:stop]
            labels = (frames[:, 0] > frames[:, 1]).astype(int)
            fh.write(json.dumps({"id": doc_id, "frames": frames.tolist(),
                                 "labels": labels.tolist()}) + "\n")

    def run_pipeline(out_dir):
        out_dir.mkdir(exist_ok=True)
        p = {name: out_dir / name for name in (
            "gmm.json", "symbols.jsonl", "bags.jsonl", "lda2.json", "lda3.json",
            "assign2.jsonl", "assign3.jsonl", "filter.jsonl", "net.json",
            "metrics.csv", "stats.csv")}
        steps = [
            ["train-gmm", "--features", features, "--components", "3",
             "--seed", "1", "--out", p["gmm.json"]],
            ["quantize", "--gmm", p["gmm.json"], "--features", features,
             "--out", p["symbols.jsonl"], "--bags-out", p["bags.jsonl"]],
            ["train-lda", "--bags", p["bags.jsonl"], "--k", "2", "--seed", "2",
             "--out", p["lda2.json"]],
            ["train-lda", "--bags", p["bags.jsonl"], "--k", "3", "--seed", "2",
             "--out", p["lda3.json"]],
            ["assign", "--model", p["lda2.json"], "--bags", p["bags.jsonl"],
             "--seed", "2", "--out", p["assign2.jsonl"]],
            ["assign", "--model", p["lda3.json"], "--bags", p["bags.jsonl"],
             "--seed", "2", "--out", p["assign3.jsonl"]],
            ["filter", "--assign-a", p["assign2.jsonl"],
             "--assign-b", p["assign3.jsonl"], "--target-frac", "0.7",
             "--seed", "2", "--out", p["filter.jsonl"]],
            ["augment-train", "--data", data,
             "--assignments", p["assign2.jsonl"],
             "--keep-ids", p["filter.jsonl"], "--hidden", "8",
             "--epochs", "3", "--seed", "3", "--out", p["net.json"],
             "--metrics", p["metrics.csv"]],
            ["stats", "--assignments", p["assign2.jsonl"],
             "--bags", p["bags.jsonl"], "--top-n", "2", "--out", p["stats.csv"]],
        ]
        for step in steps:
            assert cli_main([str(s) for s in step]) == 0, step
        return p

    first = run_pipeline(tmp_path / "run1")
    second = run_pipeline(tmp_path / "run2")
    for name in first:
        assert first[name].read_bytes() == second[name].read_bytes(), name
    report(10, "end-to-end pipeline byte-identical across reruns "
               f"({len(first)} artifacts)")
