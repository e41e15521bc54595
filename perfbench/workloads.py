"""The benchmark's workloads: set-up, timed CLI steps and output checks.

Each workload is one batch job of CLI steps, run over and over by a single
client (a closed loop). Set-up writes the inputs, and for ``label_corpus``
the models, into a set-up directory; the timed steps read from it and write
into a directory of their own per job.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import tracing
import world

NUM_UNITS = 8     # unit classes, which are also the frame labels
NUM_DOMAINS = 4   # latent generating domains
SYMBOL_SAMPLE = (8, 25)   # documents x frames re-quantized by the benchmark


class SetupError(RuntimeError):
    """A set-up step of the program failed."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: dict                 # scale name -> size parameters
    setup: Callable             # (setup_dir, seed, size, run_cli) -> None
    steps: Callable             # (setup_dir, job_dir, seed, size) -> [(stage, argv)]
    check: Callable             # (checker, setup_dir, job_dir, seed, size, run_cli) -> dict
    gmm_temp_frames: Callable = None   # size -> frames in the largest (N, V, D) temporary
    setup_batch: int = 1        # set-ups per timed set-up sample, so a sample takes ~1 s

    def load(self, size: dict) -> dict:
        """The load one job puts on the program, for the record."""
        load = {"D": world.DIM, **{k: v for k, v in size.items() if not k.endswith("_floor")}}
        if self.gmm_temp_frames is not None:
            load["gmm_temp_mb_computed"] = tracing.gmm_temp_mb(
                self.gmm_temp_frames(size), size["V"], world.DIM)
        return load


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_jsonl(path):
    with open(path) as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)


def _write_truth(path, utts):
    with open(path, "w") as fh:
        json.dump({u.id: u.domain for u in utts}, fh)


def _join(d, name):
    return os.path.join(d, name)


def _fixed_em(iters):
    """train-lda flags for exactly ``iters`` EM iterations, so that every seed
    does the same number (convergence would stop each seed at another count)."""
    return ["--em-tol", "0", "--max-em-iters", str(iters)]


# ---------------------------------------------------------------- checks

def check_symbols(ck, gmm_path, features_path, symbols_path, seed):
    """Every symbol in range and one per frame; on a seeded sample of frames,
    the symbol is the argmax of w_i * N(x; mu_i, diag(var_i)) computed here."""
    model = _read_json(gmm_path)
    log_w = np.log(np.asarray(model["weights"]))
    means = np.asarray(model["means"])
    var = np.asarray(model["variances"])
    symbols = {r["id"]: np.asarray(r["symbols"]) for r in _read_jsonl(symbols_path)}
    with open(features_path) as fh:
        lines = [line for line in fh if line.strip()]
    rng = np.random.default_rng([seed, 99])
    n_docs, n_frames = SYMBOL_SAMPLE
    picked = rng.choice(len(lines), size=min(n_docs, len(lines)), replace=False)
    ok, bad = len(symbols) == len(lines), []
    for i in sorted(picked):
        rec = json.loads(lines[i])
        frames = np.asarray(rec["frames"])
        sym = symbols.get(rec["id"])
        if sym is None or sym.shape != (frames.shape[0],):
            ok, bad = False, bad + [rec["id"]]
            continue
        rows = rng.choice(frames.shape[0], size=min(n_frames, frames.shape[0]),
                          replace=False)
        x = frames[rows]
        log_p = log_w[None, :] - 0.5 * (
            np.log(2 * np.pi * var).sum(axis=1)[None, :]
            + (((x[:, None, :] - means[None, :, :]) ** 2) / var[None, :, :]).sum(axis=2))
        best = log_p.max(axis=1)
        got = log_p[np.arange(len(rows)), sym[rows]]
        if not np.all(got >= best - 1e-9 * np.maximum(1.0, np.abs(best))):
            ok, bad = False, bad + [rec["id"]]
    ok = ok and all(s.min() >= 0 and s.max() < log_w.size for s in symbols.values())
    ck.op("symbols are the max-density components", ok, f"bad documents {bad}")


def check_assignments(ck, path):
    """theta sums to 1 and map_domain is argmax(theta), for every document;
    returns {id: map_domain}."""
    out, ok = {}, True
    for r in _read_jsonl(path):
        if "_meta" in r:
            continue
        theta = np.asarray(r["theta"])
        ok = ok and abs(theta.sum() - 1.0) <= 1e-9 and r["map_domain"] == int(np.argmax(theta))
        out[r["id"]] = r["map_domain"]
    ck.op(f"assignments in {os.path.basename(path)} are normalised, MAP = argmax", ok)
    return out


def domain_purity(map_domain, truth):
    """Share of documents whose MAP domain's majority generating domain is
    their own generating domain."""
    members = {}
    for doc_id, k in map_domain.items():
        members.setdefault(k, []).append(truth[doc_id])
    hits = sum(np.bincount(gs).max() for gs in members.values())
    return hits / len(map_domain)


def check_purity(ck, map_domain, setup_dir, floor):
    truth = _read_json(_join(setup_dir, "truth.json"))
    ok = set(map_domain) == set(truth)
    purity = domain_purity(map_domain, truth) if ok else 0.0
    ck.op(f"domain purity {purity:.3f} >= {floor}", ok and purity >= floor)
    return purity


# ---------------------------------------------------------------- train_domains

def _train_domains_setup(d, seed, s, run_cli):
    utts = world.utterances(world.make_world(seed, NUM_UNITS, NUM_DOMAINS),
                            seed, 1, s["docs"], s["frames"], "u")
    world.write_features(_join(d, "features.jsonl"), utts)
    _write_truth(_join(d, "truth.json"), utts)


def _train_domains_steps(d, job, seed, s):
    features = _join(d, "features.jsonl")
    return [
        ("train-gmm", ["train-gmm", "--features", features, "--components", str(s["V"]),
                       "--seed", str(seed), "--out", _join(job, "gmm.json")]),
        ("quantize", ["quantize", "--gmm", _join(job, "gmm.json"), "--features", features,
                      "--out", _join(job, "symbols.jsonl"),
                      "--bags-out", _join(job, "bags.jsonl")]),
    ] + [
        ("train-lda", ["train-lda", "--bags", _join(job, "bags.jsonl"), "--k", str(s[f"K_{tag}"]),
                       "--seed", str(seed), *_fixed_em(s["em_iters"]),
                       "--out", _join(job, f"lda_{tag}.json")])
        for tag in ("a", "b")
    ]


def _train_domains_check(ck, d, job, seed, s, run_cli):
    check_symbols(ck, _join(job, "gmm.json"), _join(d, "features.jsonl"),
                  _join(job, "symbols.jsonl"), seed)
    # purity needs an assign pass; it runs here, after the timed steps
    out = _join(job, "check_assign_a.jsonl")
    rc = run_cli(["assign", "--model", _join(job, "lda_a.json"),
                  "--bags", _join(job, "bags.jsonl"), "--out", out])
    ck.op("untimed assign exits 0", rc == 0)
    if rc != 0:
        return {}
    purity = check_purity(ck, check_assignments(ck, out), d, s["purity_floor"])
    os.unlink(out)
    return {"domain_purity": purity}


# ---------------------------------------------------------------- label_corpus

def _label_corpus_setup(d, seed, s, run_cli):
    w = world.make_world(seed, NUM_UNITS, NUM_DOMAINS)
    train = world.utterances(w, seed, 1, s["train_docs"], s["train_frames"], "t")
    docs = world.utterances(w, seed, 2, s["docs"], s["frames"], "d")
    world.write_features(_join(d, "train.jsonl"), train)
    world.write_features(_join(d, "features.jsonl"), docs)
    _write_truth(_join(d, "truth.json"), docs)
    world.write_codebook_gmm(_join(d, "gmm.json"), train, s["V"], seed, 3)
    steps = [["quantize", "--gmm", _join(d, "gmm.json"), "--features", _join(d, "train.jsonl"),
              "--out", _join(d, "train_symbols.jsonl"),
              "--bags-out", _join(d, "train_bags.jsonl")]]
    for tag in ("a", "b"):
        steps.append(["train-lda", "--bags", _join(d, "train_bags.jsonl"),
                      "--k", str(s[f"K_{tag}"]), "--seed", str(seed),
                      *_fixed_em(s["setup_em_iters"]),
                      "--out", _join(d, f"lda_{tag}.json")])
    for argv in steps:
        if run_cli(argv) != 0:
            raise SetupError(f"set-up step {argv[0]} failed")


def _label_corpus_steps(d, job, seed, s):
    return [
        ("quantize", ["quantize", "--gmm", _join(d, "gmm.json"),
                      "--features", _join(d, "features.jsonl"),
                      "--out", _join(job, "symbols.jsonl"),
                      "--bags-out", _join(job, "bags.jsonl")]),
        ("assign", ["assign", "--model", _join(d, "lda_a.json"), "--bags", _join(job, "bags.jsonl"),
                    "--seed", str(seed), "--out", _join(job, "assign_a.jsonl")]),
        ("assign", ["assign", "--model", _join(d, "lda_b.json"), "--bags", _join(job, "bags.jsonl"),
                    "--seed", str(seed), "--out", _join(job, "assign_b.jsonl")]),
        ("filter", ["filter", "--assign-a", _join(job, "assign_a.jsonl"),
                    "--assign-b", _join(job, "assign_b.jsonl"),
                    "--target-frac", str(s["target_frac"]), "--seed", str(seed),
                    "--out", _join(job, "filter.jsonl")]),
        ("stats", ["stats", "--assignments", _join(job, "assign_a.jsonl"),
                   "--bags", _join(job, "bags.jsonl"), "--top-n", "4",
                   "--out", _join(job, "stats.csv")]),
    ]


def _label_corpus_check(ck, d, job, seed, s, run_cli):
    check_symbols(ck, _join(d, "gmm.json"), _join(d, "features.jsonl"),
                  _join(job, "symbols.jsonl"), seed)
    map_a = check_assignments(ck, _join(job, "assign_a.jsonl"))
    check_assignments(ck, _join(job, "assign_b.jsonl"))
    records = list(_read_jsonl(_join(job, "filter.jsonl")))
    meta = records[0].get("_meta", {})
    kept = {r["id"] for r in records[1:]}
    ck.op("filter keeps at least the target weight",
          meta.get("kept_weight", -1.0) >= meta.get("target_weight", np.inf)
          and kept <= set(map_a))
    with open(_join(job, "stats.csv")) as fh:
        ck.op("stats csv has a header and rows", len(fh.read().splitlines()) > 1)
    return {"domain_purity": check_purity(ck, map_a, d, s["purity_floor"])}


# ---------------------------------------------------------------- train_classifier

def _train_classifier_setup(d, seed, s, run_cli):
    w = world.make_world(seed, NUM_UNITS, NUM_DOMAINS)
    train = world.utterances(w, seed, 4, s["docs"], s["frames"], "t")
    held_out = world.utterances(w, seed, 5, s["held_out_docs"], s["frames"], "e")
    world.write_labeled(_join(d, "train.jsonl"), train)
    world.write_labeled(_join(d, "held_out.jsonl"), held_out)
    world.write_assignments(_join(d, "assign.jsonl"), train + held_out, NUM_DOMAINS, seed, 6)


def _train_classifier_steps(d, job, seed, s):
    common = ["--data", _join(d, "train.jsonl"), "--hidden", s["hidden"],
              "--epochs", str(s["epochs"]), "--classes", str(NUM_UNITS),
              "--seed", str(seed)]
    return [
        ("augment-train", ["augment-train", *common, "--out", _join(job, "base.json"),
                           "--metrics", _join(job, "base.csv")]),
        ("augment-train", ["augment-train", *common, "--assignments", _join(d, "assign.jsonl"),
                           "--baseline-net", _join(job, "base.json"),
                           "--out", _join(job, "aug.json"), "--metrics", _join(job, "aug.csv")]),
        ("eval", ["eval", "--net", _join(job, "base.json"), "--data", _join(d, "held_out.jsonl")]),
        ("eval", ["eval", "--net", _join(job, "aug.json"), "--data", _join(d, "held_out.jsonl"),
                  "--assignments", _join(d, "assign.jsonl")]),
    ]


def _train_classifier_check(ck, d, job, seed, s, run_cli):
    outputs = _read_json(_join(job, "stdout.json"))
    try:
        base, aug = (float(outputs[i].strip()) for i in (2, 3))
    except ValueError:
        ck.op("eval prints two accuracies", False, repr(outputs[2:]))
        return {}
    ck.op("eval prints two accuracies", 0.0 <= base <= 1.0 and 0.0 <= aug <= 1.0)
    gain = aug - base
    ck.op(f"ubic gain {gain:.4f} >= {s['gain_floor']}", gain >= s["gain_floor"])
    return {"ubic_gain": gain}


WORKLOADS = {w.name: w for w in [
    Workload(
        name="train_domains",
        why="model building: train-gmm, quantize and train-lda at two K on short "
            "utterances; GMM and LDA training do nearly all the work",
        sizes={"full": {"docs": 120, "frames": 20, "V": 32, "K_a": 8, "K_b": 16,
                        "em_iters": 10, "purity_floor": 0.8},
               "tiny": {"docs": 24, "frames": 10, "V": 4, "K_a": 2, "K_b": 3,
                        "em_iters": 2, "purity_floor": 0.0}},
        setup=_train_domains_setup, steps=_train_domains_steps,
        check=_train_domains_check,
        gmm_temp_frames=lambda s: s["docs"] * s["frames"],   # train_gmm pools every frame
        setup_batch=12),   # one set-up writes only the features, ~0.1 s
    Workload(
        name="label_corpus",
        why="read side: quantize, assign at two K, filter and stats on long "
            "utterances with prebuilt models; no training runs",
        sizes={"full": {"train_docs": 48, "train_frames": 100, "docs": 40, "frames": 500,
                        "V": 128, "K_a": 8, "K_b": 16, "setup_em_iters": 10,
                        "target_frac": 0.8, "purity_floor": 0.8},
               "tiny": {"train_docs": 16, "train_frames": 20, "docs": 8, "frames": 50,
                        "V": 8, "K_a": 2, "K_b": 3, "setup_em_iters": 2,
                        "target_frac": 0.8, "purity_floor": 0.0}},
        setup=_label_corpus_setup, steps=_label_corpus_steps,
        check=_label_corpus_check,
        gmm_temp_frames=lambda s: s["frames"]),   # quantize takes one document at a time
    Workload(
        name="train_classifier",
        why="classifier side: baseline and UBIC-augmented network training and "
            "eval; network and the per-frame dataset path do the work",
        sizes={"full": {"docs": 100, "held_out_docs": 34, "frames": 200,
                        "hidden": "64,64", "epochs": 5, "gain_floor": 0.02},
               "tiny": {"docs": 12, "held_out_docs": 6, "frames": 20,
                        "hidden": "8", "epochs": 1, "gain_floor": -1.0}},
        setup=_train_classifier_setup, steps=_train_classifier_steps,
        check=_train_classifier_check),
]}
