"""Stage-wise pipeline driver.

Each subcommand reads its inputs from files, writes outputs atomically
(temp file + rename) and is idempotent given identical inputs and seed.
Exit codes: 0 success, 1 data error, 2 bad flags. Logs go to stderr; data
only ever goes to files (or stdout for the scalar ``entropy`` output).

A manifest file (``--manifest``) may supply per-stage flag defaults and a
global seed; explicit flags win over the manifest, which wins over the
built-in defaults.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile

import numpy as np

from . import corpus, domains, gmm, lda, network

__all__ = ["main"]


def _atomic_write(path, writer):
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        os.close(fd)
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_jsonl(path, records, seed=None):
    def writer(tmp):
        with open(tmp, "w") as fh:
            if seed is not None:
                fh.write(json.dumps({"_meta": {"seed": seed}}) + "\n")
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
    _atomic_write(path, writer)


def _load_assignments(path):
    out = []
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            obj = json.loads(line)
            if "_meta" in obj:
                continue
            theta = np.asarray(obj["theta"], dtype=float)
            out.append(domains.DomainAssignment(
                doc_id=str(obj["id"]), theta=theta,
                map_domain=int(obj["map_domain"]),
                weight=float(obj.get("weight", 1.0)),
            ))
    return out


def _load_labeled_frames(path):
    """Frame-classification data: jsonl rows {id, group, frames, labels}."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            obj = json.loads(line)
            if "_meta" in obj:
                continue
            frames = np.asarray(obj["frames"], dtype=float)
            labels = np.asarray(obj["labels"], dtype=np.int64)
            if frames.shape[0] != labels.shape[0]:
                raise corpus.CorpusError(
                    f"{path}:{lineno}: frames/labels length mismatch")
            rows.append((str(obj["id"]), frames, labels))
    return rows


def _frame_dataset(rows, assignments):
    """Expand per-document rows into per-frame (features, code, label)."""
    code_of = None
    if assignments is not None:
        code_of = {a.doc_id: domains.ubic_encode(a).code for a in assignments}
    dataset = []
    for doc_id, frames, labels in rows:
        code = None
        if code_of is not None:
            if doc_id not in code_of:
                raise KeyError(f"no domain assignment for document {doc_id!r}")
            code = code_of[doc_id]
        for t in range(frames.shape[0]):
            dataset.append((frames[t], code, int(labels[t])))
    return dataset


def _cmd_train_gmm(args):
    docs = corpus.load_features(args.features, format=args.format)
    if not docs:
        raise corpus.CorpusError("no feature documents to train on")
    frames = np.concatenate([d.frames for d in docs], axis=0)
    model = gmm.train_gmm(frames, args.components, gmm.GmmConfig())
    _atomic_write(args.out, lambda tmp: gmm.save_gmm(tmp, model, seed=args.seed))
    print(f"trained GMM: V={model.num_components} D={model.dim}", file=sys.stderr)


def _cmd_quantize(args):
    model = gmm.load_gmm(args.gmm)
    docs = corpus.load_features(args.features, format=args.format)
    symbol_docs = [gmm.quantize(model, d) for d in docs]
    _atomic_write(args.out, lambda tmp: corpus.save_symbols(tmp, symbol_docs))
    if args.bags_out:
        bags = [corpus.to_bag(d, model.num_components) for d in symbol_docs]
        _atomic_write(args.bags_out, lambda tmp: corpus.save_bags(tmp, bags))
    print(f"quantized {len(docs)} documents", file=sys.stderr)


def _cmd_train_lda(args):
    bags = corpus.load_bags(args.bags)
    config = lda.LdaConfig(seed=args.seed)
    if args.em_tol is not None:
        config.em_tol = args.em_tol
    if args.max_em_iters is not None:
        config.max_em_iters = args.max_em_iters
    model = lda.fit(bags, args.k, config)
    _atomic_write(args.out, lambda tmp: lda.save_lda(tmp, model, seed=args.seed))
    print(f"trained LDA: K={args.k} on {len(bags)} documents", file=sys.stderr)


def _cmd_assign(args):
    model = lda.load_lda(args.model)
    bags = corpus.load_bags(args.bags)
    assignments = domains.assign(model, bags)
    records = [
        {"id": a.doc_id, "theta": a.theta.tolist(),
         "map_domain": a.map_domain, "weight": a.weight}
        for a in assignments
    ]
    _write_jsonl(args.out, records, seed=args.seed)
    print(f"assigned {len(records)} documents", file=sys.stderr)


def _cmd_entropy(args):
    model = lda.load_lda(args.model)
    bags = corpus.load_bags(args.bags)
    assignments = domains.assign(model, bags)
    value = domains.average_domain_entropy(assignments, unit=args.unit)
    print(f"{value:.6f}")


def _cmd_filter(args):
    assign_a = _load_assignments(args.assign_a)
    assign_b = _load_assignments(args.assign_b)
    total = sum(a.weight for a in assign_a)
    if args.target_weight is not None:
        target = args.target_weight
    elif args.target_frac is not None:
        target = args.target_frac * total
    else:
        raise ValueError("filter needs --target-frac or --target-weight")
    result = domains.cross_agreement_filter(assign_a, assign_b, target)
    meta = {
        "seed": args.seed,
        "target_weight": target,
        "kept_weight": result.kept_weight,
        "total_weight": result.total_weight,
        "cutoff": {"tuple": list(result.cutoff[0]),
                   "normalized_weight": result.cutoff[1]},
        "histogram": sorted(
            [[a, b, w] for (a, b), w in result.tuple_histogram.items()]),
    }
    records = [{"id": doc_id} for doc_id in result.kept_ids]

    def writer(tmp):
        with open(tmp, "w") as fh:
            fh.write(json.dumps({"_meta": meta}) + "\n")
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
    _atomic_write(args.out, writer)
    print(
        f"kept {len(result.kept_ids)} documents "
        f"({result.kept_weight:.1f}/{result.total_weight:.1f} weight)",
        file=sys.stderr,
    )


def _cmd_augment_train(args):
    rows = _load_labeled_frames(args.data)
    assignments = _load_assignments(args.assignments) if args.assignments else None
    if args.keep_ids:
        with open(args.keep_ids) as fh:
            kept = {json.loads(line)["id"] for line in fh
                    if line.strip() and "_meta" not in json.loads(line)}
        rows = [r for r in rows if r[0] in kept]
    dataset = _frame_dataset(rows, assignments)
    if not dataset:
        raise corpus.CorpusError("no training frames")

    input_dim = dataset[0][0].shape[0]
    output_dim = max(label for _, _, label in dataset) + 1
    if args.classes is not None:
        output_dim = args.classes
    domain_dim = assignments[0].num_domains if assignments else 0
    hidden = [int(h) for h in args.hidden.split(",") if h]

    if args.baseline_net:
        baseline = network.load_network(args.baseline_net)
        if domain_dim == 0:
            raise corpus.CorpusError(
                "--baseline-net requires --assignments for augmentation")
        net = network.init_augmented_from_baseline(baseline, domain_dim)
    else:
        net = network.init_network(network.NetworkConfig(
            input_dim=input_dim, output_dim=output_dim, hidden_dims=hidden,
            domain_dim=domain_dim, activation=args.activation, seed=args.seed,
        ))
    config = network.TrainConfig(
        epochs=args.epochs, learning_rate=args.lr, batch_size=args.batch_size,
        seed=args.seed, cv_fraction=args.cv_fraction,
    )
    metrics = network.train(net, dataset, config)
    _atomic_write(args.out, lambda tmp: network.save_network(tmp, net, seed=args.seed))
    if args.metrics:
        def writer(tmp):
            with open(tmp, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["epoch", "train_loss", "cv_accuracy"])
                for m in metrics:
                    cv = "" if m["cv_accuracy"] is None else repr(m["cv_accuracy"])
                    w.writerow([m["epoch"], repr(m["train_loss"]), cv])
        _atomic_write(args.metrics, writer)
    last = metrics[-1]
    print(f"epoch {last['epoch']}: loss {last['train_loss']:.4f} "
          f"cv_acc {last['cv_accuracy']}", file=sys.stderr)


def _cmd_eval(args):
    net = network.load_network(args.net)
    rows = _load_labeled_frames(args.data)
    assignments = _load_assignments(args.assignments) if args.assignments else None
    dataset = _frame_dataset(rows, assignments)
    accuracy = network.evaluate_accuracy(net, dataset)
    print(f"{accuracy:.6f}")


def _cmd_stats(args):
    assignments = _load_assignments(args.assignments)
    bags = corpus.load_bags(args.bags)
    group_of = {b.id: (b.group or "unknown") for b in bags}
    rows = domains.distribution_stats(assignments, group_of, args.top_n)
    _atomic_write(args.out, lambda tmp: domains.write_stats_csv(tmp, rows))
    print(f"wrote {len(rows)} stat rows", file=sys.stderr)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="acoustic-lda",
        description="Latent acoustic domain discovery and domain-aware training",
    )
    parser.add_argument("--manifest", default=None,
                        help="json file with per-stage flag defaults and a global seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-gmm", help="train the quantizer GMM on pooled frames")
    p.add_argument("--features", required=True)
    p.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    p.add_argument("--components", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_gmm, _required=["components"])

    p = sub.add_parser("quantize", help="map frames to max-posterior component indices")
    p.add_argument("--gmm", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    p.add_argument("--out", required=True)
    p.add_argument("--bags-out", default=None,
                   help="also write bag-of-sounds count vectors")
    p.set_defaults(func=_cmd_quantize)

    p = sub.add_parser("train-lda", help="variational-EM LDA over bags-of-sounds")
    p.add_argument("--bags", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--em-tol", type=float, default=None)
    p.add_argument("--max-em-iters", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_lda, _required=["k"])

    p = sub.add_parser("assign", help="MAP domain assignment per document")
    p.add_argument("--model", required=True)
    p.add_argument("--bags", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_assign)

    p = sub.add_parser("entropy", help="average domain entropy over documents")
    p.add_argument("--model", required=True)
    p.add_argument("--bags", required=True)
    p.add_argument("--unit", choices=["bits", "nats"], default="bits")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("filter", help="two-model cross-agreement histogram pruning")
    p.add_argument("--assign-a", required=True)
    p.add_argument("--assign-b", required=True)
    p.add_argument("--target-frac", type=float, default=None)
    p.add_argument("--target-weight", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("augment-train",
                       help="train the frame classifier, optionally UBIC-augmented")
    p.add_argument("--data", required=True,
                   help="jsonl rows {id, frames, labels} with per-frame labels")
    p.add_argument("--assignments", default=None,
                   help="domain assignments for UBIC augmentation; omit for baseline")
    p.add_argument("--keep-ids", default=None,
                   help="filter result file restricting the training documents")
    p.add_argument("--baseline-net", default=None,
                   help="initialize feature weights from this baseline network")
    p.add_argument("--hidden", default="64,64")
    p.add_argument("--activation", choices=["sigmoid", "relu"], default="sigmoid")
    p.add_argument("--classes", type=int, default=None)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--cv-fraction", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--metrics", default=None)
    p.set_defaults(func=_cmd_augment_train)

    p = sub.add_parser("eval", help="frame accuracy of a saved network")
    p.add_argument("--net", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--assignments", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("stats", help="per-group domain distribution CSV")
    p.add_argument("--assignments", required=True)
    p.add_argument("--bags", required=True,
                   help="bags file supplying each document's group label")
    p.add_argument("--top-n", type=int, default=16)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_stats)
    parser.set_defaults(_commands=tuple(sub.choices))
    return parser


def _manifest_flags(parser, args):
    """The manifest's global seed and its entries for ``args.command``, as
    ``--key=value`` flag tokens."""
    def fault(message):
        parser.error(f"manifest {args.manifest}: {message}")

    try:
        with open(args.manifest) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        fault(str(exc))
    if not isinstance(manifest, dict) or not set(manifest) <= {"seed", "stages"}:
        fault('expected an object with keys "seed" and "stages"')
    stages = manifest.get("stages", {})
    if not (isinstance(stages, dict) and set(stages) <= set(args._commands)
            and all(isinstance(e, dict) for e in stages.values())):
        fault(f'"stages" must map subcommands ({", ".join(args._commands)}) to objects')
    entries = dict(stages.get(args.command, {}))
    if "seed" in manifest and hasattr(args, "seed"):
        entries = {"seed": manifest["seed"], **entries}
    for key, value in entries.items():
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            fault(f"{args.command}: {key!r} must be a string or a number")
    return [f"--{key}={value}" for key, value in entries.items()]


def _parse_args(parser, argv):
    """Parse ``argv``; the manifest's flags are inserted ahead of the explicit
    ones, so explicit flags win and manifest values meet the same types and
    choices. A seed left unset is 0."""
    args = parser.parse_args(argv)
    if args.manifest is not None:
        i = 0   # skip the top-level options: --manifest PATH or --manifest=PATH
        while argv[i] != args.command:
            i += 1 if "=" in argv[i] else 2
        flags = _manifest_flags(parser, args)
        args = parser.parse_args(argv[: i + 1] + flags + argv[i + 1:])
    if getattr(args, "seed", "absent") is None:
        args.seed = 0
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = _parse_args(parser, argv)
    for name in getattr(args, "_required", []):
        if getattr(args, name) is None:
            print(f"error: missing required flag --{name}", file=sys.stderr)
            return 2
    try:
        args.func(args)
    except (corpus.CorpusError, ValueError, KeyError, OSError,
            FloatingPointError, json.JSONDecodeError) as exc:
        message = str(exc).replace("\n", " ")
        print(f"error: {message}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
