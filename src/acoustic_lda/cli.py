"""Stage-wise pipeline driver: one subcommand per stage of the pipeline.

Each subcommand reads its inputs from files and writes its outputs through
:mod:`.formats`, so every write is atomic and every input meets the shared
jsonl and json rules. A rerun with identical inputs and seed writes
identical bytes. The artifact formats belong to the modules that build them
(features, labelled frames, symbols and bags to ``corpus``, the GMM, LDA
and network files to ``gmm``, ``lda`` and ``network``, the assignments and
the stats csv to ``domains``); this module adds the fields of the files only
the CLI reads or writes. Every input is json or jsonl; csv is only written:

  filter output   jsonl, a ``_meta`` line with the filter's cutoff and
                  histogram, then {"id"} per kept document (``--keep-ids``)
  metrics         csv ``epoch,train_loss,cv_accuracy``

``augment-train`` and ``eval`` give every frame of a document that
document's ``map_domain``; the network turns it into the one-hot UBIC.
``eval`` requires the assignments' K to be the network's domain dim.

Exit codes: 0 success, 1 data error (a size too large to allocate is one),
2 bad flags or manifest. Logs go to stderr; data goes to files, or to stdout
for the scalars of ``entropy`` and ``eval``.

A manifest file (``--manifest``) may supply per-stage flag defaults and a
global seed; explicit flags win over the manifest, which wins over the
built-in defaults. A stage entry's keys are that subcommand's flag names
without the leading ``--``, spelled out in full.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import corpus, domains, formats, gmm, lda, network

__all__ = ["main"]


def _doc_domains(record, assignments):
    """The MAP domain of each document of the labelled frames ``record``,
    (M,), from the record ``assignments``, or None without them."""
    if not record.num_frames:
        raise corpus.CorpusError("no labelled frames")
    if assignments is None:
        return None
    row_of = {doc_id: i for i, doc_id in enumerate(assignments.ids)}
    for doc_id in record.ids:
        if doc_id not in row_of:
            raise ValueError(f"no domain assignment for document {doc_id!r}")
    return assignments.map_domains[[row_of[doc_id] for doc_id in record.ids]]


def _cmd_train_gmm(args):
    record = corpus.load_features(args.features)
    if not record.ids:
        raise corpus.CorpusError("no feature documents to train on")
    model = gmm.train_gmm(record.frames, args.components)
    gmm.save_gmm(args.out, model, seed=args.seed)
    print(f"trained GMM: V={model.num_components} D={model.dim}", file=sys.stderr)


def _cmd_quantize(args):
    model = gmm.load_gmm(args.gmm)
    # one document at a time: the corpus's frames are never held whole
    symbols = corpus.quantize_features(args.features, lambda doc: gmm.quantize(model, doc))
    corpus.save_symbols(args.out, symbols)
    if args.bags_out:
        corpus.save_bags(args.bags_out, corpus.to_bag(symbols, model.num_components))
    print(f"quantized {len(symbols.ids)} documents", file=sys.stderr)


def _cmd_train_lda(args):
    bags = corpus.load_bags(args.bags)
    config = lda.LdaConfig(em_tol=args.em_tol, max_em_iters=args.max_em_iters,
                           seed=args.seed)
    model = lda.fit(bags, args.k, config)
    lda.save_lda(args.out, model, seed=args.seed)
    print(f"trained LDA: K={args.k} on {len(bags)} documents", file=sys.stderr)


def _cmd_assign(args):
    model = lda.load_lda(args.model)
    bags = corpus.load_bags(args.bags)
    assignments = domains.assign(model, bags)
    domains.save_assignments(args.out, assignments, seed=args.seed)
    empty = int((~bags.counts.any(axis=1)).sum())   # each took the uniform theta
    print(f"assigned {len(assignments)} documents, {empty} empty", file=sys.stderr)


def _cmd_entropy(args):
    model = lda.load_lda(args.model)
    bags = corpus.load_bags(args.bags)
    assignments = domains.assign(model, bags)
    value = domains.average_domain_entropy(assignments, unit=args.unit)
    empty = int((~bags.counts.any(axis=1)).sum())   # each took the uniform theta
    print(f"entropy over {len(assignments)} documents, {empty} empty", file=sys.stderr)
    print(f"{value:.6f}")


def _cmd_filter(args):
    assign_a = domains.load_assignments(args.assign_a)
    assign_b = domains.load_assignments(args.assign_b)
    if args.target_weight is not None:
        target = args.target_weight
    else:
        target = args.target_frac * assign_a.total_weight
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
    formats.write_jsonl(args.out, [{"id": doc_id} for doc_id in result.kept_ids], meta)
    print(
        f"kept {len(result.kept_ids)} documents "
        f"({result.kept_weight:.1f}/{result.total_weight:.1f} weight)",
        file=sys.stderr,
    )


def _cmd_augment_train(args):
    record = corpus.load_labeled_frames(args.data)
    assignments = domains.load_assignments(args.assignments) if args.assignments else None
    if args.keep_ids:
        record = record.subset(set(formats.read_jsonl(args.keep_ids,
                                                      lambda obj: obj["id"])))
    doc_domains = _doc_domains(record, assignments)

    input_dim = record.dim
    output_dim = int(record.labels.max()) + 1
    if args.classes is not None:
        output_dim = args.classes
    domain_dim = assignments.num_domains if assignments is not None else 0

    if args.baseline_net:
        baseline = network.load_network(args.baseline_net)
        if domain_dim == 0:
            raise corpus.CorpusError(
                "--baseline-net requires --assignments for augmentation")
        net = network.init_augmented_from_baseline(baseline, domain_dim)
    else:
        net = network.init_network(network.NetworkConfig(
            input_dim=input_dim, output_dim=output_dim, hidden_dims=args.hidden,
            domain_dim=domain_dim, activation=args.activation, seed=args.seed,
        ))
    config = network.TrainConfig(
        epochs=args.epochs, learning_rate=args.lr, batch_size=args.batch_size,
        seed=args.seed, cv_fraction=args.cv_fraction,
    )
    metrics = network.train(net, record, config, domains=doc_domains)
    network.save_network(args.out, net, seed=args.seed)
    if args.metrics:
        formats.write_csv(args.metrics, ["epoch", "train_loss", "cv_accuracy"], (
            [m["epoch"], repr(m["train_loss"]),
             "" if m["cv_accuracy"] is None else repr(m["cv_accuracy"])]
            for m in metrics))
    last = metrics[-1]
    print(f"epoch {last['epoch']}: loss {last['train_loss']:.4f} "
          f"cv_acc {last['cv_accuracy']}", file=sys.stderr)


def _cmd_eval(args):
    net = network.load_network(args.net)
    record = corpus.load_labeled_frames(args.data)
    assignments = domains.load_assignments(args.assignments) if args.assignments else None
    doc_domains = _doc_domains(record, assignments)
    if assignments and net.domain_dim and assignments.num_domains != net.domain_dim:
        raise ValueError(f"assignments have K={assignments.num_domains} != "
                         f"network domain dim {net.domain_dim}")
    accuracy = network.evaluate_accuracy(net, record, doc_domains)
    print(f"{accuracy:.6f}")


def _cmd_stats(args):
    assignments = domains.load_assignments(args.assignments)
    bags = corpus.load_bags(args.bags)
    group_of = {doc_id: group or "unknown" for doc_id, group in zip(bags.ids, bags.groups)}
    rows = domains.distribution_stats(assignments, group_of, args.top_n)
    domains.write_stats_csv(args.out, rows)
    print(f"wrote {len(rows)} stat rows", file=sys.stderr)


def _widths(text):
    """``--hidden``: comma-separated layer widths as a tuple of ints."""
    try:
        return tuple(int(h) for h in text.split(",") if h)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


@functools.cache
def _build_parser():
    """The CLI's parser, built once per process: parsing does not change it,
    so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="acoustic-lda",
        description="Latent acoustic domain discovery and domain-aware training",
    )
    parser.add_argument("--manifest", default=None,
                        help="json file with per-stage flag defaults and a global seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-gmm", help="train the quantizer GMM on pooled frames")
    p.add_argument("--features", required=True)
    p.add_argument("--components", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_gmm, _required=[("components",)])

    p = sub.add_parser("quantize", help="map frames to max-posterior component indices")
    p.add_argument("--gmm", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bags-out", default=None,
                   help="also write bag-of-sounds count vectors")
    p.set_defaults(func=_cmd_quantize)

    p = sub.add_parser("train-lda", help="variational-EM LDA over bags-of-sounds")
    p.add_argument("--bags", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--em-tol", type=float, default=lda.LdaConfig.em_tol)
    p.add_argument("--max-em-iters", type=int, default=lda.LdaConfig.max_em_iters)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_lda, _required=[("k",)])

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
    p.set_defaults(func=_cmd_filter, _required=[("target_frac", "target_weight")])

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
    p.add_argument("--hidden", type=_widths, default="64,64")
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
    # each subcommand's long flag names, which are a manifest entry's keys
    parser.set_defaults(_flags={
        name: {opt[2:] for opt in p._option_string_actions if opt.startswith("--")}
        - {"help"} for name, p in sub.choices.items()})
    return parser


def _manifest_flags(parser, args):
    """The manifest's global seed and its entries for ``args.command``, as
    ``--key=value`` flag tokens. Each key must be one of the subcommand's
    flag names, spelled out: argparse would take a prefix, or a key holding
    ``=``, for some other flag."""
    def entries(manifest):
        if not set(manifest) <= {"seed", "stages"}:
            raise ValueError('expected an object with keys "seed" and "stages"')
        stages = manifest.get("stages", {})
        if not (isinstance(stages, dict) and set(stages) <= set(args._flags)
                and all(isinstance(e, dict) for e in stages.values())):
            raise ValueError(
                f'"stages" must map subcommands ({", ".join(args._flags)}) to objects')
        found = dict(stages.get(args.command, {}))
        unknown = sorted(set(found) - args._flags[args.command])
        if unknown:
            raise ValueError(f"{args.command}: unknown flag(s) "
                             f"{', '.join(map(repr, unknown))}")
        if "seed" in manifest and hasattr(args, "seed"):
            found = {"seed": manifest["seed"], **found}
        for key, value in found.items():
            if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                raise ValueError(f"{args.command}: {key!r} must be a string or a number")
        return found

    try:
        found = formats.read_json(args.manifest, (), entries)
    except (OSError, ValueError) as exc:
        parser.error(f"manifest: {exc}")
    return [f"--{key}={value}" for key, value in found.items()]


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
    # each entry of _required holds flags of which at least one must be set
    for names in getattr(args, "_required", []):
        if all(getattr(args, name) is None for name in names):
            flags = " or ".join("--" + name.replace("_", "-") for name in names)
            print(f"error: missing required flag {flags}", file=sys.stderr)
            return 2
    try:
        args.func(args)
    except (ValueError, KeyError, OSError, FloatingPointError, MemoryError) as exc:
        message = str(exc).replace("\n", " ")
        print(f"error: {message}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
