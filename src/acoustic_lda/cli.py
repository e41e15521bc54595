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
2 bad flags or manifest, or an output naming the file of another output or
of an input, which is checked before any file is read. Logs go to stderr;
data goes to files, or to stdout for the scalars of ``entropy`` and ``eval``.

A manifest file (``--manifest``) may supply any flag of a stage, a required
one included, and a global seed; explicit flags win over the manifest, which
wins over the built-in defaults. A stage entry's keys are that subcommand's
flag names without the leading ``--``, spelled out in full. The manifest is
read as its subcommand is parsed, so its faults come before those of the
subcommand's own flags and before the subcommand's ``-h`` prints help.
"""

from __future__ import annotations

import argparse
import functools
import itertools
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
    so every ``main`` call shares it. A file flag's metavar marks it as an
    input, ``IN``, or an output, ``OUT``."""
    parser = argparse.ArgumentParser(
        prog="acoustic-lda",
        description="Latent acoustic domain discovery and domain-aware training",
    )
    parser.add_argument("--manifest", default=None, metavar="IN",
                        help="json file with per-stage flags and a global seed")
    sub = parser.add_subparsers(dest="command", required=True, action=_Subcommands)

    p = sub.add_parser("train-gmm", help="train the quantizer GMM on pooled frames")
    p.add_argument("--features", required=True, metavar="IN")
    p.add_argument("--components", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, metavar="OUT")
    p.set_defaults(func=_cmd_train_gmm)

    p = sub.add_parser("quantize", help="map frames to max-posterior component indices")
    p.add_argument("--gmm", required=True, metavar="IN")
    p.add_argument("--features", required=True, metavar="IN")
    p.add_argument("--out", required=True, metavar="OUT")
    p.add_argument("--bags-out", default=None, metavar="OUT",
                   help="also write bag-of-sounds count vectors")
    p.set_defaults(func=_cmd_quantize)

    p = sub.add_parser("train-lda", help="variational-EM LDA over bags-of-sounds")
    p.add_argument("--bags", required=True, metavar="IN")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--em-tol", type=float, default=lda.LdaConfig.em_tol)
    p.add_argument("--max-em-iters", type=int, default=lda.LdaConfig.max_em_iters)
    p.add_argument("--out", required=True, metavar="OUT")
    p.set_defaults(func=_cmd_train_lda)

    p = sub.add_parser("assign", help="MAP domain assignment per document")
    p.add_argument("--model", required=True, metavar="IN")
    p.add_argument("--bags", required=True, metavar="IN")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, metavar="OUT")
    p.set_defaults(func=_cmd_assign)

    p = sub.add_parser("entropy", help="average domain entropy over documents")
    p.add_argument("--model", required=True, metavar="IN")
    p.add_argument("--bags", required=True, metavar="IN")
    p.add_argument("--unit", choices=["bits", "nats"], default="bits")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("filter", help="two-model cross-agreement histogram pruning")
    p.add_argument("--assign-a", required=True, metavar="IN")
    p.add_argument("--assign-b", required=True, metavar="IN")
    p.add_argument("--target-frac", type=float, default=None)
    p.add_argument("--target-weight", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, metavar="OUT")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("augment-train",
                       help="train the frame classifier, optionally UBIC-augmented")
    p.add_argument("--data", required=True, metavar="IN",
                   help="jsonl rows {id, frames, labels} with per-frame labels")
    p.add_argument("--assignments", default=None, metavar="IN",
                   help="domain assignments for UBIC augmentation; omit for baseline")
    p.add_argument("--keep-ids", default=None, metavar="IN",
                   help="filter result file restricting the training documents")
    p.add_argument("--baseline-net", default=None, metavar="IN",
                   help="initialize feature weights from this baseline network")
    p.add_argument("--hidden", type=_widths, default="64,64")
    p.add_argument("--activation", choices=["sigmoid", "relu"], default="sigmoid")
    p.add_argument("--classes", type=int, default=None)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--cv-fraction", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, metavar="OUT")
    p.add_argument("--metrics", default=None, metavar="OUT")
    p.set_defaults(func=_cmd_augment_train)

    p = sub.add_parser("eval", help="frame accuracy of a saved network")
    p.add_argument("--net", required=True, metavar="IN")
    p.add_argument("--data", required=True, metavar="IN")
    p.add_argument("--assignments", default=None, metavar="IN")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("stats", help="per-group domain distribution CSV")
    p.add_argument("--assignments", required=True, metavar="IN")
    p.add_argument("--bags", required=True, metavar="IN",
                   help="bags file supplying each document's group label")
    p.add_argument("--top-n", type=int, default=16)
    p.add_argument("--out", required=True, metavar="OUT")
    p.set_defaults(func=_cmd_stats)
    # each subcommand's file flags, --manifest included, as (flag, dest, IN or OUT)
    parser.set_defaults(_files={
        name: [(a.option_strings[0], a.dest, a.metavar) for a in parser._actions + p._actions
               if a.metavar in ("IN", "OUT")] for name, p in sub.choices.items()})
    return parser


def _manifest_flags(parser, path, command, parsers):
    """The global seed and the entry for ``command`` of the manifest at
    ``path``, as ``--key=value`` flag tokens; ``parsers`` maps each
    subcommand to its parser. Each key must be one of the subcommand's flag
    names, spelled out: argparse would take a prefix, or a key holding
    ``=``, for some other flag."""
    flags = {opt[2:] for opt in parsers[command]._option_string_actions
             if opt.startswith("--")} - {"help"}

    def entries(manifest):
        if not set(manifest) <= {"seed", "stages"}:
            raise ValueError('expected an object with keys "seed" and "stages"')
        stages = manifest.get("stages", {})
        if not (isinstance(stages, dict) and set(stages) <= set(parsers)
                and all(isinstance(e, dict) for e in stages.values())):
            raise ValueError(
                f'"stages" must map subcommands ({", ".join(parsers)}) to objects')
        found = dict(stages.get(command, {}))
        unknown = sorted(set(found) - flags)
        if unknown:
            raise ValueError(f"{command}: unknown flag(s) {', '.join(map(repr, unknown))}")
        if "seed" in manifest and "seed" in flags:
            found = {"seed": manifest["seed"], **found}
        for key, value in found.items():
            if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                raise ValueError(f"{command}: {key!r} must be a string or a number")
        return found

    try:
        found = formats.read_json(path, (), entries)
    except (OSError, ValueError) as exc:
        parser.error(f"manifest: {exc}")
    return [f"--{key}={value}" for key, value in found.items()]


class _Subcommands(argparse._SubParsersAction):
    """The subcommand action. ``--manifest``, which comes before the
    subcommand, is parsed by now; its flags for the chosen subcommand go ahead
    of the subcommand's own tokens, so explicit flags win and manifest values
    meet the flags' types, choices and required-flag check. ``filter``'s
    one-of target, which argparse cannot state while explicit flags win, is
    checked here too, after the merge, and reported as a missing flag is."""

    def __call__(self, parser, namespace, values, option_string=None):
        if namespace.manifest is not None:
            values = [values[0], *_manifest_flags(parser, namespace.manifest, values[0],
                                                  self.choices), *values[1:]]
        super().__call__(parser, namespace, values, option_string)
        if (values[0] == "filter"
                and namespace.target_frac is None and namespace.target_weight is None):
            self.choices["filter"].error(
                "one of the arguments --target-frac --target-weight is required")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # no output may name the file of another output or of an input
    files = [(flag, io, getattr(args, dest)) for flag, dest, io in args._files[args.command]
             if getattr(args, dest) is not None]
    for (flag, io, path), (other, other_io, other_path) in itertools.combinations(files, 2):
        if "OUT" in (io, other_io) and formats.same_file(path, other_path):
            print(f"error: {flag} {path} and {other} {other_path} name the same file",
                  file=sys.stderr)
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
