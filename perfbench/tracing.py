"""Span tracing of the package's layers from outside the package.

The CLI reaches every layer through a module attribute (``gmm.train_gmm``,
``lda.fit``, ...), so swapping those attributes for span-recording wrappers
traces each call without touching the package. Spans nest as
``cli.<stage>`` -> module function. Each records its name, start, end, parent
and the rise of the process's peak RSS (``ru_maxrss``) across it, plus a few
work counts. Spans stay in memory; the worker writes them out at the end.

Functions the CLI calls but that are not listed in ``TRACED`` are not
wrapped, so their time is part of their caller's self time: for a CLI stage,
``cli.self_s``.
"""

from __future__ import annotations

import functools
import inspect
import os
import resource
import time
from collections import defaultdict
from contextlib import contextmanager

TRACED = {
    "corpus": ("load_features", "load_bags", "save_symbols", "save_bags", "to_bag"),
    "gmm": ("train_gmm", "quantize", "load_gmm", "save_gmm"),
    "lda": ("fit", "load_lda", "save_lda"),
    "domains": ("assign", "cross_agreement_filter", "distribution_stats"),
    "network": ("train", "evaluate_accuracy", "load_network", "save_network"),
}

# CLI subcommands the workloads run; each gets a cli.<stage>.s metric
STAGES = ("train-gmm", "quantize", "train-lda", "assign", "filter", "stats",
          "augment-train", "eval")

MIB = 1024.0 * 1024.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# work counts, computed from a traced call's bound arguments and result
def gmm_temp_mb(frames: int, components: int, dim: int) -> float:
    """Size of train_gmm's and quantize's (N, V, D) float64 temporary, in MiB."""
    return frames * components * dim * 8 / MIB


def _train_gmm_counts(a, result):
    n, d = a["frames"].shape
    return {"frames": n, "temp_mb_computed": gmm_temp_mb(n, a["target_components"], d)}


def _train_counts(a, result):
    return {"frame_epochs": len(a["dataset"]) * a["config"].epochs}


COUNTS = {
    "gmm.train_gmm": _train_gmm_counts,
    "gmm.quantize": lambda a, r: {"frames": a["doc"].num_frames},
    "lda.fit": lambda a, r: {"em_iters": len(r.elbo_history)},
    "domains.assign": lambda a, r: {"docs": len(a["corpus"])},
    "network.train": _train_counts,
    "corpus.load_features": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "corpus.load_bags": lambda a, r: {"bytes": os.path.getsize(a["path"])},
}
COUNT_KEYS = ("frames", "temp_mb_computed", "em_iters", "docs", "frame_epochs", "bytes")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "parent": self._open[-1] if self._open else None}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rss = _peak_rss_mb()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["rss_rise_mb"] = _peak_rss_mb() - rss
            self._open.pop()

    def _wrap(self, name, fn):
        count = COUNTS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if count is not None:
                    bound = signature.bind(*args, **kwargs).arguments
                    rec.update(count(bound, result))
                return result
        return traced

    def install(self, package):
        """Swap every traced function of ``package`` for a wrapper; returns a
        callable that restores the originals."""
        originals = []
        for module_name, names in TRACED.items():
            module = getattr(package, module_name)
            for fn_name in names:
                fn = getattr(module, fn_name)
                originals.append((module, fn_name, fn))
                setattr(module, fn_name, self._wrap(f"{module_name}.{fn_name}", fn))

        def restore():
            for module, fn_name, fn in originals:
                setattr(module, fn_name, fn)
        return restore


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(timing_spans, rss_spans, traced_wall, overhead):
    """Per-layer metrics from the spans of one traced job.

    ``timing_spans`` give times and counts; ``rss_spans`` (the first traced
    job of a fresh process, where the peak RSS still moves) give the RSS
    rises. ``overhead`` is the measured cost of tracing one job. A layer the
    workload does not run reports 0.
    """
    agg = defaultdict(lambda: defaultdict(float))
    for s in timing_spans:
        dur = s["end"] - s["start"]
        a = agg[s["name"]]
        a["s"] += dur
        a["self_s"] += dur
        a["calls"] += 1
        for key in COUNT_KEYS:
            a[key] += s.get(key, 0)
        if s["parent"] is not None:
            agg[timing_spans[s["parent"]]["name"]]["self_s"] -= dur
    for s in rss_spans:
        agg[s["name"]]["rss_rise_mb"] += s["rss_rise_mb"]

    m = {f"{mod}.{fn}.self_s": agg[f"{mod}.{fn}"]["self_s"]
         for mod, names in TRACED.items() for fn in names}
    train_gmm, quantize, fit = agg["gmm.train_gmm"], agg["gmm.quantize"], agg["lda.fit"]
    m.update({
        "gmm.train_gmm.rss_rise_mb": train_gmm["rss_rise_mb"],
        "gmm.train_gmm.temp_mb_computed": train_gmm["temp_mb_computed"],
        "gmm.quantize.calls": int(quantize["calls"]),
        "gmm.quantize.frames_per_s": _rate(quantize["frames"], quantize["self_s"]),
        "gmm.quantize.rss_rise_mb": quantize["rss_rise_mb"],
        "lda.fit.em_iters": int(fit["em_iters"]),
        "lda.fit.s_per_em_iter": _rate(fit["self_s"], fit["em_iters"]),
        "domains.assign.docs_per_s": _rate(agg["domains.assign"]["docs"],
                                           agg["domains.assign"]["self_s"]),
        "corpus.bytes_read": int(agg["corpus.load_features"]["bytes"]
                                 + agg["corpus.load_bags"]["bytes"]),
        "network.train.frame_epochs_per_s": _rate(
            agg["network.train"]["frame_epochs"], agg["network.train"]["self_s"]),
    })
    for stage in STAGES:
        m[f"cli.{stage}.s"] = agg[f"cli.{stage}"]["s"]
    m["cli.self_s"] = sum(a["self_s"] for name, a in agg.items()
                          if name.startswith("cli."))
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = overhead
    return m
