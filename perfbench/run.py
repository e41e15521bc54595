"""Benchmark of the acoustic-lda pipeline, driven through its CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src/``.
For one workload the run

1. sets up from ``--seed`` (inputs, and the models that workload needs
   prebuilt) in three timed samples, each of ``setup_batch`` set-ups, and
   reports the median per-set-up time;
2. starts a fresh worker process that runs the workload's timed CLI steps
   in-process, one job after another, for ``--seconds`` (at least two jobs),
   so its peak RSS belongs to the timed steps alone;
3. checks the outputs: every step exits 0, the set-ups and the jobs each
   produce byte-identical files, and the workload's own output checks hold.

Times are rescaled to a fixed reference host speed by a calibration kernel
timed next to them (hostspeed.py); the raw times go to stderr.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}. With ``--trace 0`` the metrics are the end-to-end ones, measured
untraced; with ``--trace 1`` they are the per-layer ones from traced jobs,
with untraced jobs interleaved to measure the tracing overhead. Everything
else goes to stderr. ``--workload all`` runs every workload and prints a
table of all their metrics. The process exits non-zero without a result when
the package source is missing or a set-up or worker fails outright.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1   # pinned before numpy loads, in this process and the worker
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import hashlib
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import hostspeed
import tracing
from workloads import WORKLOADS, SetupError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_SAMPLES = 3     # set-up samples per run; each times workload.setup_batch set-ups
MIN_JOBS = 2          # a rerun to compare artifacts against
MIN_TRACE_JOBS = 3    # traced, untraced, traced: one pair past the cold job 0
TIME_LIMIT_S = 170.0  # the whole run, set-up and checks included, stays below this


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class Checker:
    """Counts operations (CLI steps and output checks) and their failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {name} {detail}".rstrip(), file=sys.stderr)


def import_cli():
    if not (SRC / "acoustic_lda" / "cli.py").is_file():
        raise BenchError(f"no package source at {SRC / 'acoustic_lda'}: run from a checkout")
    sys.path.insert(0, str(SRC))
    from acoustic_lda import cli
    if Path(cli.__file__).resolve().parent != SRC / "acoustic_lda":
        raise BenchError(f"imported acoustic_lda from {cli.__file__}, not from {SRC}")
    return cli


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {"nproc": os.cpu_count(), "cpu": cpu, "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def tree_digest(directory: Path) -> dict:
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def run_workload(cli, workload, seed, seconds, trace, scale, deadline):
    size = workload.sizes[scale]
    ck = Checker()

    def run_cli(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-", dir=WORK))
    try:
        hostspeed.kernel_times()   # warm-up: the first timings of a process run cold
        setup_times, kernels = [], hostspeed.kernel_times()
        for r in range(SETUP_SAMPLES):
            start = time.perf_counter()
            for b in range(workload.setup_batch):
                setup_dir = work / f"setup{r}.{b}"
                setup_dir.mkdir()
                workload.setup(str(setup_dir), seed, size, run_cli)
            setup_times.append((time.perf_counter() - start) / workload.setup_batch)
            kernels += hostspeed.kernel_times()
        first = tree_digest(work / "setup0.0")
        for setup_dir in sorted(work.glob("setup*")):
            if setup_dir.name != "setup0.0":
                ck.op(f"{setup_dir.name} files equal setup0.0's", tree_digest(setup_dir) == first)
                shutil.rmtree(setup_dir)
        setup_dir = str(work / "setup0.0")

        steps = workload.steps(setup_dir, "{job}", seed, size)
        spec = {"src": str(SRC), "steps": steps, "work": str(work / "jobs"),
                "seconds": seconds, "trace": trace,
                "min_jobs": MIN_TRACE_JOBS if trace else MIN_JOBS,
                "out": str(work / "result.json")}
        (work / "jobs").mkdir()
        (work / "spec.json").write_text(json.dumps(spec))
        timeout = deadline - time.monotonic() - 10.0
        if timeout < seconds:
            raise BenchError(f"{workload.name}: set-up left {timeout:.0f} s to measure")
        with open(work / "worker.log", "w") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "worker.py"), str(work / "spec.json")],
                    stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, timeout=timeout)
            except subprocess.TimeoutExpired:
                raise BenchError(f"{workload.name}: worker ran past {timeout:.0f} s") from None
        if proc.returncode != 0:
            sys.stderr.write((work / "worker.log").read_text()[-4000:])
            raise BenchError(f"{workload.name}: worker exited {proc.returncode}")
        result = json.loads((work / "result.json").read_text())
        jobs = result["jobs"]

        for job in jobs:
            for rc in job["codes"]:
                ck.op("CLI step exits 0", rc == 0, f"(exit {rc})")
            for _ in range(len(steps) - len(job["codes"])):
                ck.op("CLI step runs", False, "(skipped after a failed step)")
        steps_ok = all(job["codes"] == [0] * len(steps) for job in jobs)
        if not steps_ok:
            sys.stderr.write((work / "worker.log").read_text()[-4000:])
        job_dirs = [work / "jobs" / f"job{i}" for i in range(len(jobs))]
        first = tree_digest(job_dirs[0])
        for i, job_dir in enumerate(job_dirs[1:], 1):
            ck.op(f"job {i} files equal job 0's", tree_digest(job_dir) == first)
        quality = {}
        if steps_ok:
            quality = workload.check(ck, setup_dir, str(job_dirs[0]), seed, size, run_cli)

        # a job that failed early can leave trace mode without an untraced job
        untraced = [j for j in jobs if not j["traced"]] or jobs
        report = {
            "workload": workload.name, "jobs": len(jobs),
            "job_walls": [round(j["wall_s"], 4) for j in jobs],
            "correct": ck.failed == 0, "attempted": ck.attempted, "failed": ck.failed,
            "failed_frac": ck.failed / ck.attempted, **quality,
            "wall_s": hostspeed.at_ref_speed(statistics.median(j["wall_s"] for j in untraced),
                                             [k for j in untraced for k in j["kernel_s"]]),
            "wall_raw_s": statistics.median(j["wall_s"] for j in untraced),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": hostspeed.at_ref_speed(statistics.median(setup_times), kernels),
            "setup_raw_s": statistics.median(setup_times),
        }
        if trace:
            traced = sorted((j for j in jobs if j["traced"]), key=lambda j: j["wall_s"])
            middle = traced[(len(traced) - 1) // 2]
            report["layers"] = tracing.layer_metrics(
                middle["spans"], jobs[0]["spans"], middle["wall_s"], trace_overhead(jobs))
        return report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def trace_overhead(jobs):
    """Median over pairs of (traced job wall - untraced job wall), each pair
    an untraced job and the traced job right after it, so that both run at
    nearly the same host speed. Job 0 (traced, cold process) is in no pair;
    a worker that stopped early on a failed step may leave no pair (0)."""
    diffs = [b["wall_s"] - a["wall_s"] for a, b in zip(jobs[1::2], jobs[2::2])]
    return statistics.median(diffs) if diffs else 0.0


def metrics_of(report, trace):
    """The metrics BENCHMARK.json names, with their units from there."""
    if trace:
        return {m["name"]: {"value": report["layers"][m["name"]], "unit": m["unit"]}
                for m in SPEC["per_layer"]}
    return {m["name"]: {"value": report[m["name"]], "unit": m["unit"]} for m in SPEC["end_to_end"]}


def summary_line(report):
    extra = {k: report[k] for k in ("domain_purity", "ubic_gain") if k in report}
    return (f"{report['workload']}: {report['jobs']} jobs {report['job_walls']}, wall_s median "
            f"{report['wall_s']:.4f} s (raw {report['wall_raw_s']:.4f} s), peak_rss_mb "
            f"{report['peak_rss_mb']:.1f} MiB, setup_s {report['setup_s']:.4f} s "
            f"(raw {report['setup_raw_s']:.4f} s), failed_frac {report['failed_frac']:.4f} "
            f"({report['failed']}/{report['attempted']}), "
            + ", ".join(f"{k} {v:.4f}" for k, v in extra.items()))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny sizes are for the benchmark's self-test only")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        cli = import_cli()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        print(json.dumps({"machine": machine()}), file=sys.stderr)
        reports = []
        for name in names:
            workload = WORKLOADS[name]
            print(json.dumps({"workload": name, "why": workload.why,
                              "load": workload.load(workload.sizes[args.scale])}),
                  file=sys.stderr)
            budget = deadline if len(names) == 1 else time.monotonic() + TIME_LIMIT_S
            reports.append(run_workload(cli, workload, args.seed, args.seconds,
                                        bool(args.trace), args.scale, budget))
            print(summary_line(reports[-1]), file=sys.stderr)
    except (BenchError, SetupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(reports) == 1:
        metrics = metrics_of(reports[0], args.trace)
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports
                   for k, v in metrics_of(r, args.trace).items()}
        for r in reports:
            for k in ("wall_raw_s", "setup_raw_s"):
                metrics[f"{r['workload']}.{k}"] = {"value": r[k], "unit": "s"}
            for k in ("failed_frac", "domain_purity", "ubic_gain"):
                if k in r:
                    metrics[f"{r['workload']}.{k}"] = {"value": r[k], "unit": "fraction"}
        for name, m in metrics.items():
            print(f"{name:48s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": all(r["correct"] for r in reports),
                      "attempted": sum(r["attempted"] for r in reports),
                      "failed": sum(r["failed"] for r in reports),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
