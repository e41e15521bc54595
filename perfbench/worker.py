"""Runs one workload's timed CLI steps in a fresh process, as a closed loop.

    python3 worker.py SPEC.json

The spec (written by run.py) names the package source, the steps, the work
directory, the measuring time and whether to trace. One client runs one job
(all steps, in order) at a time and starts the next job when the previous one
has finished, until the measuring time is over and at least ``min_jobs`` jobs
ran. With tracing, even-numbered jobs are traced and odd ones are not, so the
first job of the fresh process is traced and its spans see the peak RSS rise.

A job's ``wall_s`` is the sum of its steps' wall times, and ``kernel_s`` the
host-speed kernel's timings taken between them (see hostspeed.py). Each job
writes its artifacts, plus the stdout of every step as ``stdout.json``, into
``job<i>/`` of the work directory. The result, with per-job timings, exit
codes and spans, goes to the spec's ``out`` file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import hostspeed
import tracing


def run_step(cli, argv):
    """One in-process CLI call: (exit code or None on exception, stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    except SystemExit as exc:   # argparse rejects bad flags this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:   # a traceback is a failed step; record it and go on
        traceback.print_exc()
        rc = None
    return rc, out.getvalue()


def run_job(cli, steps, job_dir, tracer):
    """Run the steps in order; stop at the first that fails. The host-speed
    kernel runs before the first step and after each one, outside the timed
    steps."""
    os.makedirs(job_dir)
    codes, stdouts = [], []
    wall = 0.0
    kernel = hostspeed.kernel_times()
    for stage, argv in steps:
        argv = [a.replace("{job}", job_dir) for a in argv]
        start = time.perf_counter()
        if tracer is None:
            rc, out = run_step(cli, argv)
        else:
            with tracer.span(f"cli.{stage}"):
                rc, out = run_step(cli, argv)
        wall += time.perf_counter() - start
        kernel += hostspeed.kernel_times()
        codes.append(rc)
        stdouts.append(out)
        if rc != 0:
            break
    with open(os.path.join(job_dir, "stdout.json"), "w") as fh:
        json.dump(stdouts, fh)
    return {"wall_s": wall, "kernel_s": kernel, "codes": codes, "traced": tracer is not None,
            "spans": tracer.spans if tracer is not None else []}


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import acoustic_lda
    from acoustic_lda import cli

    jobs = []
    start = time.perf_counter()
    while True:
        tracer = tracing.Tracer() if spec["trace"] and len(jobs) % 2 == 0 else None
        restore = tracer.install(acoustic_lda) if tracer is not None else None
        try:
            job = run_job(cli, spec["steps"],
                          os.path.join(spec["work"], f"job{len(jobs)}"), tracer)
        finally:
            if restore is not None:
                restore()
        jobs.append(job)
        if any(rc != 0 for rc in job["codes"]):
            break
        if time.perf_counter() - start >= spec["seconds"] and len(jobs) >= spec["min_jobs"]:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["out"], "w") as fh:
        json.dump({"jobs": jobs, "peak_rss_mb": peak_rss_mb}, fh)


if __name__ == "__main__":
    main(sys.argv[1])
