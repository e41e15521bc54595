"""Host-speed calibration: a fixed reference kernel, timed next to the timed
work of a run, that rescales the run's times to a fixed reference host speed.

On a shared virtual machine the CPU speed can drift by more than 1.5x over
tens of seconds to minutes. A timing taken in a slow stretch then reads as a
regression of the program. The kernel does the three kinds of work the
pipeline does, in about equal parts: interpreted Python (the CLI, the JSON
records, per-document loops), BLAS on network-sized matrices, and the
broadcast (N, V, D) temporaries of the GMM. These slow down together with
the program, though not always by the same factor, so rescaling narrows the
run-to-run spread without removing it (perfbench/README.md has the figures).
The kernel does not touch the program, so a change to the program leaves it
unchanged. A time ``t`` measured while the kernel took a
median of ``k`` is reported as ``t * REF_KERNEL_S / k``: the time it would
have taken at the speed at which the kernel takes ``REF_KERNEL_S``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_KERNEL_S = 0.016   # the kernel's median time on the machine the README names
KERNEL_REPS = 3        # kernel timings per calibration point

_rng = np.random.default_rng(0)
_BATCH = _rng.normal(size=(1000, 64))   # a hidden layer's activations
_WEIGHTS = _rng.normal(size=(64, 64))
_FRAMES = _rng.normal(size=(600, 39))   # with 32 means: a 5.7 MiB temporary,
_MEANS = _rng.normal(size=(32, 39))     # small enough to stay below every workload's peak RSS


def _kernel() -> None:
    x = 0
    for i in range(50_000):
        x += i * i
    for _ in range(5):
        np.tanh(_BATCH @ _WEIGHTS)
    diff = _FRAMES[:, None, :] - _MEANS[None, :, :]
    (diff * diff).sum(axis=2)


def kernel_times() -> list[float]:
    """``KERNEL_REPS`` timings of the kernel, taken now."""
    times = []
    for _ in range(KERNEL_REPS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return times


def at_ref_speed(seconds: float, kernels: list[float]) -> float:
    """``seconds`` measured while the kernel timings were ``kernels``, at
    reference speed."""
    return seconds * REF_KERNEL_S / statistics.median(kernels)
