"""Machine pace: how fast this core runs right now, from fixed kernels.

On a shared host the same single-threaded code runs up to twice as slow
for stretches of seconds to a minute (a fixed kernel, timed every two
seconds for 90 s on a 2-core VM, took between 42 and 94 ms, with process
CPU time equal to wall time). Around every round the benchmark times two
small kernels that do what graphflow's hot loops do without calling
graphflow, so no change to the program can change them: many tiny
matmuls with Python arithmetic (the per-step sampler and heads), and a
few batched matmuls with elementwise ops over stacked arrays (the
stacked encoder and its backward pass). A pace is the mean of the two
kernel times, each over its time on an uncontended core of that VM;
paced seconds are wall seconds divided by the pace around them, i.e.
the time at the reference speed.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

_rng = np.random.default_rng(0)
_A = _rng.random((12, 16))
_W = _rng.random((16, 16))
_X = _rng.random((96, 12, 16))
_ADJ = _rng.random((96, 12, 12))


def _tiny_matmuls() -> None:
    total = 0.0
    for _ in range(1000):
        total += float((_A @ _W).sum())


def _stacked_ops() -> None:
    x = _X
    for _ in range(20):
        h = np.tanh(_ADJ @ x @ _W)
        x = _X + 1e-3 * h * (h * h).sum(axis=(0, 1))


# (kernel, its seconds on an uncontended core of the 2-core Xeon VM the
# bounds in BENCHMARK.json were set on)
KERNELS = ((_tiny_matmuls, 0.0045), (_stacked_ops, 0.0035))


def _seconds(kernel) -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def sample(repeats: int = 3) -> float:
    """Pace now: 1 at the reference speed, above 1 when slower."""
    return sum(
        median(_seconds(kernel) for _ in range(repeats)) / reference
        for kernel, reference in KERNELS
    ) / len(KERNELS)
