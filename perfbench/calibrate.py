"""A fixed host-speed reference, timed between the benchmark's passes.

The benchmark was sized on a 2-CPU share of a busy host whose speed
drifts: for minutes at a time every pass of every workload runs 25-45%
faster or slower at once, and so does a fixed kernel.  ``run.py`` times
this module's kernel before the first pass and after every process it
starts, and multiplies each process's host times by :data:`REFERENCE_S`
over the mean of the kernel times just before and just after it.  The
times it reports are therefore seconds on the host in its usual state:
a phase of the host moves the kernel with the passes and cancels out,
while a change of the program does not move the kernel, which imports
nothing from the repository and whose work never changes.

The kernel mixes what a pass spends its time on: interpreted scalar
bookkeeping (a heap-driven queue with dict counters), numpy calls on
arrays of a few elements, where call overhead dominates, vectorized
numpy passes over 12,000-element arrays (exponential draws, ``cumsum``,
a running maximum, a quantile), and interpreter starts that import
numpy, as every pass's set-up does.  Of the parts tried on the sizing
host, this mix tracked the passes' phase shifts most closely (a slope
of 0.9-1.0 between log pass time and log kernel time); the scalar or
small-array parts alone moved about 1.5 times as much as the passes.
"""

from __future__ import annotations

import heapq
import math
import random
import subprocess
import sys
import time

import numpy as np

#: The kernel's seconds on the sizing host in its usual (slower) state,
#: a 2-vCPU KVM guest on an Intel Xeon (family 6, model 207).
REFERENCE_S = 1.4


def _scalar(n: int = 200_000) -> float:
    rng = random.Random(7)
    heap: list = []
    stats: dict = {}
    now = 0.0
    for i in range(n):
        now += rng.expovariate(1.0)
        heapq.heappush(heap, (now + rng.random(), i))
        if len(heap) > 32:
            done, j = heapq.heappop(heap)
            s = stats.get(j & 63)
            if s is None:
                stats[j & 63] = s = [0, 0.0]
            s[0] += 1
            s[1] += math.sqrt(abs(done - now) + 1.0)
    return sum(s[1] for s in stats.values())


def _small_arrays(n: int = 30_000) -> float:
    a = np.random.default_rng(7).random(8)
    acc = 0.0
    for _ in range(n):
        b = a * 1.01 + 0.5
        acc += float(np.max(b)) + float(b.sum())
        a = np.minimum(b, 2.0)
    return acc


def _vectors(n: int = 800) -> float:
    rng = np.random.default_rng(7)
    acc = 0.0
    for _ in range(n):
        x = rng.exponential(1.0, size=12_000)
        c = np.cumsum(x)
        m = np.maximum.accumulate(c - x * 0.9)
        acc += float(np.quantile(m[:2000] - c[:2000], 0.95))
    return acc


def _interpreter_starts(n: int = 2) -> None:
    for _ in range(n):
        subprocess.run([sys.executable, "-c", "import numpy"], check=True)


def kernel_s() -> float:
    """Host seconds of one run of the reference kernel."""
    start = time.perf_counter()
    _scalar()
    _small_arrays()
    _vectors()
    _interpreter_starts()
    return time.perf_counter() - start
