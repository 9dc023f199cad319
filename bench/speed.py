"""The machine's speed at the moment, from a fixed reference kernel.

The benchmark runs on shared virtual machines whose speed drifts by a
factor of two or more over minutes, with steal time near zero and CPU time
equal to wall time, so neither clock removes the drift.  Each measuring
process therefore runs ``kernel`` between operations and scales every wall
time it reports by ``REF_S / (the kernel's time around that operation)``:
times are given in seconds of a machine on which the kernel takes
``REF_S``.  The kernel uses nothing from ``boostcap``, so a change to the
program moves the scaled times exactly as it moves the wall times; only the
machine's drift cancels.  The kernel does what the program's inner loops
do: 15-node numpy batches and scalar ``math`` calls from Python.

Set-up time follows that kernel only in part: on the same machine, a
stretch in which operations and the kernel ran 35 % slower left the start
of an interpreter and numpy's import as fast as before.  So set-up time is
split where numpy's import ends.  The part before is scaled by
``startup_s``, a fresh interpreter importing numpy; the part after, the
package's import and the warm-up, by the kernel run right after it.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import numpy as np

# the kernel's time on a quiet 2-core VM (Python 3.11, numpy 2.4); the
# scaled times are in seconds of that machine
REF_S = 0.014

# ``startup_s`` on the same quiet machine
REF_START_S = 0.065

_NODES = np.linspace(-0.99, 0.99, 15)
_WEIGHTS = np.full(15, 2.0 / 15)
_ROUNDS = 4000


def kernel() -> float:
    """A fixed amount of work; returns a value so it cannot be skipped."""
    total = 0.0
    for i in range(_ROUNDS):
        a = 0.5 + i * 1e-3
        x = a * (_NODES + 1.0)
        f = np.exp(-x * x) * np.sqrt(1.0 + x)
        total += float(_WEIGHTS @ f)
        total += math.atan2(a, 1.0 + a) * math.log1p(a) / math.sqrt(1.0 + a * a)
    return total


def kernel_s() -> float:
    """Wall time of one pass of the kernel."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def probe_s(passes: int = 3) -> float:
    """Median wall time of a few passes of the kernel."""
    return statistics.median(kernel_s() for _ in range(passes))


def startup_s(env: dict) -> float:
    """Time from starting a fresh interpreter to the end of its numpy import,
    the same span as the first part of a measuring process's set-up."""
    spawned = time.monotonic()
    out = subprocess.run([sys.executable, "-c", "import numpy, time; print(time.monotonic())"],
                         env=env, check=True, timeout=60, capture_output=True, text=True)
    return float(out.stdout) - spawned


class ScaledClock:
    """Scales each operation's wall time by the kernel run on either side."""

    def __init__(self):
        self.last = kernel_s()

    def scale(self) -> float:
        """Call right after an operation: its factor from wall to scaled time."""
        now = kernel_s()
        factor = REF_S / ((self.last + now) / 2)
        self.last = now
        return factor
