"""Fixed reference loops that track how fast the host runs right now.

On a shared host the speed of the same code swings by a factor of two over
tenths of seconds and drifts by tens of percent over minutes, in wall and
CPU time alike: far more than the changes the benchmark is meant to show.
So the benchmark runs short fixed loops of the same kinds of work as the
program between short stretches of timed work, outside their timing, and
reports times scaled to the loops' nominal speed.  A probe's *ratio* is its
loops' seconds over their nominal seconds; a stretch between two probes is
scaled by one over the mean of their ratios, and a longer span (an epoch, a
Gram matrix) by the time-weighted mean factor of its stretches:

    scaled seconds = seconds * sum(stretch * factor) / sum(stretch)

A change to the program moves scaled seconds as it moves raw seconds; a
change in the host's speed slows the loops as well and cancels.

Not all code slows alike: the *array* loop (16x16 numpy products and
``tanh``, a dict and a list, the mix of a training batch) and the *scalar*
loop (Python loops over neighbor lists reading numpy scalars, the mix of
``rw_kernel_dp``) part ways by 30% and more for tens of seconds.  So a probe
mixes them by an ``array_share``: its ratio is the array ratio to the power
``array_share`` times the scalar ratio to the power ``1 - array_share``.
Each job picks the share its code follows.  Measured on the baseline host
over five minutes of interleaved calls, the residual log-time spread of a
training batch was 0.07 against the array loop and 0.13 against the scalar
loop, of ``rw_kernel_dp`` 0.05 against the scalar loop and 0.12 against the
array loop, and of ``check_theorem1`` 0.07 against the even mix.

Import this module only after ``program.load()``.
"""

import time

import numpy as np

# The loops' typical seconds on the 2-vCPU host where the baseline was
# measured, so scaled seconds read close to raw seconds there.  Fixed:
# changing them rescales every time metric.
NOMINAL_ARRAY_S = 0.003
NOMINAL_SCALAR_S = 0.002

_W = np.linspace(-1.0, 1.0, 256).reshape(16, 16) * 0.2
_B = np.linspace(0.0, 0.1, 16)
_M = np.linspace(0.0, 1.0, 256).reshape(16, 16)
_E = _M.T.copy()
_NEIGHBORS = [[(j, (i * 3 + j) % 16) for j in range(16) if (i + j) % 3 == 0]
              for i in range(16)]


def _array_work():
    x = np.ones(16)
    acc = {}
    rows = []
    for i in range(1000):
        x = np.tanh(_W @ x + _B)
        k = i & 31
        acc[k] = acc.get(k, 0.0) + float(x[i & 15])
        rows.append((k, x))
        if len(rows) > 64:
            rows.clear()
    return acc


def _scalar_work():
    total = 0.0
    for _ in range(12):
        for a in range(16):
            acc = 0.0
            for v, ea in _NEIGHBORS[a]:
                for v2, eb in _NEIGHBORS[v]:
                    acc += _M[v, v2] * _E[ea, eb]
            total += acc
    return total


def _seconds(work):
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def probe(array_share=1.0):
    """One probe's ratio: the loops' seconds over their nominal seconds,
    mixed by ``array_share``.  A loop with no share is not run."""
    ratio = 1.0
    if array_share > 0:
        ratio *= (_seconds(_array_work) / NOMINAL_ARRAY_S) ** array_share
    if array_share < 1:
        ratio *= ((_seconds(_scalar_work) / NOMINAL_SCALAR_S)
                  ** (1 - array_share))
    return ratio


class Clock:
    """A timeline of reference probes taken between stretches of work.

    A disabled clock takes no probes and scales by 1, so that traced runs
    time the program alone.
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.starts = []
        self.ends = []
        self.probes = []

    def mark(self, array_share=1.0):
        """Take one probe; return the wall seconds it took, so that a span
        timed around it can leave it out."""
        if not self.enabled:
            return 0.0
        t0 = time.perf_counter()
        self.probes.append(probe(array_share))
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        return t1 - t0

    def factor(self, i, j):
        """Time-weighted scale factor of the stretches between probes ``i``
        and ``j`` (indices into this clock's probes, ``i < j``)."""
        if not self.enabled:
            return 1.0
        raw = weighted = 0.0
        for k in range(i, j):
            stretch = self.starts[k + 1] - self.ends[k]
            raw += stretch
            weighted += stretch * 2 / (self.probes[k] + self.probes[k + 1])
        return weighted / raw

    def walls(self, i, j):
        """Wall seconds of probes ``i + 1`` to ``j``."""
        return sum(self.ends[k] - self.starts[k] for k in range(i + 1, j + 1))

    def stretches(self, fn, items, array_share):
        """``[fn(x) for x in items]`` with a probe before and after each
        call; returns the results, their raw seconds and their scaled
        seconds."""
        first = len(self.probes)
        self.mark(array_share)
        results = []
        raw = 0.0
        for x in items:
            t0 = time.perf_counter()
            results.append(fn(x))
            raw += time.perf_counter() - t0
            self.mark(array_share)
        return results, raw, raw * self.factor(first, len(self.probes) - 1)
