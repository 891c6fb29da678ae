"""How fast the shared host runs right now, from fixed reference computations.

The host's other tenants slow every computation, in spells that last from
seconds to many minutes, and CPU time slows as much as wall time.  A
statistic of the run alone cannot remove a slowdown that lasts the whole run.
So the benchmark times a probe, a fixed computation of the kind its workload
does, every ``EVERY_S`` between jobs, and divides each job's time by the
host's slowdown during the job: the median time of the probes within
``WINDOW_S`` of the job, over the probe's reference time.  The result is the
job's time at the host speed at which the probe takes its reference time.

The host does not slow all code alike: under the same contention, Python
and small-array numpy code slowed by up to 1.9x, while the cost LP and the
pricing scan slowed by up to 1.4x.  So there are two probes, one for each
regime of the library:

* ``small``: Python dict/list work, a chain of 8x8 products and a tiny LP.
  For many calls on small boxes it tracked the library closely: the log of
  a job's time rose 0.99 times the log of the probe's slowdown.
* ``large``: passes over preallocated 4 MB arrays.  For the cost LP and the
  scan, over windows of about 6 s, it cut the spread of the log of a call's
  time from 0.055-0.093 to 0.035-0.06.

The probes use numpy and scipy but no library code, so no change to the
library can move them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import linprog

# Probes stamped this close to either end of a job count for it.  The host's
# spells last seconds, so the median of the probes in this window estimates
# its speed during the job with less noise than a single probe.
WINDOW_S = 1.0
# A job ends with a probe if the last one is at least this old.
EVERY_S = 0.1


def _lp(m: int, n: int, seed: int):
    rng = np.random.default_rng(seed)
    a = rng.random((m, n))
    return rng.random(n), a, a @ np.full(n, 1.0 / n)


_MATRIX = np.random.default_rng(0).random((8, 8))
_TINY_LP = _lp(8, 32, 1)
_ARRAYS = np.random.default_rng(3).random((3, 1 << 19))


def _solve(lp) -> float:
    c, a, b = lp
    return float(linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs").fun)


def _small() -> float:
    counts: dict[int, int] = {}
    for i in range(6000):
        counts[i % 97] = counts.get(i % 97, 0) + 1
    values = sorted((float(i) for i in range(6000)), reverse=True)
    x = _MATRIX
    for _ in range(175):
        x = _MATRIX @ x
        x /= x.sum()
    return values[0] + counts[0] + float(x[0, 0]) + _solve(_TINY_LP)


def _large() -> float:
    a, b, out = _ARRAYS
    total = 0
    for _ in range(4):
        np.add(a, b, out=out)
        np.maximum(out, a, out=out)
        total += int(out.argmax())
    return float(total)


# name -> (computation, its reference time: about its fastest time on the
# reference machine, x86_64 at 2.1 GHz, Python 3.11, numpy 2.4, scipy 1.17,
# one thread).  Only ratios to the reference time matter.
PROBES = {"small": (_small, 2.9e-3), "large": (_large, 4.0e-3)}


def stamp(kind: str) -> tuple[float, float]:
    """``(time, seconds)``: one run of probe ``kind``, and when it ended."""
    fn, _ = PROBES[kind]
    start = time.perf_counter()
    fn()
    end = time.perf_counter()
    return end, end - start


def factor(kind: str, stamps: list[tuple[float, float]], start: float, end: float) -> float:
    """Host slowdown over the reference for work timed from ``start`` to ``end``.

    The median of the probes stamped within ``WINDOW_S`` of the work, which
    must include at least one of them.
    """
    near = [s for t, s in stamps if start - WINDOW_S <= t <= end + WINDOW_S]
    return statistics.median(near) / PROBES[kind][1]
