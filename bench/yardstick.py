"""A fixed yardstick of host speed, timed between the benchmark's intervals.

The benchmark's host is a few cores of a shared machine whose speed drifts
by a quarter or more over minutes, alike for every workload, as other tenants
come and go.  One run cannot average that drift away, so the benchmark times
this yardstick before the first and after every timed interval of a run, for
a tenth of the interval (at least once), and reports pass times scaled to the
yardstick's reference speed:

    scaled = median host time * REFERENCE_S / mean yardstick time

The host flips between fast and slow states within seconds, so single
yardstick times fall into two clusters and their median jumps from one to
the other; their mean, like a pass, averages over the states.

The yardstick is the benchmark's own code and never calls fefetsim, so a
change to the program moves the host time but not the yardstick.  It mixes
the kinds of work fefetsim does, about half of its time in each kind:
interpreted loops over dicts and floats (the per-cell write path), and numpy
on small arrays with small scipy sparse assemblies and solves (the read
solve).  The two kinds slow down by different amounts when the host is
busy, so an even mix sits between the write-heavy and the read-heavy
workloads.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: the yardstick's median time on the host where the benchmark was defined
#: (2 vCPUs of an Intel Xeon at 2.0 GHz, Python 3.11.7, numpy 2.4.6,
#: scipy 1.17.1; 221 samples over 30 seconds)
REFERENCE_S = 0.133


def work() -> float:
    """About 0.13 s of fixed work; returns a checksum so none is skipped."""
    rng = np.random.default_rng(0)
    acc = 0.0
    table = {}
    for i in range(250_000):
        table[i % 997] = (i, float(i) * 0.5)
        acc += table[i % 997][1]
    x = rng.random(576)
    for _ in range(1500):
        acc += float(np.sum(np.log1p(np.exp(x - 0.5)) ** 2))
    # a tridiagonal system, assembled from COO triplets as engine does
    n = 64
    diag = 4.0 + rng.random(n)
    off = -np.ones(n - 1)
    for _ in range(150):
        rows = np.concatenate([np.arange(n), np.arange(n - 1), np.arange(1, n)])
        cols = np.concatenate([np.arange(n), np.arange(1, n), np.arange(n - 1)])
        vals = np.concatenate([diag, off, off])
        a = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()
        acc += float(spla.spsolve(a, np.ones(n)).sum())
    return acc


def timed() -> float:
    """Host seconds of one yardstick."""
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def sample(seconds: float) -> list[float]:
    """Yardstick times, one after another, until they add up to ``seconds``
    (at least one), so a long interval gets as many samples as it needs."""
    times = [timed()]
    while sum(times) < seconds:
        times.append(timed())
    return times


def at_reference_speed(seconds: float, samples: list[float]) -> float:
    """Host seconds scaled to the speed at which the yardstick takes
    REFERENCE_S, given the yardstick times taken in the same run."""
    return seconds * REFERENCE_S / statistics.mean(samples)
