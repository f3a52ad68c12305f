"""Host-speed probe: corrects the benchmark's timings for a shared host.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by up
to 2x over minutes: the same iteration takes 3.0 s for a minute and 5.5 s
the next, and CPU time moves with wall time, so the process is not waiting,
it runs slower.  A 45 s run can sit entirely in a slow or a fast stretch, so
no statistic over one run's iterations removes the drift.

``probe()`` times a fixed kernel of the kinds of work ``certify-sweep`` does
(an interpreted loop, many small numpy calls, FFTs of 1024 points) and
returns its thread CPU seconds.  The runner probes before every call and
after the last call of an iteration; ``slowdown`` turns the median probe of
an interval into the factor by which the host ran slower than the reference
speed.  On the workloads whose time tracks the probe (``host_corrected`` in
``workloads.py``) the iteration's wall and CPU times are divided by it.
Thread CPU time is used so that a GIL wait or another thread of the process
does not read as a slow host.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Thread CPU seconds of one probe() on the reference machine (2 vCPU Xeon at
# 2.0 GHz, Python 3.11.7, numpy 2.4.6) in its fast stretches: the unit in
# which corrected timings are stated.
REFERENCE_S = 0.011

_X65 = np.linspace(0.0, 1.0, 65)
_X1K = np.random.default_rng(0).standard_normal(1024)


def probe() -> float:
    """Thread CPU seconds of one run of the fixed probe kernel."""
    start = time.thread_time()
    total = 0
    for i in range(60_000):
        total += i * i
    for _ in range(1_500):
        float(np.exp(-0.5 * _X65).sum())
    for _ in range(150):
        np.fft.irfft(np.fft.rfft(_X1K), _X1K.size)
    return time.thread_time() - start


def slowdown(probes: list) -> float:
    """How many times slower than the reference the host ran while
    ``probes`` were taken (their median over ``REFERENCE_S``)."""
    return statistics.median(probes) / REFERENCE_S
