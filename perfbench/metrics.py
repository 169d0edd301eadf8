"""Sample summaries and the host-speed reference shared by the benchmark."""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: samples a reported tail percentile must leave beyond it
TAIL_BEYOND = 10


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile of ``n`` samples with ten samples beyond it.

    ``None`` when ``n`` is too small for any percentile to have ten
    samples beyond it.
    """
    if n <= TAIL_BEYOND:
        return None
    return math.floor(100 - 100 * TAIL_BEYOND / n)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 when empty."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def summary(values) -> dict:
    """Median, quartiles and sample count, as the spread gate reads them."""
    values = [float(v) for v in values]
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


#: ``reference_seconds()`` on the host the bounds were set on (2-CPU
#: x86-64 container, Python 3.11, NumPy 2.4)
REFERENCE_NOMINAL_S = 0.060


def reference_seconds() -> float:
    """Wall seconds of a fixed loop shaped like the simulator's hot path.

    Small-array NumPy draws, cumulative sums and searches plus dict-heavy
    Python.  Timed between benchmark units, it tracks the host's current
    speed: on shared hosts the same campaign drifts by more than 10% within
    a minute, and its CPU time drifts with its wall, so the drift is core
    speed rather than scheduling.
    """
    rng = np.random.Generator(np.random.SFC64(1234))
    t0 = time.perf_counter()
    for _ in range(300):
        c = np.cumsum(rng.gamma(4.0, 1.0, size=(12, 400)), axis=1)
        np.searchsorted(c[0], c[1])
        sum({k: 2 * k for k in range(200)}.values())
    return time.perf_counter() - t0
