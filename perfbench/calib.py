"""Machine-speed calibration for timing on a shared host.

On a host shared with other tenants the CPU speed switches between states
about 1.6x apart, often for tens of seconds, so a 10-s run can fall entirely
into a slow state. Timed operations are therefore interleaved with readings
of a fixed calibration kernel, taken right after each operation. The kernel
mixes the same kinds of work as the workloads: JSON parsing, a small float32
matrix product, element-wise numpy, and plain Python.

A percentile of the operation times is divided by the same percentile of the
readings (see ``scale``) and expressed at the reference speed: the speed at
which one reading takes ``REF_READING_MS``. Contention also comes and goes
within microseconds, so the fast operations match the fast readings, not the
typical ones. Set-up work is scaled segment by segment with ``Meter``. Raw
wall times are reported next to every scaled one.
"""

from __future__ import annotations

import json
import time

import numpy as np

# One reading's duration on an idle 2-vCPU x86-64 host; only a unit scale.
REF_READING_MS = 0.018
# One addressing reading over a 65536 x 32 float32 matrix on the same host.
REF_ADDRESSING_MS = 1.5

_LINE = json.dumps({"t": 1234.5, "joints": [[0.123456789012345, 1.23456789012345,
                                             2.3456789012345]] * 3})
_rng = np.random.default_rng(0)
_A = _rng.standard_normal((16, 96)).astype(np.float32)
_B = _rng.standard_normal((96, 96)).astype(np.float32)


def _kernel():
    for _ in range(3):
        json.loads(_LINE)
    x = _A @ _B
    np.maximum(x, 0.0, out=x)
    return float(np.exp(-x).sum())


def reading():
    """Median duration in ms of three kernel runs: one speed sample."""
    clock = time.perf_counter
    runs = []
    for _ in range(3):
        t0 = clock()
        _kernel()
        runs.append(clock() - t0)
    runs.sort()
    return runs[1] * 1e3


def addressing_matrix(slots, dim):
    """A fixed matrix shaped like a full memory queue, for addressing readings."""
    rng = np.random.default_rng(1)
    return (rng.standard_normal((slots, dim)) / np.sqrt(dim)).astype(np.float32)


def addressing_reading(matrix):
    """One speed sample for work dominated by scans of a large memory, in ms.

    The compute kernel plus softmax addressing and recall of one query over
    ``matrix``: the operations a prediction runs against a full queue, whose
    speed under contention differs from the compute kernel's alone.
    """
    t0 = time.perf_counter()
    _kernel()
    logits = matrix @ matrix[0]
    weights = np.exp(logits - logits.max())
    (weights / weights.sum()) @ matrix
    return (time.perf_counter() - t0) * 1e3


def scale(readings_ms, pct, ref_ms=REF_READING_MS):
    """Factor taking a percentile of operation times to the reference speed.

    It is ``ref_ms`` over the same percentile of the readings taken among the
    operations: the 10th percentile of the times, when the host ran fast, is
    scaled by the readings' 10th percentile, and so on.
    """
    return ref_ms / float(np.percentile(np.asarray(readings_ms, dtype=np.float64), pct))


class Meter:
    """Time of a stretch of work at the reference speed.

    ``mark`` ends a segment of the work with a reading and scales the
    segment's wall time by it; the readings' own time is left out of both.
    """

    def __init__(self):
        self.wall_s = 0.0
        self.ref_s = 0.0
        self._last = time.perf_counter()

    def mark(self, readings=1):
        segment = time.perf_counter() - self._last
        r = float(np.median([reading() for _ in range(readings)]))
        self.wall_s += segment
        self.ref_s += segment * REF_READING_MS / r
        self._last = time.perf_counter()
