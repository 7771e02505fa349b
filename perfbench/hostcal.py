"""Host-speed calibration: a fixed unit of work timed between the ops.

The reference host is a shared 2-vCPU KVM guest whose speed drifts by
20-50% over seconds to minutes (a fixed pure-Python loop took 15-23 ms in
5-second windows of one 90-second stretch, with CPU time tracking wall time,
so the drift is the core's speed, not time stolen by other guests).  That
drift moved whole 26-second runs by 15-25% against each other.

The calibration unit is a fixed mix of the two kinds of work the library
does: a pure-Python loop over small integer tuples and math.lgamma (like
the scalar feasibility predicate) and a dense Hermitian eigendecomposition
(like the Schur and relative-entropy layers).  It is timed before and after
every op.  An op's time is reported in *reference seconds*: its wall time
times REF_S over the median of the calibration samples around it, that is,
the time it would take on a host where one calibration unit takes REF_S.
The unit depends on neither the library nor the inputs, so a change of the
library moves reference seconds exactly as it moves wall seconds at a fixed
host speed.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REF_S = 0.010  # the unit's wall time on the reference host in a quiet phase
SETUP_SAMPLES = 7  # calibration samples taken right after each set-up

_rng = np.random.default_rng(12345)
_z = _rng.standard_normal((96, 96)) + 1j * _rng.standard_normal((96, 96))
_MATRIX = _z + _z.conj().T


def unit() -> float:
    acc = 0.0
    for i in range(1, 6000):
        t = (i, 2 * i + 1, 3 * i + 2)
        if sum(a * b % 7 for a, b in zip(t, reversed(t))) > 9:
            acc += math.lgamma(i + 1.5)
    acc += float(np.linalg.eigvalsh(_MATRIX)[0])
    acc += float(np.linalg.eigh(_MATRIX)[0][-1])
    return acc


def sample() -> float:
    """Wall time of one calibration unit."""
    t = time.perf_counter()
    unit()
    return time.perf_counter() - t


def factor(samples) -> float:
    """Reference seconds per wall second, from calibration samples."""
    return REF_S / statistics.median(samples)
