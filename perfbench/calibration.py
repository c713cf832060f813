"""Machine-speed calibration for timings taken on a shared machine.

On a shared virtual machine, other tenants slow every operation, by up to about 2x, in
phases lasting from seconds to many minutes; a whole 20-second run can fall
inside one. A fixed calibration loop, run next to each measured interval,
slows with it. Scaling the interval by REFERENCE_S / (calibration time)
gives its duration at a fixed reference speed: the speed at which the loop
takes REFERENCE_S, the loop's 5th-percentile time on the shared 2-core
x86_64 virtual machine where the benchmark was defined.

The loop holds one part of each kind of work in aspectra's operations, so
that contention for any of the resources they use shows in it: small numpy
calls with interpreted Python (explanations, kNN scoring), lookups in a
large dict (agglomerative clustering) and copies of a 640 KB table
(permutation importance, table validation). It does not track every
slowdown: in the heaviest phases seen, operations slowed about 2x and the
loop about 1.4x (see README.md).
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.0082
_rng = np.random.default_rng(0)
_POINTS = _rng.standard_normal((400, 12))
_PAIRS = {(i, j): float(i * j % 97) for i in range(200) for j in range(i + 1, 200)}
_TABLE = _rng.standard_normal((400, 200))
_PERM = _rng.permutation(400)


def calibrate() -> float:
    """Seconds the calibration loop takes now."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(80):
        d = _POINTS - _POINTS[i]
        acc += float(np.argsort(np.einsum("ij,ij->i", d, d), kind="stable")[1])
        acc += sum(j * j for j in range(300))
    for (i, j), v in _PAIRS.items():
        if v < acc:
            acc = v
    for r in range(6):
        table = _TABLE.copy()
        table[:, r::7] = table[np.ix_(_PERM, range(r, 200, 7))]
        acc += bool(np.isfinite(table).all())
    return time.perf_counter() - start
