"""A fixed probe of the host's speed, timed beside the passes it scales.

The benchmark's VM shares its cores with other machines' work, and its speed
drifts by up to 2x over tens of seconds: the same pass reads 1.6 s in one
spell and 2.7 s in the next, in user CPU time as much as in wall time. A
median over one run therefore says more about the spell the run fell in than
about the program. The probe is benchmark-owned code that no change to the
program can alter, so the time it takes next to a pass tracks the host's
speed during that pass. `scale` divides it out:

    scaled = wall × PROBE_REFERENCE_S ÷ probe time

which reads as the pass's wall time on a host where the probe takes
PROBE_REFERENCE_S. A faster program still reads proportionally faster.

Only the timings whose spread the scaling narrowed, when measured, are
scaled (`Workload.scale_setup`, `Workload.scaled_threads`). The probe runs on
one thread, so it cannot see how busy the other CPUs are during a pass on
several threads. And `pipeline`'s passes slow down less than the probe does
in a slow spell, so dividing by it over-corrects them.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import ndimage

# The probe's time in the fast spells of a 2-vCPU Intel Xeon VM at 2.1 GHz
# (Python 3.11, numpy 2.4, scipy 1.17); any fixed value would do.
PROBE_REFERENCE_S = 0.1

_X = np.array([[(k >> 2) & 1, (k >> 1) & 1, k & 1] for k in range(8)], dtype=np.float64)
_D = np.array([0, 1, 1, 0, 1, 0, 0, 1], dtype=np.float64)
_VOLUME = np.random.default_rng(0).random((48, 48, 48))
_STRUCTURE = ndimage.generate_binary_structure(3, 3)


def probe() -> float:
    """Seconds taken by a fixed mix of the kinds of work the program does.

    The mix: small-array numpy steps as in the logistic descent, an
    interpreted loop, connected-component labeling as in discovery, and
    distance transforms as in the boundary metrics.
    """
    t0 = time.perf_counter()
    beta = np.zeros(3)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(2000):
            p = 1.0 / (1.0 + np.exp(-(_X @ beta)))
            loss = -np.where(_D > 0.5, np.log(p), np.log1p(-p)).sum()
            if not np.isfinite(loss):
                break
            beta -= 0.01 * (_X.T @ (p - _D))
    total = 0
    for i in range(150000):
        total += i * i % 7
    for k in range(4):
        mask = _VOLUME * 0.6 + _VOLUME[::-1] * 0.4 > 0.55 + 0.01 * k
        ndimage.label(mask, structure=_STRUCTURE)
        ndimage.distance_transform_edt(mask)
    return time.perf_counter() - t0


def scale(wall: float, before: float, after: float) -> float:
    """`wall` at the reference speed, given the probe times on either side."""
    return wall * PROBE_REFERENCE_S / ((before + after) / 2.0)
