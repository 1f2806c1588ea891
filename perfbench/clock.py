"""Timing that corrects for how fast the machine runs at the moment.

The benchmark shares a virtual machine's cores with other tenants.  Their
load slows every instruction of this process, with CPU time equal to wall
time (no steal): in consecutive 3-s windows one ``cholesky`` call took
anywhere from 0.053 to 0.129 s, while its ratio to a fixed calibration
loop like the one below stayed within 5.2-6.4.  So every timed operation is bracketed by a
short calibration loop, and its wall time is scaled by the ratio of the
loop's reference time to the loop's mean time before and after it.  The
result is the operation's time at reference speed, in seconds.  Over
ten 15-s windows the median of such times for one kernel spread 2.9%
between quartiles, against 7.4% for the raw wall times.  The raw wall
times are kept too.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np

#: about what calibrate() takes on an idle core of the 2-core VM the
#: bounds were set on; only the scale of every ``*_s`` metric depends on it
REFERENCE_S = 0.0040

MIN_SEGMENT_S = 0.05

_V = np.arange(1.0, 9.0)
_BIG = np.linspace(0.0, 1.0, 1 << 15)


def calibrate() -> float:
    """Seconds for a fixed mix of what homcone's kernels do per tree node:
    small array allocation, slicing, outer products and dots driven by a
    Python loop, plus a few passes over a 256 KiB vector."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(600):
        f = np.zeros((9, 9))
        f[1:, 0] = _V
        f[0, 1:] = _V
        f[1:, 1:] += np.outer(_V, _V)
        acc += float(np.dot(_V, f[1:, 0])) + float(f[0, 0])
    for _ in range(24):
        acc += float(np.dot(_BIG, _BIG * 1.5 + 0.5))
    return time.perf_counter() - t0


class SteadyClock:
    """Times calls; see the module docstring.  ``take`` returns, and
    forgets, (function name, wall s, reference s) of every call made since
    the previous ``take``.

    A long call can be cut into segments by ``checkpoint``, called from
    inside it (see ``checkpoints_at``); each segment is scaled by the
    calibrations at its own ends, and the calibration time is excluded.
    Segments are at least ``MIN_SEGMENT_S`` long, so sub-millisecond calls
    are timed in blocks rather than dwarfed by their calibrations.
    """

    def __init__(self):
        self._last = calibrate()
        self._log = []
        self._seg = None            # [segment start, wall, reference s]

    def call(self, fn, *args):
        self._seg = [time.perf_counter(), 0.0, 0.0]
        try:
            return fn(*args)
        finally:
            self._close()
            self._log.append((fn.__name__, self._seg[1], self._seg[2]))
            self._seg = None

    def checkpoint(self) -> None:
        if (self._seg is not None
                and time.perf_counter() - self._seg[0] >= MIN_SEGMENT_S):
            self._close()
            self._seg[0] = time.perf_counter()

    def _close(self) -> None:
        wall = time.perf_counter() - self._seg[0]
        before, self._last = self._last, calibrate()
        self._seg[1] += wall
        self._seg[2] += wall * 2.0 * REFERENCE_S / (before + self._last)

    def take(self) -> list:
        out, self._log = self._log, []
        return out


@contextmanager
def checkpoints_at(clock: SteadyClock, module, name: str):
    """Call ``clock.checkpoint()`` before every call of ``module.name``
    made through the module attribute, for the duration of the block."""
    original = getattr(module, name)

    @functools.wraps(original)
    def hooked(*args, **kwargs):
        clock.checkpoint()
        return original(*args, **kwargs)

    setattr(module, name, hooked)
    try:
        yield
    finally:
        setattr(module, name, original)
