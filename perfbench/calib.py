"""Machine-speed calibration: every timing is given at one fixed speed.

The benchmark runs on shared machines whose speed swings with the load of
other tenants.  On the 2-core VM it was defined on, a fixed numpy-and-Python
kernel took anywhere from 2.7 to 4.6 ms within a few minutes, and the raw grid
rate of one seed swung from 109 to 183 ops/s between processes.  Longer runs
do not remove that: the swings last seconds to minutes.

So the worker runs a fixed calibration kernel between ops, at least every
``EVERY_S`` seconds of op time.  The kernel uses numpy alone (no scipy, no
balance_lab), so no change to the package changes its cost.  Each op is timed
in wall clock, then multiplied by NOMINAL_S over the kernel's time.  The
result is the op's wall time at the speed at which the kernel takes NOMINAL_S.
Raw wall times are kept beside the scaled ones in every result file.

Which kernel time depends on where the op runs:
- ops in the worker's own thread (grid, probes) use the local time, the mean
  of the calibration points just before and just after the op.  Within one
  process the grid round time swung by 18 % while its ratio to the local
  kernel time stayed within 4 %.
- ops in a child process (cli) use the median point of the whole run.  The
  child may run on another core, and the parent's kernel right after a wait
  is noisy, so a local factor added noise there; the run's median follows
  the slow drift, which is what moves a whole run.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# The kernel's time at the nominal speed: about its median on the 2-core Xeon
# VM the benchmark was defined on.  Fixed, so that every commit is scaled alike.
NOMINAL_S = 0.003
# Op time between calibration points, and kernel runs per point (median).
EVERY_S = 0.2
REPS = 3

_rng = np.random.default_rng(0)
_SMALL = [(_rng.normal(size=(12, 12)) + 1j * _rng.normal(size=(12, 12))) / 12 for _ in range(4)]
_BIG = (_rng.normal(size=(144, 144)) + 1j * _rng.normal(size=(144, 144))) / 144
_HERM = _SMALL[0] + _SMALL[0].conj().T


def kernel() -> float:
    """Wall time of one fixed unit of work of the workloads' kind: many small
    numpy calls from Python, a 144x144 complex product, a small eigh and a
    plain-Python loop."""
    t = perf_counter()
    acc = np.eye(12, dtype=complex)
    for _ in range(40):
        for m in _SMALL:
            acc = acc @ m + m.conj().T
            acc /= np.linalg.norm(acc)
    _BIG @ _BIG
    np.linalg.eigh(_HERM)
    d = {}
    for i in range(2000):
        d[i % 97] = d.get(i % 97, 0) + i
    return perf_counter() - t


def point() -> float:
    """One calibration point: the median of REPS kernel runs."""
    return statistics.median(kernel() for _ in range(REPS))


def warm_up():
    for _ in range(3):
        kernel()


class Calibrator:
    """Calibration points between ops; ``factors`` gives each op's scale.

    Call ``after_op(latency)`` after each timed op: it takes a calibration
    point once EVERY_S of op time has passed since the last.  ``factors()``
    takes a last point and returns, per op, NOMINAL_S over the mean of the
    points on either side of it (``local``), or over the median point of the
    run (not ``local``; each point then follows a warm-up, since the worker
    was idle while the op's child process ran)."""

    def __init__(self, local: bool = True):
        self.local = local
        self.points = []
        self.segment = []  # per op: index of the point before it
        self.since = 0.0
        self._point()

    def _point(self):
        if not self.local:
            warm_up()
        self.points.append(point())
        self.since = 0.0

    def after_op(self, latency: float):
        self.segment.append(len(self.points) - 1)
        self.since += latency
        if self.since >= EVERY_S:
            self._point()

    def factors(self) -> list:
        if self.since > 0.0 or len(self.points) == 1:
            self._point()
        if not self.local:
            return [self.speed()] * len(self.segment)
        p = self.points
        return [2.0 * NOMINAL_S / (p[j] + p[j + 1]) for j in self.segment]

    def speed(self) -> float:
        """Machine speed over the run, as NOMINAL_S over the median point."""
        return NOMINAL_S / statistics.median(self.points)
