"""Probes of the machine's current speed, to scale timings to a reference speed.

The shared machine this benchmark was sized on changes speed by up to 70 %, in
phases that last from a few seconds to minutes, with load from outside the
VM.  CPU time follows wall time, so the phases are not preemption, and a
whole run can fall inside one phase.  No statistic over the samples of one run
removes that, so every timed call is measured with a :class:`Meter`: a speed
probe runs before and after the call, and inside long calls between two
right-hand-side evaluations.  Each stretch of the call between two probes is
scaled by the probe's reference time over the mean of its two probe times.

A probe is a fixed burst of the kind of work the call does, because the
phases slow kinds of work by different amounts.  ``DISPATCH`` (interpreter
work and numpy operations on 50- and 10^4-element arrays) slows about as much
as calls bound by Python dispatch.  Calls on 10^4 points slow only about
half as much.  ``ARRAY`` pairs the same burst with an equally long one that
streams a 4 MB array through numpy in place, which slows little; the pair
tracks those calls.  The probes import nothing from the package, allocate
nothing, and are no slower inside a large expansion than in an idle process.
Only a change that slows the whole process, such as a thread left spinning,
would slow them too; the wall times in each run's table would still show
that.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from typing import Callable

import numpy as np

BURSTS = 3
# A probe inside a call runs only once the stretch since the last one has
# lasted this long, so short calls are probed at their two ends only.
MIN_STRETCH_S = 0.25

# The bursts work in place on these buffers: allocating would make a probe's
# time depend on the state of the process's heap, which the package changes.
_SMALL = np.linspace(0.0, 1.0, 50)
_LARGE = np.linspace(0.0, 1.0, 10_000)
_STREAM = np.linspace(0.0, 1.0, 500_000)


def _dispatch_burst() -> None:
    for _ in range(1_200):
        np.multiply(_SMALL, 0.999, out=_SMALL)
        np.add(_SMALL, 0.001, out=_SMALL)
    for _ in range(60):
        np.multiply(_LARGE, 0.999, out=_LARGE)
        np.add(_LARGE, 0.001, out=_LARGE)
    total = 0
    for i in range(24_000):
        total += i * i


def _stream_burst() -> None:
    for _ in range(9):
        np.multiply(_STREAM, 0.999, out=_STREAM)
        np.add(_STREAM, 0.001, out=_STREAM)


@dataclasses.dataclass(frozen=True)
class Probe:
    bursts: tuple[Callable[[], None], ...]
    # Their time on the reference machine (a shared two-vCPU Intel Xeon VM,
    # numpy 2.4) in a calm phase.  It only fixes the unit of scaled times.
    reference_s: float

    def seconds(self) -> float:
        """The median time of a few rounds of the bursts."""
        times = []
        for _ in range(BURSTS):
            start = time.perf_counter()
            for burst in self.bursts:
                burst()
            times.append(time.perf_counter() - start)
        return statistics.median(times)


DISPATCH = Probe((_dispatch_burst,), 0.0031)
ARRAY = Probe((_dispatch_burst, _stream_burst), 0.0062)


class Meter:
    """Wall time and reference-speed time of one call, measured in stretches."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.wall = 0.0
        self.scaled = 0.0
        self._before = probe.seconds()
        self._mark = time.perf_counter()

    def tick(self, final: bool = False) -> None:
        """End the current stretch, if it is long enough or the call is over."""
        now = time.perf_counter()
        if not final and now - self._mark < MIN_STRETCH_S:
            return
        after = self.probe.seconds()
        self.wall += now - self._mark
        self.scaled += (now - self._mark) * self.probe.reference_s / ((self._before + after) / 2.0)
        self._before = after
        self._mark = time.perf_counter()

    def wrap_problem(self, problem):
        """Copy of ``problem`` whose ``rhs`` may end a stretch before it runs."""
        rhs = problem.rhs

        def ticking_rhs(*args):
            self.tick()
            return rhs(*args)

        return dataclasses.replace(problem, rhs=ticking_rhs)
