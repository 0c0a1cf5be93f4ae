"""Steady timing of deterministic simulator work on a machine that is not steady.

The builder's machine slows down in episodes of 0.1-10 s above a floor that
does not move (see ``metrics.steady_high``), and a simulator unit is one
opaque call of 0.4-3 s.  What makes it measurable is that it is
deterministic: every repetition passes through the same simulated times
doing the same work.  So a timer signal reads (simulated time, wall clock,
process CPU) 100 times a second while a unit runs; the repetitions are cut
at the same simulated times into segments of about 100 ms; each segment
counts with the fastest of its repetitions.

The only thing touched in the program is ``Simulator.__init__``, to learn
which simulator is running; no per-event path is wrapped.
"""

from __future__ import annotations

import signal
from time import perf_counter, process_time
from typing import Any, Callable, List, Sequence, Tuple
from unittest import mock

import numpy as np

#: seconds between two readings, and readings per segment
TICK_S = 0.01
TICKS_PER_SEGMENT = 10

#: progress before the unit's simulator exists, at its start and at its end
_NO_SIM, _START, _END = -1.0, -2.0, 1e30

#: (simulated time, wall clock, process CPU)
Reading = Tuple[float, float, float]


def on_new_simulator(callback: Callable[[Any], None]) -> Any:
    """A patch (context manager) that hands every new ``Simulator`` to ``callback``."""
    from repro.sim.simulator import Simulator

    init = Simulator.__init__

    def watched_init(sim, *args, **kwargs):
        init(sim, *args, **kwargs)
        callback(sim)

    return mock.patch.object(Simulator, "__init__", watched_init)


class Pace:
    """Context manager; :meth:`run` runs one unit and returns its readings."""

    def __init__(self) -> None:
        self._sim: Any = None
        self._readings: List[Reading] = []

    def _running(self, sim: Any) -> None:
        self._sim = sim

    def __enter__(self) -> "Pace":
        # signal() refuses off the main thread, before anything is changed
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        self._patch = on_new_simulator(self._running)
        self._patch.start()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._handler)
        self._patch.stop()

    def _tick(self, _signum: int, _frame: Any) -> None:
        sim = self._sim
        self._readings.append(
            (sim.now if sim is not None else _NO_SIM, perf_counter(), process_time()))

    def run(self, unit: Callable[[], Any]) -> Tuple[Any, List[Reading]]:
        self._sim = None
        self._readings = readings = [(_START, perf_counter(), process_time())]
        done = unit()
        readings.append((_END, perf_counter(), process_time()))
        return done, readings


def _curve(readings: Sequence[Reading], column: int) -> Tuple[np.ndarray, np.ndarray]:
    """Clock ``column`` as a function of simulated time: the last reading at each."""
    xs, ys = [], []
    for reading in readings:
        if xs and reading[0] <= xs[-1]:
            ys[-1] = reading[column]
        else:
            xs.append(reading[0])
            ys.append(reading[column])
    return np.array(xs), np.array(ys)


def steady_total(repetitions: Sequence[Sequence[Reading]], column: int) -> float:
    """Seconds on clock ``column`` (1 wall, 2 CPU) one repetition takes undisturbed.

    The first repetition's readings place the cuts; every repetition's
    clock is interpolated there (never off by more than one tick, 10 ms
    on a 100 ms segment), and each segment counts with its minimum.
    """
    xs, _ = _curve(repetitions[0], column)
    cuts = np.append(xs[:-1:TICKS_PER_SEGMENT], _END)
    clocks = np.array([np.interp(cuts, *_curve(readings, column))
                       for readings in repetitions])
    return float(np.diff(clocks, axis=1).min(axis=0).sum())
