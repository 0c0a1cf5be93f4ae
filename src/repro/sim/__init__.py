"""Discrete-event simulation kernel.

A small, deterministic DES: a priority queue of timestamped callbacks with
insertion-order tie-breaking, a :class:`~repro.util.clock.SimulatedClock`
that only the kernel advances, and cancellable event handles.
"""

from repro.sim.event import EventHandle
from repro.sim.simulator import Simulator

__all__ = ["Simulator", "EventHandle"]
