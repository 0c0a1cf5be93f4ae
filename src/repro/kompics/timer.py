"""The Timer port and its simulation / wall-clock implementations.

Components that need delays or periodic work require the :class:`Timer`
port; a timer component (one per system) provides it.  The adaptive
transport selection layer uses periodic timeouts for its learning episodes
(paper §IV-C2: one episode per second).
"""

from __future__ import annotations

import itertools
import threading
from functools import partial
from typing import Dict

from repro.kompics.component import ComponentDefinition
from repro.kompics.event import KompicsEvent
from repro.kompics.port import PortType
from repro.obs import get_tracer
from repro.sim.event import EventHandle

_timeout_ids = itertools.count()


class Timeout(KompicsEvent):
    """Base class for timeout indications; subclass to carry payloads."""

    __slots__ = ("timeout_id",)

    def __init__(self) -> None:
        self.timeout_id = next(_timeout_ids)


class ScheduleTimeout(KompicsEvent):
    """Request a one-shot timeout ``delay`` seconds from now."""

    __slots__ = ("delay", "timeout")

    def __init__(self, delay: float, timeout: Timeout) -> None:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.delay = delay
        self.timeout = timeout


class SchedulePeriodicTimeout(KompicsEvent):
    """Request a periodic timeout: first after ``delay``, then every ``period``."""

    __slots__ = ("delay", "period", "timeout")

    def __init__(self, delay: float, period: float, timeout: Timeout) -> None:
        if delay < 0 or period <= 0:
            raise ValueError("delay must be >= 0 and period > 0")
        self.delay = delay
        self.period = period
        self.timeout = timeout


class CancelTimeout(KompicsEvent):
    __slots__ = ("timeout_id",)

    def __init__(self, timeout_id: int) -> None:
        self.timeout_id = timeout_id


class CancelPeriodicTimeout(KompicsEvent):
    __slots__ = ("timeout_id",)

    def __init__(self, timeout_id: int) -> None:
        self.timeout_id = timeout_id


class Timer(PortType):
    """The timer service port."""

    requests = (ScheduleTimeout, SchedulePeriodicTimeout, CancelTimeout, CancelPeriodicTimeout)
    indications = (Timeout,)


class SimTimerComponent(ComponentDefinition):
    """Timer backed by the discrete-event simulator."""

    def __init__(self) -> None:
        super().__init__()
        self.timer = self.provides(Timer)
        self._handles: Dict[int, EventHandle] = {}
        self._labels = get_tracer().enabled
        self.subscribe(self.timer, ScheduleTimeout, self._schedule)
        self.subscribe(self.timer, SchedulePeriodicTimeout, self._schedule_periodic)
        self.subscribe(self.timer, CancelTimeout, self._cancel)
        self.subscribe(self.timer, CancelPeriodicTimeout, self._cancel)

    def _sim(self):
        sim = self.system.simulator
        if sim is None:
            raise RuntimeError("SimTimerComponent requires a simulated system")
        return sim

    def _schedule(self, event: ScheduleTimeout) -> None:
        tid = event.timeout.timeout_id

        def fire() -> None:
            self._handles.pop(tid, None)
            self.trigger(event.timeout, self.timer)

        label = f"timeout:{tid}" if self._labels else ""
        self._handles[tid] = self._sim().schedule(event.delay, fire, label=label)

    def _schedule_periodic(self, event: SchedulePeriodicTimeout) -> None:
        tid = event.timeout.timeout_id
        label = f"ptimeout:{tid}" if self._labels else ""
        fire = partial(self._fire_periodic, event, label)
        self._handles[tid] = self._sim().schedule(event.delay, fire, label=label)

    def _fire_periodic(self, event: SchedulePeriodicTimeout, label: str) -> None:
        # A method, not a closure that reschedules itself: such a closure
        # is a reference cycle that outlives the simulator.
        tid = event.timeout.timeout_id
        if tid not in self._handles:
            return
        fire = partial(self._fire_periodic, event, label)
        self._handles[tid] = self._sim().schedule(event.period, fire, label=label)
        self.trigger(event.timeout, self.timer)

    def _cancel(self, event) -> None:
        handle = self._handles.pop(event.timeout_id, None)
        if handle is not None:
            handle.cancel()

    def on_kill(self) -> None:
        for handle in self._handles.values():
            handle.cancel()
        self._handles.clear()


class WallTimerComponent(ComponentDefinition):
    """Timer backed by ``threading.Timer`` for wall-clock systems."""

    def __init__(self) -> None:
        super().__init__()
        self.timer = self.provides(Timer)
        self._timers: Dict[int, threading.Timer] = {}
        self._lock = threading.Lock()
        self.subscribe(self.timer, ScheduleTimeout, self._schedule)
        self.subscribe(self.timer, SchedulePeriodicTimeout, self._schedule_periodic)
        self.subscribe(self.timer, CancelTimeout, self._cancel)
        self.subscribe(self.timer, CancelPeriodicTimeout, self._cancel)

    def _schedule(self, event: ScheduleTimeout) -> None:
        tid = event.timeout.timeout_id

        def fire() -> None:
            with self._lock:
                self._timers.pop(tid, None)
            self.trigger(event.timeout, self.timer)

        timer = threading.Timer(event.delay, fire)
        timer.daemon = True
        with self._lock:
            self._timers[tid] = timer
        timer.start()

    def _schedule_periodic(self, event: SchedulePeriodicTimeout) -> None:
        tid = event.timeout.timeout_id

        def fire() -> None:
            with self._lock:
                if tid not in self._timers:
                    return
                timer = threading.Timer(event.period, fire)
                timer.daemon = True
                self._timers[tid] = timer
            timer.start()
            self.trigger(event.timeout, self.timer)

        first = threading.Timer(event.delay, fire)
        first.daemon = True
        with self._lock:
            self._timers[tid] = first
        first.start()

    def _cancel(self, event) -> None:
        with self._lock:
            timer = self._timers.pop(event.timeout_id, None)
        if timer is not None:
            timer.cancel()

    def on_kill(self) -> None:
        with self._lock:
            timers = list(self._timers.values())
            self._timers.clear()
        for timer in timers:
            timer.cancel()
