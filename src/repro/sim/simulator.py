"""The discrete-event simulator.

Design notes
------------
* Events with equal timestamps fire in scheduling order (deterministic).
* The kernel owns a :class:`SimulatedClock`; user code reads it but never
  advances it.
* ``max_events`` guards against runaway zero-delay loops; hitting it raises
  :class:`~repro.errors.SimulationError` instead of hanging.

Queue
-----
One heap of ``(time, seq, handle)`` tuples: ``seq`` is unique, so sift
comparisons never reach the handle and run entirely in C, and pop order
is the total order on ``(time, seq)``.  Cancellation is lazy (tombstones
are skipped at the head), but the kernel counts live tombstones and
compacts the heap in place once they dominate it, so recurring timers
that reschedule cannot grow it without bound.  Compaction re-heapifies
the same tuples, so it cannot change execution order.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, NoReturn, Optional, Tuple

from repro.check import get_checker
from repro.errors import SchedulingError, SimulationError
from repro.obs import get_registry
from repro.sim.event import EventHandle
from repro.util.clock import SimulatedClock

#: Compact only when at least this many tombstones are buried in the heap
#: (and they outnumber the live entries); keeps small simulations from
#: paying rebuild costs for a handful of cancelled timers.
COMPACTION_MIN_TOMBSTONES = 64

_HeapEntry = Tuple[float, int, EventHandle]

#: ``EventHandle`` has no ``__init__``: the two scheduling sites allocate
#: it bare and store its slots inline, which saves a call frame per event
#: on the hottest allocation in the kernel.
_new_handle = object.__new__
_heappush = heapq.heappush


def _refuse(*args: object, **kwargs: object) -> NoReturn:  # a closed simulator's schedule*
    raise SchedulingError("schedule on a closed simulator")


class Simulator:
    """Deterministic discrete-event simulation kernel.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.5]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.clock = SimulatedClock(start_time)
        self._heap: List[_HeapEntry] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self.events_executed = 0
        #: cancelled handles still buried in the heap (lazy tombstones)
        self._tombstones = 0
        #: lifetime stats for introspection and the perf harness
        self.heap_compactions = 0
        self.tombstones_evicted = 0
        self._m_cancelled = get_registry().counter("sim.events_cancelled")
        checker = get_checker()
        self._check = checker.sim_hook() if checker.enabled else None

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock._now

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None], label: str = "") -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay!r}")
        time = self.clock._now + delay
        seq = self._seq
        self._seq = seq + 1
        handle = _new_handle(EventHandle)
        handle.time = time
        handle.seq = seq
        handle.callback = callback
        handle.cancelled = False
        handle.label = label
        handle.owner = self
        _heappush(self._heap, (time, seq, handle))
        return handle

    def schedule_at(self, time: float, callback: Callable[[], None], label: str = "") -> EventHandle:
        """Schedule ``callback`` to fire at absolute time ``time``."""
        if time < self.clock._now:
            raise SchedulingError(f"cannot schedule at {time} < now {self.now}")
        seq = self._seq
        self._seq = seq + 1
        handle = _new_handle(EventHandle)
        handle.time = time
        handle.seq = seq
        handle.callback = callback
        handle.cancelled = False
        handle.label = label
        handle.owner = self
        _heappush(self._heap, (time, seq, handle))
        return handle

    # ------------------------------------------------------------------
    # tombstone accounting (called from EventHandle.cancel)
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        self._tombstones = count = self._tombstones + 1
        self._m_cancelled.inc()
        if count >= COMPACTION_MIN_TOMBSTONES and count * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without tombstones, in place.

        In place (slice assignment) so that the ``heap`` binding held by an
        in-flight ``_run`` loop stays valid when a callback cancels enough
        events to trigger compaction mid-run.
        """
        heap = self._heap
        evicted = self._tombstones
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._tombstones = 0
        self.heap_compactions += 1
        self.tombstones_evicted += evicted

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, max_events: int = 100_000_000) -> None:
        """Run until the event queue drains (or ``stop`` is called)."""
        self._run(until=None, max_events=max_events)

    def run_until(self, until: float, max_events: int = 100_000_000) -> None:
        """Run events with ``time <= until``; the clock ends at ``until``.

        Events scheduled after ``until`` remain queued, so simulation can be
        resumed with further ``run*`` calls.
        """
        self._run(until=until, max_events=max_events)
        if self.clock.now() < until:
            self.clock._advance_to(until)

    def stop(self) -> None:
        """Stop the current ``run*`` call after the in-flight event."""
        self._stopped = True
        if self._check is not None:
            self._check.on_stop()

    def close(self) -> None:
        """Drop every queued event and refuse new ones (not through a bound method
        taken before); ``now``, the clock and ``events_executed`` stay readable."""
        for entry in self._heap:
            # A callback may hold its own handle (to cancel it): a cycle.
            handle = entry[2]
            handle.owner = handle.callback = None
        # In place, so that a run loop this is called from sees an empty heap.
        self._heap.clear()
        self._tombstones = 0
        # Shadow the methods on the instance, so the open path tests nothing.
        self.schedule = self.schedule_at = _refuse  # type: ignore[method-assign]

    def _run(self, until: Optional[float], max_events: int) -> None:
        if self._running:
            raise SimulationError("re-entrant run() call")
        self._running = True
        self._stopped = False
        executed = 0
        heap = self._heap
        pop = heapq.heappop
        clock = self.clock
        inv = self._check
        limit = math.inf if until is None else until
        if inv is not None:
            inv.on_run_begin()
        try:
            while heap and not self._stopped:
                time, seq, handle = pop(heap)
                if handle.cancelled:
                    handle.owner = None
                    self._tombstones -= 1
                    continue
                if time > limit:
                    _heappush(heap, (time, seq, handle))
                    break
                handle.owner = None
                # Direct write: scheduling validated time >= now and the
                # heap pops in time order, so monotonicity holds.
                clock._now = time
                executed += 1
                if executed > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events} at t={self.now}; "
                        f"likely a zero-delay event loop (last label={handle.label!r})"
                    )
                if inv is not None:
                    inv.on_execute(time, handle.label)
                handle.callback()
        finally:
            self.events_executed += executed
            self._running = False
            if inv is not None:
                inv.on_run_end()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def pending_events(self) -> int:
        """Number of queued (non-cancelled) events."""
        return len(self._heap) - self._tombstones
