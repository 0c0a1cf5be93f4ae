"""The discrete-event simulator.

Design notes
------------
* Events with equal timestamps fire in scheduling order (deterministic).
* The kernel owns a :class:`SimulatedClock`; user code reads it but never
  advances it.
* ``max_events`` guards against runaway zero-delay loops; hitting it raises
  :class:`~repro.errors.SimulationError` instead of hanging.

Fast path
---------
The heap stores ``(time, seq, handle)`` tuples rather than bare
:class:`EventHandle` objects: ``seq`` is unique, so sift comparisons never
reach the handle and run entirely in C.  Cancellation stays lazy
(tombstones are skipped at the head), but the kernel counts live
tombstones and compacts the queues in place once they dominate them, so
recurring timers that reschedule cannot grow the queues without bound.
Pop order is a total order on ``(time, seq)``, so compaction — and any
re-arrangement — cannot change execution order.

Run queue
---------
Simulation workloads schedule in *almost sorted* order: the executing
event at ``t`` usually schedules at ``t + delta`` for a small set of
deltas, so successive pushes are non-decreasing with occasional
far-future jumps (timeouts, retry timers).  Paying a full O(log n) heap
sift per event for a stream that is already sorted is the kernel's
single biggest cost, so the kernel keeps a second queue: a deque of
bare handles, maintained sorted by appending at the tail while pushes
stay monotone.  A push that is *smaller* than the tail first ejects the
blocking tail entries into the heap — each entry can be ejected at most
once in its lifetime, so ejection is amortized O(1) per scheduled event,
and far-future entries migrate to the heap where they belong.  Pops take
the minimum of the two sorted sources; since both are individually
sorted, the merge always yields the global ``(time, seq)`` minimum
regardless of which queue holds an entry, so execution order is
the heap-only order.  Run-queue entries are
never sifted, so they skip the ``(time, seq, handle)`` tuple entirely —
one allocation per event instead of two.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Callable, Deque, Iterable, List, NoReturn, Optional, Tuple

from repro.check import get_checker
from repro.errors import SchedulingError, SimulationError
from repro.obs import get_registry
from repro.sim.event import EventHandle
from repro.util.clock import SimulatedClock

#: Compact only when at least this many tombstones are buried in the queues
#: (and they outnumber the live entries); keeps small simulations from
#: paying rebuild costs for a handful of cancelled timers.
COMPACTION_MIN_TOMBSTONES = 64

_HeapEntry = Tuple[float, int, EventHandle]

#: Allocating an EventHandle without running ``__init__`` (the slot stores
#: are inlined at the scheduling sites) saves a call frame per event on
#: the hottest allocation in the kernel.  The inlined stores mirror
#: ``EventHandle.__init__`` — keep the two in sync.
_new_handle = object.__new__


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
        #: tail-sorted near-future queue of bare handles (see module
        #: docstring); merged with the heap on pop, so it is always safe
        #: to leave entries here
        self._run_q: Deque[EventHandle] = deque()
        self._seq = 0
        self._running = False
        self._stopped = False
        self.events_executed = 0
        #: cancelled handles still buried in the queues (lazy tombstones)
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
        run_q = self._run_q
        if run_q and time < run_q[-1].time:
            # Out-of-order push: eject the blocking tail into the heap
            # (each entry is ejected at most once — amortized O(1)).
            heap = self._heap
            push = heapq.heappush
            eject = run_q.pop
            while run_q and run_q[-1].time > time:
                tail = eject()
                push(heap, (tail.time, tail.seq, tail))
        run_q.append(handle)
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
        run_q = self._run_q
        if run_q and time < run_q[-1].time:
            heap = self._heap
            push = heapq.heappush
            eject = run_q.pop
            while run_q and run_q[-1].time > time:
                tail = eject()
                push(heap, (tail.time, tail.seq, tail))
        run_q.append(handle)
        return handle

    def schedule_many(
        self,
        delay: float,
        callbacks: Iterable[Callable[[], None]],
        label: str = "",
    ) -> List[EventHandle]:
        """Schedule a batch of callbacks at the same timestamp.

        Equivalent to calling :meth:`schedule` once per callback — the
        handles get contiguous sequence numbers, so they fire in iteration
        order, after anything already queued at that time and before
        anything scheduled later.  One bounds check and one set of loop
        bindings instead of N makes this the cheap way to fan out
        same-time work (e.g. delivering an aggregated train).
        """
        if delay < 0:
            raise SchedulingError(f"negative delay {delay!r}")
        time = self.clock._now + delay
        seq = self._seq
        handles: List[EventHandle] = []
        append = handles.append
        run_q = self._run_q
        if run_q and time < run_q[-1].time:
            heap = self._heap
            push = heapq.heappush
            eject = run_q.pop
            while run_q and run_q[-1].time > time:
                tail = eject()
                push(heap, (tail.time, tail.seq, tail))
        enqueue = run_q.append
        for callback in callbacks:
            handle = EventHandle(time, seq, callback, label)
            handle.owner = self
            enqueue(handle)
            seq += 1
            append(handle)
        self._seq = seq
        return handles

    # ------------------------------------------------------------------
    # tombstone accounting (called from EventHandle.cancel)
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        self._tombstones = count = self._tombstones + 1
        self._m_cancelled.inc()
        if count >= COMPACTION_MIN_TOMBSTONES and count * 2 > len(self._heap) + len(self._run_q):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the queues without tombstones, in place.

        In-place (slice assignment / clear+extend) so that ``heap`` and
        ``run_q`` bindings held by an in-flight ``_run`` loop stay valid
        when a callback cancels enough events to trigger compaction
        mid-run.  The run queue is sorted, so filtering preserves order.
        """
        heap = self._heap
        evicted = self._tombstones
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        run_q = self._run_q
        if run_q:
            live = [handle for handle in run_q if not handle.cancelled]
            run_q.clear()
            run_q.extend(live)
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
        for handle in (*self._run_q, *(entry[2] for entry in self._heap)):
            handle.owner = None
        # In place, so that a run loop this is called from sees empty queues.
        self._heap.clear()
        self._run_q.clear()
        self._tombstones = 0
        # Shadow the methods on the instance, so the open path tests nothing.
        self.schedule = self.schedule_at = self.schedule_many = _refuse  # type: ignore[method-assign]

    def _run(self, until: Optional[float], max_events: int) -> None:
        if self._running:
            raise SimulationError("re-entrant run() call")
        self._running = True
        self._stopped = False
        executed = 0
        heap = self._heap
        run_q = self._run_q
        pop = heapq.heappop
        popleft = run_q.popleft
        clock = self.clock
        inv = self._check
        limit = math.inf if until is None else until
        if inv is not None:
            inv.on_run_begin()
        try:
            # Two copies of the loop: the checker-off variant drops the
            # per-event hook call from the hottest loop in the codebase.
            # Keep the bodies in sync.
            if inv is None:
                while not self._stopped:
                    # Merged pop: both sources are sorted, so comparing
                    # heads yields the global (time, seq) minimum.  The
                    # float compare settles everything except exact-time
                    # ties, which fall back to the seq tie-break.
                    if run_q:
                        handle = run_q[0]
                        if heap:
                            h0 = heap[0]
                            h0t = h0[0]
                            rt = handle.time
                            if h0t < rt or (h0t == rt and h0[1] < handle.seq):
                                entry = pop(heap)
                                handle = entry[2]
                                if handle.cancelled:
                                    handle.owner = None
                                    self._tombstones -= 1
                                    continue
                                if h0t > limit:
                                    heapq.heappush(heap, entry)
                                    break
                                handle.owner = None
                                clock._now = h0t
                                executed += 1
                                if executed > max_events:
                                    raise SimulationError(
                                        f"exceeded max_events={max_events} at t={self.now}; "
                                        f"likely a zero-delay event loop "
                                        f"(last label={handle.label!r})"
                                    )
                                handle.callback()
                                continue
                        popleft()
                    elif heap:
                        handle = pop(heap)[2]
                    else:
                        break
                    if handle.cancelled:
                        handle.owner = None
                        self._tombstones -= 1
                        continue
                    time = handle.time
                    if time > limit:
                        # Put the (globally minimal) handle back at the run
                        # queue head; it stays <= run_q[0], so order holds.
                        run_q.appendleft(handle)
                        break
                    handle.owner = None
                    # Direct write: scheduling validated time >= now and
                    # the merged pop is in time order, so monotonicity
                    # holds.
                    clock._now = time
                    executed += 1
                    if executed > max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events} at t={self.now}; "
                            f"likely a zero-delay event loop (last label={handle.label!r})"
                        )
                    handle.callback()
            else:
                while not self._stopped:
                    if run_q:
                        handle = run_q[0]
                        if heap:
                            h0 = heap[0]
                            h0t = h0[0]
                            rt = handle.time
                            if h0t < rt or (h0t == rt and h0[1] < handle.seq):
                                entry = pop(heap)
                                handle = entry[2]
                                if handle.cancelled:
                                    handle.owner = None
                                    self._tombstones -= 1
                                    continue
                                if h0t > limit:
                                    heapq.heappush(heap, entry)
                                    break
                                handle.owner = None
                                clock._now = h0t
                                executed += 1
                                if executed > max_events:
                                    raise SimulationError(
                                        f"exceeded max_events={max_events} at t={self.now}; "
                                        f"likely a zero-delay event loop "
                                        f"(last label={handle.label!r})"
                                    )
                                inv.on_execute(h0t, handle.label)
                                handle.callback()
                                continue
                        popleft()
                    elif heap:
                        handle = pop(heap)[2]
                    else:
                        break
                    if handle.cancelled:
                        handle.owner = None
                        self._tombstones -= 1
                        continue
                    time = handle.time
                    if time > limit:
                        run_q.appendleft(handle)
                        break
                    handle.owner = None
                    clock._now = time
                    executed += 1
                    if executed > max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events} at t={self.now}; "
                            f"likely a zero-delay event loop (last label={handle.label!r})"
                        )
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
        return len(self._heap) + len(self._run_q) - self._tombstones
