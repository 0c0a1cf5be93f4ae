"""Seeded invariant violations for the ``repro check mutate`` self-test.

Each context manager temporarily installs one *realistic* bug — the kind
a hot-path refactor could introduce — so the self-test can prove the
checker actually catches it.  Patches restore the original code on exit;
never use these outside the self-test or a test.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator


@contextmanager
def window_off_by_one() -> Iterator[None]:
    """DestinationFlow releases one message beyond its window.

    The pump briefly believes the window is one larger — the classic
    ``<=`` vs ``<`` bug — so in-flight reaches ``window + 1`` and the
    flow hook (which keeps the construction-time window) reports
    ``flow.window``.
    """
    from repro.core.flow import DestinationFlow

    original = DestinationFlow._pump

    def buggy_pump(self) -> None:
        self.window_messages += 1
        try:
            original(self)
        finally:
            self.window_messages -= 1

    DestinationFlow._pump = buggy_pump
    try:
        yield
    finally:
        DestinationFlow._pump = original


@contextmanager
def in_flight_leak() -> Iterator[None]:
    """DestinationFlow silently loses one in-flight accounting entry.

    The first notify response additionally drops an unrelated in-flight
    entry (a lost-bookkeeping bug): released != completed + in-flight
    from then on, so the flow hook reports ``flow.conservation``.
    """
    from repro.core.flow import DestinationFlow

    original = DestinationFlow.on_notify_response
    leaked = [False]

    def leaky(self, resp):
        if not leaked[0] and len(self._in_flight) > 1:
            # drop an entry that is not the one being answered
            for key in self._in_flight:
                if key != resp.notify_id:
                    del self._in_flight[key]
                    leaked[0] = True
                    break
        return original(self, resp)

    DestinationFlow.on_notify_response = leaky
    try:
        yield
    finally:
        DestinationFlow.on_notify_response = original


@contextmanager
def rx_reorder(at: int = 2) -> Iterator[None]:
    """An ordered flow's RX delivery train swaps its tail once.

    On the ``at``-th append to the train of a sequence-stamped flow (an
    ordered flow built under a checker), the last two entries trade
    places, so two wire messages are delivered out of order and the wire
    hook reports ``wire.fifo``.  Appends are counted across all flows.
    """
    from repro.netsim.connection import FlowState

    original = FlowState._enqueue_delivery
    appends = [0]

    def reordering(self, due, msg) -> None:
        original(self, due, msg)
        train = self._train
        if self._wire_stream is None or not train or train[-1][1] is not msg:
            return
        appends[0] += 1
        if appends[0] == at and len(train) >= 2:
            train[-1], train[-2] = train[-2], train[-1]

    FlowState._enqueue_delivery = reordering
    try:
        yield
    finally:
        FlowState._enqueue_delivery = original


@contextmanager
def heap_disorder(sim) -> Iterator[None]:
    """Corrupt the kernel heap so events pop out of time order.

    Reversing the heap breaks the heap property; the next pops execute
    with decreasing timestamps and the sim hook reports ``sim.clock``.
    (Writing ``clock._now`` backwards would *not* trip the check — the
    invariant is about pop order, not the clock cell.)
    """
    sim._heap.reverse()
    try:
        yield
    finally:
        pass  # the run consumed the corrupted heap; nothing to restore


@contextmanager
def trace_poison(traces) -> Iterator[None]:
    """Force one replacing eligibility trace above 1 (``rl.trace``)."""
    for key in traces._traces:
        traces._traces[key] = 3.0
        break
    else:
        traces._traces[("poisoned-state", "poisoned-action")] = 3.0
    try:
        yield
    finally:
        pass
