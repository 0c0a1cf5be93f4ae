"""Component schedulers.

Two interchangeable backends drive component execution:

* :class:`SimScheduler` — components execute as discrete-event callbacks;
  each scheduling consumes a small simulated overhead, which both models
  the real cost of a component context switch and guarantees simulated
  time advances even under zero-delay event loops.
* :class:`ThreadPoolScheduler` — a real worker pool for wall-clock runs;
  the per-component ``_scheduled`` flag guarantees a component is executed
  by at most one worker at a time (paper §II-A).
"""

from __future__ import annotations

import queue
import threading
from abc import ABC, abstractmethod
from functools import partial
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.obs import get_registry, get_tracer
from repro.sim import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kompics.component import ComponentCore


class Scheduler(ABC):
    """Dispatches ready components to an execution resource."""

    @abstractmethod
    def schedule_ready(self, core: "ComponentCore") -> None:
        """Called (under the core's lock) when ``core`` has work to do."""

    def ready_callable(self, core: "ComponentCore") -> Callable[[], None]:
        """``schedule_ready(core)`` as a no-argument callable.

        Cores bind this once at construction and call it on every
        wake-up, so it is a C-level :func:`functools.partial`; schedulers
        that can skip per-call bookkeeping bind past ``schedule_ready``.
        """
        return partial(self.schedule_ready, core)

    def shutdown(self) -> None:
        """Release execution resources; idempotent."""


class SimScheduler(Scheduler):
    """Runs component batches as events on the discrete-event simulator."""

    def __init__(self, simulator: Simulator, overhead: float = 1e-6) -> None:
        if overhead <= 0:
            raise ValueError("scheduling overhead must be positive (livelock guard)")
        self.simulator = simulator
        self.overhead = overhead
        registry = get_registry()
        self._obs = registry.enabled
        self._m_schedules = registry.counter(
            "kompics.scheduler.schedules_total", backend="sim"
        )
        # Labels only matter for tracing/diagnostics; this is the hottest
        # schedule() caller, so skip the per-call f-string when tracing is
        # off.  The hint is sampled once — installing a tracer mid-run
        # costs nothing but the labels of already-built schedulers.
        self._labels = get_tracer().enabled
        self._schedule = simulator.schedule

    def schedule_ready(self, core: "ComponentCore") -> None:
        if self._obs:
            self._m_schedules.inc()
        if self._labels:
            self._schedule(self.overhead, core.execute_batch, label=f"exec:{core.name}")
        else:
            self._schedule(self.overhead, core.execute_batch, label="")

    def ready_callable(self, core: "ComponentCore") -> Callable[[], None]:
        if self._obs or self._labels:
            return partial(self.schedule_ready, core)
        # No bookkeeping to do: bind straight into simulator.schedule with
        # the core's bound execute_batch — no Python frame per wake-up.
        return partial(self._schedule, self.overhead, core.execute_batch, "")


class ThreadPoolScheduler(Scheduler):
    """Fixed-size worker pool executing ready components FIFO."""

    def __init__(self, workers: int = 2) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self._queue: "queue.SimpleQueue[Optional[ComponentCore]]" = queue.SimpleQueue()
        self._threads: List[threading.Thread] = []
        self._shutdown = False
        metrics = get_registry()
        self._m_schedules = metrics.counter(
            "kompics.scheduler.schedules_total", backend="threadpool"
        )
        ready = metrics.gauge("kompics.scheduler.ready_queue", backend="threadpool")
        if metrics.enabled:
            ready.set_function(self._queue.qsize)
        for i in range(workers):
            thread = threading.Thread(target=self._worker, name=f"kompics-worker-{i}", daemon=True)
            thread.start()
            self._threads.append(thread)

    def schedule_ready(self, core: "ComponentCore") -> None:
        self._m_schedules.inc()
        self._queue.put(core)

    def _worker(self) -> None:
        while True:
            core = self._queue.get()
            if core is None:
                return
            core.execute_batch()

    def shutdown(self) -> None:
        if self._shutdown:
            return
        self._shutdown = True
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=5.0)
