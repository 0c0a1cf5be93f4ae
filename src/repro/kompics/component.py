"""Components: user-facing definitions and their runtime cores.

A :class:`ComponentDefinition` is what users subclass; the runtime pairs it
with a :class:`ComponentCore` holding the scheduling state (ports, FIFO
event queue, lifecycle).  The paper's execution semantics (§II-A) are kept:

* a component is scheduled on at most one thread at a time, so handlers
  access component state without synchronisation;
* when scheduled, it handles queued events until the queue drains or
  :data:`MAX_EVENTS_PER_SCHEDULE` is reached (throughput vs fairness
  trade-off), then goes to the back of the ready queue;
* events with no matching subscribed handler are silently dropped.
"""

from __future__ import annotations

import enum
import logging
import threading
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, List, Optional, Tuple, Type

from repro.errors import ComponentError, PortError
from repro.kompics.channel import Channel, ChannelSelector
from repro.kompics.event import Fault, Kill, KompicsEvent, Start, Stop
from repro.kompics.port import Port, PortType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kompics.runtime import KompicsSystem


#: events one scheduling of a component handles before it yields its thread
MAX_EVENTS_PER_SCHEDULE = 32


class ComponentState(enum.Enum):
    PASSIVE = "passive"
    ACTIVE = "active"
    STOPPED = "stopped"
    DESTROYED = "destroyed"
    FAULTY = "faulty"


class _ConstructionContext(threading.local):
    """Thread-local stack binding cores to definitions during construction."""

    def __init__(self) -> None:
        self.stack: List["ComponentCore"] = []


_construction = _ConstructionContext()


class ComponentCore:
    """Runtime state of one component instance."""

    def __init__(self, system: "KompicsSystem", name: str, parent: Optional["ComponentCore"]) -> None:
        self.system = system
        self.name = name
        self.id = system.ids.next("component")
        self.parent = parent
        self.children: List["ComponentCore"] = []
        self.definition: Optional["ComponentDefinition"] = None
        #: (definition_cls, args, kwargs) — set by the runtime's create();
        #: supervision re-runs it on RESTART.
        self.create_args: Optional[Tuple[Any, ...]] = None
        self.state = ComponentState.PASSIVE
        #: True while supervision restarts this component: the old
        #: definition's teardown hooks may stash recovery state on the
        #: core for the successor instance (cleared after reinstantiate).
        self.restarting = False

        self._ports: Dict[Tuple[Type[PortType], bool], Port] = {}
        self._queue: Deque[Tuple[Port, KompicsEvent]] = deque()
        self._control_queue: Deque[KompicsEvent] = deque()
        self._lock = threading.Lock()
        self._scheduled = False
        self.max_batch = MAX_EVENTS_PER_SCHEDULE
        self.events_handled = 0
        # Under the SimScheduler everything runs on the driving thread, so
        # the intake/batch paths can skip the queue lock entirely; the
        # thread-pool backend keeps it (one component on at most one
        # worker, but enqueue races with the batch loop).
        from repro.kompics.scheduler import SimScheduler

        self._single_threaded = isinstance(system.scheduler, SimScheduler)
        #: bound once: the intake paths below run once per delivered event
        self._schedule_ready = system.scheduler.ready_callable(self)

        # Shared scheduler-level instruments (one per system) plus a
        # per-component queue-depth gauge; all no-ops unless a registry is
        # enabled, and only touched once per batch, never per event.
        metrics = system.metrics
        self._obs = metrics.enabled
        self._m_events = metrics.counter("kompics.scheduler.events_total")
        self._m_batches = metrics.counter("kompics.scheduler.batches_total")
        self._m_batch_size = metrics.histogram(
            "kompics.scheduler.batch_size", buckets=(1, 2, 4, 8, 16, 32, 64, 128)
        )
        self._m_queue_depth = metrics.gauge("kompics.component.queue_depth", component=name)
        if metrics.enabled:
            self._m_queue_depth.set_function(lambda: len(self._queue) + len(self._control_queue))

        if parent is not None:
            parent.children.append(self)

    # ------------------------------------------------------------------
    # ports
    # ------------------------------------------------------------------
    def port(self, port_type: Type[PortType], positive: bool, create: bool = False) -> Port:
        key = (port_type, positive)
        port = self._ports.get(key)
        if port is None:
            if not create:
                side = "provided" if positive else "required"
                raise PortError(f"component {self.name!r} has no {side} port {port_type.__name__}")
            port = Port(port_type, self, positive)
            self._ports[key] = port
        return port

    # ------------------------------------------------------------------
    # event intake
    # ------------------------------------------------------------------
    def enqueue(self, port: Port, event: KompicsEvent) -> None:
        """Queue a delivered event; wake the scheduler if needed.

        Events to a DESTROYED or FAULTY component are dropped — but no
        longer silently: they land in the system's dead-letter sink.
        Events to a STOPPED component stay parked in the queue (delivered
        if it restarts) and are recorded as non-dropped dead letters.
        """
        if self._single_threaded:
            state = self.state
            if state is ComponentState.ACTIVE:
                # hottest case first: a live component taking a data event
                self._queue.append((port, event))
                if not self._scheduled:
                    self._scheduled = True
                    self._schedule_ready()
                return
            if state is ComponentState.DESTROYED or state is ComponentState.FAULTY:
                self.system.note_deadletter(self, event, state, dropped=True)
                return
            if state is ComponentState.STOPPED:
                self.system.note_deadletter(self, event, state, dropped=False)
            self._queue.append((port, event))
            # inlined _maybe_schedule_locked: _queue is known non-empty
            if not self._scheduled and self._control_queue:
                self._scheduled = True
                self._schedule_ready()
            return
        # note_deadletter runs outside the lock: it touches only the
        # system's dead-letter sink, none of this core's state.
        dead: Optional[bool] = None
        with self._lock:
            state = self.state
            if state in (ComponentState.DESTROYED, ComponentState.FAULTY):
                dead = True
            else:
                if state is ComponentState.STOPPED:
                    dead = False
                self._queue.append((port, event))
                self._maybe_schedule_locked()
        if dead is not None:
            self.system.note_deadletter(self, event, state, dropped=dead)

    def enqueue_control(self, event: KompicsEvent) -> None:
        """Queue a lifecycle event; processed ahead of port events."""
        if self._single_threaded:
            state = self.state
            if state is ComponentState.DESTROYED or state is ComponentState.FAULTY:
                self.system.note_deadletter(self, event, state, dropped=True)
                return
            self._control_queue.append(event)
            if not self._scheduled:
                self._scheduled = True
                self.system.scheduler.schedule_ready(self)
            return
        dead = False
        with self._lock:
            state = self.state
            if state in (ComponentState.DESTROYED, ComponentState.FAULTY):
                dead = True
            else:
                self._control_queue.append(event)
                self._maybe_schedule_locked()
        if dead:
            self.system.note_deadletter(self, event, state, dropped=True)

    def _has_work_locked(self) -> bool:
        if self._control_queue:
            return True
        return bool(self._queue) and self.state is ComponentState.ACTIVE

    def _maybe_schedule_locked(self) -> None:
        if not self._scheduled and self._has_work_locked():
            self._scheduled = True
            self.system.scheduler.schedule_ready(self)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute_batch(self) -> None:
        """Handle up to ``max_batch`` queued events (scheduler entry point)."""
        handled = 0
        max_batch = self.max_batch
        control_queue = self._control_queue
        queue = self._queue
        active = ComponentState.ACTIVE
        if self._single_threaded:
            # Lock-free twin of the loop below.  The control queue has
            # priority and lifecycle transitions (Stop/Kill/fault) take
            # effect immediately, so both queues and the state are
            # re-checked for every event.  Dispatch is inlined here (the
            # per-event path is the hottest loop in the whole simulator);
            # semantics match _dispatch exactly, including the stop-on-
            # fault behaviour for the remaining handlers of that event.
            while handled < max_batch:
                if control_queue:
                    handled += 1
                    self._handle_control(control_queue.popleft())
                    continue
                if queue and self.state is active:
                    port, event = queue.popleft()
                else:
                    break
                handled += 1
                handlers = port._dispatch_cache.get(event.__class__)
                if handlers is None:
                    handlers = port.matching_handlers(event)
                for handler in handlers:
                    try:
                        handler(event)
                    except Exception as exc:  # noqa: BLE001 - fault boundary
                        self._fault(event, exc)
                        break
            if handled:
                self.events_handled += handled
                if self._obs:
                    self._m_events.inc(handled)
                    self._m_batches.inc()
                    self._m_batch_size.observe(handled)
            self._scheduled = False
            if control_queue or (queue and self.state is active):
                self._scheduled = True
                self._schedule_ready()
            return
        lock = self._lock
        while handled < max_batch:
            port = None
            with lock:
                if control_queue:
                    event = control_queue.popleft()
                elif queue and self.state is active:
                    port, event = queue.popleft()
                else:
                    break
            handled += 1
            self.events_handled += 1
            if port is None:
                self._handle_control(event)
            else:
                self._dispatch(port, event)
        if handled and self._obs:
            self._m_events.inc(handled)
            self._m_batches.inc()
            self._m_batch_size.observe(handled)
        with lock:
            self._scheduled = False
            self._maybe_schedule_locked()

    def _dispatch(self, port: Port, event: KompicsEvent) -> None:
        handlers = port.matching_handlers(event)
        # No matching handler: silently dropped (broadcast-channel semantics).
        for handler in handlers:
            try:
                handler(event)
            except Exception as exc:  # noqa: BLE001 - fault boundary
                self._fault(event, exc)
                return

    def _handle_control(self, event: KompicsEvent) -> None:
        try:
            if isinstance(event, Start):
                self._do_start()
            elif isinstance(event, Stop):
                self._do_stop()
            elif isinstance(event, Kill):
                self._do_kill()
        except Exception as exc:  # noqa: BLE001 - fault boundary
            self._fault(event, exc)

    def _do_start(self) -> None:
        if self.state is not ComponentState.PASSIVE and self.state is not ComponentState.STOPPED:
            return
        self.state = ComponentState.ACTIVE
        assert self.definition is not None
        self.definition.on_start()
        for child in self.children:
            child.enqueue_control(Start())

    def _do_stop(self) -> None:
        if self.state is not ComponentState.ACTIVE:
            return
        for child in self.children:
            child.enqueue_control(Stop())
        assert self.definition is not None
        self.definition.on_stop()
        self.state = ComponentState.STOPPED

    def _do_kill(self) -> None:
        if self.state is ComponentState.ACTIVE:
            self._do_stop()
        for child in self.children:
            child.enqueue_control(Kill())
        assert self.definition is not None
        self.definition.on_kill()
        self.state = ComponentState.DESTROYED
        with self._lock:
            self._queue.clear()
            self._control_queue.clear()

    def _fault(self, event: Optional[KompicsEvent], exc: BaseException) -> None:
        fault = Fault(self.name, event, exc)
        supervision = self.system.supervision
        if supervision.enabled:
            supervision.handle_fault(self, fault)
            return
        self._terminal_fault(fault)

    def _terminal_fault(self, fault: Fault) -> None:
        """Legacy fault path: mark FAULTY and hand to the system policy.

        Children must not keep running headless under a dead parent, so
        Kill cascades to them (under the default ``raise`` policy the
        exception below aborts the run before they process it; under
        ``store`` they are actually torn down).
        """
        self.state = ComponentState.FAULTY
        if self.definition is not None:
            try:
                self.definition.on_fault(fault)
            except Exception:  # noqa: BLE001 - hook must not mask the fault
                logging.getLogger("repro.kompics").exception(
                    "on_fault hook of %r failed", self.name
                )
        with self._lock:
            leftover = [event for _, event in self._queue]
            self._queue.clear()
            self._control_queue.clear()
        # Anything still parked dies with the component: account for each
        # as a dropped dead letter (everything sent *after* this point is
        # dead-lettered by enqueue, since the state is now FAULTY).
        for event in leftover:
            self.system.note_deadletter(self, event, ComponentState.FAULTY, dropped=True)
        for child in self.children:
            child.enqueue_control(Kill())
        self.system.report_fault(fault)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ComponentCore({self.name!r}, id={self.id}, {self.state.value})"


class ComponentDefinition:
    """Base class for user components.

    Subclass, declare ports in ``__init__`` with :meth:`provides` /
    :meth:`requires`, and register handlers with :meth:`subscribe`.
    Instances must be created through :meth:`KompicsSystem.create` (or
    :meth:`create` on a parent component), never instantiated directly.
    """

    def __init__(self) -> None:
        if not _construction.stack:
            raise ComponentError(
                f"{type(self).__name__} must be created via KompicsSystem.create()"
            )
        self._core: ComponentCore = _construction.stack[-1]
        self.logger = logging.getLogger(f"repro.kompics.{self._core.name}")
        #: the system's clock (simulated or wall), a plain attribute because
        #: handlers read it per event: ``self.clock.now()``
        self.clock = self._core.system.clock

    # ------------------------------------------------------------------
    # declaration API
    # ------------------------------------------------------------------
    def provides(self, port_type: Type[PortType]) -> Port:
        """Declare that this component provides ``port_type``."""
        return self._core.port(port_type, positive=True, create=True)

    def requires(self, port_type: Type[PortType]) -> Port:
        """Declare that this component requires ``port_type``."""
        return self._core.port(port_type, positive=False, create=True)

    def subscribe(self, port: Port, event_type: Type[KompicsEvent], handler: Callable[[Any], None]) -> None:
        """Subscribe ``handler`` on ``port`` for ``event_type`` (and subtypes)."""
        if port.owner is not self._core:
            raise PortError("can only subscribe on this component's own ports")
        port.subscribe(event_type, handler)

    def subscribe_matching(
        self,
        port: Port,
        event_type: Type[KompicsEvent],
        handler: Callable[[Any], None],
        predicate: Callable[[KompicsEvent], bool],
    ) -> Callable[[Any], None]:
        """Subscribe with an additional predicate (pattern matching).

        Returns the wrapped handler for later ``port.unsubscribe``.  See
        :mod:`repro.kompics.matchers` for predicate builders.
        """
        from repro.kompics.matchers import subscribe_matching

        if port.owner is not self._core:
            raise PortError("can only subscribe on this component's own ports")
        return subscribe_matching(port, event_type, handler, predicate)

    def trigger(self, event: KompicsEvent, port: Port) -> None:
        """Publish ``event`` on ``port`` (out over all connected channels)."""
        port.trigger(event)

    # ------------------------------------------------------------------
    # hierarchy
    # ------------------------------------------------------------------
    def create(self, definition_cls: Type["ComponentDefinition"], *args: Any, **kwargs: Any) -> "Component":
        """Create a child component (started when this component starts)."""
        return self._core.system.create(definition_cls, *args, parent=self._core, **kwargs)

    def connect(self, a: Port, b: Port, selector: Optional[ChannelSelector] = None) -> Channel:
        """Connect two ports of this component's children (or itself)."""
        return self._core.system.connect(a, b, selector)

    # ------------------------------------------------------------------
    # lifecycle hooks (override as needed)
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        """Called when the component transitions to ACTIVE."""

    def on_stop(self) -> None:
        """Called when the component is stopped."""

    def on_kill(self) -> None:
        """Called when the component is destroyed."""

    def on_fault(self, fault: Fault) -> None:
        """Called when one of this component's handlers raised.

        Runs before a supervised restart or the legacy FAULTY
        transition — a place to release external resources (sockets,
        timers) that ``__init__`` would otherwise re-acquire leaked.
        """

    # ------------------------------------------------------------------
    # context accessors
    # ------------------------------------------------------------------
    @property
    def system(self) -> "KompicsSystem":
        return self._core.system

    @property
    def config(self):
        return self._core.system.config

    @property
    def name(self) -> str:
        return self._core.name

    def rng(self, label: str = "default"):
        """Deterministic per-component random stream."""
        return self._core.system.rngs.get(f"component.{self._core.name}.{label}")


class Component:
    """Handle to a created component, as returned by ``create``."""

    __slots__ = ("core",)

    def __init__(self, core: ComponentCore) -> None:
        self.core = core

    @property
    def definition(self) -> ComponentDefinition:
        assert self.core.definition is not None
        return self.core.definition

    @property
    def name(self) -> str:
        return self.core.name

    @property
    def state(self) -> ComponentState:
        return self.core.state

    def provided(self, port_type: Type[PortType]) -> Port:
        """The positive (provided) port instance of ``port_type``."""
        return self.core.port(port_type, positive=True)

    def required(self, port_type: Type[PortType]) -> Port:
        """The negative (required) port instance of ``port_type``."""
        return self.core.port(port_type, positive=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Component({self.name!r})"
