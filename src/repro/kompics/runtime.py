"""The Kompics runtime: component creation, wiring and lifecycle.

A :class:`KompicsSystem` owns the scheduler, clock, configuration and RNG
registry, tracks all component cores, and is the single place faults are
reported to.  Use :meth:`KompicsSystem.simulated` for deterministic
discrete-event runs (experiments) and :meth:`KompicsSystem.threaded` for
wall-clock execution.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Mapping, Optional, Type

from repro.errors import ChannelError, ComponentError
from repro.kompics.channel import Channel, ChannelSelector
from repro.kompics.component import Component, ComponentCore, ComponentDefinition, _construction
from repro.kompics.event import DeadLetter, Fault, Kill, KompicsEvent, Start, Stop
from repro.kompics.port import Port
from repro.kompics.scheduler import Scheduler, SimScheduler, ThreadPoolScheduler
from repro.kompics.supervision import Supervisor
from repro.obs import get_registry, get_tracer
from repro.sim import Simulator
from repro.util.clock import Clock, WallClock
from repro.util.config import Config
from repro.util.ids import IdGenerator
from repro.util.rng import RngRegistry

#: dead letters kept for inspection (a ring: the most recent survive)
DEADLETTERS_KEPT = 256


class KompicsSystem:
    """A running Kompics instance (one per simulated host or per process)."""

    def __init__(
        self,
        scheduler: Scheduler,
        clock: Clock,
        config: Optional[Mapping[str, Any]] = None,
        seed: int = 0,
        name: str = "system",
        simulator: Optional[Simulator] = None,
    ) -> None:
        self.name = name
        self.scheduler = scheduler
        self.clock = clock
        self.simulator = simulator
        self.config = Config(config)
        self.rngs = RngRegistry(seed)
        self.ids = IdGenerator()
        self.components: List[Component] = []
        self.faults: List[Fault] = []
        # Observability: cores share these system-level instruments; with
        # the default null registry every call below is a no-op.
        self.metrics = get_registry()
        self.tracer = get_tracer()
        if self.tracer.enabled:
            # Key trace records to this system's (usually simulated) clock.
            self.tracer.use_clock(clock)
        self._m_components = self.metrics.gauge("kompics.system.components", system=name)
        self._m_components.set_function(lambda: len(self.components))
        self._m_faults = self.metrics.counter("kompics.system.faults_total", system=name)
        # Supervision + dead-letter sink (both inert until configured on /
        # subscribed to; see repro.kompics.supervision).
        self.supervision = Supervisor(self)
        self.deadletters_total = 0
        self.deadletters: Deque[DeadLetter] = deque(maxlen=DEADLETTERS_KEPT)
        self._m_deadletters = self.metrics.counter("kompics.deadletters_total", system=name)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def simulated(
        cls,
        simulator: Simulator,
        config: Optional[Mapping[str, Any]] = None,
        seed: int = 0,
        name: str = "system",
        scheduling_overhead: float = 1e-6,
    ) -> "KompicsSystem":
        """System driven by a discrete-event simulator (deterministic)."""
        return cls(
            scheduler=SimScheduler(simulator, overhead=scheduling_overhead),
            clock=simulator.clock,
            config=config,
            seed=seed,
            name=name,
            simulator=simulator,
        )

    @classmethod
    def threaded(
        cls,
        workers: int = 2,
        config: Optional[Mapping[str, Any]] = None,
        seed: int = 0,
        name: str = "system",
    ) -> "KompicsSystem":
        """System executing on a real thread pool with wall-clock time."""
        return cls(
            scheduler=ThreadPoolScheduler(workers),
            clock=WallClock(),
            config=config,
            seed=seed,
            name=name,
        )

    # ------------------------------------------------------------------
    # component management
    # ------------------------------------------------------------------
    def create(
        self,
        definition_cls: Type[ComponentDefinition],
        *args: Any,
        parent: Optional[ComponentCore] = None,
        name: Optional[str] = None,
        **kwargs: Any,
    ) -> Component:
        """Instantiate ``definition_cls`` and register its core."""
        if name is None:
            idx = self.ids.next(f"name.{definition_cls.__name__}")
            name = f"{definition_cls.__name__}-{idx}"
        core = ComponentCore(self, name=name, parent=parent)
        # Recorded so supervision can re-instantiate on RESTART.
        core.create_args = (definition_cls, args, kwargs)
        self._instantiate(core)
        component = Component(core)
        self.components.append(component)
        return component

    def _instantiate(self, core: ComponentCore) -> None:
        """Run the recorded definition constructor bound to ``core``."""
        definition_cls, args, kwargs = core.create_args
        _construction.stack.append(core)
        try:
            definition = definition_cls(*args, **kwargs)
        finally:
            _construction.stack.pop()
        if definition._core is not core:
            raise ComponentError(
                f"{definition_cls.__name__}.__init__ must call super().__init__() first"
            )
        core.definition = definition

    def _reinstantiate(self, core: ComponentCore) -> None:
        """Supervision restart: fresh definition instance on the same core."""
        self._instantiate(core)

    def _forget(self, core: ComponentCore) -> None:
        """Drop the component handle of a destroyed ``core`` (teardown)."""
        self.components = [c for c in self.components if c.core is not core]

    def connect(self, a: Port, b: Port, selector: Optional[ChannelSelector] = None) -> Channel:
        """Connect a provided port to a required port (order-agnostic)."""
        if a.positive and not b.positive:
            return Channel(a, b, selector)
        if b.positive and not a.positive:
            return Channel(b, a, selector)
        raise ChannelError(
            "connect needs one provided and one required port, got "
            f"{a!r} and {b!r}"
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, component: Component) -> None:
        """Start ``component`` (and, cascading, its children)."""
        component.core.enqueue_control(Start())

    def stop(self, component: Component) -> None:
        component.core.enqueue_control(Stop())

    def kill(self, component: Component) -> None:
        component.core.enqueue_control(Kill())

    def shutdown(self) -> None:
        """Kill all root components and release the scheduler."""
        for component in self.components:
            if component.core.parent is None:
                self.kill(component)
        self.scheduler.shutdown()

    def close(self) -> None:
        """Cut this system's reference cycles so refcounting frees it.

        Runs no lifecycle hook and schedules nothing: every core, children
        included, loses its ports' wiring, its queues, its links to the
        tree and the system, and its definition loses its state (handlers
        and the objects they close over).  Function gauges are pinned
        first, so a snapshot taken afterwards reads the values at close.
        Unusable after, idempotent.
        """
        self.metrics.pin_functions()
        for component in self.components:
            core = component.core
            for port in core._ports.values():
                port._channels.clear()
                port._subscriptions.clear()
                port._dispatch_cache.clear()
            core._ports.clear()
            core._queue.clear()
            core._control_queue.clear()
            core.children.clear()
            core.parent = core._schedule_ready = core.system = core.create_args = None
            if core.definition is not None:
                vars(core.definition).clear()
        self.components = []
        self.supervision = None

    # ------------------------------------------------------------------
    # dead letters
    # ------------------------------------------------------------------
    def note_deadletter(
        self, core: ComponentCore, event: KompicsEvent, state: Any, dropped: bool
    ) -> None:
        """Record an event that reached a STOPPED/DESTROYED/FAULTY component.

        Keeps a bounded ring of recent :class:`DeadLetter` records and
        counts them.
        """
        self.deadletters_total += 1
        key = state.value
        letter = DeadLetter(core.name, key, event, dropped)
        self.deadletters.append(letter)
        self._m_deadletters.inc()
        self.tracer.event(
            "kompics.deadletter",
            component=core.name,
            state=key,
            event=type(event).__name__,
            dropped=dropped,
        )

    # ------------------------------------------------------------------
    # faults
    # ------------------------------------------------------------------
    def report_fault(self, fault: Fault) -> None:
        """Record (or re-raise, per ``kompics.fault_policy``) a handler fault."""
        self.faults.append(fault)
        self._m_faults.inc()
        self.tracer.event(
            "kompics.fault",
            component=fault.component_name,
            event=type(fault.event).__name__,
        )
        policy = self.config.get_str("kompics.fault_policy", "raise")
        if policy == "raise":
            raise ComponentError(
                f"component {fault.component_name!r} faulted handling "
                f"{type(fault.event).__name__}"
            ) from fault.exception

    def raise_faults(self) -> None:
        """Raise a ComponentError aggregating *all* stored faults, if any.

        For ``store`` policy runs: every stored fault appears in the
        message (component, event and exception), and the first fault's
        exception is chained as the cause.  ``self.faults`` is left
        intact — use :meth:`clear_faults` to drain it.
        """
        if not self.faults:
            return
        lines = "; ".join(
            f"{f.component_name!r} handling {type(f.event).__name__}: {f.exception!r}"
            for f in self.faults
        )
        raise ComponentError(
            f"{len(self.faults)} stored component fault(s): {lines}"
        ) from self.faults[0].exception

    def clear_faults(self) -> List[Fault]:
        """Drain and return the stored faults (acknowledging them)."""
        faults = self.faults
        self.faults = []
        return faults
