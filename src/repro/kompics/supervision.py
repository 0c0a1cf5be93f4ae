"""Hierarchical component supervision: restart within a budget, else escalate.

The Kompics component model promises fault *isolation*: a handler that
throws marks only its own component FAULTY.  The seed runtime stopped
there — a faulted component stayed dead forever, its children kept
running headless, and events sent its way vanished silently.  This module
adds the recovery half, in the style of actor-family middleware (Erlang
supervisors, Akka/CAF actor supervision):

* a component whose handler (or lifecycle hook) raises is *restarted*:
  its subtree is killed, the definition is re-instantiated from the
  ``create()`` arguments recorded by the runtime, and ``Start`` is
  replayed — channels connected to the component's own ports survive, so
  the rest of the system never re-wires anything;
* restarts draw from a capped *intensity budget* (at most
  ``max_restarts`` per rolling ``window`` seconds, measured on the
  system clock — deterministic under the simulated clock);
* a component whose budget is spent escalates the fault to its parent,
  which restarts in its place (taking the faulted child with it) if its
  own budget allows; at the root, escalation degrades to the
  ``kompics.fault_policy`` behaviour (``raise`` by default), so an
  unrecoverable fault looks exactly like an unsupervised one.

Everything is **default-off**: without ``kompics.supervision.enabled``
the fault path is byte-for-byte the seed behaviour and no RNG or timer
state is created.  Faults and the actions taken are visible on
:attr:`Supervisor.timeline`, the plain counters and the trace.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

from repro.kompics.event import Fault, KompicsEvent, Start

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kompics.component import ComponentCore
    from repro.kompics.runtime import KompicsSystem

logger = logging.getLogger("repro.kompics.supervision")


@dataclass(frozen=True)
class SupervisionPolicy:
    """The restart budget: more than ``max_restarts`` restarts of one
    component within a rolling ``window`` seconds escalates the fault
    instead of restarting again."""

    max_restarts: int = 5
    window: float = 30.0

    def __post_init__(self) -> None:
        if self.max_restarts < 1:
            raise ValueError("max_restarts must be at least 1")
        if self.window <= 0:
            raise ValueError("window must be positive")

    @classmethod
    def from_config(cls, config) -> "SupervisionPolicy":
        """The budget from the ``kompics.supervision.*`` keys."""
        return cls(
            max_restarts=config.get_int("kompics.supervision.max_restarts", 5),
            window=config.get_float("kompics.supervision.window", 30.0),
        )


@dataclass(frozen=True)
class SupervisionRecord:
    """One row of the per-system fault timeline (obs integration)."""

    time: float
    component: str
    action: str
    event: str
    error: str


class Supervisor:
    """Per-system supervision logic, owned by :class:`KompicsSystem`.

    All decisions and mutations run synchronously in the context that
    detected the fault (a component batch on the driving thread under
    ``SimScheduler``), which keeps restart timelines deterministic.
    Under the thread-pool scheduler restarts are best-effort: a subtree
    teardown can race with a child executing on another worker.
    """

    def __init__(self, system: "KompicsSystem") -> None:
        self.system = system
        config = system.config
        self.enabled = config.get_bool("kompics.supervision.enabled", False)
        self.policy = SupervisionPolicy.from_config(config)
        #: restart timestamps per core id (intensity budget bookkeeping)
        self._restart_times: Dict[int, Deque[float]] = {}
        #: plain counters, valid with or without a metrics registry
        self.restarts_total = 0
        self.escalations_total = 0
        self.timeline: List[SupervisionRecord] = []

        metrics = system.metrics
        self.tracer = system.tracer
        self._m_restarts = metrics.counter("kompics.restarts_total", system=system.name)
        self._m_escalations = metrics.counter(
            "kompics.fault_escalations_total", system=system.name
        )

    # ------------------------------------------------------------------
    # fault handling
    # ------------------------------------------------------------------
    def inject_fault(
        self,
        component,
        exception: Optional[BaseException] = None,
        event: Optional[KompicsEvent] = None,
    ) -> None:
        """Fault ``component`` as if one of its handlers raised.

        The chaos harness's entry point; the injected fault goes through
        exactly the same resolution as a real handler exception (or
        through the legacy ``kompics.fault_policy`` path when supervision
        is disabled).
        """
        from repro.kompics.component import ComponentState

        core = getattr(component, "core", component)
        if core.state in (ComponentState.DESTROYED, ComponentState.FAULTY):
            return
        core._fault(event, exception or RuntimeError("injected fault"))

    def handle_fault(self, core: "ComponentCore", fault: Fault) -> None:
        """Restart ``core``, or the nearest ancestor whose budget allows it."""
        policy = self.policy
        target = core
        while not self._budget_allows(target):
            self.tracer.event(
                "kompics.supervision.budget_exhausted",
                component=target.name,
                max_restarts=policy.max_restarts,
                window=policy.window,
            )
            self.escalations_total += 1
            self._m_escalations.inc()
            if target.parent is None:
                # Root escalation: degrade to the legacy fault policy.
                self._note(core, "escalate-root", fault)
                core._terminal_fault(fault)
                return
            self.tracer.event(
                "kompics.supervision.escalate",
                component=target.name, parent=target.parent.name,
            )
            target = target.parent
        self._note(target, "restart", fault)
        self.restart(target, fault)

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------
    def _budget_allows(self, core: "ComponentCore") -> bool:
        times = self._restart_times.get(core.id)
        if not times:
            return True
        now = self.system.clock.now()
        while times and now - times[0] > self.policy.window:
            times.popleft()
        return len(times) < self.policy.max_restarts

    def restart(self, core: "ComponentCore", fault: Optional[Fault] = None) -> None:
        """Kill ``core``'s subtree and re-instantiate its definition.

        The component keeps its core — its identity, name and port
        instances — so channels connected to its own ports stay wired;
        only subscriptions are re-made by the fresh ``__init__``.
        Children (and channels attached to *their* ports) are destroyed
        and re-created by the new definition.

        The data mailbox survives the restart (actor-family semantics:
        Erlang/Akka restarts keep the mailbox, dropping only the faulting
        message): the core goes PASSIVE before the old definition's
        teardown hooks run, so events delivered during the gap park in
        the queue and are handled by the fresh instance after ``Start``.
        While the hooks run, ``core.restarting`` is True — lifecycle
        hooks can stash recovery state on the core (see
        ``AioNetwork``'s at-least-once redelivery) for the successor
        instance to pick up in ``on_start``.
        """
        from repro.kompics.component import ComponentState

        now = self.system.clock.now()
        self._restart_times.setdefault(core.id, deque()).append(now)
        self.restarts_total += 1
        self._m_restarts.inc()
        self.tracer.event("kompics.restart", component=core.name, time=now)

        old = core.definition
        was_active = core.state is ComponentState.ACTIVE
        core.state = ComponentState.PASSIVE
        core.restarting = True
        try:
            for child in list(core.children):
                self._teardown(child)
            core.children.clear()
            if old is not None:
                if was_active:
                    self._safe_hook(core, old.on_stop)
                if fault is not None:
                    self._safe_hook(core, lambda: old.on_fault(fault))
                self._safe_hook(core, old.on_kill)
            with core._lock:
                core._control_queue.clear()
            for port in core._ports.values():
                port.clear_subscriptions()
            try:
                self.system._reinstantiate(core)
            except Exception as exc:  # noqa: BLE001 - constructor fault boundary
                logger.exception("restart of %r failed in __init__", core.name)
                core._terminal_fault(Fault(core.name, None, exc))
                return
        finally:
            core.restarting = False
        core.enqueue_control(Start())

    def _teardown(self, core: "ComponentCore") -> None:
        """Children-first destruction: hooks, queues, channels, registry."""
        from repro.kompics.component import ComponentState

        for child in list(core.children):
            self._teardown(child)
        core.children.clear()
        defn = core.definition
        if defn is not None:
            if core.state is ComponentState.ACTIVE:
                self._safe_hook(core, defn.on_stop)
            if core.state is not ComponentState.DESTROYED:
                self._safe_hook(core, defn.on_kill)
        core.state = ComponentState.DESTROYED
        with core._lock:
            leftover = [event for _, event in core._queue]
            core._queue.clear()
            core._control_queue.clear()
        # Unlike a restart (which parks the mailbox for the successor
        # instance), destruction genuinely drops queued events — account
        # for each as a dead letter rather than losing them silently.
        for event in leftover:
            self.system.note_deadletter(core, event, ComponentState.DESTROYED, dropped=True)
        for port in core._ports.values():
            for channel in port.channels:
                peer = channel.other(port)
                self.tracer.event(
                    "kompics.supervision.disconnect",
                    component=core.name, peer=peer.owner.name,
                )
                channel.disconnect()
        self.system._forget(core)

    @staticmethod
    def _safe_hook(core: "ComponentCore", hook) -> None:
        """Run a lifecycle hook during teardown; a throwing hook must not
        abort the recovery action itself."""
        try:
            hook()
        except Exception:  # noqa: BLE001 - teardown must not re-fault
            logger.exception("lifecycle hook failed during teardown of %r", core.name)

    # ------------------------------------------------------------------
    # obs integration
    # ------------------------------------------------------------------
    def _note(self, core: "ComponentCore", action: str, fault: Fault) -> None:
        self.timeline.append(
            SupervisionRecord(
                time=self.system.clock.now(),
                component=core.name,
                action=action,
                event=type(fault.event).__name__,
                error=repr(fault.exception),
            )
        )
        self.tracer.event(
            "kompics.supervision.action",
            component=core.name, action=action, event=type(fault.event).__name__,
        )

    def timeline_for(self, component_name: str) -> List[SupervisionRecord]:
        """The fault/action timeline of one component, in order."""
        return [r for r in self.timeline if r.component == component_name]

    def restarts_of(self, component) -> int:
        """How many times ``component`` has been restarted."""
        core = getattr(component, "core", component)
        return len(self._restart_times.get(core.id, ()))
