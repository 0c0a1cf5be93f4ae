"""A Python implementation of the Kompics component model.

Kompics (Arad, Dowling, Haridi — Middleware'12) structures distributed
protocols as event-driven *components* connected by *channels*.  Components
declare *ports* they provide or require; a port's type lists which event
classes travel in which direction (``indications`` flow out of the provider,
``requests`` flow into it).  Channels provide FIFO, exactly-once-per-receiver
delivery, and events are *broadcast* on all connected channels — components
subscribe handlers for the events they care about and silently ignore the
rest.

This package reproduces those semantics faithfully enough to host the
KompicsMessaging middleware of the paper: typed ports, broadcast channels
with selectors, a batching scheduler (driven either by the discrete-event
simulator or by a thread pool), component hierarchy with cascading
lifecycle, timers and hierarchical configuration.
"""

from repro.kompics.channel import Channel, ChannelSelector
from repro.kompics.component import Component, ComponentDefinition
from repro.kompics.event import (
    DeadLetter,
    Fault,
    Kill,
    KompicsEvent,
    Start,
    Stop,
)
from repro.kompics.port import Port, PortType
from repro.kompics.runtime import KompicsSystem
from repro.kompics.scheduler import Scheduler, SimScheduler, ThreadPoolScheduler
from repro.kompics.supervision import SupervisionPolicy, Supervisor
from repro.kompics.timer import (
    CancelPeriodicTimeout,
    CancelTimeout,
    SchedulePeriodicTimeout,
    ScheduleTimeout,
    SimTimerComponent,
    Timeout,
    Timer,
)
from repro.util.config import Config

__all__ = [
    "KompicsEvent",
    "Start",
    "Stop",
    "Kill",
    "Fault",
    "DeadLetter",
    "SupervisionPolicy",
    "Supervisor",
    "PortType",
    "Port",
    "Channel",
    "ChannelSelector",
    "Component",
    "ComponentDefinition",
    "KompicsSystem",
    "Scheduler",
    "SimScheduler",
    "ThreadPoolScheduler",
    "Config",
    "Timer",
    "Timeout",
    "ScheduleTimeout",
    "SchedulePeriodicTimeout",
    "CancelTimeout",
    "CancelPeriodicTimeout",
    "SimTimerComponent",
]
