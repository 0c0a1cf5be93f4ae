"""Per-layer tracing from outside the program.

Nothing under ``src/`` knows about this file.  Layers are observed by
wrapping calls into their public functions while a traced pass runs and
restoring the originals afterwards:

* the real-socket workloads get per-message lifecycle :class:`Span` s
  (generator stamps plus wrappers on ``SerializerRegistry.serialize`` /
  ``deserialize``), scheduler waits (``schedule_ready`` ->
  ``execute_batch``), ``send_frames`` time and per-thread CPU;
* the simulator workloads are single-threaded, so one ``cProfile`` pass
  is rolled up by ``src/repro/<package>/`` (:func:`roll_up`) and the
  call counts of a few named functions are read from the same profile.

End-to-end metrics are never taken from a traced pass.
"""

from __future__ import annotations

import contextlib
import os
import threading
from collections import namedtuple
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple
from unittest import mock

# ----------------------------------------------------------------------
# layers
# ----------------------------------------------------------------------

#: packages of ``src/repro`` that are layers of their own
LAYER_PACKAGES = ("sim", "kompics", "messaging", "core", "netsim", "aio", "apps")

_REPRO = os.sep + "repro" + os.sep
_PERF_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def layer_of(filename: str) -> Optional[str]:
    """The layer that owns ``filename``, or None for code charged to its caller.

    ``repro.bench`` drives the simulator workloads, so together with this
    directory it is the load generator.  Helper packages (``util``,
    ``stats``, ``obs``, ``check``), the standard library, third-party
    code and built-ins have no layer: their cost belongs to whoever
    called them.
    """
    if filename.startswith(_PERF_DIR):
        return "loadgen"
    at = filename.rfind(_REPRO)
    if at < 0:
        return None
    package = filename[at + len(_REPRO):].split(os.sep, 1)[0]
    if package in LAYER_PACKAGES:
        return package
    if package == "bench":
        return "loadgen"
    return None


# ----------------------------------------------------------------------
# spans and self time
# ----------------------------------------------------------------------

#: ``parent`` is an index into the same span list (None for a root);
#: ``msg`` is the message sequence number all spans of one message share
Span = namedtuple("Span", "name layer start end parent msg")


def self_times(spans: Sequence[Span]) -> List[float]:
    """Self time of every span: its duration minus what its children cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once, so a parent tiled by its children has a
    self time of zero and never a negative one.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            start = max(span.start, parent.start)
            end = min(span.end, parent.end)
            if end > start:
                children.setdefault(span.parent, []).append((start, end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        result.append((span.end - span.start) - covered)
    return result


#: the stages every delivered message crosses, with the layer each is in
MESSAGE_STAGES = (
    ("send_hop", "kompics"),
    ("serialize", "messaging"),
    ("wire", "aio"),
    ("deserialize", "messaging"),
    ("recv_hop", "kompics"),
)


def message_spans(seq: int, stamps: Sequence[float]) -> List[Span]:
    """The lifecycle of one message as a root span and five stage spans.

    ``stamps`` are the six boundary times: trigger, serialize start and
    end, deserialize start and end, receiving handler.
    """
    spans = [Span("deliver", "loadgen", stamps[0], stamps[5], None, seq)]
    for i, (name, layer) in enumerate(MESSAGE_STAGES):
        spans.append(Span(name, layer, stamps[i], stamps[i + 1], 0, seq))
    return spans


# ----------------------------------------------------------------------
# wrappers for the real-socket workloads
# ----------------------------------------------------------------------

class AioTrace:
    """Wrappers around the aio-side layers, installed for one traced pass.

    They patch class attributes, so they take effect on a live system
    (every call site looks the method up at call time) and are removed by
    :meth:`uninstall` without leaving a trace in the program.
    """

    def __init__(self, data_id: int) -> None:
        self.data_id = data_id
        self.serialize: Dict[int, Tuple[float, float]] = {}
        self.deserialize: Dict[int, Tuple[float, float]] = {}
        # Wrappers run on several threads at once, so they only append
        # (atomic under the interpreter lock) and never read-modify-write.
        self.sched_waits: List[float] = []
        self.batches: List[int] = []  # events handled per execute_batch
        self.send_frames: List[Tuple[float, int]] = []  # (seconds, frames)
        self.udt_connections: List[Any] = []
        self._patches = contextlib.ExitStack()

    def _patch(self, owner: Any, name: str, wrapper: Callable) -> None:
        self._patches.enter_context(mock.patch.object(owner, name, wrapper))

    def watch_connections(self) -> None:
        """Collect UDT-lite connections as they are made (set-up time only).

        Their counters are public attributes but the connections are not
        reachable from outside the network component, and they are made
        long before the traced window starts.
        """
        from repro.aio.udt import UdtLiteConnection

        udt_init = UdtLiteConnection.__init__
        connections = self.udt_connections

        def traced_udt_init(conn, *args, **kwargs):
            udt_init(conn, *args, **kwargs)
            connections.append(conn)

        self._patch(UdtLiteConnection, "__init__", traced_udt_init)

    def install(self) -> None:
        """Wrap the per-message paths; call when the traced window starts."""
        from repro.aio.tcp import TcpConnection
        from repro.aio.udt import UdtLiteConnection
        from repro.apps.filetransfer.chunks import DataChunkMsg
        from repro.kompics.component import ComponentCore
        from repro.kompics.scheduler import ThreadPoolScheduler
        from repro.messaging.serialization import SerializerRegistry

        trace = self
        data_id = self.data_id

        serialize = SerializerRegistry.serialize

        def traced_serialize(registry, obj):
            start = perf_counter()
            frame = serialize(registry, obj)
            end = perf_counter()
            if obj.__class__ is DataChunkMsg and obj.transfer_id == data_id:
                trace.serialize[obj.seq] = (start, end)
            return frame

        deserialize = SerializerRegistry.deserialize

        def traced_deserialize(registry, data):
            start = perf_counter()
            msg = deserialize(registry, data)
            end = perf_counter()
            if msg.__class__ is DataChunkMsg and msg.transfer_id == data_id:
                trace.deserialize[msg.seq] = (start, end)
            return msg

        schedule_ready = ThreadPoolScheduler.schedule_ready

        def traced_schedule_ready(scheduler, core):
            # One outstanding schedule per core (its _scheduled flag), so
            # one slot per core is enough.
            core.perf_ready_at = perf_counter()
            schedule_ready(scheduler, core)

        execute_batch = ComponentCore.execute_batch

        def traced_execute_batch(core):
            ready_at = core.__dict__.pop("perf_ready_at", None)
            if ready_at is not None:
                trace.sched_waits.append(perf_counter() - ready_at)
            before = core.events_handled
            execute_batch(core)
            trace.batches.append(core.events_handled - before)

        def traced_send_frames(original):
            async def send_frames(conn, frames):
                start = perf_counter()
                try:
                    await original(conn, frames)
                finally:
                    trace.send_frames.append((perf_counter() - start, len(frames)))
            return send_frames

        self._patch(SerializerRegistry, "serialize", traced_serialize)
        self._patch(SerializerRegistry, "deserialize", traced_deserialize)
        self._patch(ThreadPoolScheduler, "schedule_ready", traced_schedule_ready)
        self._patch(ComponentCore, "execute_batch", traced_execute_batch)
        self._patch(TcpConnection, "send_frames",
                    traced_send_frames(TcpConnection.send_frames))
        self._patch(UdtLiteConnection, "send_frames",
                    traced_send_frames(UdtLiteConnection.send_frames))

    def uninstall(self) -> None:
        self._patches.close()


def thread_cpu_seconds() -> Dict[str, float]:
    """CPU seconds (user + system) of every live thread, by thread name."""
    tick = os.sysconf("SC_CLK_TCK")
    result: Dict[str, float] = {}
    for thread in threading.enumerate():
        tid = thread.native_id
        if tid is None:
            continue
        try:
            with open(f"/proc/self/task/{tid}/stat") as handle:
                # comm may contain spaces; the fields after ")" are fixed
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the thread ended between enumerate() and open()
        result[thread.name] = (int(fields[11]) + int(fields[12])) / tick
    return result


# ----------------------------------------------------------------------
# profile roll-up for the simulator workloads
# ----------------------------------------------------------------------

FuncKey = Tuple[str, int, str]


def roll_up(stats: Dict[FuncKey, tuple]) -> Dict[str, Tuple[float, float]]:
    """Roll a ``pstats`` table up into ``{layer: (calls, self seconds)}``.

    ``stats`` is ``pstats.Stats(...).stats``: per function its call
    count, self time and, per caller, the calls and self time spent on
    that caller's behalf.  A function in a layer's package is charged to
    that layer.  Any other function - a built-in, the standard library,
    networkx, a helper package - is charged edge by edge to the layer of
    whoever called it; where the caller has no layer either, the charge
    is passed up in proportion to the *call counts* of the caller's own
    callers.  Call counts are exact, so the calls rolled up for a
    deterministic program repeat exactly; times do not.
    """
    memo: Dict[FuncKey, Dict[str, float]] = {}

    def owners(func: FuncKey, visiting: frozenset) -> Dict[str, float]:
        """Which layers ``func``'s cost belongs to, as weights summing to 1."""
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        known = memo.get(func)
        if known is not None:
            return known
        callers = stats[func][4] if func in stats else {}
        # Edges back into the chain being resolved are cut: a cycle of
        # layerless functions belongs to whoever entered it.
        edges = [(caller, edge[0]) for caller, edge in sorted(callers.items())
                 if caller != func and caller not in visiting]
        total = sum(calls for _, calls in edges)
        shares: Dict[str, float] = {}
        if not total:
            shares["loadgen"] = 1.0  # the profiled entry point
        inner = visiting | {func}
        for caller, calls in edges:
            for name, weight in owners(caller, inner).items():
                shares[name] = shares.get(name, 0.0) + weight * calls / total
        memo[func] = shares
        return shares

    calls: Dict[str, float] = {}
    seconds: Dict[str, float] = {}

    def charge(shares: Dict[str, float], ncalls: float, tottime: float) -> None:
        for name, weight in shares.items():
            calls[name] = calls.get(name, 0.0) + weight * ncalls
            seconds[name] = seconds.get(name, 0.0) + weight * tottime

    for func in sorted(stats):
        _cc, ncalls, tottime, _ct, callers = stats[func]
        layer = layer_of(func[0])
        if layer is not None:
            charge({layer: 1.0}, ncalls, tottime)
        elif not callers:
            charge({"loadgen": 1.0}, ncalls, tottime)
        else:
            for caller, edge in sorted(callers.items()):
                charge(owners(caller, frozenset((func,))), edge[0], edge[2])
    return {name: (calls[name], seconds[name]) for name in calls}


def calls_of(stats: Dict[FuncKey, tuple], module: str, names: Iterable[str]) -> int:
    """Total calls of the functions called ``names`` in ``repro/<module>``."""
    suffix = _REPRO + module.replace("/", os.sep)
    wanted = set(names)
    return sum(entry[1] for func, entry in stats.items()
               if func[0].endswith(suffix) and func[2] in wanted)


def cumulative_of(stats: Dict[FuncKey, tuple], module: str, name: str) -> float:
    """Cumulative seconds of one function of ``repro/<module>``."""
    suffix = _REPRO + module.replace("/", os.sep)
    return sum(entry[3] for func, entry in stats.items()
               if func[0].endswith(suffix) and func[2] == name)
