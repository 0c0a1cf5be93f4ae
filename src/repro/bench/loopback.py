"""Sim-predicted vs. real-socket loopback benchmark (``repro loopback``).

Everything else in :mod:`repro.bench` runs on the simulated testbed; this
driver runs the *same shape of workload* — a chunked dataset transfer in
the paper's Figure 9 style — over :mod:`repro.aio` on genuine loopback
sockets, side by side with the netsim prediction for the Local setup.

The real leg exercises the full middleware stack: serialization through
the app registry, MessageNotify accounting, and (for the DATA
pseudo-protocol) the adaptive interceptor with Sarsa(lambda) transport
selection over :class:`~repro.aio.data_network.AioDataNetwork`.  Each run
reports strict bookkeeping — chunks delivered, notifies resolved,
notifies leaked, network send failures — so CI can assert zero-loss,
zero-leak completion, not just "it didn't crash".

Sim and real numbers are *not* expected to match: the simulation models a
c3.2xlarge pair (disk-bound at 120 MB/s on Local), while the real leg
measures this host's loopback through a pure-Python stack.  The point of
the table is the methodology — one workload, two backends, compared
figure-style — and the regression signal of the real column.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.apps import SyntheticDataset, register_app_serializers
from repro.apps.filetransfer.chunks import DataChunkMsg, next_transfer_id
from repro.bench.report import campaign_document, failed, format_table
from repro.kompics.component import ComponentDefinition
from repro.kompics.runtime import KompicsSystem
from repro.messaging.address import Address, BasicAddress
from repro.messaging.message import BasicHeader, DataHeader, Msg
from repro.messaging.network_port import MessageNotify, Network
from repro.messaging.serialization import SerializerRegistry
from repro.messaging.transport import Transport

MB = 1024 * 1024
HOST = "127.0.0.1"

#: payload bytes per chunk — leaves header room inside the 65 kB buffer
LOOPBACK_CHUNK = 60_000

#: transports the comparison covers by default; UDP is excluded because
#: the workload asserts complete delivery and plain UDP may drop
DEFAULT_TRANSPORTS: Tuple[Transport, ...] = (Transport.TCP, Transport.UDT, Transport.DATA)


def _free_port() -> int:
    with socket.socket() as s:
        s.bind((HOST, 0))
        return s.getsockname()[1]


def _registry() -> SerializerRegistry:
    return register_app_serializers(SerializerRegistry())


class _LoopbackSender(ComponentDefinition):
    """Notify-clocked sliding-window chunk source.

    Keeps at most ``window`` chunks in flight, each wrapped in a
    ``MessageNotify.Req``; a response (success or failure) frees a slot.
    Strict accounting: every request must come back exactly once, so
    ``requested - ok - failed`` is the leak count at any quiescent point.
    """

    def __init__(
        self,
        self_address: Address,
        destination: Address,
        dataset: SyntheticDataset,
        transport: Transport,
        window: int = 32,
    ) -> None:
        super().__init__()
        self.net = self.requires(Network)
        self.self_address = self_address
        self.destination = destination
        self.dataset = dataset
        self.transport = transport
        self.window = window
        self.transfer_id = next_transfer_id()
        self._pending = deque(range(dataset.total_chunks))
        self._in_flight: Dict[int, int] = {}  # notify_id -> chunk index
        self.requested = 0
        self.ok = 0
        self.failed = 0
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.done = threading.Event()
        #: optional hook called with ``ok + failed`` after each resolved
        #: notify, *before* the window refills — the chaos campaign uses
        #: it to kill the network at an exact mid-transfer point.
        self.on_progress: Optional[Any] = None
        self.subscribe(self.net, MessageNotify.Resp, self._on_resp)

    def on_start(self) -> None:
        self.started_at = time.monotonic()
        self._pump()

    def _header(self) -> BasicHeader:
        if self.transport is Transport.DATA:
            return DataHeader(self.self_address, self.destination)
        return BasicHeader(self.self_address, self.destination, self.transport)

    def _pump(self) -> None:
        while self._pending and len(self._in_flight) < self.window:
            index = self._pending.popleft()
            msg = DataChunkMsg(
                self._header(),
                transfer_id=self.transfer_id,
                seq=index,
                length=self.dataset.chunk_length(index),
                total_chunks=self.dataset.total_chunks,
                total_bytes=self.dataset.size,
                payload=self.dataset.chunk_bytes(index),
            )
            req = MessageNotify.Req(msg)
            self._in_flight[req.notify_id] = index
            self.requested += 1
            self.trigger(req, self.net)

    def _on_resp(self, resp: MessageNotify.Resp) -> None:
        if self._in_flight.pop(resp.notify_id, None) is None:
            return
        if resp.success:
            self.ok += 1
        else:
            self.failed += 1
        if self.on_progress is not None:
            self.on_progress(self.ok + self.failed)
        if not self._pending and not self._in_flight:
            self.finished_at = time.monotonic()
            self.done.set()
        else:
            self._pump()

    @property
    def leaked(self) -> int:
        return self.requested - self.ok - self.failed


class _ChunkReceiver(ComponentDefinition):
    """Counts chunk deliveries per sequence number and per wire protocol.

    ``delivered`` is every delivery, ``delivered_unique`` distinct chunks
    and ``duplicates`` the difference — the number that must stay zero
    when at-least-once redelivery replays a crashed sender's frames
    through the receiver network's dedup window.
    """

    def __init__(self, expected_chunks: int) -> None:
        super().__init__()
        self.net = self.requires(Network)
        self.expected = expected_chunks
        self.seen: Dict[int, int] = {}
        self.delivered = 0
        self.bytes = 0
        self.protocols: Dict[str, int] = {}
        #: set once every expected chunk arrived at least once
        self.complete = threading.Event()
        self.subscribe(self.net, Msg, self._on_msg)

    def _on_msg(self, msg: Msg) -> None:
        if not isinstance(msg, DataChunkMsg):
            return
        self.delivered += 1
        self.bytes += msg.length
        self.seen[msg.seq] = self.seen.get(msg.seq, 0) + 1
        proto = msg.header.protocol.value
        self.protocols[proto] = self.protocols.get(proto, 0) + 1
        if len(self.seen) >= self.expected:
            self.complete.set()

    @property
    def delivered_unique(self) -> int:
        return len(self.seen)

    @property
    def duplicates(self) -> int:
        return self.delivered - len(self.seen)


@dataclass(frozen=True)
class LoopbackRun:
    """One real-socket transfer plus its bookkeeping."""

    transport: str
    bytes: int
    chunks: int
    duration: float
    delivered: int
    notifies_ok: int
    notifies_failed: int
    leaked_notifies: int
    send_failures: int
    batches: int
    protocols: Dict[str, int] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        return self.bytes / self.duration if self.duration > 0 else 0.0

    def problems(self) -> List[str]:
        """Why this transfer is not loss-free and leak-free (empty = it is)."""
        return failed(
            (self.delivered == self.chunks,
             f"delivered={self.delivered} of {self.chunks} chunks"),
            (self.notifies_ok == self.chunks,
             f"notifies_ok={self.notifies_ok} of {self.chunks} chunks"),
            (self.notifies_failed == 0, f"notifies_failed={self.notifies_failed}"),
            (self.leaked_notifies == 0,
             f"leaked_notifies={self.leaked_notifies}: notifies never resolved (leak)"),
            (self.throughput > 0, f"throughput={self.throughput}: zero throughput"),
            (self.transport != "data" or bool(self.protocols),
             "protocols={}: the data run recorded no wire protocols"),
            ("data" not in self.protocols, f"protocols={self.protocols}: DATA "
             f"pseudo-protocol reached the wire unstamped"),
        )

    @property
    def complete(self) -> bool:
        return not self.problems()


def run_loopback_once(
    transport: Transport,
    size: int = 4 * MB,
    seed: int = 0,
    chunk: int = LOOPBACK_CHUNK,
    window: int = 32,
    episode_length: float = 0.25,
    window_messages: int = 16,
    timeout: float = 120.0,
) -> LoopbackRun:
    """One chunked transfer over real loopback sockets.

    For wire protocols the sender talks straight to an ``AioNetwork``;
    for ``Transport.DATA`` it goes through ``AioDataNetwork`` — the
    interceptor, learner and wall-clock episode timer included — so the
    paper's transport-selection loop runs against the OS network stack.
    """
    from repro.aio import AioDataNetwork, AioNetwork
    from repro.bench.harness import default_transfer_learner

    system = KompicsSystem.threaded(workers=4)
    addr_snd = BasicAddress(HOST, _free_port())
    addr_rcv = BasicAddress(HOST, _free_port())
    dataset = SyntheticDataset(size=size, chunk_size=chunk, seed=seed)
    use_data = transport is Transport.DATA

    try:
        if use_data:
            net_snd = system.create(
                AioDataNetwork,
                addr_snd,
                prp_factory=default_transfer_learner(seed),
                episode_length=episode_length,
                window_messages=window_messages,
                serializers=_registry(),
            )
        else:
            net_snd = system.create(AioNetwork, addr_snd, serializers=_registry())
        net_rcv = system.create(AioNetwork, addr_rcv, serializers=_registry())

        sender = system.create(_LoopbackSender, addr_snd, addr_rcv, dataset, transport, window)
        receiver = system.create(_ChunkReceiver, dataset.total_chunks)
        if use_data:
            net_snd.definition.connect_consumer(sender.required(Network))
        else:
            system.connect(net_snd.provided(Network), sender.required(Network))
        system.connect(net_rcv.provided(Network), receiver.required(Network))

        system.start(net_snd)
        system.start(net_rcv)
        system.start(receiver)
        # Start events are asynchronous: both listener sets must be bound
        # before the first chunk goes out, or the opening batch dials a
        # port that does not exist yet.
        # wait_ready raises AioStartupError (with the bind failure as
        # __cause__) if either network did not come up.
        aio_snd = net_snd.definition.network_def if use_data else net_snd.definition
        aio_snd.wait_ready(10.0)
        net_rcv.definition.wait_ready(10.0)
        system.start(sender)

        deadline = time.monotonic() + timeout
        snd_def = sender.definition
        rcv_def = receiver.definition
        if not snd_def.done.wait(timeout=timeout):
            raise RuntimeError(
                f"loopback {transport.value} sender stalled: "
                f"{snd_def.ok} ok / {snd_def.failed} failed / "
                f"{len(snd_def._in_flight)} in flight of {dataset.total_chunks}"
            )
        rcv_def.complete.wait(timeout=max(0.0, deadline - time.monotonic()))

        aio_net = net_snd.definition.network_def if use_data else net_snd.definition
        duration = (snd_def.finished_at or time.monotonic()) - (snd_def.started_at or 0.0)
        return LoopbackRun(
            transport=transport.value,
            bytes=rcv_def.bytes,
            chunks=dataset.total_chunks,
            duration=duration,
            delivered=rcv_def.delivered,
            notifies_ok=snd_def.ok,
            notifies_failed=snd_def.failed,
            leaked_notifies=snd_def.leaked,
            send_failures=aio_net.counters["send_failures"],
            batches=aio_net.counters["batches"],
            protocols=dict(rcv_def.protocols),
        )
    finally:
        system.shutdown()


@dataclass(frozen=True)
class LoopbackComparison:
    """Per-transport sim-predicted vs. real-measured figures."""

    size: int
    seed: int
    runs: Tuple[LoopbackRun, ...]
    sim_throughput: Dict[str, float]  # transport -> bytes/s (netsim Local)

    kind = "loopback-comparison"

    def problems(self) -> List[str]:
        if not self.runs:
            return ["runs=(): the comparison ran no transport"]
        return [f"{run.transport}: {p}" for run in self.runs for p in run.problems()]

    def summary(self) -> str:
        return format_comparison(self)

    def to_document(self) -> Dict[str, Any]:
        document = campaign_document(self)
        sim = document.pop("sim_throughput")
        document["runs"] = [
            dict(asdict(run), throughput=run.throughput,
                 complete=run.complete, sim_throughput=sim.get(run.transport))
            for run in self.runs
        ]
        return document


def run_loopback_comparison(
    transports: Iterable[Transport] = DEFAULT_TRANSPORTS,
    size: int = 2 * MB,
    seed: int = 0,
    sim: bool = True,
    timeout: float = 120.0,
    **run_kwargs: Any,
) -> LoopbackComparison:
    """The fig9-style table: each transport simulated, then run for real."""
    from repro.bench.harness import run_transfer_once
    from repro.bench.scenario import setup_by_name

    transports = tuple(transports)
    sim_throughput: Dict[str, float] = {}
    if sim:
        local = setup_by_name("Local")
        for transport in transports:
            result = run_transfer_once(local, transport, size, seed=seed)
            sim_throughput[transport.value] = result.throughput

    runs: List[LoopbackRun] = []
    for transport in transports:
        runs.append(
            run_loopback_once(transport, size=size, seed=seed, timeout=timeout, **run_kwargs)
        )
    return LoopbackComparison(
        size=size, seed=seed, runs=tuple(runs), sim_throughput=sim_throughput
    )


def format_comparison(comparison: LoopbackComparison) -> str:
    """Human-readable sim-vs-real table."""
    rows = []
    for run in comparison.runs:
        sim_rate = comparison.sim_throughput.get(run.transport)
        rows.append((
            run.transport,
            f"{sim_rate / MB:8.2f}" if sim_rate is not None else "      - ",
            f"{run.throughput / MB:8.2f}",
            f"{run.delivered}/{run.chunks}",
            f"{run.notifies_failed}+{run.leaked_notifies}",
            f"{run.batches}",
            ",".join(f"{k}:{v}" for k, v in sorted(run.protocols.items())) or "-",
        ))
    return format_table(
        ("transport", "sim MB/s", "real MB/s", "delivered", "failed+leaked",
         "batches", "wire protocols"),
        rows,
        title=f"Loopback sim-vs-real, {comparison.size // MB} MB "
              f"(seed {comparison.seed})",
    )
