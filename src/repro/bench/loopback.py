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

A new real-socket driver starts from :func:`loopback_pair`, the
real-socket twin of :class:`~repro.bench.scenario.TestbedPair`: both
networks are up and ready inside the ``with`` block and shut down after
it, and ``pair.stream(...)`` is the same workload the simulator runs.
"""

from __future__ import annotations

import socket
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.aio import AioDataNetwork, AioNetwork
from repro.apps import SyntheticDataset
from repro.bench.harness import default_transfer_learner, run_transfer_once
from repro.bench.report import campaign_document, failed, format_table
from repro.bench.scenario import EndpointHandle, Pair, app_registry, setup_by_name
from repro.kompics.runtime import KompicsSystem
from repro.messaging.address import BasicAddress
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


@contextmanager
def loopback_pair(
    transport: Optional[Transport] = None,
    seed: int = 0,
    config: Optional[Dict[str, object]] = None,
    **interceptor_args: Any,
) -> Iterator[Pair]:
    """Two middleware instances on real loopback sockets, shut down on exit.

    The sending side is an ``AioDataNetwork`` (default transfer learner,
    wall-clock episodes, ``interceptor_args``) when ``transport`` is
    DATA, a plain ``AioNetwork`` otherwise.  Both networks are started
    and ``wait_ready`` has returned before the block runs — it raises
    ``AioStartupError`` with the bind failure attached instead of letting
    the first send dial a port that is not there.
    """
    system = KompicsSystem.threaded(workers=4, config=config, seed=seed)
    try:
        snd = EndpointHandle(BasicAddress(HOST, _free_port()))
        rcv = EndpointHandle(BasicAddress(HOST, _free_port()))
        if transport is Transport.DATA:
            snd.network = system.create(
                AioDataNetwork, snd.address, prp_factory=default_transfer_learner(seed),
                serializers=app_registry(), **interceptor_args,
            )
        else:
            snd.network = system.create(AioNetwork, snd.address, serializers=app_registry())
        rcv.network = system.create(AioNetwork, rcv.address, serializers=app_registry())
        pair = Pair(system, snd, rcv)
        pair.start(snd.network, rcv.network)
        for endpoint in (snd, rcv):
            endpoint.network.definition.network_def.wait_ready(10.0)
        yield pair
    finally:
        system.shutdown()


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
    dataset = SyntheticDataset(size=size, chunk_size=chunk, seed=seed)
    with loopback_pair(
        transport, seed, episode_length=episode_length, window_messages=window_messages,
    ) as pair:
        source, sink = pair.stream(dataset, transport, window)
        pair.start(sink, source)

        snd_def = source.definition
        rcv_def = sink.definition
        started = pair.system.clock.now()
        if not snd_def.done.wait(timeout=timeout):
            raise RuntimeError(
                f"loopback {transport.value} sender stalled: "
                f"{snd_def.ok} ok / {snd_def.failed} failed / "
                f"{snd_def.outstanding} in flight of {dataset.total_chunks}"
            )
        rcv_def.complete.wait(
            timeout=max(0.0, started + timeout - pair.system.clock.now())
        )

        aio_net = pair.sender.network.definition.network_def
        return LoopbackRun(
            transport=transport.value,
            bytes=rcv_def.bytes,
            chunks=dataset.total_chunks,
            duration=snd_def.finished_at - snd_def.started_at,
            delivered=rcv_def.delivered,
            notifies_ok=snd_def.ok,
            notifies_failed=snd_def.failed,
            leaked_notifies=snd_def.leaked,
            send_failures=aio_net.counters["send_failures"],
            batches=aio_net.counters["batches"],
            protocols=dict(rcv_def.protocols),
        )


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
        """Human-readable sim-vs-real table."""
        rows = []
        for run in self.runs:
            sim_rate = self.sim_throughput.get(run.transport)
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
            title=f"Loopback sim-vs-real, {self.size // MB} MB "
                  f"(seed {self.seed})",
        )

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
