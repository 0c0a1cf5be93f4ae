"""Hosts and their network stacks (listen / connect / deliver)."""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.errors import NetworkError
from repro.netsim.connection import Connection, ConnectionState, FlowState, WireMessage
from repro.netsim.disk import DiskModel
from repro.netsim.link import Proto

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.fabric import SimNetwork

Endpoint = Tuple[str, int]

EPHEMERAL_BASE = 49152
#: bytes a UDP socket queues before sends fail (dropped at the sender)
UDP_SOCKET_BUFFER = 2 * 1024 * 1024


class Listener:
    """A bound (port, protocol) acceptor.

    For TCP/UDT, ``on_accept(conn)`` fires per inbound connection; for UDP,
    ``on_datagram(payload, size, src)`` fires per datagram.
    """

    __slots__ = ("port", "proto", "on_accept", "on_datagram", "closed", "cc")

    def __init__(
        self,
        port: int,
        proto: Proto,
        on_accept: Optional[Callable[[Connection], None]] = None,
        on_datagram: Optional[Callable[[Any, int, Endpoint], None]] = None,
        cc: Optional[str] = None,
    ) -> None:
        if proto is Proto.UDP and on_datagram is None:
            raise NetworkError("UDP listener needs an on_datagram callback")
        if proto is not Proto.UDP and on_accept is None:
            raise NetworkError(f"{proto.value} listener needs an on_accept callback")
        self.port = port
        self.proto = proto
        self.on_accept = on_accept
        self.on_datagram = on_datagram
        self.closed = False
        # Congestion-control policy applied to the *server-side* connections
        # this listener accepts; None keeps the per-protocol default.
        self.cc = cc


class NetworkStack:
    """Per-host transport endpoint: listeners plus outbound connections."""

    def __init__(self, host: "SimHost") -> None:
        self.host = host
        self.network: "SimNetwork" = host.network
        self.sim = host.network.sim
        self._listeners: Dict[Tuple[int, Proto], Listener] = {}
        self._next_ephemeral = EPHEMERAL_BASE
        self.connections: List[Connection] = []

    @property
    def ip(self) -> str:
        return self.host.ip

    # ------------------------------------------------------------------
    # listeners
    # ------------------------------------------------------------------
    def listen(
        self,
        port: int,
        proto: Proto,
        on_accept: Optional[Callable[[Connection], None]] = None,
        on_datagram: Optional[Callable[[Any, int, Endpoint], None]] = None,
        cc: Optional[str] = None,
    ) -> Listener:
        key = (port, proto)
        if key in self._listeners:
            raise NetworkError(f"port {port}/{proto.value} already bound on {self.ip}")
        listener = Listener(port, proto, on_accept, on_datagram, cc=cc)
        self._listeners[key] = listener
        return listener

    def unlisten(self, listener: Listener) -> None:
        listener.closed = True
        self._listeners.pop((listener.port, listener.proto), None)

    def _listener_for(self, port: int, proto: Proto) -> Optional[Listener]:
        return self._listeners.get((port, proto))

    # ------------------------------------------------------------------
    # outbound connections
    # ------------------------------------------------------------------
    def _ephemeral_port(self) -> int:
        port = self._next_ephemeral
        self._next_ephemeral += 1
        return port

    def connect(
        self,
        remote: Endpoint,
        proto: Proto,
        on_connected: Optional[Callable[[Connection], None]] = None,
        on_failed: Optional[Callable[[Connection, str], None]] = None,
        local_port: Optional[int] = None,
        hello: Any = None,
        cc: Optional[str] = None,
    ) -> Connection:
        """Open a connection to ``remote``; TCP/UDT handshake takes one RTT.

        ``hello`` is an opaque payload carried with the handshake and
        exposed to the acceptor as ``conn.peer_hello``.  ``cc`` picks the
        congestion-control policy by its ``CC_POLICIES`` name; None keeps the
        per-protocol default.
        """
        remote_ip, remote_port = remote
        out_dir = self.network.path(self.ip, remote_ip)
        back_dir = self.network.path(remote_ip, self.ip)
        rtt = out_dir.spec.delay + back_dir.spec.delay
        local: Endpoint = (self.ip, local_port if local_port is not None else self._ephemeral_port())

        conn = self._build_connection(local, remote, proto, out_dir, rtt, cc=cc)
        conn.on_connected = on_connected
        conn.on_failed = on_failed
        conn.hello = hello
        self.connections.append(conn)

        if proto is Proto.UDP:
            # Connectionless: usable immediately, datagrams dispatched by port.
            conn._activate()
            return conn

        if not out_dir.up or not back_dir.up:
            self.sim.schedule(
                self.network.connect_timeout, lambda: conn._fail("link down"), label="conn-fail"
            )
            return conn

        remote_stack = self.network.stack_for(remote_ip)

        def syn_arrives() -> None:
            listener = remote_stack._listener_for(remote_port, proto)
            if listener is None or listener.closed:
                self.sim.schedule(back_dir.spec.delay, lambda: conn._fail("connection refused"))
                return
            server = remote_stack._accept(conn, listener)
            self.sim.schedule(back_dir.spec.delay, conn._activate, label="conn-established")

        self.sim.schedule(out_dir.spec.delay, syn_arrives, label="conn-syn")
        return conn

    def _accept(self, client: Connection, listener: Listener) -> Connection:
        """Create the server-side connection for an inbound handshake."""
        out_dir = self.network.path(self.ip, client.local[0])
        back_dir = self.network.path(client.local[0], self.ip)
        rtt = out_dir.spec.delay + back_dir.spec.delay
        local: Endpoint = (self.ip, listener.port)
        server = self._build_connection(
            local, client.local, client.proto, out_dir, rtt, cc=listener.cc
        )
        self.connections.append(server)
        server.peer = client
        client.peer = server
        server.peer_hello = client.hello
        server.state = ConnectionState.ACTIVE
        if listener.on_accept is not None:
            listener.on_accept(server)
        return server

    def _build_connection(
        self,
        local: Endpoint,
        remote: Endpoint,
        proto: Proto,
        out_dir,
        rtt: float,
        cc: Optional[str] = None,
    ) -> Connection:
        cc = self.network.make_congestion_control(proto, rtt, out_dir, cc=cc)
        conn_id = self.network.ids.next("connection")
        queue_limit = UDP_SOCKET_BUFFER if proto is Proto.UDP else float("inf")

        conn_box: List[Connection] = []

        def deliver(msg: WireMessage) -> None:
            conn = conn_box[0]
            if conn.proto is Proto.UDP:
                remote_stack = self.network.stack_for(conn.remote[0])
                remote_stack._deliver_udp(conn.remote[1], msg, conn.local)
            elif conn.peer is not None:
                conn.peer._receive(msg)

        flow = FlowState(
            sim=self.sim,
            link_dir=out_dir,
            cc=cc,
            # Seeded from its label alone, so making it late draws the same.
            rng_source=partial(self.network.rngs.get, f"link.{out_dir.name}.loss"),
            deliver=deliver,
            queue_limit_bytes=queue_limit,
        )
        conn = Connection(self, local, remote, proto, flow, conn_id)
        conn_box.append(conn)

        metrics = self.network.metrics
        metrics.counter("netsim.connections_total", proto=proto.value).inc()
        self.network.tracer.event(
            "netsim.connection_open", conn=conn_id, proto=proto.value,
            local=f"{local[0]}:{local[1]}", remote=f"{remote[0]}:{remote[1]}",
        )
        if metrics.enabled:
            # Sampled only at snapshot time: congestion window and pacing
            # rate per connection, via the side-effect-free cc accessors.
            labels = {"conn": str(conn_id), "proto": proto.value, "host": self.ip}
            metrics.gauge("netsim.cc.window_bytes", **labels).set_function(cc.window_bytes)
            metrics.gauge("netsim.cc.rate", **labels).set_function(cc.current_rate)
            metrics.gauge("netsim.cc.queued_bytes", **labels).set_function(
                lambda: flow.queued_bytes
            )
        return conn

    # ------------------------------------------------------------------
    # UDP dispatch
    # ------------------------------------------------------------------
    def _deliver_udp(self, port: int, msg: WireMessage, src: Endpoint) -> None:
        listener = self._listener_for(port, Proto.UDP)
        if listener is None or listener.closed:
            return  # silently dropped, as real UDP would be
        assert listener.on_datagram is not None
        listener.on_datagram(msg.payload, msg.size, src)


class SimHost:
    """A simulated machine: one IP, one network stack, one disk."""

    def __init__(self, network: "SimNetwork", name: str, ip: str, disk: Optional[DiskModel] = None) -> None:
        self.network = network
        self.name = name
        self.ip = ip
        self.stack = NetworkStack(self)
        self.disk = disk if disk is not None else DiskModel(network.sim)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimHost({self.name!r}, {self.ip})"
