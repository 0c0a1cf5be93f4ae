"""AioNetwork: the network component on real sockets.

The port contract — transport choice, ``MessageNotify``, reflection,
``TransportStatus``, instruments — is
:class:`~repro.messaging.network_component.NetworkComponent`'s.  What is
socket-specific lives here, on an asyncio event loop running in a
dedicated thread (for use with ``KompicsSystem.threaded()``):

* **Bytes**: the component thread serializes and prefixes every frame
  with ``EPOCH_HEADER`` (network epoch, per-channel sequence), then hands
  it to the loop thread.
* **Frame batching**: a per-(remote, transport) drainer task coalesces
  whatever has accumulated into one ``send_frames`` call (one gathered
  ``sendmsg`` per batch on TCP, one pacing-loop wakeup on UDT-lite).
  The drainer is its key's only dialler, so the channel map holds plain
  connections, dialled or accepted (keyed by the dialler's hello).
* **Channel recovery**: a failed dial is retried ``REDIAL_ATTEMPTS``
  times on the capped-exponential schedule of
  :class:`~repro.messaging.recovery.ReconnectPolicy`
  (``messaging.reconnect.*`` keys), so redial storms after a peer crash
  back off instead of thundering; ``DOWN_AFTER`` consecutive failed sends
  publish ``TransportStatus.Down``, the next success ``Up``.
* **Network epochs & crash-recovery**: every (re)start draws a fresh,
  process-monotonic *epoch*; receivers suppress duplicate ``(epoch,
  seq)`` pairs through a bounded per-peer window.  Under supervision
  RESTART the old instance tears down leak-free and — with
  ``messaging.aio.redelivery = at-least-once`` — stashes its queued and
  in-flight sends on the surviving core for the successor to replay; the
  epoch fence plus the dedup window make the resend safe even when part
  of the old batch already reached the wire.  The default
  ``at-most-once`` fails pending sends across the restart, like a kill.
  With :mod:`repro.check` enabled the ``aio.epoch`` and ``aio.nodup``
  invariants verify this path.
* **Hostile input**: a frame that does not decode is counted
  (``decode_failures``) and dropped; it never raises out of the loop.  A
  serializer registry that allows the pickle fallback is refused, so no
  peer's bytes ever reach ``pickle.loads``.
"""

from __future__ import annotations

import asyncio
import itertools
import struct
import threading
from collections import OrderedDict, deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Set, Tuple

from repro.aio.tcp import TcpTransport
from repro.aio.transport import AioConnection, AioListener, AioTransport, Endpoint
from repro.aio.udp import UdpEndpoint
from repro.aio.udt import UdtLiteTransport
from repro.check import get_checker
from repro.errors import AioStartupError, TransportError
from repro.messaging.address import Address
from repro.messaging.message import Msg
from repro.messaging.network_component import NetworkComponent, Route
from repro.messaging.recovery import ReconnectPolicy
from repro.messaging.serialization import SerializerRegistry, pack_address, unpack_address
from repro.messaging.transport import Transport
from repro.obs import get_registry

DEFAULT_PROTOCOLS = (Transport.TCP, Transport.UDP, Transport.UDT)

#: (frame bytes, notify id of a tracked send or None) queued towards one channel
_QueuedSend = Tuple[bytes, Optional[int]]
#: (remote socket, transport): one channel, one send queue, one sequence
_Key = Tuple[Endpoint, Transport]

#: wire prefix on every aio frame: (network epoch, per-channel sequence)
EPOCH_HEADER = struct.Struct(">II")
#: extra dial attempts after a channel-establishment failure
REDIAL_ATTEMPTS = 1
#: consecutive failed sends on one channel before TransportStatus.Down
DOWN_AFTER = 3
#: per-peer (epoch, seq) delivery-window size for duplicate suppression
DEDUP_WINDOW = 4096
#: delivery windows kept at once (as UDT-lite's ``MAX_CONNECTIONS``); past
#: it the least recently used one goes, so spoofed UDP sources cannot grow
#: the table
MAX_DEDUP_WINDOWS = 1024
#: UDT-lite binds (and dials) the instance port + this: real UDT multiplexes
#: over a UDP socket, so it cannot share the port with the plain-UDP
#: listener (the simulated stack keys listeners by (port, protocol))
UDT_PORT_OFFSET = 1
#: at-least-once only: bound (s) on waiting for transport-level ACKs
#: before a batch may be reported sent
ACK_TIMEOUT = 30.0

#: redelivery knob values for ``messaging.aio.redelivery``
AT_MOST_ONCE = "at-most-once"
AT_LEAST_ONCE = "at-least-once"

#: process-monotonic epoch source: every AioNetwork (re)start draws the
#: next value, so a supervised restart is guaranteed a strictly larger
#: epoch than its predecessor without persisting anything.
_epoch_counter = itertools.count(1)


def next_network_epoch() -> int:
    """Allocate the next network epoch (monotonic per process)."""
    return next(_epoch_counter)


def _stream(key: _Key) -> str:  # a channel's name in traces and checker events
    return f"{key[0][0]}:{key[0][1]}/{key[1].value}"


class _DedupWindow:
    """Bounded set of ``(epoch, seq)`` pairs seen from one peer.

    Admission is exact while a pair is inside the window; once more than
    ``limit`` newer pairs arrived the oldest entries are forgotten, which
    bounds memory under long-lived flows.  A re-sent frame therefore has
    to be delayed by more than ``limit`` fresher frames to slip through —
    far beyond what a crash-restart resend can produce.
    """

    __slots__ = ("limit", "_seen", "_order")

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self._seen: Set[Tuple[int, int]] = set()
        self._order: Deque[Tuple[int, int]] = deque()

    def admit(self, epoch: int, seq: int) -> bool:
        """True if this (epoch, seq) was not seen before (and record it)."""
        key = (epoch, seq)
        if key in self._seen:
            return False
        self._seen.add(key)
        self._order.append(key)
        if len(self._order) > self.limit:
            self._seen.discard(self._order.popleft())
        return True


class AioNetwork(NetworkComponent):
    """Network component over real asyncio transports."""

    def __init__(
        self,
        self_address: Address,
        protocols: Iterable[Transport] = DEFAULT_PROTOCOLS,
        serializers: Optional[SerializerRegistry] = None,
        bind_ip: Optional[str] = None,
    ) -> None:
        super().__init__(self_address, protocols, serializers)
        if self.serializers.allow_pickle_fallback:
            raise TransportError(
                "AioNetwork decodes bytes from any peer: its serializer "
                "registry must not allow the pickle fallback"
            )
        self.bind_ip = bind_ip if bind_ip is not None else self_address.ip
        #: what happens to queued/in-flight sends across a supervised restart
        self.redelivery = self.config.get_str("messaging.aio.redelivery", AT_MOST_ONCE)
        if self.redelivery not in (AT_MOST_ONCE, AT_LEAST_ONCE):
            raise TransportError(
                f"messaging.aio.redelivery must be {AT_MOST_ONCE!r} or "
                f"{AT_LEAST_ONCE!r}, not {self.redelivery!r}"
            )
        #: capped-exponential backoff between redials (shared with the
        #: simulated NettyNetwork's reconnect campaigns)
        self.reconnect_policy = ReconnectPolicy.from_config(self.config)
        self._backoff_rng = self.rng("aio-backoff")
        self._hello = pack_address(self_address)
        #: this instance's network epoch, stamped into every outgoing frame
        self.epoch = next_network_epoch()

        self._tcp = TcpTransport()
        self._udt = UdtLiteTransport()
        self._udp: Optional[UdpEndpoint] = None
        #: per-transport (driver, port offset) for the dial and listen paths
        self._drivers: Dict[Transport, Tuple[AioTransport, int]] = {
            Transport.TCP: (self._tcp, 0),
            Transport.UDT: (self._udt, UDT_PORT_OFFSET),
        }

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._listeners: list[AioListener] = []
        #: channel -> its connection (only the key's drainer dials it)
        self._channels: Dict[_Key, AioConnection] = {}
        self._watch_channels(self._channels)
        #: loop-thread outbound queues, drained in batches per channel
        self._sendq: Dict[_Key, Deque[_QueuedSend]] = {}
        self._drainers: Dict[_Key, "asyncio.Task"] = {}
        #: consecutive failed sends per channel (decides TransportStatus.Down)
        self._fail_streak: Dict[_Key, int] = {}
        #: per-channel outgoing sequence counters
        self._seq: Dict[_Key, int] = {}
        #: per-(peer socket, transport) receive-side delivery windows —
        #: one per sender sequence stream (they survive restarts via the
        #: core stash, so a resend after our own crash still dedups);
        #: least recently used first
        self._dedup: "OrderedDict[_Key, _DedupWindow]" = OrderedDict()
        self._closing = False
        #: set False at the top of on_kill (any thread): late sends fail
        #: fast instead of racing the stopping event loop
        self._accepting = True
        #: non-None during an at-least-once teardown: cancelled drainers
        #: park their in-flight batch here instead of failing it
        self._parked_batches: Optional[List[Tuple[_Key, list]]] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.counters.update(
            batches=0, dups_suppressed=0, requeued=0, decode_failures=0,
            dedup_windows_evicted=0,
        )

        metrics = get_registry()
        chk = get_checker()
        self._check = chk if chk.enabled else None
        self._m_dups = metrics.counter(
            "messaging.aio.dups_suppressed_total", instance=self._instance
        )
        self._m_requeued = metrics.counter(
            "messaging.aio.requeued_total", instance=self._instance
        )
        self._m_decode_failures = metrics.counter(
            "messaging.decode_failures_total", instance=self._instance
        )
        self._m_batch_frames = metrics.histogram(
            "messaging.aio.batch_frames", buckets=(1, 2, 4, 8, 16, 32, 64)
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        # A supervised restart stashes recovery state on the surviving
        # core (see on_kill): adopt the delivery windows *before* the
        # listeners bind, so nothing received by the fresh instance can
        # race the adoption, and replay stashed sends once we are up.
        stash: Optional[Dict[str, Any]] = self._core.__dict__.pop("aio_recovery", None)
        if stash is not None:
            self._dedup = stash["dedup"]
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run_loop, name=f"{self.name}-loop", daemon=True)
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(self._setup(), self._loop)
        try:
            future.result(timeout=10.0)
        except BaseException as exc:
            # Record the bind/dial error for wait_ready() before faulting
            # the component, and reap the half-started loop thread so the
            # failed instance leaks neither sockets nor a running loop.
            self._startup_error = exc
            self._shutdown_loop(partial=True)
            raise
        self._ready.set()
        if self._check is not None:
            self._check.on_aio_epoch(self._instance, self.epoch)
        self.tracer.event("messaging.aio.start", instance=self._instance, epoch=self.epoch)
        sends = stash["sends"] if stash is not None else ()
        if sends:
            self.counters["requeued"] += len(sends)
            if self._obs:
                self._m_requeued.inc(len(sends))
            self.tracer.event(
                "messaging.aio.redelivery_replay",
                instance=self._instance, epoch=self.epoch, frames=len(sends),
            )

            def replay() -> None:
                for key, frame, notify_id in sends:
                    self._enqueue_send(key, frame, notify_id)

            self._loop.call_soon_threadsafe(replay)

    def wait_ready(self, timeout: float = 10.0) -> bool:
        """Block until the listeners are bound (threaded-system helper).

        ``KompicsSystem.threaded`` delivers Start events asynchronously,
        so a peer may dial before this instance's listeners exist; test
        and bench harnesses wait on this instead of sleeping.

        Raises :class:`~repro.errors.AioStartupError` — with the
        underlying bind/dial exception attached as ``__cause__`` — if the
        network failed to come up or did not become ready within
        ``timeout``, instead of leaving the caller to hang on a network
        whose event-loop thread died during startup.
        """
        if self._ready.wait(timeout):
            return True
        raise AioStartupError(
            f"{self.name}: aio network not ready after {timeout:.1f}s"
            + (f" (startup failed: {self._startup_error!r})" if self._startup_error else "")
        ) from self._startup_error

    def _run_loop(self) -> None:
        assert self._loop is not None
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    async def _setup(self) -> None:
        port = self.self_address.port
        for transport in self.protocols:
            entry = self._drivers.get(transport)
            if entry is None:
                continue  # datagram transports open below
            driver, offset = entry
            self._listeners.append(
                await driver.listen(self.bind_ip, port + offset, self._accept(transport))
            )
        if Transport.UDP in self.protocols:
            self._udp = UdpEndpoint()
            await self._udp.open(self.bind_ip, port, self._on_datagram)

    def on_kill(self) -> None:
        if self._loop is None:
            return
        self._accepting = False
        # Under a supervised restart the core survives and a successor
        # instance will run: at-least-once stashes the pending sends for
        # it instead of failing them (the epoch fence + receiver dedup
        # windows make the resend safe); the delivery windows transfer
        # either way, so a peer's own redelivery cannot double-deliver
        # through our restart.
        restarting = self._core.restarting
        redeliver = restarting and self.redelivery == AT_LEAST_ONCE

        async def teardown() -> List[Tuple[_Key, bytes, Any]]:
            self._closing = True
            if redeliver:
                self._parked_batches = []
            drainers = list(self._drainers.values())
            for task in drainers:
                task.cancel()
            await asyncio.gather(*drainers, return_exceptions=True)
            self._drainers.clear()
            stash: List[Tuple[_Key, bytes, Any]] = []
            if self._parked_batches:
                # In-flight batches first: they were on the wire before
                # anything still queued, so per-key FIFO order survives.
                for key, batch in self._parked_batches:
                    stash.extend((key, frame, notify_id) for frame, notify_id in batch)
            self._parked_batches = None
            # Pending sends must not leak their notifies: stash them for
            # the successor instance (at-least-once) or fail them.
            for key, queue in self._sendq.items():
                while queue:
                    frame, notify_id = queue.popleft()
                    if redeliver:
                        stash.append((key, frame, notify_id))
                    else:
                        self._resolve(key[1], len(frame), notify_id, False)
            self._sendq.clear()
            for listener in self._listeners:
                await listener.close()
            for conn in list(self._channels.values()):
                await conn.close()
            self._channels.clear()
            if self._udp is not None:
                await self._udp.close()
            # One loop cycle so cancelled tasks (drainers, UDT pacing
            # loops) actually unwind before the loop stops.
            await asyncio.sleep(0)
            return stash

        stash: List[Tuple[_Key, bytes, Any]] = []
        try:
            stash = asyncio.run_coroutine_threadsafe(teardown(), self._loop).result(timeout=5.0)
        finally:
            self._shutdown_loop()
        if restarting:
            self._core.aio_recovery = {"sends": stash, "dedup": self._dedup}

    def on_fault(self, fault: Any) -> None:
        """Terminal-fault hook: release the sockets and the loop thread.

        Under a supervised restart the ``on_kill`` hook that runs next
        does the orderly teardown (and, at-least-once, stashes pending
        sends for the successor), so there is nothing to do here.  A
        *terminal* fault — restart budget exhausted, escalated to the
        root under ``kompics.fault_policy = store`` — never reaches
        ``on_kill``, so tear down now: pending notifies resolve as
        failures instead of leaking and the event-loop thread exits.
        """
        if self._core.restarting:
            return
        self.on_kill()

    def _shutdown_loop(self, partial: bool = False) -> None:
        """Stop the loop thread and close the loop (idempotent).

        ``partial`` is the startup-failure path: a best-effort async close
        of whatever ``_setup`` managed to bind runs first, so a failed
        bind does not strand the listeners that did come up.
        """
        loop, thread = self._loop, self._thread
        if loop is None:
            return
        if partial:
            async def close_partial() -> None:
                for listener in self._listeners:
                    await listener.close()
                if self._udp is not None:
                    await self._udp.close()

            try:
                asyncio.run_coroutine_threadsafe(close_partial(), loop).result(timeout=2.0)
            except Exception:  # noqa: BLE001 - best effort on a dying loop
                pass
        try:
            loop.call_soon_threadsafe(loop.stop)
        except RuntimeError:
            pass
        if thread is not None:
            thread.join(timeout=5.0)
        if thread is None or not thread.is_alive():
            try:
                loop.close()
            except RuntimeError:  # pragma: no cover - defensive
                pass
        self._loop = None
        self._thread = None

    # ------------------------------------------------------------------
    # send path (component thread)
    # ------------------------------------------------------------------
    def _transmit(self, msg: Msg, route: Route, notify_id: Optional[int]) -> None:
        transport = route.transport
        payload = self.serializers.serialize(msg)
        if not self._fits(transport, len(payload), notify_id):
            return
        key = route.key
        seq = self._seq.get(key, 0)
        self._seq[key] = seq + 1
        frame = EPOCH_HEADER.pack(self.epoch, seq) + payload
        loop = self._loop
        if not self._accepting or loop is None:
            # Killed (or being restarted) under our feet: fail the
            # message rather than race the stopping event loop.
            self._resolve(transport, len(frame), notify_id, False)
            return
        try:
            loop.call_soon_threadsafe(self._enqueue_send, key, frame, notify_id)
        except RuntimeError:
            # The loop closed between the check above and the call —
            # the teardown already flushed the queues, so resolve here.
            self._resolve(transport, len(frame), notify_id, False)

    # ------------------------------------------------------------------
    # batching drainers (loop thread)
    # ------------------------------------------------------------------
    def _enqueue_send(self, key: _Key, frame: bytes, notify_id: Optional[int]) -> None:
        if self._closing:
            self._resolve(key[1], len(frame), notify_id, False)
            return
        queue = self._sendq.get(key)
        if queue is None:
            queue = self._sendq[key] = deque()
        queue.append((frame, notify_id))
        if key not in self._drainers:
            self._drainers[key] = asyncio.ensure_future(self._drain(key))

    async def _drain(self, key: _Key) -> None:
        """Drain ``key``'s queue until empty, one coalesced batch at a time.

        Everything that accumulated while the previous batch was on the
        wire goes out as a single vectored send — under load the batch
        size grows naturally, amortising the per-send overhead exactly
        like the netsim backend's RX trains.
        """
        remote, transport = key
        try:
            while True:
                queue = self._sendq.get(key)
                if not queue:
                    break
                batch = list(queue)
                queue.clear()
                self.counters["batches"] += 1
                if self._obs:
                    self._m_batch_frames.observe(len(batch))
                if transport is Transport.UDP:
                    self._send_datagrams(key, batch)
                else:
                    try:
                        await self._send_batch(key, batch)
                    except asyncio.CancelledError:
                        # Killed mid-batch: the batch was already popped
                        # from the queue, so nothing else will resolve it.
                        # An at-least-once teardown parks it for the
                        # successor instance (part of it may be on the
                        # wire — the receiver's dedup window absorbs the
                        # resend); otherwise fail its notifies here.
                        if self._parked_batches is not None:
                            self._parked_batches.append((key, batch))
                        else:
                            self._fail_batch(key, batch)
                        raise
        finally:
            self._drainers.pop(key, None)
            # A send may have raced in between the emptiness check and the
            # task teardown: re-arm rather than strand it (unless the
            # component is closing — teardown flushes the queues itself).
            if not self._closing and self._sendq.get(key):
                self._drainers[key] = asyncio.ensure_future(self._drain(key))

    def _send_datagrams(self, key: _Key, batch: list) -> None:
        remote, _ = key
        assert self._udp is not None
        for item in batch:
            try:
                self._udp.send(item[0], remote)
            except OSError:
                self._fail_batch(key, [item])
            else:
                self._sent_batch(key, [item])

    async def _send_batch(self, key: _Key, batch: list) -> None:
        remote, transport = key
        frames = [frame for frame, _ in batch]
        conn: Optional[AioConnection] = None
        for attempt in range(REDIAL_ATTEMPTS + 1):
            try:
                conn = await self._channel(key)
                break
            except (ConnectionError, OSError, asyncio.TimeoutError):
                conn = None
            if attempt < REDIAL_ATTEMPTS:
                # Capped-exponential backoff between redials: a restart
                # storm (many peers redialling a recovering network at
                # once) spreads out instead of thundering.  Cancellation
                # during the sleep propagates to _drain's handler.
                delay = self.reconnect_policy.delay_for(attempt, self._backoff_rng)
                if delay > 0.0:
                    self.tracer.event(
                        "messaging.aio.redial_backoff",
                        remote=f"{remote[0]}:{remote[1]}", proto=transport.value,
                        attempt=attempt, delay=delay,
                    )
                    await asyncio.sleep(delay)
        if conn is None:
            self._fail_batch(key, batch)
            return
        try:
            await conn.send_frames(frames)
            if self.redelivery == AT_LEAST_ONCE:
                # "Sent" must mean *acknowledged* for redelivery to be
                # sound: UDT's send_frames returns once the batch enters
                # the pacing window, and success reported there would let
                # a kill drop un-ACKed packets that nobody ever resends.
                # Waiting here keeps the batch cancellable — a teardown
                # mid-drain parks it for the successor instance, and the
                # receiver's dedup window absorbs the replayed overlap.
                await asyncio.wait_for(conn.drain(), timeout=ACK_TIMEOUT)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            # The batch may be partially on the wire: at-most-once
            # semantics forbid re-sending, so fail it and drop the channel.
            self._channels.pop(key, None)
            self._fail_batch(key, batch)
            return
        self._sent_batch(key, batch)

    # ------------------------------------------------------------------
    # recovery bookkeeping: when a transport is Down / Up (loop thread)
    # ------------------------------------------------------------------
    def _sent_batch(self, key: _Key, batch: list) -> None:
        remote, transport = key
        self._fail_streak.pop(key, None)
        self._mark_up(remote, transport)
        for frame, notify_id in batch:
            self._resolve(transport, len(frame), notify_id, True)

    def _fail_batch(self, key: _Key, batch: list) -> None:
        remote, transport = key
        for frame, notify_id in batch:
            streak = self._fail_streak[key] = self._fail_streak.get(key, 0) + 1
            if streak >= DOWN_AFTER:
                self._mark_down(remote, transport, "send failures")
            self._resolve(transport, len(frame), notify_id, False)

    async def _channel(self, key: _Key) -> AioConnection:
        """``key``'s open connection, dialled if there is none."""
        conn = self._channels.get(key)
        if conn is not None and not conn.closed:
            return conn
        remote, transport = key
        entry = self._drivers.get(transport)
        if entry is None:
            raise TransportError(f"no stream driver for transport {transport!r}")
        driver, offset = entry
        target = remote if offset == 0 else (remote[0], remote[1] + offset)
        conn = await driver.connect(target, self._hello)
        self._wire_connection(conn, key)
        self._channels[key] = conn
        return conn

    # ------------------------------------------------------------------
    # receive path (loop thread)
    # ------------------------------------------------------------------
    def _accept(self, transport: Transport) -> Callable[[AioConnection], None]:
        def on_connection(conn: AioConnection) -> None:
            key: Optional[_Key] = None
            if conn.peer_hello:
                peer_addr, _ = unpack_address(conn.peer_hello)
                key = (peer_addr.as_socket(), transport)
                existing = self._channels.get(key)
                if existing is None or existing.closed:
                    self._channels[key] = conn
            self._wire_connection(conn, key)

        return on_connection

    def _wire_connection(self, conn: AioConnection, key: Optional[_Key]) -> None:
        # The dedup identity is the peer's *instance* address (from the
        # dial target or the handshake hello) plus the transport — one
        # window per sender sequence stream, NOT per connection: a
        # crash-restart replaces the connection but must keep folding
        # into the same delivery window.
        conn.on_frame = lambda frame: self._on_frame(frame, key)
        if key is not None:
            def on_closed(c: AioConnection) -> None:
                if self._channels.get(key) is c:
                    del self._channels[key]

            conn.on_closed = on_closed

    def _on_frame(self, frame: bytes, key: Optional[_Key] = None) -> None:
        try:
            epoch, seq = EPOCH_HEADER.unpack_from(frame)
            msg = self.serializers.deserialize(memoryview(frame)[EPOCH_HEADER.size:])
        except Exception:  # noqa: BLE001 - socket bytes are hostile input
            # Whatever a decoder raises on garbage must not escape into
            # the loop thread: count the frame, drop it, keep serving.
            # (Decoding comes before the dedup window on purpose: garbage
            # must not be able to occupy a valid frame's (epoch, seq).)
            self.counters["decode_failures"] += 1
            if self._obs:
                self._m_decode_failures.inc()
            self.logger.debug(
                "%s: dropping undecodable %d byte frame from %s",
                self.name, len(frame), key, exc_info=True,
            )
            return
        if key is not None:
            dedup = self._dedup
            window = dedup.get(key)
            if window is None:
                if len(dedup) >= MAX_DEDUP_WINDOWS:
                    dedup.popitem(last=False)
                    self.counters["dedup_windows_evicted"] += 1
                window = dedup[key] = _DedupWindow(DEDUP_WINDOW)
            else:
                dedup.move_to_end(key)
            if not window.admit(epoch, seq):
                self.counters["dups_suppressed"] += 1
                if self._obs:
                    self._m_dups.inc()
                self.tracer.event(
                    "messaging.aio.dup_suppressed",
                    peer=_stream(key), epoch=epoch, seq=seq,
                )
                return
            if self._check is not None:
                self._check.on_aio_delivery(self._instance, _stream(key), epoch, seq)
        self._deliver(msg)

    def _on_datagram(self, frame: bytes, src: Endpoint) -> None:
        # The UDP endpoint binds the instance port, so the datagram source
        # *is* the peer's instance address — a stable dedup identity.
        self._on_frame(frame, (src, Transport.UDP))
