"""Channel recovery: automatic re-dial with capped exponential backoff.

The paper is emphatic that channels are expensive to establish (§III-C:
NAT hole punching, handshakes) and that "even over TCP and UDT a sudden
channel drop may lead to the loss of messages" (§III-B).  The base
middleware therefore keeps at-most-once semantics and simply drops the
channel on failure — every later send re-dials cold and everything queued
in the meantime is lost.

:class:`ChannelRecovery` is the opt-in layer above that floor: when an
*outbound* channel is cut, the owning :class:`~repro.messaging.channels.
ChannelPool` hands the key over and the recovery engine

* re-dials on a capped exponential backoff schedule with deterministic
  jitter (driven by the simulation scheduler, so campaigns are exactly
  reproducible from the root seed);
* queues messages sent towards the recovering destination up to a bounded
  in-flight limit, failing their notifications beyond it;
* flushes the queue onto the fresh channel on success, or reports the
  campaign as exhausted after :data:`MAX_ATTEMPTS` dials so the owner can
  degrade (transport fallback) or fail the pending sends.

Everything is **default-off**: without ``messaging.reconnect.enabled``
the pool never constructs a recovery engine and behaves byte-for-byte as
before.

The real-socket backend shares the schedule: :class:`~repro.aio.network.
AioNetwork` builds a :class:`ReconnectPolicy` from the same config keys
and sleeps ``delay_for(attempt)`` between redial attempts of a failed
batch, so post-crash redial storms back off identically on both backends.

Config keys (both under ``messaging.reconnect.*``)::

    enabled       bool    master switch (default False)
    jitter        float   +/- fraction of the delay, drawn from a seeded
                          stream (default 0.1; 0 disables draws entirely)

The first retry waits :data:`BASE_DELAY`, the delay doubles per attempt
(:data:`MULTIPLIER`) up to :data:`MAX_DELAY`, a campaign gives up after
:data:`MAX_ATTEMPTS` dials and parks at most :data:`QUEUE_LIMIT` messages.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple

from repro.netsim.connection import WireMessage
from repro.obs import get_registry, get_tracer

Socket = Tuple[str, int]
#: mirror of :data:`repro.messaging.channels.ChannelKey` without the import
#: cycle — ``(remote socket, Proto)``
ChannelKey = Tuple[Socket, Any]

#: first retry delay, seconds
BASE_DELAY = 0.2
#: backoff growth factor per reconnect attempt
MULTIPLIER = 2.0
#: backoff cap, seconds
MAX_DELAY = 5.0
#: dials before a campaign gives up
MAX_ATTEMPTS = 6
#: messages parked per recovering channel; sends beyond it fail
QUEUE_LIMIT = 128


@dataclass(frozen=True)
class ReconnectPolicy:
    """The jitter of one pool's backoff schedule."""

    jitter: float = 0.1

    @classmethod
    def from_config(cls, config) -> "ReconnectPolicy":
        return cls(jitter=config.get_float("messaging.reconnect.jitter", cls.jitter))

    def delay_for(self, attempt: int, rng=None) -> float:
        """Delay before 0-based reconnect ``attempt``, jittered."""
        delay = min(BASE_DELAY * (MULTIPLIER ** attempt), MAX_DELAY)
        if rng is not None and self.jitter > 0.0:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay


def fail_sends(pending: Iterable[WireMessage]) -> None:
    """Resolve sends that will never reach a connection as failed."""
    for wire in pending:
        if wire.on_sent is not None:
            wire.on_sent(False)


class _Campaign:
    """Per-channel recovery state: attempt count, queue, pending timer."""

    __slots__ = ("key", "attempts", "queue", "handle", "dialing")

    def __init__(self, key: ChannelKey) -> None:
        self.key = key
        self.attempts = 0
        self.queue: Deque[WireMessage] = deque()
        self.handle = None  # EventHandle of the next scheduled dial
        self.dialing = False  # a dial is currently in flight


class ChannelRecovery:
    """Reconnect engine for one :class:`ChannelPool`.

    The pool reports lost outbound channels via :meth:`channel_lost` (both
    for the initial loss and for every failed re-dial — the engine tells
    the two apart), parks sends with :meth:`queue_send` while a campaign
    runs, and confirms success with :meth:`dial_succeeded`.
    """

    def __init__(
        self,
        sim,
        policy: ReconnectPolicy,
        dial: Callable[[ChannelKey], None],
        flush: Callable[[ChannelKey, List[WireMessage]], None],
        give_up: Callable[[ChannelKey, List[WireMessage], str], None],
        rng=None,
        logger: Optional[logging.Logger] = None,
    ) -> None:
        self.sim = sim
        self.policy = policy
        self._dial = dial
        self._flush = flush
        self._give_up = give_up
        self.rng = rng
        self.logger = logger or logging.getLogger("repro.messaging.recovery")
        self.campaigns: Dict[ChannelKey, _Campaign] = {}
        self.closed = False

        metrics = get_registry()
        self.tracer = get_tracer()
        self._m_attempts = metrics.counter("messaging.reconnect.attempts_total")
        self._m_recovered = metrics.counter("messaging.reconnect.recovered_total")
        self._m_giveups = metrics.counter("messaging.reconnect.giveups_total")
        self._m_queue_drops = metrics.counter("messaging.reconnect.queue_drops_total")

    # ------------------------------------------------------------------
    # pool-facing API
    # ------------------------------------------------------------------
    def recovering(self, key: ChannelKey) -> bool:
        return key in self.campaigns

    def channel_lost(self, key: ChannelKey, reason: str) -> None:
        """Begin a campaign for ``key``, or advance one whose dial failed."""
        if self.closed:
            return
        campaign = self.campaigns.get(key)
        if campaign is None:
            campaign = _Campaign(key)
            self.campaigns[key] = campaign
        elif campaign.dialing:
            campaign.dialing = False  # the dial we were waiting on failed
        else:
            return  # duplicate loss report; the next dial is already set
        if campaign.attempts >= MAX_ATTEMPTS:
            self._finish_give_up(campaign, reason)
            return
        delay = self.policy.delay_for(campaign.attempts, self.rng)
        self.tracer.event(
            "messaging.reconnect_scheduled",
            remote=_remote_of(key), proto=_proto_of(key),
            attempt=campaign.attempts, delay=delay, reason=reason,
        )
        campaign.handle = self.sim.schedule(
            delay, lambda: self._attempt(campaign), label="chan-reconnect"
        )

    def queue_send(self, key: ChannelKey, wire: WireMessage) -> bool:
        """Park a send for a recovering channel; False beyond the bound."""
        campaign = self.campaigns.get(key)
        if campaign is None:
            return False
        if len(campaign.queue) >= QUEUE_LIMIT:
            self._m_queue_drops.inc()
            return False
        campaign.queue.append(wire)
        return True

    def dial_succeeded(self, key: ChannelKey) -> None:
        """A re-dial went ACTIVE: close the campaign and flush its queue."""
        campaign = self.campaigns.pop(key, None)
        if campaign is None:
            return
        self._m_recovered.inc()
        self.tracer.event(
            "messaging.reconnect_success",
            remote=_remote_of(key), proto=_proto_of(key),
            attempts=campaign.attempts, flushed=len(campaign.queue),
        )
        self.logger.debug(
            "channel %s recovered after %d attempt(s), flushing %d message(s)",
            key, campaign.attempts, len(campaign.queue),
        )
        if campaign.queue:
            self._flush(key, list(campaign.queue))

    def shutdown(self) -> None:
        """Cancel every campaign and fail everything still parked."""
        self.closed = True
        for campaign in self.campaigns.values():
            if campaign.handle is not None:
                campaign.handle.cancel()
            fail_sends(campaign.queue)
        self.campaigns.clear()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _attempt(self, campaign: _Campaign) -> None:
        if self.closed or self.campaigns.get(campaign.key) is not campaign:
            return
        campaign.handle = None
        campaign.attempts += 1
        campaign.dialing = True
        self._m_attempts.inc()
        self.tracer.event(
            "messaging.reconnect_attempt",
            remote=_remote_of(campaign.key), proto=_proto_of(campaign.key),
            attempt=campaign.attempts,
        )
        self._dial(campaign.key)

    def _finish_give_up(self, campaign: _Campaign, reason: str) -> None:
        self.campaigns.pop(campaign.key, None)
        self._m_giveups.inc()
        self.tracer.event(
            "messaging.reconnect_giveup",
            remote=_remote_of(campaign.key), proto=_proto_of(campaign.key),
            attempts=campaign.attempts, pending=len(campaign.queue), reason=reason,
        )
        self.logger.debug(
            "giving up on channel %s after %d attempts (%s)",
            campaign.key, campaign.attempts, reason,
        )
        self._give_up(campaign.key, list(campaign.queue), reason)


def _remote_of(key: ChannelKey) -> str:
    (ip, port), _ = key
    return f"{ip}:{port}"


def _proto_of(key: ChannelKey) -> str:
    _, proto = key
    return getattr(proto, "value", str(proto))
