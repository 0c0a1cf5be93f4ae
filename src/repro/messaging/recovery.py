"""Channel recovery: the capped exponential backoff both backends redial on.

The paper is emphatic that channels are expensive to establish (§III-C:
NAT hole punching, handshakes) and that "even over TCP and UDT a sudden
channel drop may lead to the loss of messages" (§III-B).  The base
middleware therefore keeps at-most-once semantics and simply drops the
channel on failure — every later send re-dials cold and everything queued
in the meantime is lost.

Reconnecting is the opt-in layer above that floor, and each backend owns
its own: :class:`~repro.messaging.netty.NettyNetwork` runs a reconnect
campaign per cut outbound channel (redial up to :data:`MAX_ATTEMPTS`
times, park up to :data:`QUEUE_LIMIT` sends, then give up), while
:class:`~repro.aio.network.AioNetwork` redials a failed batch.  What they
share is the schedule below: the first retry waits :data:`BASE_DELAY`,
the delay doubles per attempt (:data:`MULTIPLIER`) up to
:data:`MAX_DELAY`, with deterministic jitter drawn from a seeded stream,
so redial storms back off identically on both backends.

Config keys (both under ``messaging.reconnect.*``)::

    enabled       bool    simulated backend's campaigns (default False)
    jitter        float   +/- fraction of the delay, drawn from a seeded
                          stream (default 0.1; 0 disables draws entirely)
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """The jitter of one network's backoff schedule."""

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
