"""Receive-side delivery trains: coalesced RX events must be invisible.

The flow batches back-to-back deliveries into a single pump event
(``FlowState._train``).  These tests pin the invariants: the heap stays
small on long fat paths, arrival times and payload order match golden
digests recorded with one delivery event per message, and teardown
still delivers what was already on the wire.
"""

import hashlib

import pytest

from repro.netsim import Proto
from repro.sim import Simulator

from tests.netsim_helpers import MB, make_pair, run_transfer


def transfer_arrivals(proto, total_bytes, **pair_kwargs):
    sim = Simulator()
    net, a, b = make_pair(sim, **pair_kwargs)
    sink = run_transfer(sim, net, a, b, proto, total_bytes)
    return [(round(t, 12), s) for (t, s) in sink.arrivals]


def arrivals_digest(arrivals):
    return hashlib.sha256(repr(arrivals).encode()).hexdigest()


class TestEquivalence:
    """Goldens recorded with one delivery event per message (no train)."""

    @pytest.mark.parametrize("proto, golden", [
        (Proto.TCP, "6ee1b2e2569a3fccb5a83295a74d7ab5b25fbe5d0617c61723114dff0089b751"),
        (Proto.UDT, "effac476a590a8d21e42c2f3533861c2405607e8ebd29e1ccd95c068d8b0a1c4"),
    ], ids=["Proto.TCP", "Proto.UDT"])
    def test_arrivals_identical_to_reference(self, proto, golden):
        arrivals = transfer_arrivals(proto, 8 * MB, delay=0.04)
        assert len(arrivals) == 128
        assert arrivals_digest(arrivals) == golden

    def test_udp_jitter_arrivals_identical(self):
        # Jitter is drawn at completion time; out-of-order dues exercise
        # the individual-schedule fallback.
        arrivals = transfer_arrivals(Proto.UDP, 2 * MB, delay=0.02, jitter=0.05, seed=3)
        assert len(arrivals) == 32
        assert arrivals_digest(arrivals) == (
            "fdf1fbd50103a7bdd7388b3e89559ba30aea71f99932498ab8e19b9386a918d4"
        )


class TestHeapPressure:
    def test_train_keeps_rx_events_off_the_heap(self):
        """On a long fat path one event per delivery would keep O(BDP)
        events queued; the train holds them in a deque with one pump event."""
        sim = Simulator()
        net, a, b = make_pair(sim, bandwidth=100 * MB, delay=0.1)
        sink = run_transfer(sim, net, a, b, Proto.TCP, 4 * MB)
        flows = [
            conn.flow
            for host in (a, b)
            for conn in host.stack.connections
        ]
        assert sink.bytes_received == 4 * MB
        # After the run everything drained; the pump left no stragglers.
        for flow in flows:
            assert not flow._train
            assert not flow._pump_scheduled


class TestTeardown:
    def test_in_flight_train_deliveries_survive_sender_abort(self):
        """Messages already on the wire belong to the receiver: aborting
        the sending flow must not retract them."""
        sim = Simulator()
        net, a, b = make_pair(sim, bandwidth=10 * MB, delay=0.05)
        from tests.netsim_helpers import Sink
        from repro.netsim import WireMessage

        sink = Sink(sim)
        b.stack.listen(7000, Proto.TCP, on_accept=sink.on_accept)
        conn = a.stack.connect((b.ip, 7000), Proto.TCP)
        for i in range(8):
            conn.send(WireMessage(payload=i, size=64 * 1024))
        # Advance until a completed transmission enters the train, then
        # abort the flow before its propagation delay elapses.
        while not conn.flow._train and sim.pending_events():
            sim.run_until(sim.now + 1e-4)
        in_train = len(conn.flow._train)
        conn.flow.abort()
        sim.run()
        # Everything that made it into the train still arrived.
        assert len(sink.arrivals) >= in_train > 0
