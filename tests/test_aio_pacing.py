"""Unit tests for the real-socket pacing law (UDT's DAIMD) and the
``pacer_factory=`` seam through the UDT-lite transport stack."""

import asyncio

import pytest

from repro.aio.pacing import MIN_RATE, MSS, SYN_INTERVAL, DaimdPacing
from repro.aio.udt import UdtLiteTransport

HOST = "127.0.0.1"


def run(coro):
    return asyncio.run(coro)


async def free_port() -> int:
    import socket

    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
        s.bind((HOST, 0))
        return s.getsockname()[1]


class FixedPacing(DaimdPacing):
    """A test-local pacer whose rate never moves."""

    def on_interval(self, now: float) -> None:
        pass

    def on_loss(self, now: float) -> None:
        pass


class TestDaimdPacing:
    """The default pacer must preserve the historical DAIMD arithmetic."""

    def test_increase_matches_legacy_formula(self):
        p = DaimdPacing(initial_rate=128 * 1024, max_rate=float("inf"), now=0.0)
        expected = min(p.rate + max(p.rate * 0.05, 10 * MSS), p.max_rate)
        p.on_interval(SYN_INTERVAL)
        assert p.rate == expected

    def test_small_rate_probes_ten_mss(self):
        p = DaimdPacing(initial_rate=100 * MSS, max_rate=float("inf"), now=0.0)
        before = p.rate
        p.on_interval(SYN_INTERVAL)
        assert p.rate == before + 10 * MSS  # 5% of 100 MSS < 10 MSS

    def test_decrease_eight_ninths_with_floor(self):
        p = DaimdPacing(initial_rate=9 * MIN_RATE, max_rate=float("inf"), now=0.0)
        p.on_loss(1.0)
        assert p.rate == pytest.approx(8 * MIN_RATE)
        for _ in range(100):
            p.on_loss(1.0)
        assert p.rate == MIN_RATE

    def test_interval_gate(self):
        p = DaimdPacing(initial_rate=128 * 1024, max_rate=float("inf"), now=0.0)
        before = p.rate
        p.on_interval(SYN_INTERVAL / 2)  # too soon: no adjustment
        assert p.rate == before

    def test_max_rate_cap(self):
        p = DaimdPacing(initial_rate=1e9, max_rate=1 * 1024 * 1024, now=0.0)
        assert p.rate == 1 * 1024 * 1024
        p.on_interval(SYN_INTERVAL)
        assert p.rate == 1 * 1024 * 1024


class TestPacerThreading:
    def test_transport_default_is_daimd(self):
        async def scenario():
            port = await free_port()
            transport = UdtLiteTransport()  # no factory: legacy DAIMD
            listener = await transport.listen(HOST, port, lambda c: None)
            conn = await transport.connect((HOST, port), b"h")
            assert isinstance(conn.pacer, DaimdPacing)
            await conn.close()
            await listener.close()

        run(scenario())

    def test_connection_gets_configured_pacer(self):
        async def scenario():
            port = await free_port()
            received = []
            server = UdtLiteTransport(pacer_factory=FixedPacing)
            listener = await server.listen(
                HOST, port, lambda c: setattr(c, "on_frame", received.append)
            )
            client = UdtLiteTransport(pacer_factory=FixedPacing)
            conn = await client.connect((HOST, port), b"h")
            assert isinstance(conn.pacer, FixedPacing)
            assert conn.rate == conn.pacer.rate  # property mirrors the policy
            await conn.send_frame(b"x" * 5000)
            await conn.drain()
            await asyncio.sleep(0.2)
            assert received == [b"x" * 5000]
            await conn.close()
            await listener.close()

        run(scenario())
