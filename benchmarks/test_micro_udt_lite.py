"""Micro-benchmark: UDT-lite throughput on real loopback sockets.

Guards the real wire protocol's performance: a pacing or ACK regression
would show up here long before it breaks the (simulated) figure benches.
"""

import asyncio
import os

from repro.aio.transport import MAX_FRAME
from repro.aio.udt import UdtLiteTransport

HOST = "127.0.0.1"
# 2 MiB across ~1750 DATA packets, as two frames of the largest size a peer accepts
FRAMES = [os.urandom(MAX_FRAME), os.urandom(MAX_FRAME)]


async def transfer_once() -> int:
    server = await asyncio.start_server(lambda r, w: None, host=HOST, port=0)
    port = server.sockets[0].getsockname()[1]
    server.close()
    await server.wait_closed()

    received = []
    done = asyncio.Event()

    def on_connection(conn):
        def on_frame(frame):
            received.append(len(frame))
            if len(received) == len(FRAMES):
                done.set()

        conn.on_frame = on_frame

    transport = UdtLiteTransport(initial_rate=64 * 1024 * 1024)
    listener = await transport.listen(HOST, port, on_connection)
    conn = await transport.connect((HOST, port), b"bench")
    await conn.send_frames(FRAMES)
    await conn.drain()
    await asyncio.wait_for(done.wait(), timeout=30.0)
    await conn.close()
    await listener.close()
    return sum(received)


def test_udt_lite_loopback_throughput(benchmark):
    size = benchmark.pedantic(
        lambda: asyncio.run(transfer_once()), rounds=3, iterations=1
    )
    assert size == sum(map(len, FRAMES))
