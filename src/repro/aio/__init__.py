"""Real-network backend built on asyncio.

The simulation substrate reproduces the paper's experiments; this package
makes the same middleware usable on actual sockets:

* :mod:`repro.aio.tcp` — length-framed TCP on loop-owned non-blocking
  sockets: gathered ``sendmsg`` writes, ``recv_into`` one buffer.
* :mod:`repro.aio.udp` — plain datagrams (one frame per datagram).
* :mod:`repro.aio.udt` — **UDT-lite**: a from-scratch reliable-UDP
  transport with sequence numbers, batched cumulative + selective ACKs,
  NAK-triggered retransmission, one socket per dial and UDT-style
  DAIMD rate pacing.  Python has no maintained UDT binding, so the
  library ships its own wire protocol with the same guarantees (reliable,
  ordered) and behaviour class (rate-based, RTT-insensitive congestion
  control).
* :mod:`repro.aio.network` — ``AioNetwork``, a drop-in sibling of
  ``NettyNetwork`` for thread-pool Kompics systems, with frame batching
  and TransportStatus-based channel recovery.
* :mod:`repro.aio.data_network` — ``AioDataNetwork``, the full adaptive
  bundle (interceptor + Sarsa(lambda) selection) over real sockets.
"""

from repro.aio.data_network import AioDataNetwork
from repro.aio.network import AioNetwork
from repro.aio.tcp import TcpTransport
from repro.aio.transport import AioConnection, AioTransport
from repro.aio.udt import UdtLiteTransport

__all__ = [
    "AioTransport",
    "AioConnection",
    "TcpTransport",
    "UdtLiteTransport",
    "AioNetwork",
    "AioDataNetwork",
]
