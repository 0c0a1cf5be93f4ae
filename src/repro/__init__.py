"""KompicsMessaging reproduction: fast and flexible networking for
message-oriented middleware (Kroll, Ormenișan, Dowling — ICDCS 2017).

Subpackages
-----------
``repro.sim``        deterministic discrete-event kernel
``repro.netsim``     simulated links, transports (TCP/UDT/UDP/LEDBAT), hosts
``repro.kompics``    the Kompics component model (ports, channels, scheduler)
``repro.messaging``  the middleware layer (per-message transports, vnodes)
``repro.core``       adaptive transport selection (the paper's contribution)
``repro.apps``       evaluation workloads (file transfer, ping/pong)
``repro.aio``        real asyncio backend (TCP, UDP, UDT-lite)
``repro.bench``      experiment harness regenerating the paper's figures
``repro.stats``      streaming statistics, confidence intervals
"""

from repro._version import __version__

__all__ = ["__version__"]
