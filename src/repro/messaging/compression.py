"""Compression pipeline stage.

The paper's Netty pipeline includes a Snappy handler by default, and notes
(§V-A) that results would differ for easily-compressible data — their
NetCDF climate payload compresses poorly.  We provide:

* :class:`NoCompression` — identity (the asyncio backend's byte path).
* :class:`SimulatedSnappy` — for the fluid simulation, where only *sizes*
  travel: it models Snappy's size effect via a per-message compressibility
  hint (``msg.compressibility``, fraction of the original size remaining
  after compression; default 1.0 = incompressible, like the paper's data).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

#: attribute messages may expose to hint at their compressibility
COMPRESSIBILITY_ATTR = "compressibility"


def compressibility_of(msg: Any) -> float:
    """The message's compressed-size fraction hint, clamped to (0, 1]."""
    hint = getattr(msg, COMPRESSIBILITY_ATTR, 1.0)
    if type(hint) is not float:
        try:
            hint = float(hint)
        except (TypeError, ValueError):
            return 1.0
    if hint < 0.01:
        hint = 0.01
    elif hint > 1.0:
        hint = 1.0
    return hint


class CompressionCodec(ABC):
    """A pipeline stage transforming frame bytes (and modelled sizes)."""

    name: str = "abstract"

    @abstractmethod
    def compress(self, data: bytes) -> bytes: ...

    @abstractmethod
    def decompress(self, data: bytes) -> bytes: ...

    @abstractmethod
    def estimate_size(self, size: int, ratio_hint: float) -> int:
        """Modelled on-wire size for a ``size``-byte frame (simulation path)."""


class NoCompression(CompressionCodec):
    name = "none"

    def compress(self, data: bytes) -> bytes:
        return data

    def decompress(self, data: bytes) -> bytes:
        return data

    def estimate_size(self, size: int, ratio_hint: float) -> int:
        return size


class SimulatedSnappy(CompressionCodec):
    """Snappy's size behaviour without a snappy dependency.

    Snappy trades ratio for speed: on incompressible input it adds a tiny
    overhead, on compressible input it typically achieves ~ the hinted
    ratio but rarely better than ~25%.  Byte-path calls pass data through
    unchanged (framing keeps it reversible).
    """

    name = "snappy-sim"
    MIN_RATIO = 0.25
    OVERHEAD = 8

    def compress(self, data: bytes) -> bytes:
        return data

    def decompress(self, data: bytes) -> bytes:
        return data

    def estimate_size(self, size: int, ratio_hint: float) -> int:
        ratio = max(ratio_hint, self.MIN_RATIO) if ratio_hint < 1.0 else 1.0
        return int(size * ratio) + self.OVERHEAD

