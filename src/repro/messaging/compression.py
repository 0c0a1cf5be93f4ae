"""The Snappy stage of the pipeline, as a size model.

The paper's Netty pipeline includes a Snappy handler by default, and notes
(§V-A) that results would differ for easily-compressible data — their
NetCDF climate payload compresses poorly.  On the fluid simulation only
*sizes* travel, so :func:`snappy_size` models Snappy's size effect from a
per-message hint (``msg.compressibility``: the fraction of the original
size remaining after compression; absent = 1.0, incompressible like the
paper's data).  The socket backend sends raw frames.
"""

from __future__ import annotations

from typing import Any

#: Snappy trades ratio for speed: it rarely gets below this fraction
SNAPPY_MIN_RATIO = 0.25
#: framing bytes Snappy adds to every frame
SNAPPY_OVERHEAD = 8


def snappy_size(size: int, hint: Any) -> int:
    """Modelled on-wire size of a ``size``-byte frame whose message hints
    ``hint`` (clamped to (0, 1]; anything that is not a number = 1.0)."""
    if type(hint) is not float:
        try:
            hint = float(hint)
        except (TypeError, ValueError):
            hint = 1.0
    if hint < 1.0:
        return int(size * max(hint, SNAPPY_MIN_RATIO)) + SNAPPY_OVERHEAD
    return size + SNAPPY_OVERHEAD
