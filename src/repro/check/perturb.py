"""Deliberate perturbation for the bisection demo/self-test.

``repro check bisect`` needs a divergence to find.  :func:`rx_swap`
arms a one-shot fault in the RX delivery train
(:meth:`repro.netsim.connection.FlowState._enqueue_delivery`): on the
``at``-th eligible append the last two train entries are swapped, so the
perturbed run delivers two wire messages out of order while a clean run
of the same workload does not.  That is exactly the shape of bug a
golden digest can only report as "outputs differ" — the bisector names
the first divergent wire event instead.

Module-level flag + counter: the hot path pays one module-attribute
test only when a checker is installed (the stamp/fold branch is already
behind that guard).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

#: swap the RX train tail on the Nth eligible append (None = disarmed)
RX_SWAP_AT: Optional[int] = None

_rx_appends = 0


def rx_swap_due() -> bool:
    """Count one eligible train append; True exactly once, on the Nth."""
    global _rx_appends
    if RX_SWAP_AT is None:
        return False
    _rx_appends += 1
    return _rx_appends == RX_SWAP_AT


@contextmanager
def rx_swap(at: int = 2) -> Iterator[None]:
    """Arm the RX-train swap for the ``with`` body (counter reset on entry)."""
    global RX_SWAP_AT, _rx_appends
    prev_at, prev_count = RX_SWAP_AT, _rx_appends
    RX_SWAP_AT, _rx_appends = at, 0
    try:
        yield
    finally:
        RX_SWAP_AT, _rx_appends = prev_at, prev_count
