"""Feature flags for the hot-path fast paths.

The performance pass keeps a hard invariant: *optimized runs produce
byte-identical simulated results to the unoptimized paths*.  To make that
claim testable, the memoization layers read module-level flags at the call
site, and the equivalence gate (``repro perf --equivalence``) reruns the
benchmark workloads with the flags off and byte-compares the observability
snapshots.  See ``docs/performance.md``.

Flags
-----
``DISPATCH_CACHE``
    Per-port dispatch tables memoized by concrete event type
    (:meth:`repro.kompics.port.Port.matching_handlers`).
``SERIALIZER_CACHE``
    Per-concrete-type memoization of :meth:`SerializerRegistry.lookup`
    plus the size-once/encode-once frame cache used by the send path.
``RX_TRAIN``
    Per-flow receive-side delivery trains in the fluid network model
    (one pump event per flow instead of one heap entry per in-flight
    message; see :class:`repro.netsim.connection.FlowState`).
``RUN_QUEUE``
    Near-future run queue in the simulation kernel: the monotone event
    storm (flow-tx/flow-rx/scheduler chains) is kept in a tail-sorted
    deque with amortized-O(1) ejection of out-of-order entries back to
    the heap, and pops merge the two sorted sources
    (:class:`repro.sim.Simulator`).  Pop order is unchanged — only
    which container holds an entry differs.
``ALLOC_EPOCH``
    Incremental link rate allocation: ``LinkDirection`` partitions its
    flow set once per change, reads time-invariant demands the flows
    pushed instead of asking every controller, gathers the rest once per
    *allocation epoch* (invalidated on activate/deactivate/spec-change/
    demand movement) and settles only the asking flow
    (:meth:`repro.netsim.link.LinkDirection.allocate_rate`).

All flags default to on.  They gate *pure memoizations*: flipping them
must never change simulated timestamps, event order, metric values or
trace streams — only how much work the interpreter does to get there.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Tuple

DISPATCH_CACHE: bool = True
SERIALIZER_CACHE: bool = True
RX_TRAIN: bool = True
RUN_QUEUE: bool = True
ALLOC_EPOCH: bool = True

_ALL: Tuple[str, ...] = (
    "DISPATCH_CACHE",
    "SERIALIZER_CACHE",
    "RX_TRAIN",
    "RUN_QUEUE",
    "ALLOC_EPOCH",
)


def flags() -> Dict[str, bool]:
    """Current flag values, for logging and bench metadata."""
    return {name: bool(globals()[name]) for name in _ALL}


@contextmanager
def disabled(*names: str) -> Iterator[None]:
    """Temporarily turn fast paths off (all of them when none are named).

    Used by the equivalence gate and the correctness tests to run the
    reference (unoptimized) code paths::

        with fastpath.disabled():
            result, doc = run_observed(...)
    """
    targets = names or _ALL
    for name in targets:
        if name not in _ALL:
            raise ValueError(f"unknown fastpath flag {name!r}; known: {_ALL}")
    saved = {name: globals()[name] for name in targets}
    try:
        for name in targets:
            globals()[name] = False
        yield
    finally:
        globals().update(saved)
