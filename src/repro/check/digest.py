"""Rolling trace digests with periodic checkpoints, and their comparison.

A :class:`RollingDigest` folds a canonical event stream — heap pops, port
triggers, wire deliveries — into one cumulative BLAKE2 hash.  Every
:data:`DEFAULT_CHECKPOINT_EVERY` events the current hash is snapshotted,
so two runs of the same workload (or a run and its committed golden) can
be compared *positionally*: because the hash is cumulative, checkpoint
``i`` matches iff the first ``(i+1) * N`` events matched, which makes
"where did two runs first diverge?" a binary search over the checkpoint
lists (:func:`compare_documents`) instead of an eyeball diff of two
opaque snapshots.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: events per checkpoint: a diverging window names at most this many
#: events, and the checkpoint lists of the golden workloads stay short
DEFAULT_CHECKPOINT_EVERY = 256


class RollingDigest:
    """Cumulative hash of one canonical event stream."""

    __slots__ = ("name", "count", "checkpoints", "_hash")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        #: hex hash of the stream after each full checkpoint interval
        self.checkpoints: List[str] = []
        self._hash = hashlib.blake2b(name.encode("utf-8"), digest_size=8)

    def fold(self, parts: Tuple[Any, ...]) -> None:
        """Fold one event (a tuple of repr-stable values) into the stream."""
        self.count = count = self.count + 1
        h = self._hash
        h.update(repr(parts).encode("utf-8"))
        h.update(b"\x1e")
        if count % DEFAULT_CHECKPOINT_EVERY == 0:
            self.checkpoints.append(h.hexdigest())

    @property
    def hexdigest(self) -> str:
        """Cumulative hash of everything folded so far."""
        return self._hash.hexdigest()

    def document(self) -> Dict[str, Any]:
        """JSON-ready summary: event count, final digest, checkpoints."""
        return {
            "count": self.count,
            "digest": self.hexdigest,
            "checkpoints": list(self.checkpoints),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RollingDigest({self.name!r}, n={self.count}, {self.hexdigest})"


def first_checkpoint_divergence(cps_a: Sequence[str], cps_b: Sequence[str]) -> Optional[int]:
    """Index of the first differing checkpoint, by binary search.

    Returns ``None`` when the shared prefix matches (including when one
    or both lists are empty) — callers then fall back to comparing event
    counts / final digests for a tail divergence.
    """
    n = min(len(cps_a), len(cps_b))
    if n == 0 or cps_a[n - 1] == cps_b[n - 1]:
        return None
    lo, hi = 0, n - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cps_a[mid] == cps_b[mid]:
            lo = mid + 1
        else:
            hi = mid
    return lo


@dataclass
class StreamDivergence:
    """Where one stream's digests first disagree between two runs."""

    stream: str
    #: event-count window (start, end] bracketing the first divergence
    window: Tuple[int, int]
    checkpoint_index: Optional[int]


def _stream_divergence(
    name: str, doc_a: Mapping[str, Any], doc_b: Mapping[str, Any],
) -> Optional[StreamDivergence]:
    sa = doc_a.get("streams", {}).get(name)
    sb = doc_b.get("streams", {}).get(name)
    if sa is None or sb is None:
        present = sa or sb
        return StreamDivergence(name, (0, int(present["count"])), None)
    if sa["digest"] == sb["digest"] and sa["count"] == sb["count"]:
        return None
    every = DEFAULT_CHECKPOINT_EVERY
    idx = first_checkpoint_divergence(sa["checkpoints"], sb["checkpoints"])
    if idx is not None:
        return StreamDivergence(name, (idx * every, (idx + 1) * every), idx)
    # checkpointed prefix matches: divergence is in the unverified tail
    start = min(len(sa["checkpoints"]), len(sb["checkpoints"])) * every
    end = max(int(sa["count"]), int(sb["count"]))
    return StreamDivergence(name, (start, max(end, start + 1)), None)


def compare_documents(
    doc_a: Mapping[str, Any], doc_b: Mapping[str, Any],
) -> List[StreamDivergence]:
    """Every stream whose digests differ between two checker documents,
    earliest diverging window first (a stream only one side has counts)."""
    names = sorted(set(doc_a.get("streams", {})) | set(doc_b.get("streams", {})))
    out = [d for d in (_stream_divergence(n, doc_a, doc_b) for n in names) if d is not None]
    out.sort(key=lambda d: d.window[0])
    return out
