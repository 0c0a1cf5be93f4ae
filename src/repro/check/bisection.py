"""Divergence bisection over checkpointed trace digests.

Digest checkpoints are *cumulative* hashes, so "checkpoint ``i``
matches" is a monotone predicate over ``i``: once two runs diverge they
never re-converge.  Finding the first divergent checkpoint is therefore
a binary search, and a second pair of runs with a capture window over
that one checkpoint interval names the exact first divergent event —
turning the equivalence gate's "outputs differ" into a pointed report.

The orchestration is config-agnostic: callers supply ``run_pair``, a
callable that executes both configurations with an optional capture
spec and returns their checker documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

Checkpoint = Sequence[Any]  # (count, hexdigest)


def first_checkpoint_divergence(
    cps_a: Sequence[Checkpoint], cps_b: Sequence[Checkpoint]
) -> Optional[int]:
    """Index of the first differing checkpoint, by binary search.

    Returns ``None`` when the shared prefix matches (including when one
    or both lists are empty) — callers then fall back to comparing event
    counts / final digests for a tail divergence.
    """
    n = min(len(cps_a), len(cps_b))
    if n == 0 or list(cps_a[n - 1]) == list(cps_b[n - 1]):
        return None
    lo, hi = 0, n - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if list(cps_a[mid]) == list(cps_b[mid]):
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


@dataclass
class DivergenceReport:
    identical: bool
    #: every stream that diverged, earliest window first
    streams: List[StreamDivergence] = field(default_factory=list)
    #: the stream the event-level capture ran on
    stream: Optional[str] = None
    #: 1-based event count of the first divergent event
    event_count: Optional[int] = None
    event_a: Optional[str] = None
    event_b: Optional[str] = None

    def format(self) -> str:
        if self.identical:
            return "streams identical: no divergence"
        lines = []
        for d in self.streams:
            lines.append(
                f"stream '{d.stream}' diverges in events {d.window[0] + 1}..{d.window[1]}"
            )
        if self.stream is not None and self.event_count is not None:
            lines.append(f"first divergent event: '{self.stream}' #{self.event_count}")
            lines.append(f"  run A: {self.event_a}")
            lines.append(f"  run B: {self.event_b}")
        elif self.stream is not None:
            lines.append(
                f"stream '{self.stream}' window capture found no textual difference "
                "(divergence is in fold order only)"
            )
        return "\n".join(lines)


def _stream_divergence(
    name: str, doc_a: Mapping[str, Any], doc_b: Mapping[str, Any],
) -> Optional[StreamDivergence]:
    sa = doc_a.get("streams", {}).get(name)
    sb = doc_b.get("streams", {}).get(name)
    if sa is None or sb is None:
        if sa is None and sb is None:
            return None
        present = sa or sb
        return StreamDivergence(name, (0, int(present["count"])), None)
    if sa["digest"] == sb["digest"] and sa["count"] == sb["count"]:
        return None
    idx = first_checkpoint_divergence(sa["checkpoints"], sb["checkpoints"])
    every = int(sa.get("checkpoint_every", 1))
    if idx is not None:
        return StreamDivergence(name, (idx * every, (idx + 1) * every), idx)
    # checkpointed prefix matches: divergence is in the unverified tail
    shared = min(len(sa["checkpoints"]), len(sb["checkpoints"]))
    start = shared * every
    end = max(int(sa["count"]), int(sb["count"]))
    return StreamDivergence(name, (start, max(end, start + 1)), None)


RunPair = Callable[[Optional[Dict[str, Tuple[int, int]]]], Tuple[Mapping[str, Any], Mapping[str, Any]]]


def bisect_divergence(
    run_pair: RunPair,
    streams: Optional[Sequence[str]] = None,
) -> DivergenceReport:
    """Find and name the first divergent event between two configurations.

    Phase 1 runs both configs once with digests only, binary-searches
    each requested stream's checkpoints, and ranks divergent streams by
    window start.  Phase 2 re-runs the pair with a capture window over
    the earliest divergent interval and compares captured events one by
    one.  ``streams`` defaults to every stream present in either run.
    """
    doc_a, doc_b = run_pair(None)
    if streams is None:
        streams = sorted(set(doc_a.get("streams", {})) | set(doc_b.get("streams", {})))

    divergences = []
    for name in streams:
        d = _stream_divergence(name, doc_a, doc_b)
        if d is not None:
            divergences.append(d)
    divergences.sort(key=lambda d: d.window[0])
    if not divergences:
        return DivergenceReport(identical=True)

    target = divergences[0]
    report = DivergenceReport(identical=False, streams=divergences, stream=target.stream)
    cap_a, cap_b = run_pair({target.stream: target.window})
    events_a = cap_a.get("streams", {}).get(target.stream, {}).get("captured", [])
    events_b = cap_b.get("streams", {}).get(target.stream, {}).get("captured", [])
    for i in range(max(len(events_a), len(events_b))):
        ea = events_a[i] if i < len(events_a) else None
        eb = events_b[i] if i < len(events_b) else None
        if ea is None or eb is None or list(ea) != list(eb):
            report.event_count = int((ea or eb)[0])
            report.event_a = None if ea is None else str(ea[1])
            report.event_b = None if eb is None else str(eb[1])
            break
    return report


def compare_documents(
    doc_a: Mapping[str, Any],
    doc_b: Mapping[str, Any],
    streams: Optional[Sequence[str]] = None,
) -> List[StreamDivergence]:
    """Digest-level comparison of two checker documents (no re-runs)."""
    if streams is None:
        streams = sorted(set(doc_a.get("streams", {})) | set(doc_b.get("streams", {})))
    out = []
    for name in streams:
        d = _stream_divergence(name, doc_a, doc_b)
        if d is not None:
            out.append(d)
    out.sort(key=lambda d: d.window[0])
    return out
