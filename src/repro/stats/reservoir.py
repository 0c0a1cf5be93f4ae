"""Reservoir sampling and distribution summaries.

Figure 1 of the paper summarises ~160 000 ratio observations per dataset as
box statistics (min / 25th / median / 75th / max).  For experiments that emit
more samples than is worth keeping, :class:`ReservoirSampler` maintains a
uniform sample; :func:`summarize_distribution` produces the box statistics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence


class ReservoirSampler:
    """Uniform fixed-size sample over an unbounded stream (Vitter's R)."""

    def __init__(self, capacity: int, rng: Optional[random.Random] = None) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._rng = rng or random.Random(0)
        self._items: List[float] = []
        self.seen = 0

    def add(self, value: float) -> None:
        self.seen += 1
        if len(self._items) < self.capacity:
            self._items.append(value)
            return
        j = self._rng.randrange(self.seen)
        if j < self.capacity:
            self._items[j] = value

    @property
    def samples(self) -> Sequence[float]:
        return tuple(self._items)


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary, as used by the paper's Figure 1 box plots."""

    count: int
    minimum: float
    p25: float
    median: float
    p75: float
    maximum: float
    mean: float


def summarize_distribution(values: Sequence[float]) -> BoxStats:
    """Compute the five-number summary (plus mean) of ``values``."""
    if len(values) == 0:
        raise ValueError("cannot summarise an empty sample")
    import numpy as np  # here, not at module level: most processes never summarise

    arr = np.asarray(values, dtype=float)
    p25, median, p75 = np.percentile(arr, [25.0, 50.0, 75.0])
    return BoxStats(
        count=int(arr.size),
        minimum=float(arr.min()),
        p25=float(p25),
        median=float(median),
        p75=float(p75),
        maximum=float(arr.max()),
        mean=float(arr.mean()),
    )
