"""Eligibility traces (paper §IV-C2, Figure 3 lines 8-15).

The paper uses *replacing* traces — on a visit, e(s,a) is set to 1 and the
other actions of the same state are cleared — "to avoid heavily visited
state-action pairs [having] unreasonably high eligibility".  The default
*accumulating* variant (e += 1) is provided for the ablation benchmark.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, Tuple

from repro.check import get_checker

StateAction = Tuple[Hashable, Hashable]

PRUNE_BELOW = 1e-6


class EligibilityTraces:
    """Sparse e(s, a) map with replacing or accumulating visit semantics."""

    def __init__(self, kind: str = "replacing") -> None:
        if kind not in ("replacing", "accumulating"):
            raise ValueError(f"unknown trace kind {kind!r}")
        self.kind = kind
        self._traces: Dict[StateAction, float] = {}
        checker = get_checker()
        self._inv = checker.rl_hook() if checker.enabled else None

    def visit(self, state: Hashable, action: Hashable) -> None:
        """Mark (state, action) as just taken."""
        if self.kind == "replacing":
            # Figure 3: e(s,a) <- 1 and e(s,â) <- 0 for all â != a.
            for (s, a) in [k for k in self._traces if k[0] == state and k[1] != action]:
                del self._traces[(s, a)]
            self._traces[(state, action)] = 1.0
        else:
            self._traces[(state, action)] = self._traces.get((state, action), 0.0) + 1.0
        if self._inv is not None:
            self._inv.check_traces(self.kind, self._traces)

    def decay(self, gamma: float, lam: float) -> None:
        """Scale every trace by γλ, pruning negligible entries."""
        factor = gamma * lam
        if factor == 0.0:
            self._traces.clear()
            return
        stale = []
        for key in self._traces:
            self._traces[key] *= factor
            if self._traces[key] < PRUNE_BELOW:
                stale.append(key)
        for key in stale:
            del self._traces[key]

    def get(self, state: Hashable, action: Hashable) -> float:
        return self._traces.get((state, action), 0.0)

    def items(self) -> Iterator[Tuple[StateAction, float]]:
        return iter(list(self._traces.items()))
