"""Action-value function representations.

The interface distinguishes *unknown* values (``value`` returns ``None``)
from learned ones, because the ε-greedy policy must fall back to random
decisions on uninitialised entries (§IV-C3) — the very behaviour that
makes the plain matrix representation converge too slowly to be useful.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Hashable, Optional, Tuple

from repro.check import get_checker


class ActionValueFunction(ABC):
    """Q(s, a) estimate with explicit unknown-ness."""

    @abstractmethod
    def value(self, state: Hashable, action: Hashable) -> Optional[float]:
        """The current estimate, or None when nothing was learned yet."""

    @abstractmethod
    def adjust(self, state: Hashable, action: Hashable, amount: float) -> None:
        """Add ``amount`` (= α·δ·e) to the entry backing (state, action)."""

    def estimate(self, state: Hashable, action: Hashable) -> float:
        """Like :meth:`value` but 0.0 for unknown (the TD-target default)."""
        v = self.value(state, action)
        return 0.0 if v is None else v


class MatrixQ(ActionValueFunction):
    """The default dense-table representation (§IV-C3).

    Every (state, action) pair must be explored individually; with the
    paper's 11x5 grid this takes longer than most transfers last, which is
    exactly what the Figure 4 reproduction shows.
    """

    def __init__(self) -> None:
        self._q: Dict[Tuple[Hashable, Hashable], float] = {}
        checker = get_checker()
        self._inv = checker.rl_hook() if checker.enabled else None

    def value(self, state: Hashable, action: Hashable) -> Optional[float]:
        return self._q.get((state, action))

    def adjust(self, state: Hashable, action: Hashable, amount: float) -> None:
        key = (state, action)
        self._q[key] = value = self._q.get(key, 0.0) + amount
        if self._inv is not None:
            self._inv.check_q(state, action, value)
