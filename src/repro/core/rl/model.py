"""Model-based value function (paper §IV-C4).

Domain knowledge: an action is a ratio step, so the successor state is
simply the clamped sum,

    M(s, a) = min(s + a, max(S))  for s + a >= 0
              max(s + a, min(S))  for s + a < 0

which lets the 11x5 Q-matrix collapse into an 11-entry state-value vector
V with Q(s, a) = V(M(s, a)).  Many (s, a) pairs share each V(s') entry, so
exploration propagates far faster — Figure 5's ~20 s convergence.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, Optional, Sequence

from repro.core.rl.qfunc import ActionValueFunction


class TransitionModel:
    """The clamped additive state-transition model over a ratio grid."""

    def __init__(self, states: Sequence[Fraction]) -> None:
        if not states:
            raise ValueError("need at least one state")
        self.states = sorted(states)
        self._state_set = set(self.states)
        self.low = self.states[0]
        self.high = self.states[-1]
        #: canonical grid objects, so every next_state result is the same
        #: Fraction instance and downstream dict probes short-circuit on
        #: identity instead of running Fraction.__eq__
        self._canon = {s: s for s in self.states}
        #: memoized transitions keyed by (num, den, num, den) int tuples —
        #: Fraction.__hash__ computes a modular inverse per call, which
        #: dominates the learner's episode cost without this
        self._memo: Dict[tuple, Fraction] = {}

    def next_state(self, state: Fraction, action: Fraction) -> Fraction:
        """M(s, a): apply the step and clamp to the grid boundary."""
        key = (
            state.numerator, state.denominator,
            action.numerator, action.denominator,
        )
        target = self._memo.get(key)
        if target is not None:
            return target
        if state not in self._state_set:
            raise ValueError(f"unknown state {state}")
        target = state + action
        if target > self.high:
            target = self.high
        elif target < self.low:
            target = self.low
        if target not in self._state_set:
            raise ValueError(f"action {action} leaves the grid from {state} (-> {target})")
        target = self._canon[target]
        self._memo[key] = target
        return target


class ModelBasedV(ActionValueFunction):
    """Q(s, a) = V(M(s, a)) over a learned state-value vector."""

    def __init__(self, model: TransitionModel) -> None:
        self.model = model
        self._v: Dict[Hashable, float] = {}

    def value(self, state: Hashable, action: Hashable) -> Optional[float]:
        return self._v.get(self.model.next_state(state, action))

    def adjust(self, state: Hashable, action: Hashable, amount: float) -> None:
        target = self.model.next_state(state, action)
        self._v[target] = self._v.get(target, 0.0) + amount
