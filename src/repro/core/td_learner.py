"""TDRatioLearner: the reinforcement-learning protocol ratio policy (§IV-C2).

Per destination flow, a Sarsa(λ) learner walks a discretised signed-ratio
grid (step κ = 1/5 by default: 11 states from −1 to +1) using step actions
(0, ±κ, ±2κ by default: 5 actions), with one learning episode per
interceptor tick (1 s).  The value-function representation is pluggable:

* ``"matrix"``  — plain Q(s,a) table, Figure 4 (converges too slowly);
* ``"model"``   — V(s) + transition model, Figure 5 (~20 s);
* ``"approx"``  — model + quadratic extrapolation, Figure 6 (seconds).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import List, Optional, Union

from repro.core.prp import ProtocolRatioPolicy
from repro.core.ratio import ProtocolRatio
from repro.core.rewards import EpisodeStats, reward
from repro.core.rl import (
    ActionValueFunction,
    EligibilityTraces,
    EpsilonGreedy,
    MatrixQ,
    ModelBasedV,
    QuadraticApproxV,
    SarsaLambda,
    TransitionModel,
)
from repro.errors import PolicyError
from repro.obs import get_registry

#: paper defaults (§IV-C3): matrix needs aggressive exploration,
#: the model-based variants converge with far less (§IV-C4).
DEFAULT_EPSILON_MAX = {"matrix": 0.8, "model": 0.3, "approx": 0.3}


def ratio_states(kappa: Fraction = Fraction(1, 5)) -> List[Fraction]:
    """The signed-ratio grid {−1, −1+κ, ..., 1−κ, 1}."""
    if kappa <= 0 or Fraction(1) % Fraction(kappa) != 0:
        raise PolicyError(f"kappa must evenly divide 1, got {kappa}")
    n = int(Fraction(1) / Fraction(kappa))
    return [Fraction(i, n) for i in range(-n, n + 1)]


def step_actions(kappa: Fraction = Fraction(1, 5), max_step: int = 2) -> List[Fraction]:
    """Step actions {−max_step·κ, ..., 0, ..., +max_step·κ}."""
    if max_step < 1:
        raise PolicyError("max_step must be at least 1")
    return [i * Fraction(kappa) for i in range(-max_step, max_step + 1)]


class TDRatioLearner(ProtocolRatioPolicy):
    """Online Sarsa(λ)-driven ratio policy."""

    def __init__(
        self,
        rng: random.Random,
        value_function: Union[str, ActionValueFunction] = "approx",
        kappa: Fraction = Fraction(1, 5),
        max_step: int = 2,
        alpha: float = 0.5,
        gamma: float = 0.5,
        lam: float = 0.85,
        epsilon_max: Optional[float] = None,
        epsilon_min: float = 0.1,
        epsilon_decay: float = 0.01,
        initial_state: Fraction = Fraction(0),
        trace_kind: str = "replacing",
    ) -> None:
        self.states = ratio_states(kappa)
        self.actions = step_actions(kappa, max_step)
        self.model = TransitionModel(self.states)
        if initial_state not in set(self.states):
            raise PolicyError(f"initial state {initial_state} not on the κ={kappa} grid")

        if isinstance(value_function, str):
            kind = value_function
            if kind == "matrix":
                qfunc: ActionValueFunction = MatrixQ()
            elif kind == "model":
                qfunc = ModelBasedV(self.model)
            elif kind == "approx":
                qfunc = QuadraticApproxV(self.model)
            else:
                raise PolicyError(f"unknown value function kind {kind!r}")
            if epsilon_max is None:
                epsilon_max = DEFAULT_EPSILON_MAX[kind]
        else:
            qfunc = value_function
            if epsilon_max is None:
                epsilon_max = 0.3

        self.qfunc = qfunc
        self.policy = EpsilonGreedy(rng, epsilon_max, epsilon_min, epsilon_decay)
        self.sarsa = SarsaLambda(
            actions=self.actions,
            qfunc=qfunc,
            policy=self.policy,
            transition=self.model.next_state,
            alpha=alpha,
            gamma=gamma,
            lam=lam,
            traces=EligibilityTraces(trace_kind),
        )
        self._initial_state = initial_state
        self._current_state: Optional[Fraction] = None
        self.last_reward: Optional[float] = None

        metrics = get_registry()
        # Registry-scoped instance index keeps labels deterministic across
        # repeated runs against fresh registries (unlike a process counter).
        labels = {"learner": str(len(metrics.family("rl.sarsa.episodes_total")))}
        self._m_episodes = metrics.counter("rl.sarsa.episodes_total", **labels)
        self._m_reward = metrics.gauge("rl.sarsa.reward", **labels)
        if metrics.enabled:
            metrics.gauge("rl.sarsa.td_error", **labels).set_function(
                lambda: self.sarsa.last_delta
                if self.sarsa.last_delta is not None
                else math.nan
            )
            metrics.gauge("rl.policy.epsilon", **labels).set_function(
                lambda: self.policy.epsilon
            )
            metrics.gauge("rl.sarsa.state_signed", **labels).set_function(
                lambda: float(self._current_state)
                if self._current_state is not None
                else math.nan
            )

    # ------------------------------------------------------------------
    # ProtocolRatioPolicy interface
    # ------------------------------------------------------------------
    def initial_ratio(self) -> ProtocolRatio:
        """Initialise s, pick the first action, and prescribe M(s, a)."""
        self._current_state = self.sarsa.begin(self._initial_state)
        return ProtocolRatio.from_signed(self._current_state)

    def update(self, stats: EpisodeStats) -> ProtocolRatio:
        """Fold one episode's reward into the learner; next target ratio."""
        if self._current_state is None:
            return self.initial_ratio()
        r = reward(stats)
        self.last_reward = r
        self._m_episodes.inc()
        self._m_reward.set(r)
        self._current_state = self.sarsa.step(r, self._current_state)
        return ProtocolRatio.from_signed(self._current_state)
