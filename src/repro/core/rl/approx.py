"""Quadratic value-function approximation (paper §IV-C5).

Assumption: "at any given time the reward function for a given connection's
protocol selection ratio has the shape of a quadratic function with a
single maximum."  Once at least two states carry learned values, a
least-squares polynomial (degree 2, or 1 with only two points) fitted over
them extrapolates the value of unexplored states, so the ε-greedy policy
can act greedily before the grid is explored.  Approximations are *never*
stored and never override learned values — they only fill the gaps.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Hashable, Optional

from repro.core.rl.model import ModelBasedV, TransitionModel

if TYPE_CHECKING:  # pragma: no cover - numpy loads only when a fit runs
    import numpy as np


class QuadraticApproxV(ModelBasedV):
    """Model-based V with quadratic extrapolation of unknown states."""

    MIN_POINTS = 2

    def __init__(self, model: TransitionModel) -> None:
        super().__init__(model)
        self._fit_cache: Optional[np.poly1d] = None
        self._fit_dirty = True

    def adjust(self, state: Hashable, action: Hashable, amount: float) -> None:
        super().adjust(state, action, amount)
        self._fit_dirty = True

    def value(self, state: Hashable, action: Hashable) -> Optional[float]:
        learned = super().value(state, action)
        if learned is not None:
            return learned
        target = self.model.next_state(state, action)
        return self._approximate(target)

    def _approximate(self, state: Hashable) -> Optional[float]:
        if len(self._v) < self.MIN_POINTS:
            return None
        fit = self._fit()
        if fit is None:
            return None
        return float(fit(float(state)))

    def _fit(self) -> Optional[np.poly1d]:
        if not self._fit_dirty:
            return self._fit_cache
        import numpy as np  # only --value-function approx gets here

        xs = np.array([float(s) for s in self._v.keys()])
        ys = np.array(list(self._v.values()))
        degree = min(2, len(xs) - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", np.exceptions.RankWarning)
            try:
                coeffs = np.polyfit(xs, ys, degree)
            except (np.linalg.LinAlgError, ValueError):  # pragma: no cover
                self._fit_cache = None
                self._fit_dirty = False
                return None
        self._fit_cache = np.poly1d(coeffs)
        self._fit_dirty = False
        return self._fit_cache
