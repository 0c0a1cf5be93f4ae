"""Pattern-based protocol selection (paper §IV-B3/4).

For a target ratio in pattern form ``p/q`` (p minority-protocol messages
per q majority-protocol messages), deterministic interleavings keep the
running ratio close to the target at every point of the stream:

* **p-pattern**: split the Qs into blocks of ``b = ⌊q/p⌋`` and interleave
  a P after each block; the remainder ``c = q − p·b`` trails at the end:
  ``(Q^b P)^p Q^c``.
* **(p+1)-pattern**: one extra Q block between the last P and the tail,
  with ``b = ⌊q/(p+1)⌋`` and ``c = q − (p+1)·b``: ``(Q^b P)^p Q^b Q^c``.

The pattern with the smaller rest ``c`` is selected (ties favour the
p-pattern), minimising the unbalanced tail.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.psp import ProtocolSelectionPolicy
from repro.core.ratio import PatternForm, ProtocolRatio
from repro.errors import PolicyError
from repro.messaging.transport import Transport

# Symbols: True = minority (P), False = majority (Q).
Pattern = Tuple[bool, ...]

#: longest materialised pattern (p + q); finer ratios get snapped
MAX_PATTERN_LENGTH = 4096


def p_pattern(p: int, q: int) -> Tuple[Pattern, int]:
    """The p-pattern and its rest ``c`` for ratio p/q."""
    _validate(p, q)
    if p == 0:
        return (False,) * q, 0
    b = q // p
    c = q - p * b
    block = (False,) * b + (True,)
    return block * p + (False,) * c, c


def p_plus_one_pattern(p: int, q: int) -> Tuple[Pattern, int]:
    """The (p+1)-pattern and its rest ``c`` for ratio p/q."""
    _validate(p, q)
    if p == 0:
        return (False,) * q, 0
    b = q // (p + 1)
    c = q - (p + 1) * b
    block = (False,) * b + (True,)
    return block * p + (False,) * b + (False,) * c, c


def best_pattern(p: int, q: int) -> Pattern:
    """The pattern with the smaller rest (§IV-B4); ties take the p-pattern."""
    pat_p, rest_p = p_pattern(p, q)
    pat_p1, rest_p1 = p_plus_one_pattern(p, q)
    return pat_p if rest_p <= rest_p1 else pat_p1


def _validate(p: int, q: int) -> None:
    if q <= 0:
        raise PolicyError(f"pattern needs q > 0, got q={q}")
    if p < 0 or p > q:
        raise PolicyError(f"pattern needs 0 <= p <= q, got p={p}, q={q}")


def pattern_for_ratio(ratio: ProtocolRatio) -> Tuple[Pattern, PatternForm]:
    """The chosen interleaving for ``ratio`` plus its pattern form."""
    form = ratio.pattern_form()
    return best_pattern(form.p, form.q), form


class PatternSelection(ProtocolSelectionPolicy):
    """Deterministic interleaving PSP (§IV-B3).

    Cycles through the chosen pattern; a ratio change rebuilds the pattern
    and restarts it.  Compared to :class:`RandomSelection`, the observed
    ratio over any window deviates from the target by at most about one
    majority-block length (see Figure 1's reproduction).

    Patterns are materialised, so their length (p + q, the reduced
    denominator of the ratio) is capped at :data:`MAX_PATTERN_LENGTH`;
    finer ratios are snapped to the nearest representable one.  The paper
    makes the same point qualitatively (§IV-B4): ratios finer than the
    traffic's timescale cannot be realised anyway.
    """

    def __init__(self, ratio: ProtocolRatio = ProtocolRatio.FIFTY_FIFTY) -> None:
        super().__init__(ratio)
        self._pattern: Pattern = ()
        self._form: PatternForm = ratio.pattern_form()
        self._index = 0
        self._rebuild()

    def _on_ratio_changed(self) -> None:
        self._rebuild()

    def _rebuild(self) -> None:
        ratio = self._ratio
        if ratio.pattern_form().total > MAX_PATTERN_LENGTH:
            snapped = ratio.probability.limit_denominator(MAX_PATTERN_LENGTH)
            ratio = ProtocolRatio(snapped)
        self._pattern, self._form = pattern_for_ratio(ratio)
        self._index = 0

    def _select(self) -> Transport:
        is_minority = self._pattern[self._index]
        self._index = (self._index + 1) % len(self._pattern)
        return self._form.minority if is_minority else self._form.majority
