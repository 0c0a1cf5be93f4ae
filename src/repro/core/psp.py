"""Protocol selection policies (paper §IV-B).

A PSP assigns a wire transport (TCP or UDT) to each individual message so
that the emitted stream approaches the target ratio prescribed by the
protocol ratio policy.  A *good* PSP stays close to the target even over
short windows of the stream (§IV-B: skew within one learning episode
distorts the learner's rewards).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

from repro.core.ratio import ProtocolRatio
from repro.messaging.transport import Transport


class ProtocolSelectionPolicy(ABC):
    """Stamps one of TCP/UDT onto each outgoing data message."""

    def __init__(self, ratio: ProtocolRatio = ProtocolRatio.FIFTY_FIFTY) -> None:
        self._ratio = ratio
        self.tcp_selected = 0
        self.udt_selected = 0

    def set_ratio(self, ratio: ProtocolRatio) -> None:
        """Adopt a new target ratio (called by the PRP each episode)."""
        self._ratio = ratio
        self._on_ratio_changed()

    def _on_ratio_changed(self) -> None:
        """Hook for subclasses to rebuild internal state."""

    def select(self) -> Transport:
        """The transport for the next message."""
        choice = self._select()
        if choice is Transport.TCP:
            self.tcp_selected += 1
        elif choice is Transport.UDT:
            self.udt_selected += 1
        else:  # pragma: no cover - defensive
            raise ValueError(f"PSP returned non-wire transport {choice}")
        return choice

    @abstractmethod
    def _select(self) -> Transport: ...


class RandomSelection(ProtocolSelectionPolicy):
    """Baseline probabilistic selection (§IV-B1).

    A Bernoulli draw per message with P(UDT) = the target probability.  The
    law of large numbers drives the long-run ratio to the target, but there
    is no short-term balance: §IV-B2 measures skews of ±0.5 over
    16-message windows, which distorts the learner's reward attribution.
    """

    def __init__(self, rng: random.Random, ratio: ProtocolRatio = ProtocolRatio.FIFTY_FIFTY) -> None:
        super().__init__(ratio)
        self._rng = rng

    def _select(self) -> Transport:
        return Transport.UDT if self._rng.random() < self._ratio.probability else Transport.TCP
