"""Protocol-ratio representations and conversions (paper §IV-B).

The target ratio ``r`` between TCP and UDT traffic appears in three forms:

* **signed** ``r ∈ [-1, 1]``: −1 is 100% TCP, 0 a 50-50 mix, +1 100% UDT
  (the paper's analysis/visualisation form);
* **probability** ``u ∈ [0, 1]``: the probability of picking UDT;
* **pattern** ``p/q ∈ Q``: emit ``p`` minority-protocol messages for every
  ``q`` majority-protocol messages, with the majority decided by the sign
  of the signed form.

:class:`ProtocolRatio` stores the probability form exactly (as a
:class:`fractions.Fraction`) and converts on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from repro.errors import RatioError
from repro.messaging.transport import Transport

Rational = Union[int, float, Fraction]


def _to_fraction(value: Rational) -> Fraction:
    """Exact for ints/Fractions; floats are snapped to a small rational."""
    if isinstance(value, float):
        return Fraction(value).limit_denominator(10**9)
    return Fraction(value)


@dataclass(frozen=True)
class PatternForm:
    """``p`` minority messages per ``q`` majority messages."""

    p: int
    q: int
    minority: Transport
    majority: Transport

    @property
    def total(self) -> int:
        return self.p + self.q


class ProtocolRatio:
    """An exact TCP/UDT mixing ratio."""

    __slots__ = ("_u",)

    def __init__(self, udt_probability: Rational) -> None:
        u = _to_fraction(udt_probability)
        if not 0 <= u <= 1:
            raise RatioError(f"probability form must be in [0, 1], got {u}")
        self._u = u

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_signed(cls, r: Rational) -> "ProtocolRatio":
        r = _to_fraction(r)
        if not -1 <= r <= 1:
            raise RatioError(f"signed form must be in [-1, 1], got {r}")
        return cls((r + 1) / 2)

    @classmethod
    def from_pattern(cls, p: int, q: int, majority: Transport = Transport.TCP) -> "ProtocolRatio":
        """``p`` minority messages per ``q`` majority messages."""
        if q <= 0 or p < 0 or p > q:
            raise RatioError(f"pattern form needs 0 <= p <= q, q > 0; got p={p}, q={q}")
        minority_share = Fraction(p, p + q)
        if majority is Transport.TCP:
            return cls(minority_share)  # minority is UDT
        if majority is Transport.UDT:
            return cls(1 - minority_share)
        raise RatioError(f"majority must be TCP or UDT, got {majority}")

    ALL_TCP: "ProtocolRatio"
    ALL_UDT: "ProtocolRatio"
    FIFTY_FIFTY: "ProtocolRatio"

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def probability(self) -> Fraction:
        """Probability of selecting UDT."""
        return self._u

    @property
    def signed(self) -> Fraction:
        """−1 = all TCP ... +1 = all UDT."""
        return 2 * self._u - 1

    def pattern_form(self) -> PatternForm:
        """The p/q pattern representation with majority by sign."""
        u = self._u
        if u <= Fraction(1, 2):
            minority_share = u
            minority, majority = Transport.UDT, Transport.TCP
        else:
            minority_share = 1 - u
            minority, majority = Transport.TCP, Transport.UDT
        if minority_share == 0:
            return PatternForm(0, 1, minority, majority)
        ratio = minority_share / (1 - minority_share)  # p/q
        return PatternForm(ratio.numerator, ratio.denominator, minority, majority)

    # ------------------------------------------------------------------
    # discretisation (the learner's ratio grid, §IV-C3)
    # ------------------------------------------------------------------
    def discretize(self, kappa: Fraction = Fraction(1, 5)) -> "ProtocolRatio":
        """Snap the signed form to the nearest multiple of ``kappa``.

        Half-step ties round *away from zero*: ``round()`` would apply
        banker's rounding and snap ties to even grid multiples, making the
        tie direction depend on the neighbouring step's parity instead of
        a symmetric rule (discretize(r) == -discretize(-r) per half-step).
        """
        if kappa <= 0 or kappa > 1:
            raise RatioError(f"kappa must be in (0, 1], got {kappa}")
        q = Fraction(self.signed) / Fraction(kappa)
        floor_q = q.numerator // q.denominator
        frac = q - floor_q
        half = Fraction(1, 2)
        if frac > half or (frac == half and q > 0):
            steps = floor_q + 1
        else:
            steps = floor_q
        snapped = max(Fraction(-1), min(Fraction(1), steps * Fraction(kappa)))
        return ProtocolRatio.from_signed(snapped)

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, ProtocolRatio) and self._u == other._u

    def __hash__(self) -> int:
        return hash(self._u)

    def __repr__(self) -> str:
        return f"ProtocolRatio(signed={self.signed}, p(UDT)={self._u})"


ProtocolRatio.ALL_TCP = ProtocolRatio(0)
ProtocolRatio.ALL_UDT = ProtocolRatio(1)
ProtocolRatio.FIFTY_FIFTY = ProtocolRatio(Fraction(1, 2))


def signed_of_counts(tcp_count: int, udt_count: int) -> float:
    """Observed signed ratio of a message sample (−1 all TCP ... +1 all UDT)."""
    total = tcp_count + udt_count
    if total == 0:
        raise RatioError("no messages to compute a ratio over")
    return (udt_count - tcp_count) / total
