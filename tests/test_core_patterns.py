import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    PatternSelection,
    ProtocolRatio,
    RandomSelection,
    best_pattern,
    p_pattern,
    p_plus_one_pattern,
)
from repro.errors import PolicyError
from repro.messaging import Transport


def render(pattern):
    """'P'/'Q' string for readable assertions."""
    return "".join("P" if x else "Q" for x in pattern)


class TestPPattern:
    def test_paper_example_one_half(self):
        # r = 1/1 in pattern form is the 50-50 mix: alternating.
        pattern, rest = p_pattern(1, 1)
        assert render(pattern) == "QP"
        assert rest == 0

    def test_paper_example_one_third(self):
        # r = 1/3: one P per three Qs; block b=3, c=0 -> QQQP.
        pattern, rest = p_pattern(1, 3)
        assert render(pattern) == "QQQP"
        assert rest == 0

    def test_shape_general(self):
        # p=2, q=5: b=2, c=1 -> (QQP)^2 Q.
        pattern, rest = p_pattern(2, 5)
        assert render(pattern) == "QQPQQPQ"
        assert rest == 1

    def test_zero_p_all_majority(self):
        pattern, rest = p_pattern(0, 4)
        assert render(pattern) == "QQQQ"
        assert rest == 0

    def test_validation(self):
        with pytest.raises(PolicyError):
            p_pattern(1, 0)
        with pytest.raises(PolicyError):
            p_pattern(5, 3)


class TestPPlusOnePattern:
    def test_shape(self):
        # p=2, q=5: b = 5//3 = 1, c = 5-3 = 2 -> (QP)^2 Q QQ.
        pattern, rest = p_plus_one_pattern(2, 5)
        assert render(pattern) == "QPQPQQQ"
        assert rest == 2

    def test_perfect_split(self):
        # p=2, q=6: b=2, c=0 -> (QQP)^2 QQ.
        pattern, rest = p_plus_one_pattern(2, 6)
        assert render(pattern) == "QQPQQPQQ"
        assert rest == 0


class TestBestPattern:
    def test_prefers_smaller_rest(self):
        # p=2, q=5: p-pattern rest 1 vs p+1-pattern rest 2 -> p-pattern.
        assert render(best_pattern(2, 5)) == "QQPQQPQ"

    def test_p_plus_one_wins_when_rest_smaller(self):
        # p=3, q=100: p-pattern b=33,c=1; p+1: b=25,c=0 -> p+1 wins.
        pattern = best_pattern(3, 100)
        assert render(pattern) == ("Q" * 25 + "P") * 3 + "Q" * 25

    @given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=200))
    @settings(max_examples=300, deadline=None)
    def test_pattern_invariants(self, p, q):
        if p > q:
            p, q = q, p
        for pattern, rest in (p_pattern(p, q), p_plus_one_pattern(p, q)):
            # Invariant 1: exactly p Ps and q Qs.
            assert sum(pattern) == p
            assert len(pattern) == p + q
            # Invariant 2 (paper: complete run has no deviation from r).
            if p:
                assert Fraction(sum(pattern), len(pattern)) == Fraction(p, p + q)

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=120))
    @settings(max_examples=200, deadline=None)
    def test_prefix_deviation_bounded(self, p, q):
        """At any point the P-share stays within one block of the target."""
        if p > q:
            p, q = q, p
        pattern = best_pattern(p, q)
        target = p / (p + q)
        b = max(q // p, 1)
        seen_p = 0
        for i, is_p in enumerate(pattern, start=1):
            seen_p += is_p
            # Count deviation bounded by one majority block plus the rest tail.
            assert abs(seen_p - i * target) <= b + (q - p * b) + 1


class TestPatternSelection:
    def test_emits_configured_ratio(self):
        psp = PatternSelection(ProtocolRatio(Fraction(1, 4)))
        picks = [psp.select() for _ in range(80)]
        assert picks.count(Transport.UDT) == 20
        assert picks.count(Transport.TCP) == 60

    def test_alternates_rapidly_at_fifty_fifty(self):
        psp = PatternSelection(ProtocolRatio.FIFTY_FIFTY)
        picks = [psp.select() for _ in range(10)]
        assert picks == [Transport.TCP, Transport.UDT] * 5

    def test_all_tcp(self):
        psp = PatternSelection(ProtocolRatio.ALL_TCP)
        assert {psp.select() for _ in range(10)} == {Transport.TCP}

    def test_all_udt(self):
        psp = PatternSelection(ProtocolRatio.ALL_UDT)
        assert {psp.select() for _ in range(10)} == {Transport.UDT}

    def test_ratio_change_rebuilds_pattern(self):
        psp = PatternSelection(ProtocolRatio.ALL_TCP)
        psp.select()
        psp.set_ratio(ProtocolRatio.ALL_UDT)
        assert psp.select() is Transport.UDT

    def test_counters(self):
        psp = PatternSelection(ProtocolRatio.FIFTY_FIFTY)
        for _ in range(10):
            psp.select()
        assert psp.tcp_selected == 5 and psp.udt_selected == 5


class TestRandomSelection:
    def test_matches_ratio_in_the_long_run(self):
        psp = RandomSelection(random.Random(42), ProtocolRatio(0.3))
        picks = [psp.select() for _ in range(20000)]
        share = picks.count(Transport.UDT) / len(picks)
        assert share == pytest.approx(0.3, abs=0.02)

    def test_short_window_skew_exceeds_pattern(self):
        """The §IV-B2 observation: probabilistic selection skews over
        short windows while pattern selection stays near-exact."""
        ratio = ProtocolRatio.FIFTY_FIFTY
        rng = random.Random(7)
        rand_psp = RandomSelection(rng, ratio)
        pat_psp = PatternSelection(ratio)

        def max_window_skew(psp, n=4000, window=16):
            picks = [1 if psp.select() is Transport.UDT else 0 for _ in range(n)]
            worst = 0.0
            for i in range(0, n - window):
                share = sum(picks[i:i + window]) / window
                worst = max(worst, abs(share - 0.5))
            return worst

        assert max_window_skew(pat_psp) <= 0.05
        assert max_window_skew(rand_psp) > 0.2

    def test_extreme_ratios(self):
        rng = random.Random(1)
        assert {RandomSelection(rng, ProtocolRatio.ALL_TCP).select() for _ in range(20)} == {Transport.TCP}


class TestPatternLengthCap:
    def test_absurdly_fine_ratio_snapped_not_exploded(self):
        """Regression: a ratio like 539/317905793351 must not materialise a
        10^11-element pattern (MemoryError); it snaps to the nearest ratio
        representable within MAX_PATTERN_LENGTH."""
        from fractions import Fraction

        from repro.core.patterns import MAX_PATTERN_LENGTH

        psp = PatternSelection(ProtocolRatio(Fraction(539, 317905793351)))
        assert len(psp._pattern) <= MAX_PATTERN_LENGTH
        # The snapped mix is still overwhelmingly TCP.
        picks = [psp.select() for _ in range(MAX_PATTERN_LENGTH)]
        assert picks.count(Transport.UDT) <= 2

    def test_cap_boundary_not_snapped(self):
        from fractions import Fraction

        from repro.core.patterns import MAX_PATTERN_LENGTH

        # denominator == cap: exactly representable, no snapping.
        u = Fraction(1, MAX_PATTERN_LENGTH)
        psp = PatternSelection(ProtocolRatio(u))
        assert len(psp._pattern) == MAX_PATTERN_LENGTH
        picks = [psp.select() for _ in range(MAX_PATTERN_LENGTH)]
        assert picks.count(Transport.UDT) == 1
