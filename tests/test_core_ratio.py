from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ProtocolRatio, signed_of_counts
from repro.errors import RatioError
from repro.messaging import Transport


class TestConstruction:
    def test_probability_bounds(self):
        with pytest.raises(RatioError):
            ProtocolRatio(-0.1)
        with pytest.raises(RatioError):
            ProtocolRatio(1.1)

    def test_signed_bounds(self):
        with pytest.raises(RatioError):
            ProtocolRatio.from_signed(-1.5)
        with pytest.raises(RatioError):
            ProtocolRatio.from_signed(2)

    def test_constants(self):
        assert ProtocolRatio.ALL_TCP.signed == -1
        assert ProtocolRatio.ALL_UDT.signed == 1
        assert ProtocolRatio.FIFTY_FIFTY.signed == 0

    def test_equality_and_hash(self):
        assert ProtocolRatio(Fraction(1, 2)) == ProtocolRatio.FIFTY_FIFTY
        assert hash(ProtocolRatio(0)) == hash(ProtocolRatio.ALL_TCP)


class TestConversions:
    def test_signed_probability_mapping(self):
        # -1 <-> 0, 0 <-> 1/2, 1 <-> 1 (paper §IV-B).
        assert ProtocolRatio.from_signed(-1).probability == 0
        assert ProtocolRatio.from_signed(0).probability == Fraction(1, 2)
        assert ProtocolRatio.from_signed(1).probability == 1

    @given(st.fractions(min_value=-1, max_value=1))
    @settings(max_examples=100, deadline=None)
    def test_signed_roundtrip(self, r):
        ratio = ProtocolRatio.from_signed(r)
        assert ratio.signed == r
        assert ProtocolRatio(ratio.probability).signed == r

    def test_pattern_form_fifty_fifty(self):
        form = ProtocolRatio.FIFTY_FIFTY.pattern_form()
        assert (form.p, form.q) == (1, 1)

    def test_pattern_form_mostly_tcp(self):
        # 20% UDT -> 1 UDT per 4 TCP, minority UDT.
        form = ProtocolRatio(Fraction(1, 5)).pattern_form()
        assert (form.p, form.q) == (1, 4)
        assert form.minority is Transport.UDT
        assert form.majority is Transport.TCP

    def test_pattern_form_mostly_udt(self):
        form = ProtocolRatio(Fraction(4, 5)).pattern_form()
        assert (form.p, form.q) == (1, 4)
        assert form.minority is Transport.TCP
        assert form.majority is Transport.UDT

    def test_pattern_form_all_tcp(self):
        form = ProtocolRatio.ALL_TCP.pattern_form()
        assert (form.p, form.q) == (0, 1)
        assert form.majority is Transport.TCP

    def test_pattern_form_all_udt(self):
        form = ProtocolRatio.ALL_UDT.pattern_form()
        assert (form.p, form.q) == (0, 1)
        assert form.majority is Transport.UDT

    def test_from_pattern_roundtrip(self):
        # Figure 1's x-axis values are pattern-form ratios r = p/q.
        for p, q in ((0, 1), (3, 100), (1, 3), (4, 5)):
            ratio = ProtocolRatio.from_pattern(p, q, majority=Transport.TCP)
            form = ratio.pattern_form()
            if p == 0:
                assert form.p == 0
            else:
                assert Fraction(form.p, form.q) == Fraction(p, q)

    @given(st.fractions(min_value=0, max_value=1))
    @settings(max_examples=100, deadline=None)
    def test_pattern_form_consistent_with_probability(self, u):
        ratio = ProtocolRatio(u)
        form = ratio.pattern_form()
        minority_share = Fraction(form.p, form.total)
        if form.minority is Transport.UDT:
            assert minority_share == u
        else:
            assert minority_share == 1 - u

    def test_from_pattern_validation(self):
        with pytest.raises(RatioError):
            ProtocolRatio.from_pattern(2, 1)
        with pytest.raises(RatioError):
            ProtocolRatio.from_pattern(1, 0)
        with pytest.raises(RatioError):
            ProtocolRatio.from_pattern(1, 2, majority=Transport.DATA)


class TestDiscretize:
    def test_snaps_to_grid(self):
        ratio = ProtocolRatio.from_signed(Fraction(33, 100))
        snapped = ratio.discretize(Fraction(1, 5))
        assert snapped.signed == Fraction(2, 5)

    def test_grid_points_unchanged(self):
        for i in range(-5, 6):
            r = Fraction(i, 5)
            assert ProtocolRatio.from_signed(r).discretize(Fraction(1, 5)).signed == r

    def test_clamping_at_edges(self):
        assert ProtocolRatio.from_signed(Fraction(99, 100)).discretize(Fraction(1, 5)).signed == 1

    def test_invalid_kappa(self):
        with pytest.raises(RatioError):
            ProtocolRatio.FIFTY_FIFTY.discretize(Fraction(0))

    def test_half_step_ties_round_away_from_zero(self):
        # Regression: round() banker's-rounded exact half steps toward the
        # even grid index, so +1/10 snapped to 0 but +3/10 snapped to 2/5.
        kappa = Fraction(1, 5)
        assert ProtocolRatio.from_signed(Fraction(1, 10)).discretize(kappa).signed == Fraction(1, 5)
        assert ProtocolRatio.from_signed(Fraction(3, 10)).discretize(kappa).signed == Fraction(2, 5)
        assert ProtocolRatio.from_signed(Fraction(-1, 10)).discretize(kappa).signed == Fraction(-1, 5)

    def test_grid_symmetry(self):
        # discretize(r) == -discretize(-r) everywhere, including exact ties
        kappa = Fraction(1, 5)
        probes = [Fraction(n, 20) for n in range(0, 21)]  # hits every half step
        for r in probes:
            pos = ProtocolRatio.from_signed(r).discretize(kappa).signed
            neg = ProtocolRatio.from_signed(-r).discretize(kappa).signed
            assert pos == -neg, f"asymmetric at r={r}: {pos} vs {neg}"


class TestObservedRatio:
    def test_counts(self):
        assert signed_of_counts(10, 0) == -1.0
        assert signed_of_counts(0, 10) == 1.0
        assert signed_of_counts(5, 5) == 0.0
        assert signed_of_counts(3, 1) == pytest.approx(-0.5)

    def test_empty_rejected(self):
        with pytest.raises(RatioError):
            signed_of_counts(0, 0)
