import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.link import Link, LinkSpec, max_min_allocation


class TestLinkSpec:
    def test_valid(self):
        spec = LinkSpec(bandwidth=1e8, delay=0.01, loss=0.001, udp_cap=1e7)
        assert (spec.bandwidth, spec.delay, spec.loss, spec.udp_cap) == (1e8, 0.01, 0.001, 1e7)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            LinkSpec(bandwidth=0, delay=0.01)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            LinkSpec(bandwidth=1e8, delay=-1)

    def test_loss_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            LinkSpec(bandwidth=1e8, delay=0, loss=1.0)

    def test_bad_udp_cap_rejected(self):
        with pytest.raises(ValueError):
            LinkSpec(bandwidth=1e8, delay=0, udp_cap=0)


class TestMaxMin:
    def test_empty(self):
        assert max_min_allocation([], 100.0) == []

    def test_under_subscribed(self):
        assert max_min_allocation([10.0, 20.0], 100.0) == [10.0, 20.0]

    def test_equal_split_when_saturated(self):
        assert max_min_allocation([100.0, 100.0], 100.0) == [50.0, 50.0]

    def test_progressive_filling(self):
        # Small demand satisfied, the rest split the remainder.
        alloc = max_min_allocation([10.0, 100.0, 100.0], 100.0)
        assert alloc == [10.0, 45.0, 45.0]

    def test_infinite_demands(self):
        alloc = max_min_allocation([math.inf, math.inf], 80.0)
        assert alloc == [40.0, 40.0]

    def test_mixed_infinite_and_small(self):
        alloc = max_min_allocation([5.0, math.inf], 80.0)
        assert alloc == [5.0, 75.0]

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=20),
        st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_invariants(self, demands, capacity):
        alloc = max_min_allocation(demands, capacity)
        assert len(alloc) == len(demands)
        # Never exceed demand or capacity.
        assert all(a <= d + 1e-9 for a, d in zip(alloc, demands))
        assert sum(alloc) <= capacity + 1e-6
        # Work conserving: either all demands met or capacity (nearly) used.
        if sum(demands) >= capacity:
            assert sum(alloc) == pytest.approx(capacity, rel=1e-9)
        else:
            assert alloc == pytest.approx(demands)

    @given(
        st.lists(st.floats(min_value=0.1, max_value=1e5, allow_nan=False), min_size=2, max_size=10),
        st.floats(min_value=1.0, max_value=1e5, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_fairness_unsatisfied_flows_equal(self, demands, capacity):
        alloc = max_min_allocation(demands, capacity)
        unsatisfied = [a for a, d in zip(alloc, demands) if a < d - 1e-9]
        if len(unsatisfied) >= 2:
            assert max(unsatisfied) == pytest.approx(min(unsatisfied), rel=1e-6)


class TestLossProbability:
    def test_zero_loss(self):
        link = Link("a", "b", LinkSpec(1e8, 0.01))
        assert link.forward.loss_probability(65536) == 0.0

    def test_scales_with_size(self):
        link = Link("a", "b", LinkSpec(1e8, 0.01, loss=1e-4))
        small = link.forward.loss_probability(1500)
        large = link.forward.loss_probability(65536)
        assert 0 < small < large < 1

    def test_tiny_message_counts_one_packet(self):
        link = Link("a", "b", LinkSpec(1e8, 0.01, loss=0.5))
        assert link.forward.loss_probability(10) == pytest.approx(0.5)


class TestLinkDirections:
    def test_direction_lookup(self):
        link = Link("a", "b", LinkSpec(1e8, 0.01), LinkSpec(5e7, 0.02))
        assert link.direction("a", "b").spec.bandwidth == 1e8
        assert link.direction("b", "a").spec.bandwidth == 5e7
        with pytest.raises(KeyError):
            link.direction("a", "c")

    def test_set_up_affects_both(self):
        link = Link("a", "b", LinkSpec(1e8, 0.01))
        link.set_up(False)
        assert not link.forward.up and not link.backward.up
