import time

import pytest

from repro.util.clock import SimulatedClock, WallClock


class TestSimulatedClock:
    def test_starts_at_zero(self):
        assert SimulatedClock().now() == 0.0

    def test_custom_start(self):
        assert SimulatedClock(5.0).now() == 5.0

    def test_advance(self):
        clock = SimulatedClock()
        clock._advance_to(3.25)
        assert clock.now() == 3.25

    def test_advance_to_same_time_allowed(self):
        clock = SimulatedClock(2.0)
        clock._advance_to(2.0)
        assert clock.now() == 2.0

    def test_cannot_go_backwards(self):
        clock = SimulatedClock(10.0)
        with pytest.raises(ValueError):
            clock._advance_to(9.0)


class TestWallClock:
    def test_zeroed_at_start(self):
        clock = WallClock()
        assert clock.now() < 0.5

    def test_advances(self):
        clock = WallClock()
        t0 = clock.now()
        time.sleep(0.01)
        assert clock.now() > t0
