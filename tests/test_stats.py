import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import (
    OnlineStats,
    ReservoirSampler,
    TimeSeries,
    mean_confidence_interval,
    relative_standard_error,
    summarize_distribution,
)
from repro.stats.confidence import enough_runs


class TestOnlineStats:
    def test_empty(self):
        s = OnlineStats()
        assert s.count == 0
        assert s.mean == 0.0
        assert s.variance == 0.0

    def test_known_values(self):
        s = OnlineStats()
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]:
            s.add(v)
        assert s.mean == pytest.approx(5.0)
        assert s.variance == pytest.approx(32.0 / 7.0)
        assert s.min == 2.0
        assert s.max == 9.0

    def test_single_value_variance_zero(self):
        s = OnlineStats()
        s.add(3.0)
        assert s.variance == 0.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_matches_batch_computation(self, values):
        s = OnlineStats()
        for v in values:
            s.add(v)
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert s.mean == pytest.approx(mean, rel=1e-9, abs=1e-6)
        assert s.variance == pytest.approx(var, rel=1e-6, abs=1e-6)

    @given(
        st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=1, max_size=50),
        st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=1, max_size=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_merge_equals_concatenation(self, a, b):
        sa, sb, sc = OnlineStats(), OnlineStats(), OnlineStats()
        for v in a:
            sa.add(v)
            sc.add(v)
        for v in b:
            sb.add(v)
            sc.add(v)
        merged = sa.merge(sb)
        assert merged.count == sc.count
        assert merged.mean == pytest.approx(sc.mean, rel=1e-9, abs=1e-9)
        assert merged.variance == pytest.approx(sc.variance, rel=1e-6, abs=1e-6)


    def test_merge_empty_with_empty(self):
        merged = OnlineStats().merge(OnlineStats())
        assert merged.count == 0
        assert merged.mean == 0.0
        assert merged.variance == 0.0

    def test_merge_empty_with_nonempty_keeps_extrema(self):
        empty = OnlineStats()
        full = OnlineStats()
        for v in [3.0, -1.0, 7.0]:
            full.add(v)
        for merged in (empty.merge(full), full.merge(empty)):
            assert merged.count == 3
            assert merged.min == -1.0
            assert merged.max == 7.0
            assert merged.mean == pytest.approx(3.0)
            assert merged.variance == pytest.approx(full.variance)


class TestReservoir:
    def test_keeps_everything_under_capacity(self):
        r = ReservoirSampler(100)
        for value in range(50):
            r.add(value)
        assert sorted(r.samples) == list(map(float, range(50)))

    def test_capacity_bound(self):
        r = ReservoirSampler(10, rng=random.Random(1))
        for value in range(1000):
            r.add(value)
        assert len(r.samples) == 10
        assert r.seen == 1000

    def test_approximately_uniform(self):
        r = ReservoirSampler(2000, rng=random.Random(2))
        for value in range(10000):
            r.add(value)
        mean = sum(r.samples) / len(r.samples)
        assert abs(mean - 4999.5) < 300


class TestSummaries:
    def test_box_stats(self):
        box = summarize_distribution(list(range(1, 101)))
        assert box.minimum == 1.0
        assert box.maximum == 100.0
        assert box.median == pytest.approx(50.5)
        assert box.count == 100

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_distribution([])

    def test_the_runtime_packages_do_not_load_numpy(self):
        # about 11 MiB and 50 ms of every CLI process and fleet worker;
        # only summaries and the quadratic value function need it
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        probe = ("import sys, repro.aio, repro.apps, repro.kompics, repro.cli, "
                 "repro.core; sys.exit('numpy' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", probe], timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0


class TestConfidence:
    def test_interval_contains_mean(self):
        ci = mean_confidence_interval([10.0, 12.0, 11.0, 9.0, 13.0])
        assert ci.mean - ci.half_width < 11.0 < ci.mean + ci.half_width
        assert ci.n == 5

    def test_single_sample_infinite_width(self):
        ci = mean_confidence_interval([5.0])
        assert math.isinf(ci.half_width)

    def test_zero_variance(self):
        ci = mean_confidence_interval([3.0, 3.0, 3.0])
        assert ci.half_width == 0.0

    def test_importing_the_package_does_not_load_scipy(self):
        # scipy.stats is 0.9 s of start-up; only the interval itself needs it
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        probe = "import sys, repro.bench.harness; sys.exit('scipy' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", probe], timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0

    def test_rse(self):
        assert relative_standard_error([10.0, 10.0, 10.0]) == 0.0
        assert math.isinf(relative_standard_error([5.0]))

    def test_enough_runs_rule(self):
        consistent = [100.0 + i * 0.01 for i in range(10)]
        assert enough_runs(consistent)
        assert not enough_runs(consistent[:5])
        rng = random.Random(3)
        noisy = [rng.uniform(0, 200) for _ in range(10)]
        assert not enough_runs(noisy)


class TestTimeSeries:
    def test_record_and_iterate(self):
        ts = TimeSeries("x")
        ts.record(0.0, 1.0)
        ts.record(1.0, 2.0)
        assert list(zip(ts.times, ts.values)) == [(0.0, 1.0), (1.0, 2.0)]

    def test_backwards_time_rejected(self):
        ts = TimeSeries()
        ts.record(2.0, 0.0)
        with pytest.raises(ValueError):
            ts.record(1.0, 0.0)

    def test_window_mean(self):
        ts = TimeSeries()
        for t in range(10):
            ts.record(float(t), float(t))
        assert ts.window_mean(0.0, 5.0) == pytest.approx(2.0)
        assert ts.window_mean(100.0, 200.0) is None
