import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError, SimulationError
from repro.sim import Simulator


class TestScheduling:
    def test_run_fires_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_equal_times_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(1.0, lambda i=i: fired.append(i))
        sim.run()
        assert fired == list(range(10))

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(4.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.5]
        assert sim.now == 4.5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule_at(0.5, lambda: None)

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append(("first", sim.now))
            sim.schedule(1.0, lambda: fired.append(("second", sim.now)))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == [("first", 1.0), ("second", 2.0)]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_pending_events_skips_cancelled(self):
        sim = Simulator()
        h1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        h1.cancel()
        assert sim.pending_events() == 1


class TestRunUntil:
    def test_run_until_stops_at_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run_until(2.0)
        assert fired == [1]
        assert sim.now == 2.0

    def test_run_until_is_resumable(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run_until(2.0)
        sim.run_until(10.0)
        assert fired == [1, 5]

    def test_event_exactly_at_boundary_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append(1))
        sim.run_until(2.0)
        assert fired == [1]


class TestGuards:
    def test_zero_delay_loop_raises(self):
        sim = Simulator()

        def loop():
            sim.schedule(0.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            sim.run(max_events=1000)

    def test_stop_halts_run(self):
        sim = Simulator()
        fired = []
        def first():
            fired.append(1)
            sim.stop()

        sim.schedule(1.0, first)
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]
        assert sim.pending_events() == 1


class TestCompaction:
    def test_mass_cancellation_compacts_heap(self):
        from repro.sim.simulator import COMPACTION_MIN_TOMBSTONES

        sim = Simulator()
        keep = [sim.schedule(2.0, lambda: None) for _ in range(10)]
        doomed = [
            sim.schedule(1.0, lambda: None)
            for _ in range(COMPACTION_MIN_TOMBSTONES * 3)
        ]
        for handle in doomed:
            handle.cancel()
        assert sim.heap_compactions >= 1
        assert sim.tombstones_evicted >= COMPACTION_MIN_TOMBSTONES
        # The heap physically shrank: tombstones are gone, live events stay.
        assert len(sim._heap) < len(doomed)
        assert sim.pending_events() == len(keep)
        sim.run()
        assert sim.events_executed == len(keep)

    def test_recurring_cancel_rearm_keeps_heap_bounded(self):
        """The unbounded-heap regression: cancel+re-arm must not accumulate."""
        sim = Simulator()
        state = {"handle": None, "rounds": 0}

        def rearm():
            if state["handle"] is not None:
                state["handle"].cancel()
            state["handle"] = sim.schedule(60.0, lambda: None)
            state["rounds"] += 1
            if state["rounds"] < 1000:
                sim.schedule(0.01, rearm)

        sim.schedule(0.0, rearm)
        sim.run_until(30.0)
        # 1000 cancels happened; without compaction the heap would hold
        # ~1000 tombstones.  With it, it stays within a compaction window.
        queued = len(sim._heap)
        assert queued and queued < 200
        assert sim.tombstones_evicted > 500

    def test_execution_order_survives_compaction(self):
        from repro.sim.simulator import COMPACTION_MIN_TOMBSTONES

        sim = Simulator()
        fired = []
        for i in range(20):
            sim.schedule(1.0 + i * 0.1, lambda i=i: fired.append(i))
        doomed = [
            sim.schedule(0.5, lambda: fired.append("doomed"))
            for _ in range(COMPACTION_MIN_TOMBSTONES * 2)
        ]
        for handle in doomed:
            handle.cancel()
        assert sim.heap_compactions >= 1
        sim.run()
        assert fired == list(range(20))


class TestCancelledCounter:
    def test_obs_counter_counts_pending_cancels_only(self):
        from repro.obs import collecting

        with collecting() as reg:
            sim = Simulator()
            h1 = sim.schedule(1.0, lambda: None)
            h2 = sim.schedule(2.0, lambda: None)
            h1.cancel()
            h1.cancel()  # idempotent: must not double-count
            sim.run()
            h2.cancel()  # already executed: not a pending cancel
            assert reg.counter("sim.events_cancelled").value == 1.0


class TestIntrospection:
    def test_pending_events_is_live_count(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(6)]
        assert sim.pending_events() == 6
        for handle in handles[:4]:
            handle.cancel()
        assert sim.pending_events() == 2


class TestClose:
    def test_pending_callbacks_never_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule_at(50.0, lambda: fired.append(2))
        sim.schedule(0.5, lambda: fired.append(3))
        sim.close()
        sim.close()
        sim.run()
        assert fired == []
        assert sim.pending_events() == 0

    def test_close_from_a_callback_ends_the_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, sim.close)
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == []
        assert sim.now == 1.0

    def test_schedule_after_close_raises(self):
        sim = Simulator()
        sim.close()
        with pytest.raises(SchedulingError):
            sim.schedule(1.0, lambda: None)
        with pytest.raises(SchedulingError):
            sim.schedule_at(1.0, lambda: None)

    def test_clock_and_count_stay_readable(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule(float(i + 1), lambda: None)
        sim.schedule(10.0, lambda: None)
        sim.run_until(5.0)
        sim.close()
        assert sim.now == 5.0
        assert sim.clock.now() == 5.0
        assert sim.events_executed == 3

    def test_cancelling_a_dropped_handle_is_a_no_op(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.close()
        handle.cancel()
        assert sim.pending_events() == 0


class _ModelHandle:
    def __init__(self, model, key):
        self.model, self.key = model, key

    def cancel(self):
        self.model.pending.pop(self.key, None)


class _ModelKernel:
    """Reference kernel: a dict of pending events, popped by ``min((time, seq))``."""

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.pending = {}

    def schedule(self, delay, callback):
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time, callback):
        key = (time, self.seq)
        self.seq += 1
        self.pending[key] = callback
        return _ModelHandle(self, key)

    def run_until(self, until):
        while self.pending:
            key = min(self.pending)
            if key[0] > until:
                break
            callback = self.pending.pop(key)
            self.now = key[0]
            callback()
        self.now = max(self.now, until)

    def pending_events(self):
        return len(self.pending)


class _Program:
    """One deterministic workload, driven against either kernel.

    Event ``i`` follows ``plan[i % len(plan)]``: it schedules children
    (relative or absolute, zero delay included) while fewer than
    ``cap`` events exist, then cancels every other handle after its own,
    up to ``k`` of them (most still pending, so compaction runs mid-run).
    """

    def __init__(self, kernel, plan, cap):
        self.kernel, self.plan, self.cap = kernel, plan, cap
        self.handles = []
        self.fired = []

    def add(self, absolute, value):
        i = len(self.handles)
        if absolute:
            handle = self.kernel.schedule_at(self.kernel.now + value, lambda: self.fire(i))
        else:
            handle = self.kernel.schedule(value, lambda: self.fire(i))
        self.handles.append(handle)

    def fire(self, i):
        self.fired.append(i)
        children, k = self.plan[i % len(self.plan)]
        for absolute, value in children:
            if len(self.handles) < self.cap:
                self.add(absolute, value)
        for handle in self.handles[i + 1 : i + 1 + 2 * k : 2]:
            handle.cancel()


_child = st.tuples(st.booleans(), st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 3.0]))


class TestPropertyBased:
    @given(
        seeds=st.lists(_child, min_size=64, max_size=300),
        plan=st.lists(
            st.tuples(st.lists(_child, max_size=3), st.integers(min_value=0, max_value=100)),
            min_size=1,
            max_size=8,
        ),
        splits=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 4.0]), max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_sorted_time_seq_model(self, seeds, plan, splits):
        """schedule/schedule_at/cancel, nested scheduling and run_until splits
        execute exactly as a sorted ``(time, seq)`` model, compaction included."""
        sim, model = Simulator(), _ModelKernel()
        programs = [_Program(sim, plan, 600), _Program(model, plan, 600)]
        for program in programs:
            for absolute, value in seeds:
                program.add(absolute, value)
        until = 0.0
        for step in splits:
            until += step
            sim.run_until(until)
            model.run_until(until)
            assert programs[0].fired == programs[1].fired
            assert sim.pending_events() == model.pending_events()
        sim.run()
        model.run_until(math.inf)
        assert programs[0].fired == programs[1].fired
        assert sim.pending_events() == model.pending_events() == 0

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_execution_times_are_sorted(self, delays):
        sim = Simulator()
        seen = []
        for d in delays:
            sim.schedule(d, lambda: seen.append(sim.now))
        sim.run()
        assert seen == sorted(seen)
        assert len(seen) == len(delays)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1, max_size=30),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_cancelled_subset_never_fires(self, delays, data):
        sim = Simulator()
        fired = []
        handles = [sim.schedule(d, lambda i=i: fired.append(i)) for i, d in enumerate(delays)]
        cancel = data.draw(st.sets(st.integers(min_value=0, max_value=len(delays) - 1)))
        for i in cancel:
            handles[i].cancel()
        sim.run()
        assert set(fired) == set(range(len(delays))) - cancel
