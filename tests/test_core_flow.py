from fractions import Fraction

import pytest

from repro.core import DestinationFlow, PatternSelection, ProtocolRatio, StaticRatio
from repro.core.td_learner import TDRatioLearner
from repro.errors import PolicyError
from repro.messaging import BasicAddress, DataHeader, MessageNotify, Transport
from repro.obs import collecting
from repro.util.clock import SimulatedClock

from tests.messaging_helpers import Blob

A = BasicAddress("10.0.0.1", 1000)
B = BasicAddress("10.0.0.2", 1000)


def data_blob(tag: str, nbytes: int = 1000) -> Blob:
    return Blob(DataHeader(A, B), tag, nbytes)


class Harness:
    def __init__(self, ratio=ProtocolRatio.FIFTY_FIFTY, window=4):
        self.clock = SimulatedClock()
        self.released = []
        self.flow = DestinationFlow(
            psp=PatternSelection(),
            prp=StaticRatio(ratio),
            clock=self.clock,
            release=self.released.append,
            window_messages=window,
        )

    def ack(self, index: int = 0, success: bool = True, size: int = 1000):
        req = self.released[index]
        resp = MessageNotify.Resp(req.notify_id, success, self.clock.now(), size)
        return self.flow.on_notify_response(resp)


class TestWindowing:
    def test_releases_up_to_window(self):
        h = Harness(window=4)
        for i in range(10):
            h.flow.enqueue(data_blob(f"m{i}"))
        assert len(h.released) == 4
        assert len(h.flow._queue) == 6
        assert len(h.flow._in_flight) == 4

    def test_ack_releases_next(self):
        h = Harness(window=2)
        for i in range(5):
            h.flow.enqueue(data_blob(f"m{i}"))
        assert len(h.released) == 2
        h.ack(0)
        assert len(h.released) == 3
        assert len(h.flow._in_flight) == 2

    def test_window_validation(self):
        with pytest.raises(PolicyError):
            Harness(window=0)


class TestStamping:
    def test_data_replaced_with_wire_protocol(self):
        h = Harness()
        h.flow.enqueue(data_blob("x"))
        stamped = h.released[0].msg
        assert stamped.header.protocol in (Transport.TCP, Transport.UDT)
        assert isinstance(stamped.header, DataHeader)
        assert stamped.tag == "x"

    def test_fifty_fifty_pattern_alternates(self):
        h = Harness(window=100)
        for i in range(10):
            h.flow.enqueue(data_blob(f"m{i}"))
        protocols = [r.msg.header.protocol for r in h.released]
        assert protocols == [Transport.TCP, Transport.UDT] * 5

    def test_all_tcp_ratio(self):
        h = Harness(ratio=ProtocolRatio.ALL_TCP, window=100)
        for i in range(5):
            h.flow.enqueue(data_blob(f"m{i}"))
        assert {r.msg.header.protocol for r in h.released} == {Transport.TCP}


class TestTransportHold:
    def test_hold_steers_releases_to_other_transport(self):
        h = Harness(window=100)
        h.flow.mark_transport_down(Transport.UDT, until=10.0)
        for i in range(4):
            h.flow.enqueue(data_blob(f"m{i}"))
        assert {r.msg.header.protocol for r in h.released} == {Transport.TCP}
        assert Transport.UDT in h.flow._down_until

    def test_expired_hold_is_purged_on_next_release(self):
        # Regression: expired entries used to linger in _down_until forever,
        # sending every later release through the hold branch.
        h = Harness(window=100)
        h.flow.mark_transport_down(Transport.UDT, until=1.0)
        h.clock._advance_to(2.0)
        for i in range(4):
            h.flow.enqueue(data_blob(f"m{i}"))
        assert h.flow._down_until == {}
        protocols = [r.msg.header.protocol for r in h.released]
        assert protocols == [Transport.TCP, Transport.UDT] * 2

    def test_override_metric_counts_only_live_holds(self):
        with collecting() as reg:
            h = Harness(window=100)
            h.flow.mark_transport_down(Transport.UDT, until=10.0)
            for i in range(4):
                h.flow.enqueue(data_blob(f"m{i}"))
            # fifty-fifty: two of the four releases were steered off UDT
            assert reg.total("rl.flow.fallback_overrides_total") == 2

        with collecting() as reg:
            h = Harness(window=100)
            h.flow.mark_transport_down(Transport.UDT, until=1.0)
            h.clock._advance_to(2.0)
            for i in range(4):
                h.flow.enqueue(data_blob(f"m{i}"))
            assert reg.total("rl.flow.fallback_overrides_total") == 0


class TestNotifyPlumbing:
    def test_consumer_resp_reemitted_with_consumer_id(self):
        h = Harness()
        h.flow.enqueue(data_blob("x"), consumer_notify_id=777)
        out = h.ack(0, size=1234)
        assert out is not None
        assert out.notify_id == 777
        assert out.success
        assert out.size == 1234

    def test_no_consumer_resp_for_fire_and_forget(self):
        h = Harness()
        h.flow.enqueue(data_blob("x"))
        assert h.ack(0) is None

    def test_unknown_notify_ignored(self):
        h = Harness()
        resp = MessageNotify.Resp(99999, True, 0.0, 10)
        assert h.flow.on_notify_response(resp) is None

    def test_owns_notify(self):
        h = Harness()
        h.flow.enqueue(data_blob("x"))
        assert h.flow.owns_notify(h.released[0].notify_id)
        assert not h.flow.owns_notify(424242)


class TestEpisodes:
    def test_stats_accumulate_and_reset(self):
        h = Harness(window=10)
        for i in range(4):
            h.flow.enqueue(data_blob(f"m{i}"))
        h.clock._advance_to(0.5)
        h.ack(0, size=1000)
        h.ack(1, size=1000)
        h.ack(2, success=False, size=1000)
        h.clock._advance_to(1.0)
        stats, ratio = h.flow.end_episode()
        assert stats.duration == pytest.approx(1.0)
        assert stats.bytes_acked == 2000
        assert stats.messages_acked == 2
        assert stats.messages_failed == 1
        assert stats.throughput == pytest.approx(2000.0)
        assert stats.tcp_released == 2
        assert stats.udt_released == 2
        # Counters reset for the next episode.
        h.clock._advance_to(2.0)
        stats2, _ = h.flow.end_episode()
        assert stats2.bytes_acked == 0
        assert stats2.released == 0

    def test_telemetry_series_recorded(self):
        h = Harness()
        h.flow.enqueue(data_blob("x"))
        h.ack(0)
        h.clock._advance_to(1.0)
        h.flow.end_episode()
        assert len(h.flow.telemetry.throughput.values) == 1
        assert len(h.flow.telemetry.ratio_prescribed.values) == 1
        assert len(h.flow.telemetry.ratio_true.values) == 1

    def test_true_ratio_reflects_released_mix(self):
        h = Harness(ratio=ProtocolRatio.ALL_UDT, window=10)
        for i in range(4):
            h.flow.enqueue(data_blob(f"m{i}"))
        h.clock._advance_to(1.0)
        stats, _ = h.flow.end_episode()
        assert stats.true_ratio == 1.0


class TestLearnerDefaults:
    def test_epsilon_defaults_by_kind(self):
        import random

        assert TDRatioLearner(random.Random(0), "matrix").policy.epsilon == 0.8
        assert TDRatioLearner(random.Random(0), "model").policy.epsilon == 0.3
        assert TDRatioLearner(random.Random(0), "approx").policy.epsilon == 0.3

    def test_initial_ratio_on_grid(self):
        import random

        learner = TDRatioLearner(random.Random(3), "model")
        ratio = learner.initial_ratio()
        assert ratio.signed in set(learner.states)

    def test_update_before_initial_bootstraps(self):
        import random

        from repro.core.rewards import EpisodeStats

        learner = TDRatioLearner(random.Random(3), "model")
        stats = EpisodeStats(0, 1.0, 1000, 1, 0, 1, 0)
        ratio = learner.update(stats)
        assert ratio.signed in set(learner.states)

    def test_invalid_kind_rejected(self):
        import random

        with pytest.raises(PolicyError):
            TDRatioLearner(random.Random(0), "magic")

    def test_invalid_kappa_rejected(self):
        import random

        with pytest.raises(PolicyError):
            TDRatioLearner(random.Random(0), "model", kappa=Fraction(2, 7))

    def test_learner_episode_counting(self):
        import random

        from repro.core.rewards import EpisodeStats

        learner = TDRatioLearner(random.Random(3), "approx")
        learner.initial_ratio()
        for i in range(5):
            learner.update(EpisodeStats(i, 1.0, 1000, 1, 0, 1, 0))
        assert learner.sarsa.steps == 5
        assert learner.last_reward is not None


class TestFlowProperties:
    """Conservation invariants of the interceptor flow, property-based."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        st.lists(st.booleans(), min_size=1, max_size=60),  # notify flags
        st.integers(min_value=1, max_value=16),  # window
        st.fractions(min_value=0, max_value=1),  # ratio
    )
    @settings(max_examples=60, deadline=None)
    def test_conservation_after_full_drain(self, notify_flags, window, u):
        from fractions import Fraction

        h = Harness(ratio=ProtocolRatio(u), window=window)
        for i, wants_notify in enumerate(notify_flags):
            h.flow.enqueue(data_blob(f"m{i}"), consumer_notify_id=i if wants_notify else None)
        consumer_resps = []
        # Ack everything that was released, pumping the rest through.
        acked = 0
        while len(h.flow._in_flight) > 0:
            resp = h.ack(acked, size=1000)
            if resp is not None:
                consumer_resps.append(resp.notify_id)
            acked += 1
        n = len(notify_flags)
        # Everything enqueued was released exactly once and acked.
        assert len(h.released) == n
        assert len(h.flow._queue) == 0 and len(h.flow._in_flight) == 0
        assert h.flow.total_messages == n
        assert h.flow.total_bytes_acked == 1000 * n
        # Consumer notifications: exactly the requested ones, in order.
        assert consumer_resps == [i for i, f in enumerate(notify_flags) if f]
        # Released protocol counts match the PSP's ratio bookkeeping.
        tcp = sum(1 for r in h.released if r.msg.header.protocol is Transport.TCP)
        udt = n - tcp
        assert h.flow.psp.tcp_selected == tcp
        assert h.flow.psp.udt_selected == udt
        # Pattern selection realises the exact ratio over full patterns
        # (skip when the ratio was snapped to the max pattern length).
        from repro.core.patterns import MAX_PATTERN_LENGTH

        form = ProtocolRatio(u).pattern_form()
        if form.total <= MAX_PATTERN_LENGTH and n % form.total == 0:
            minority = udt if form.minority is Transport.UDT else tcp
            assert minority == form.p * (n // form.total)
