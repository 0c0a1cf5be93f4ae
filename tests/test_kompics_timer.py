import pytest

from repro.kompics import (
    CancelPeriodicTimeout,
    CancelTimeout,
    ComponentDefinition,
    KompicsSystem,
    SchedulePeriodicTimeout,
    ScheduleTimeout,
    SimTimerComponent,
    Timeout,
    Timer,
)
from repro.sim import Simulator


class Tick(Timeout):
    __slots__ = ()


class TimerUser(ComponentDefinition):
    def __init__(self) -> None:
        super().__init__()
        self.timer = self.requires(Timer)
        self.fired = []
        self.subscribe(self.timer, Tick, self.on_tick)

    def on_tick(self, tick: Tick) -> None:
        self.fired.append(self.clock.now())


@pytest.fixture()
def setup():
    sim = Simulator()
    system = KompicsSystem.simulated(sim, seed=3)
    timer = system.create(SimTimerComponent)
    user = system.create(TimerUser)
    system.connect(timer.provided(Timer), user.required(Timer))
    system.start(timer)
    system.start(user)
    sim.run()
    return sim, system, user.definition


class TestKill:
    def test_killing_the_timer_cancels_its_pending_timeouts(self):
        sim = Simulator()
        system = KompicsSystem.simulated(sim, seed=3)
        timer = system.create(SimTimerComponent)
        user = system.create(TimerUser)
        system.connect(timer.provided(Timer), user.required(Timer))
        system.start(timer)
        system.start(user)
        sim.run()
        user.definition.trigger(ScheduleTimeout(5.0, Tick()), user.definition.timer)
        user.definition.trigger(SchedulePeriodicTimeout(1.0, 1.0, Tick()), user.definition.timer)
        sim.run_until(0.5)
        system.kill(timer)
        sim.run_until(20.0)
        assert user.definition.fired == []
        assert not timer.definition._handles


class TestOneShot:
    def test_fires_after_delay(self, setup):
        sim, system, user = setup
        user.trigger(ScheduleTimeout(5.0, Tick()), user.timer)
        sim.run()
        assert len(user.fired) == 1
        assert user.fired[0] == pytest.approx(5.0, abs=1e-3)

    def test_zero_delay_fires(self, setup):
        sim, system, user = setup
        user.trigger(ScheduleTimeout(0.0, Tick()), user.timer)
        sim.run()
        assert len(user.fired) == 1

    def test_cancel_prevents_firing(self, setup):
        sim, system, user = setup
        tick = Tick()
        user.trigger(ScheduleTimeout(5.0, tick), user.timer)
        sim.run_until(1.0)
        user.trigger(CancelTimeout(tick.timeout_id), user.timer)
        sim.run()
        assert user.fired == []

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            ScheduleTimeout(-1.0, Tick())


class TestPeriodic:
    def test_fires_repeatedly(self, setup):
        sim, system, user = setup
        user.trigger(SchedulePeriodicTimeout(1.0, 2.0, Tick()), user.timer)
        sim.run_until(9.0)
        assert [pytest.approx(t, abs=1e-3) for t in (1.0, 3.0, 5.0, 7.0)] == user.fired[:4]

    def test_cancel_stops_periodic(self, setup):
        sim, system, user = setup
        tick = Tick()
        user.trigger(SchedulePeriodicTimeout(1.0, 1.0, tick), user.timer)
        sim.run_until(3.5)
        count = len(user.fired)
        assert count == 3
        user.trigger(CancelPeriodicTimeout(tick.timeout_id), user.timer)
        sim.run_until(10.0)
        assert len(user.fired) == count

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            SchedulePeriodicTimeout(0.0, 0.0, Tick())


class TestTimeoutIds:
    def test_ids_unique(self):
        assert Tick().timeout_id != Tick().timeout_id


class TestSharedTimerIsolation:
    def test_components_only_react_to_their_own_periodic_ticks(self):
        """Regression: Timeout indications broadcast to every channel on a
        shared timer component; consumers must filter by timeout id (as
        the paper's Kompics does), or N components sharing a timer each
        fire N times per interval."""
        from repro.apps import Pinger, Ponger, register_app_serializers
        from repro.messaging import BasicAddress, NettyNetwork, Network, SerializerRegistry
        from repro.netsim import LinkSpec, SimNetwork

        sim = Simulator()
        fabric = SimNetwork(sim, seed=9)
        system = KompicsSystem.simulated(sim, seed=9)
        a = fabric.add_host("a", "10.0.0.1")
        b = fabric.add_host("b", "10.0.0.2")
        fabric.connect_hosts(a, b, LinkSpec(10 * 1024 * 1024, 0.001))
        addr_a = BasicAddress(a.ip, 34000)
        addr_b = BasicAddress(b.ip, 34000)
        reg = lambda: register_app_serializers(SerializerRegistry())
        net_a = system.create(NettyNetwork, addr_a, a, serializers=reg())
        net_b = system.create(NettyNetwork, addr_b, b, serializers=reg())
        timer = system.create(SimTimerComponent)
        ponger = system.create(Ponger, addr_b)
        system.connect(net_b.provided(Network), ponger.required(Network))
        # THREE pingers share ONE timer component.
        pingers = []
        for i in range(3):
            pinger = system.create(Pinger, addr_a, addr_b, interval=0.5, name=f"p{i}")
            system.connect(net_a.provided(Network), pinger.required(Network))
            system.connect(timer.provided(Timer), pinger.required(Timer))
            pingers.append(pinger)
        for c in (net_a, net_b, timer, ponger, *pingers):
            system.start(c)
        sim.run_until(5.05)
        for pinger in pingers:
            # ~10 ticks each at 0.5s over 5s — not 30 (3x cross-talk).
            assert 8 <= len(pinger.definition.rtts) <= 11
