"""``repro check mutate``: prove the checker catches seeded violations.

Each scenario builds a tiny checked system, installs one mutation from
:mod:`repro.check.mutations`, runs it, and verifies the expected
invariant fired — a self-test of the sanitizer itself, in the spirit of
mutation testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.check import checking, mutations

MB = 1024 * 1024


@dataclass(frozen=True)
class SelftestResult:
    scenario: str
    invariant: str
    caught: bool
    violations: int


def _flow_harness(window: int = 4):
    from repro.core import DestinationFlow, PatternSelection, ProtocolRatio, StaticRatio
    from repro.messaging import BaseMsg, BasicAddress, BasicHeader, Transport
    from repro.util.clock import SimulatedClock

    src = BasicAddress("10.0.0.1", 1000)
    dst = BasicAddress("10.0.0.2", 1000)
    clock = SimulatedClock()
    released: list = []
    flow = DestinationFlow(
        psp=PatternSelection(),
        prp=StaticRatio(ProtocolRatio.FIFTY_FIFTY),
        clock=clock,
        release=released.append,
        window_messages=window,
        dest="selftest",
    )

    def msg():
        return BaseMsg(BasicHeader(src, dst, Transport.DATA))

    return flow, released, clock, msg


def _scenario_clock() -> None:
    """Corrupted heap order -> non-monotonic executed times."""
    from repro.sim import Simulator

    sim = Simulator()
    for t in (0.5, 1.0, 1.5):
        sim.schedule(t, lambda: None, label="noop")
    with mutations.heap_disorder(sim):
        sim.run()


def _scenario_window() -> None:
    """Off-by-one pump -> release window overflow."""
    with mutations.window_off_by_one():
        flow, released, clock, msg = _flow_harness(window=4)
        for _ in range(8):
            flow.enqueue(msg())


def _scenario_conservation() -> None:
    """Lost in-flight bookkeeping -> count conservation breaks."""
    from repro.messaging import MessageNotify

    with mutations.in_flight_leak():
        flow, released, clock, msg = _flow_harness(window=4)
        for _ in range(8):
            flow.enqueue(msg())
        req = released[0]
        flow.on_notify_response(
            MessageNotify.Resp(req.notify_id, True, clock.now(), 1000)
        )


def _scenario_fifo() -> None:
    """RX-train tail swap -> ordered wire flow delivers out of order."""
    from repro.netsim import LinkSpec, Proto, SimNetwork, WireMessage
    from repro.sim import Simulator

    with mutations.rx_reorder(at=2):
        sim = Simulator()
        net = SimNetwork(sim, seed=1)
        a = net.add_host("a", "10.0.0.1")
        b = net.add_host("b", "10.0.0.2")
        net.connect_hosts(a, b, LinkSpec(100 * MB, 0.005))
        b.stack.listen(7000, Proto.TCP, on_accept=lambda conn: None)
        conn = a.stack.connect(("10.0.0.2", 7000), Proto.TCP)
        for i in range(6):
            conn.send(WireMessage(i, 10_000))
        sim.run()


def _scenario_trace() -> None:
    """Poisoned replacing eligibility trace above 1."""
    from repro.core.rl.traces import EligibilityTraces

    traces = EligibilityTraces("replacing")
    traces.visit("s0", "a0")
    with mutations.trace_poison(traces):
        traces.visit("s1", "a0")


#: (scenario name, expected invariant, driver)
SCENARIOS: List[Tuple[str, str, Callable[[], None]]] = [
    ("non-monotonic-clock", "sim.clock", _scenario_clock),
    ("window-overflow", "flow.window", _scenario_window),
    ("in-flight-leak", "flow.conservation", _scenario_conservation),
    ("fifo-reorder", "wire.fifo", _scenario_fifo),
    ("trace-poison", "rl.trace", _scenario_trace),
]


def run_selftest() -> List[SelftestResult]:
    results = []
    for name, invariant, driver in SCENARIOS:
        with checking() as chk:
            driver()
        caught = any(v.invariant == invariant for v in chk.violations)
        results.append(SelftestResult(name, invariant, caught, len(chk.violations)))
    return results
