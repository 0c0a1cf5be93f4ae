"""Per-message Python call budgets of one fig9 cell and one fleet cell.

The simulator is single-threaded and deterministic, so the number of
Python-level calls into ``repro`` that one cell makes is exact.  A change
that adds a layer of indirection to the per-message path (a property, a
closure, a forwarding method) raises it and fails here; a change that
removes calls should lower :data:`CALLS_PER_MSG` with it.  Simulator
events and component executions per message pin the timing model: a
change that moves them changes what is simulated, not only its cost.
The fleet cell adds the many-flow allocation and routing work fig9
bypasses: ``demand_rate`` pulls per message and route trees grown.
"""

import math
import os
import sys
from collections import Counter

import repro
from repro.apps.filetransfer.chunks import PAPER_CHUNK_BYTES
from repro.bench.fleet import run_fleet_workload
from repro.bench.harness import run_transfer_repeated
from repro.bench.scenario import aws_testbed
from repro.messaging.transport import Transport
from repro.netsim.connection import FlowState
from repro.netsim.fabric import SimNetwork
from repro.sim.simulator import Simulator

SIZE = 8 * 1024 * 1024
#: Local setup, DATA, two back-to-back transfers of SIZE
MESSAGES = 2 * math.ceil(SIZE / PAPER_CHUNK_BYTES)
#: Python calls into repro per message, and the slack the ceiling allows
CALLS_PER_MSG = 94.86
SLACK = 0.02
#: exact: these move only when what is simulated moves
EVENTS = 2090
EXECUTIONS = 1048

#: one wan-mesh fleet cell (48 hosts x 300 uniform flows, seed 1) on raw
#: netsim, where many flows share each link: repro calls, ``demand_rate``
#: pulls by the links per message, and route trees grown, each within SLACK
FLEET_CELL = dict(topology="wan-mesh", hosts=48, flows=300, pattern="uniform", seed=1)
FLEET_CALLS_PER_MSG = 51.32
FLEET_QUERIES_PER_MSG = 1.313
FLEET_TREES = 7

_REPRO_DIR = os.path.dirname(repro.__file__) + os.sep


def _profile(run):
    """Run ``run()`` under a profile hook; (its result, calls into repro
    per code object, the simulators made)."""
    calls = Counter()
    simulators = []
    sim_init = Simulator.__init__.__code__

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_filename.startswith(_REPRO_DIR):
            calls[code] += 1
            if code is sim_init:
                simulators.append(frame.f_locals["self"])

    sys.setprofile(hook)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, calls, simulators


def _within(value, budget):
    return value <= budget * (1 + SLACK)


def test_fig9_cell_stays_within_its_call_budget():
    setup = next(s for s in aws_testbed() if s.name == "Local")
    _, calls, simulators = _profile(lambda: run_transfer_repeated(
        setup, Transport.DATA, SIZE, min_runs=2, max_runs=2, base_seed=1))
    per_msg = sum(calls.values()) / MESSAGES
    assert _within(per_msg, CALLS_PER_MSG), (
        f"{per_msg:.1f} repro calls per message, budget {CALLS_PER_MSG} + {SLACK:.0%}"
    )
    events = sum(sim.events_executed for sim in simulators)
    executions = sum(n for code, n in calls.items() if code.co_name == "execute_batch")
    assert (events, executions) == (EVENTS, EXECUTIONS)


def test_fleet_cell_stays_within_its_budgets():
    result, calls, _ = _profile(lambda: run_fleet_workload(**FLEET_CELL))
    messages = result.counters["messages_sent"]
    per_msg = sum(calls.values()) / messages
    queries = calls[FlowState.demand_rate.__code__] / messages
    trees = calls[SimNetwork._route_tree.__code__]
    assert _within(per_msg, FLEET_CALLS_PER_MSG), (
        f"{per_msg:.2f} repro calls per message, budget {FLEET_CALLS_PER_MSG} + {SLACK:.0%}"
    )
    assert _within(queries, FLEET_QUERIES_PER_MSG), (
        f"{queries:.3f} demand_rate pulls per message, budget {FLEET_QUERIES_PER_MSG}"
    )
    assert _within(trees, FLEET_TREES), f"{trees} route trees grown, budget {FLEET_TREES}"
