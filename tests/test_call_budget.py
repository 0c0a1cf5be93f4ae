"""Per-message Python call budget of one fig9 cell on the simulator.

The simulator is single-threaded and deterministic, so the number of
Python-level calls into ``repro`` that one cell makes is exact.  A change
that adds a layer of indirection to the per-message path (a property, a
closure, a forwarding method) raises it and fails here; a change that
removes calls should lower :data:`CALLS_PER_MSG` with it.  Simulator
events and component executions per message pin the timing model: a
change that moves them changes what is simulated, not only its cost.
"""

import math
import os
import sys

import repro
from repro.apps.filetransfer.chunks import PAPER_CHUNK_BYTES
from repro.bench.harness import run_transfer_repeated
from repro.bench.scenario import aws_testbed
from repro.messaging.transport import Transport
from repro.sim.simulator import Simulator

SIZE = 8 * 1024 * 1024
#: Local setup, DATA, two back-to-back transfers of SIZE
MESSAGES = 2 * math.ceil(SIZE / PAPER_CHUNK_BYTES)
#: Python calls into repro per message, and the slack the ceiling allows
CALLS_PER_MSG = 99.74
SLACK = 0.02
#: exact: these move only when what is simulated moves
EVENTS = 2090
EXECUTIONS = 1048

_REPRO_DIR = os.path.dirname(repro.__file__) + os.sep


def _profile_cell():
    """Run the cell under a profile hook; (repro calls, events, executions)."""
    counts = {"calls": 0, "executions": 0}
    simulators = []
    sim_init = Simulator.__init__.__code__

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_filename.startswith(_REPRO_DIR):
            counts["calls"] += 1
            if code.co_name == "execute_batch":
                counts["executions"] += 1
            elif code is sim_init:
                simulators.append(frame.f_locals["self"])

    setup = next(s for s in aws_testbed() if s.name == "Local")
    sys.setprofile(hook)
    try:
        run_transfer_repeated(setup, Transport.DATA, SIZE, min_runs=2, max_runs=2,
                              base_seed=1)
    finally:
        sys.setprofile(None)
    events = sum(sim.events_executed for sim in simulators)
    return counts["calls"], events, counts["executions"]


def test_fig9_cell_stays_within_its_call_budget():
    calls, events, executions = _profile_cell()
    per_msg = calls / MESSAGES
    assert per_msg <= CALLS_PER_MSG * (1 + SLACK), (
        f"{per_msg:.1f} repro calls per message, budget {CALLS_PER_MSG} + {SLACK:.0%}"
    )
    assert (events, executions) == (EVENTS, EXECUTIONS)
