"""A returned testbed driver leaves no world behind.

Every driver reads its results inside ``with TestbedPair(...) as pair:``;
the exit closes the Kompics system, the fabric and the simulator, which
cut their own reference cycles, so refcounting alone frees the world.
"""

import gc
import weakref
from unittest import mock

import pytest

from repro.bench.faults import run_fault_campaign
from repro.bench.harness import (
    run_latency_experiment,
    run_learner_trace,
    run_observability_demo,
    run_observed,
    run_transfer_repeated,
)
from repro.bench.scenario import MB, TestbedPair, setup_by_name
from repro.core import ProtocolRatio, StaticRatio
from repro.kompics.component import ComponentCore, ComponentDefinition
from repro.messaging import Transport
from repro.netsim.connection import FlowState
from repro.obs import get_registry
from repro.obs.metrics import Gauge
from repro.sim.event import EventHandle

pytestmark = pytest.mark.integration

DRIVERS = {
    "transfer-repeated": lambda: run_transfer_repeated(
        setup_by_name("Local"), Transport.DATA, 8 * MB, min_runs=2, max_runs=2, base_seed=1,
    ),
    "latency": lambda: run_latency_experiment(
        setup_by_name("EU-VPC"), Transport.TCP, Transport.UDT, seed=1, transfer_bytes=4 * MB,
    ),
    "learner-trace": lambda: run_learner_trace(
        "fifty-fifty", lambda: StaticRatio(ProtocolRatio.FIFTY_FIFTY), duration=5.0,
    ),
    "fault-campaign": lambda: run_fault_campaign(duration=4.0, cut_at=1.0, transfer_bytes=2 * MB),
}


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_a_returned_driver_leaves_no_world_alive(name):
    refs = []

    def watch(cls):
        init = cls.__init__

        def watched(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            refs.append(weakref.ref(obj))

        return mock.patch.object(cls, "__init__", watched)

    gc.collect()
    gc.disable()
    try:
        # EventHandle has neither __init__ nor a weakref slot: count its
        # instances instead.
        handles_before = {id(o) for o in gc.get_objects() if type(o) is EventHandle}
        with watch(ComponentCore), watch(ComponentDefinition), watch(FlowState):
            DRIVERS[name]()
        alive = [ref() for ref in refs if ref() is not None]
        handles = [o for o in gc.get_objects()
                   if type(o) is EventHandle and id(o) not in handles_before]
    finally:
        gc.enable()
    assert refs, "the driver built no world"
    assert not alive, f"{len(alive)} of {len(refs)} objects outlived the driver: {alive[:5]}"
    assert not handles, f"{len(handles)} event handles outlived the driver"


def _with_registry(driver, **kwargs):
    """Run ``driver`` and hand back the registry it bound to, too."""
    return driver(**kwargs), get_registry()


@pytest.mark.parametrize("driver, kwargs", [
    (run_observability_demo, dict(duration=3.0, seed=2)),
    (run_transfer_repeated, dict(setup=setup_by_name("Local"), transport=Transport.DATA,
                                 size=4 * MB, min_runs=2, max_runs=2)),
], ids=["obs-demo", "transfer-repeated"])
def test_a_closed_world_snapshots_like_the_live_one(driver, kwargs):
    (_, registry), closed = run_observed(_with_registry, driver, **kwargs)
    # The world closed, so no gauge reads it any more ...
    assert not [key for key, metric in registry
                if isinstance(metric, Gauge) and metric._fn is not None]
    # ... and what the pinned gauges hold is what the live world read.
    with mock.patch.object(TestbedPair, "close", lambda pair: None):
        _, live = run_observed(_with_registry, driver, **kwargs)
    assert closed == live
