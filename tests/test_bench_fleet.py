"""Fleet layer: topology determinism, campaign merge, registry semantics."""

import gc
import json
import math
import random
import weakref
from collections import Counter
from unittest import mock

import pytest

from repro.bench import fleet
from repro.bench.fleet import (
    CampaignUnit,
    campaign_json,
    plan_campaign,
    plan_flows,
    run_campaign,
    run_fleet_workload,
    validate_campaign_document,
)
from repro.bench.scenario import (
    SCENARIOS,
    DuplicateScenarioError,
    UnknownScenarioError,
    register_scenario,
)
from repro.bench.topology import GENERATORS, generate_topology
from repro.cli import main as cli_main
from repro.stats import OnlineStats


# ----------------------------------------------------------------------
# topology generation
# ----------------------------------------------------------------------

class TestTopology:
    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_same_seed_identical_plan(self, kind):
        a = generate_topology(kind, 24, seed=7)
        b = generate_topology(kind, 24, seed=7)
        assert a.hosts == b.hosts
        assert a.links == b.links
        assert a.endpoints == b.endpoints
        assert a.digest() == b.digest()

    def test_different_seed_different_digest(self):
        a = generate_topology("star", 24, seed=1)
        b = generate_topology("star", 24, seed=2)
        assert a.digest() != b.digest()

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_plans_are_wirable_and_connected(self, kind):
        """Every generated plan wires onto a fabric with full reachability."""
        from repro.netsim import SimNetwork
        from repro.sim import Simulator

        topo = generate_topology(kind, 18, seed=3)
        net = SimNetwork(Simulator(), seed=0)
        net.apply_topology(topo)
        assert len(net.hosts) == topo.host_count
        assert len(topo.endpoints) == 18
        src = topo.endpoints[0]
        for dst in topo.endpoints[1:]:
            assert net.path(src, dst) is not None

    def test_a_link_to_an_unknown_ip_is_an_address_error(self):
        from types import SimpleNamespace

        from repro.errors import AddressError
        from repro.netsim import LinkSpec, SimNetwork
        from repro.sim import Simulator

        link = SimpleNamespace(a="10.0.0.1", b="10.0.0.9", spec=LinkSpec(bandwidth=1e6, delay=0.001))
        plan = SimpleNamespace(hosts=[("a", "10.0.0.1")], links=[link])
        with pytest.raises(AddressError, match="10.0.0.9"):
            SimNetwork(Simulator(), seed=0).apply_topology(plan)

    def test_endpoints_exclude_infrastructure(self):
        topo = generate_topology("fat-tree", 20, seed=0)
        endpoint_names = {
            name for name, ip in topo.hosts if ip in set(topo.endpoints)
        }
        assert all(name.startswith("host-") for name in endpoint_names)

    def test_hundreds_of_hosts(self):
        topo = generate_topology("wan-mesh", 300, seed=5)
        assert topo.host_count > 300  # hosts plus routers
        assert len(topo.endpoints) == 300

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown topology kind"):
            generate_topology("torus", 8)


class TestFlowPlans:
    def test_deterministic(self):
        topo = generate_topology("star", 16, seed=0)
        a = plan_flows(topo, 200, seed=9, pattern="churn")
        b = plan_flows(topo, 200, seed=9, pattern="churn")
        assert a == b

    def test_incast_targets_single_sink(self):
        topo = generate_topology("star", 16, seed=0)
        plans = plan_flows(topo, 50, seed=1, pattern="incast")
        assert {p.dst for p in plans} == {topo.endpoints[0]}
        assert all(p.src != p.dst for p in plans)

    def test_churn_includes_aborts(self):
        topo = generate_topology("star", 16, seed=0)
        plans = plan_flows(topo, 400, seed=2, pattern="churn")
        assert any(p.abort_after is not None for p in plans)
        assert any(p.abort_after is None for p in plans)

    def test_unknown_pattern_rejected(self):
        topo = generate_topology("star", 4, seed=0)
        with pytest.raises(ValueError, match="unknown flow pattern"):
            plan_flows(topo, 10, pattern="blast")


# ----------------------------------------------------------------------
# OnlineStats cross-process pieces
# ----------------------------------------------------------------------

class TestStatsMerge:
    def _sample(self, seed, n):
        rng = random.Random(seed)
        stats = OnlineStats()
        for _ in range(n):
            stats.add(rng.expovariate(0.5))
        return stats

    def test_merge_associative(self):
        a, b, c = (self._sample(s, 40 + s) for s in (1, 2, 3))
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.count == right.count
        assert left.mean == pytest.approx(right.mean, rel=1e-12)
        assert left.variance == pytest.approx(right.variance, rel=1e-9)
        assert left.min == right.min
        assert left.max == right.max

    def test_state_round_trip_exact(self):
        stats = self._sample(4, 100)
        clone = OnlineStats.from_state(stats.state_dict())
        assert clone.state_dict() == stats.state_dict()
        assert clone.merge(stats).count == 200

    def test_state_round_trip_empty(self):
        state = OnlineStats().state_dict()
        assert state["min"] is None and state["max"] is None
        json.dumps(state)  # strict-JSON safe
        clone = OnlineStats.from_state(state)
        assert clone.count == 0
        assert clone.min == math.inf and clone.max == -math.inf
        clone.add(5.0)
        assert clone.min == clone.max == 5.0

    def test_shipped_state_merge_equals_live_merge(self):
        a, b = self._sample(1, 30), self._sample(2, 50)
        shipped = OnlineStats.from_state(a.state_dict()).merge(
            OnlineStats.from_state(b.state_dict())
        )
        live = a.merge(b)
        assert shipped.state_dict() == live.state_dict()


# ----------------------------------------------------------------------
# scenario registry semantics
# ----------------------------------------------------------------------

class TestScenarioRegistry:
    def test_duplicate_registration_rejected(self):
        register_scenario("tmp-dup", lambda **kw: None)
        try:
            with pytest.raises(DuplicateScenarioError, match="already registered"):
                register_scenario("tmp-dup", lambda **kw: None)
        finally:
            SCENARIOS.remove("tmp-dup")

    def test_unknown_name_suggests_close_match(self):
        with pytest.raises(UnknownScenarioError, match="did you mean 'fleet-star'"):
            SCENARIOS.get("fleet-stra")

    def test_unknown_name_lists_registered(self):
        with pytest.raises(UnknownScenarioError, match="registered:"):
            SCENARIOS.get("no-such-scenario-at-all")

    def test_defaults_merge_under_call_kwargs(self):
        seen = {}
        register_scenario(
            "tmp-defaults", lambda **kw: seen.update(kw),
            defaults={"a": 1, "b": 2},
        )
        try:
            SCENARIOS.get("tmp-defaults").run(b=3)
            assert seen == {"a": 1, "b": 3}
        finally:
            SCENARIOS.remove("tmp-defaults")

    def test_builtins_present(self):
        for name in ("transfer", "fig8", "obs", "faults", "chaos", "fleet"):
            assert name in SCENARIOS
        assert "transfer" in SCENARIOS.names(tag="check")
        assert "fleet-star" in SCENARIOS.names(kind="fleet")


# ----------------------------------------------------------------------
# fleet workloads and campaigns
# ----------------------------------------------------------------------

FAST_FLEET = {"hosts": 6, "flows": 12, "horizon": 20.0}


def _crashing_scenario(seed=0, **kwargs):
    raise RuntimeError(f"boom on seed {seed}")


class TestFleetCampaign:
    def test_unit_deterministic(self):
        a = run_fleet_workload(topology="star", seed=5, **FAST_FLEET)
        b = run_fleet_workload(topology="star", seed=5, **FAST_FLEET)
        assert a.digest == b.digest
        assert a.counters == b.counters
        assert a.stats["flow_duration_s"].state_dict() == \
            b.stats["flow_duration_s"].state_dict()

    def test_different_seed_different_digest(self):
        a = run_fleet_workload(topology="star", seed=1, **FAST_FLEET)
        b = run_fleet_workload(topology="star", seed=2, **FAST_FLEET)
        assert a.digest != b.digest

    def test_flows_actually_complete(self):
        result = run_fleet_workload(topology="star", seed=0, **FAST_FLEET)
        assert result.counters["flows_completed"] > 0
        assert result.counters["bytes_delivered"] > 0
        assert result.stats["flow_duration_s"].count > 0

    def test_churn_outcomes_partition_the_flows(self):
        # Regression: a flow closed mid-life whose in-flight messages still
        # delivered everything was counted completed *and* aborted (375 +
        # 28 of 400), driving flows_unfinished to -3.  Completed wins.
        c = run_fleet_workload(
            topology="wan-mesh", hosts=64, flows=400, pattern="churn", seed=1
        ).counters
        assert (c["flows_completed"] + c["flows_aborted"]
                + c["flows_unfinished"]) == c["flows"] == 400
        assert c["flows_unfinished"] >= 0
        assert c["flows_completed"] == 375 and c["flows_aborted"] > 0

    def test_pool_matches_inline(self):
        units = plan_campaign([("fleet", FAST_FLEET)], [0, 1])
        pooled = run_campaign(units, workers=2)
        inline = run_campaign(units, workers=1)
        assert pooled["merged"]["digest"] == inline["merged"]["digest"]
        assert pooled["merged"]["scenarios"] == inline["merged"]["scenarios"]

    def test_campaign_json_byte_stable(self):
        units = plan_campaign([("fleet", FAST_FLEET)], [0, 1])
        assert campaign_json(run_campaign(units, workers=1)) == \
            campaign_json(run_campaign(units, workers=1))

    def test_campaign_over_generic_scenarios(self):
        """Non-fleet scenarios (numeric-dataclass results) merge too."""
        units = plan_campaign(
            [("faults", {"duration": 8.0, "transfer_bytes": 1 << 20})], [3]
        )
        doc = run_campaign(units, workers=1)
        assert doc["merged"]["totals"] == {"units": 1, "ok": 1, "failed": 0}
        stats = doc["merged"]["scenarios"]["faults"]["stats"]
        assert stats["pings_sent"]["count"] == 1

    def test_crashed_unit_does_not_sink_campaign(self):
        register_scenario("tmp-crash", _crashing_scenario)
        try:
            units = plan_campaign(["tmp-crash", ("fleet", FAST_FLEET)], [0])
            doc = run_campaign(units, workers=2)
        finally:
            SCENARIOS.remove("tmp-crash")
        assert doc["merged"]["totals"] == {"units": 2, "ok": 1, "failed": 1}
        failed = [u for u in doc["units"] if not u["ok"]]
        assert failed[0]["scenario"] == "tmp-crash"
        assert "boom on seed 0" in failed[0]["error"]
        assert doc["merged"]["scenarios"]["fleet"]["units_ok"] == 1

    def test_validate_catches_tampering(self):
        units = plan_campaign([("fleet", FAST_FLEET)], [0])
        doc = run_campaign(units, workers=1)
        assert validate_campaign_document(doc) == []
        doc["units"][0]["digest"] = "0" * 32
        assert any("digest" in p for p in validate_campaign_document(doc))

    def test_validate_rejects_wrong_schema(self):
        assert validate_campaign_document({"schema": "bogus"})

    def test_campaign_unit_params_hashable_and_recoverable(self):
        unit = CampaignUnit.make("fleet", 3, {"hosts": 4, "flows": 8})
        assert unit.kwargs == {"hosts": 4, "flows": 8}
        assert hash(unit) == hash(CampaignUnit.make("fleet", 3, {"flows": 8, "hosts": 4}))


class TestUnitTeardown:
    """A unit frees its simulated world when it returns, by refcounting alone."""

    UNIT = dict(topology="wan-mesh", hosts=16, flows=40, seed=3)

    def test_world_is_dead_on_return_without_the_collector(self):
        from repro.sim.simulator import Simulator

        simulators = []
        init = Simulator.__init__

        def watched(sim, *args, **kwargs):
            init(sim, *args, **kwargs)
            simulators.append(weakref.ref(sim))

        gc.collect()
        gc.disable()
        try:
            with mock.patch.object(Simulator, "__init__", watched):
                run_fleet_workload(**self.UNIT)
            assert len(simulators) == 1 and simulators[0]() is None
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            left = Counter(
                type(obj).__qualname__ for obj in gc.garbage
                if str(getattr(obj, "__module__", "")).startswith("repro")
            )
            assert not left, f"cycles left behind: {left.most_common(5)}"
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()

    def test_loss_streams_only_for_paths_that_send(self):
        from repro.bench import fleet

        networks = []

        class Watched(fleet.SimNetwork):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                networks.append(self)

        with mock.patch.object(fleet, "SimNetwork", Watched):
            result = run_fleet_workload(**self.UNIT)
        plans = plan_flows(generate_topology("wan-mesh", 16, seed=3), 40, seed=3)
        assert result.counters["flows_completed"] == len(plans)
        # Every flow sends; the accepting side of each connection never does.
        assert len(networks[0].rngs._streams) == len({(p.src, p.dst) for p in plans})
        # The streams made late draw what the eager ones did.
        assert result.digest == "8d93aa60e7df355e3cb811e202a74155"


def _counters(hosts, links, flows, completed, aborted, unfinished,
              offered, delivered, sent, failed, events):
    """A fleet unit's ``counters`` dict."""
    return {
        "hosts": hosts, "links": links, "flows": flows,
        "flows_completed": completed, "flows_aborted": aborted,
        "flows_unfinished": unfinished, "bytes_offered": offered,
        "bytes_delivered": delivered, "messages_sent": sent,
        "messages_failed": failed, "events_executed": events,
    }


class TestManyFlowEquivalence:
    """Golden digests and counters at many flows per link.

    The figure-shaped equivalence workloads run 1-2 flows a link; these
    small fleets put tens of flows on shared links, routed over several
    hops, so they cover the partitioned solve, pushed demands, the
    under-subscribed shortcut and the route trees.  Each golden was
    recorded with every hot-path memoization on and with them all off
    (identical both ways, under PYTHONHASHSEED 1 and 4242).  The last row
    is the ``sim-fleet`` benchmark's own unit: wan-mesh 256 x 1 000, its
    mesh pinned to topology seed 0 as ``perf/workloads.py`` pins it.
    """

    @pytest.mark.parametrize("unit, digest, counters", [
        (dict(topology="wan-mesh", hosts=48, flows=300, pattern="uniform", seed=1),
         "ebee9334265971679d88261a50f48971",
         _counters(55, 57, 300, 300, 0, 0, 300043206, 300043206, 4724, 0, 10348)),
        (dict(topology="fat-tree", hosts=32, flows=300, pattern="churn", seed=2),
         "1c20a660c58c0196e69f68ff2b219829",
         _counters(38, 37, 300, 299, 1, 0, 613785143, 604482103, 9382, 142, 19706)),
        (dict(topology="star", hosts=24, flows=200, pattern="incast", seed=3),
         "1735424a2c98b6f5b36a7559cbcdba0b",
         _counters(25, 24, 200, 200, 0, 0, 220872126, 220872126, 3475, 0, 7550)),
        (dict(topology="wan-mesh", hosts=48, flows=300, pattern="churn", seed=4,
              cc_arms=("reno", "cubic", "bbr", "udt", "ledbat")),
         "c9663b4e730463c4537cfc097d8a7d47",
         _counters(55, 56, 300, 284, 10, 6, 820100997, 763055113, 11797, 278, 24542)),
        (dict(topology="wan-mesh", hosts=256, flows=1000, pattern="uniform", seed=1,
              topology_seed=0),
         "d66ea0ae3e4c5a54eccc6f8584d25a8c",
         _counters(272, 277, 1000, 1000, 0, 0, 1017159664, 1017159664, 16031, 0, 35062)),
    ], ids=["wan-mesh-uniform", "fat-tree-churn", "star-incast", "cc-arms", "perf"])
    def test_digest_equal_with_fast_paths_disabled(self, unit, digest, counters):
        unit = dict(unit)
        topology_seed = unit.pop("topology_seed", None)
        if topology_seed is None:
            result = run_fleet_workload(**unit)
        else:
            def pinned(kind, hosts, seed=0, **kwargs):
                return generate_topology(kind, hosts, seed=topology_seed, **kwargs)

            with mock.patch.object(fleet, "generate_topology", pinned):
                result = run_fleet_workload(**unit)
        assert result.digest == digest
        assert result.counters == counters


class TestCcArms:
    """``cc_arms=``: per-flow congestion-control pinning for sweeps."""

    def test_arm_runs_deterministic_and_distinct_from_default(self):
        default = run_fleet_workload(topology="star", seed=5, **FAST_FLEET)
        cubic_a = run_fleet_workload(
            topology="star", seed=5, cc_arms=("cubic",), **FAST_FLEET
        )
        cubic_b = run_fleet_workload(
            topology="star", seed=5, cc_arms=("cubic",), **FAST_FLEET
        )
        assert cubic_a.digest == cubic_b.digest
        assert cubic_a.digest != default.digest

    def test_arms_differ_pairwise(self):
        digests = {
            arm: run_fleet_workload(
                topology="star", seed=5, cc_arms=(arm,), **FAST_FLEET
            ).digest
            for arm in ("reno", "cubic", "bbr")
        }
        assert len(set(digests.values())) == 3

    def test_mixed_arms_complete(self):
        result = run_fleet_workload(
            topology="star", seed=3, cc_arms=("reno", "cubic", "bbr", "udt"),
            **FAST_FLEET,
        )
        assert result.counters["flows_completed"] == result.counters["flows"]

    def test_cc_scenarios_registered(self):
        from repro.bench.scenario import SCENARIOS

        for name in ("cc-reno", "cc-cubic", "cc-bbr", "cc-mixed-arms"):
            assert SCENARIOS.get(name).kind == "fleet"


class TestFleetCli:
    def test_run_and_rerun_byte_identical(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["fleet", "run", "--topology", "star", "--hosts", "6",
                "--flows", "12", "--horizon", "20", "--seeds", "2"]
        assert cli_main(argv + ["--out", str(out_a)]) == 0
        assert cli_main(argv + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        doc = json.loads(out_a.read_text())
        assert validate_campaign_document(doc) == []
        assert "merged digest" in capsys.readouterr().out

    def test_list_shows_scenarios(self, capsys):
        assert cli_main(["fleet", "list"]) == 0
        out = capsys.readouterr().out
        assert "fleet-star" in out and "[campaign]" in out

    def test_sweep_unknown_scenario_errors(self, capsys):
        assert cli_main(["fleet", "sweep", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err
