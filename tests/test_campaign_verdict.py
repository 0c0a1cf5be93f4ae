"""One verdict per campaign: problems() decides the CLI exit code and the CI gate.

Every campaign kind states what "passed" means once (``problems()`` under
``src/repro/bench/``).  This contract runs on small hand-made results —
the campaign runners are replaced, nothing sleeps — and checks that the
result, the ``repro`` exit code and ``scripts/ci_checks.py`` agree on
every stated condition, one flipped at a time.
"""

import dataclasses
import json

import pytest

import scripts.ci_checks as ci_checks
from repro.bench.chaos import AioChaosResult, ChaosCampaignResult, ChaosEvent
from repro.bench.faults import FaultCampaignResult
from repro.bench.fleet import CampaignUnit, FleetCampaign, run_campaign
from repro.bench.loopback import LoopbackComparison, LoopbackRun
from repro.bench.report import campaign_summary
from repro.cli import main as cli_main
from repro.obs import get_registry

MB = 1024 * 1024

FAULTS = FaultCampaignResult(
    setup="fault-env", sim_time=12.0, cut_at=2.0, cut_duration=2.0,
    pings_sent=48, pings_answered=40, transfer_bytes=4 * MB,
    transfer_progress=1.0, transfer_done=True, reconnect_attempts=3,
    reconnect_recovered=1, reconnect_giveups=0, fallback_activations=0,
    backoff_delays=(0.1, 0.2),
)
CHAOS = ChaosCampaignResult(
    setup="fault-env", seed=3, sim_time=20.0,
    timeline=(ChaosEvent(2.5, "component_fault", "sender", 0.0),
              ChaosEvent(4.0, "link_cut", "link", 0.5)),
    faults_injected=1, link_cuts=1, restarts=1, escalations=0,
    deadletters=2, pings_sent=80, pings_answered=70,
    pings_answered_before_tail=58, transfer_bytes=4 * MB,
    transfer_progress=1.0, transfer_done=True, reconnect_attempts=2,
    reconnect_recovered=1,
)
CHAOS_AIO = AioChaosResult(
    transport="tcp", redelivery="at-least-once", seed=3, size=1 * MB, chunks=18,
    restarts_planned=2, restarts_done=2, kill_points=(4, 9), epochs=(5, 6, 7),
    requested=18, ok=18, failed=0, delivered_unique=18, duplicates_delivered=0,
    dups_suppressed=3, requeued=5, deadletters=0, sender_done=True, duration=0.4,
    check_ok=True, check_streams={"aio": {"count": 40, "digest": "ab"}},
)
LOOPBACK_RUN = LoopbackRun(
    transport="data", bytes=2 * MB, chunks=35, duration=0.5, delivered=35,
    notifies_ok=35, notifies_failed=0, leaked_notifies=0, send_failures=0,
    batches=12, protocols={"tcp": 20, "udt": 15},
)


def loopback(**flaw):
    run = dataclasses.replace(LOOPBACK_RUN, **flaw)
    return LoopbackComparison(size=2 * MB, seed=3, runs=(run,), sim_throughput={})


def fleet(crash=False, tamper=False):
    """A two-unit campaign document over tiny fleet units; ``crash`` breaks seed 1."""
    tiny = {"hosts": 4, "flows": 4, "horizon": 10.0}
    document = run_campaign([
        CampaignUnit.make("fleet", s, {**tiny, "pattern": "boom"} if crash and s else tiny)
        for s in (0, 1)
    ])
    if tamper:
        document["merged"]["digest"] = "0" * 32
    return FleetCampaign(document)


#: kind -> (a clean result, [(the same result with one stated condition
#: flipped, the field its problem must name)])
CASES = {
    "faults": (FAULTS, [
        (dataclasses.replace(FAULTS, transfer_done=False, transfer_progress=0.3), "transfer_done"),
        (dataclasses.replace(FAULTS, pings_answered=0), "pings_answered"),
        (dataclasses.replace(FAULTS, reconnect_attempts=0), "reconnect_attempts"),
        (dataclasses.replace(FAULTS, reconnect_recovered=0), "reconnect_recovered"),
    ]),
    "chaos": (CHAOS, [
        (dataclasses.replace(CHAOS, transfer_done=False, transfer_progress=0.088), "transfer_done"),
        (dataclasses.replace(CHAOS, pings_answered_before_tail=70), "pings_answered_in_tail"),
        (dataclasses.replace(CHAOS, restarts=0), "restarts"),
    ]),
    "chaos-aio": (CHAOS_AIO, [
        (dataclasses.replace(CHAOS_AIO, sender_done=False), "sender_done"),
        (dataclasses.replace(CHAOS_AIO, ok=17), "leaked"),
        (dataclasses.replace(CHAOS_AIO, duplicates_delivered=1), "duplicates_delivered"),
        (dataclasses.replace(CHAOS_AIO, restarts_done=1, epochs=(5, 6)), "restarts_done"),
        (dataclasses.replace(CHAOS_AIO, epochs=(5, 7, 6)), "epochs"),
        (dataclasses.replace(CHAOS_AIO, epochs=(5, 6)), "epochs"),
        (dataclasses.replace(CHAOS_AIO, check_ok=False, violations=("aio.nodup: x",)), "check_ok"),
        (dataclasses.replace(CHAOS_AIO, check_streams={}), "check_streams"),
        (dataclasses.replace(CHAOS_AIO, delivered_unique=17), "delivered_unique"),
        (dataclasses.replace(CHAOS_AIO, ok=17, failed=1), "failed"),
    ]),
    "loopback": (loopback(), [
        (loopback(delivered=34), "delivered"),
        (loopback(notifies_ok=34), "notifies_ok"),
        (loopback(notifies_failed=1), "notifies_failed"),
        (loopback(leaked_notifies=2), "leaked_notifies"),
        (loopback(duration=0.0), "throughput"),
        (loopback(protocols={"data": 35}), "protocols"),
        (loopback(protocols={}), "protocols"),
        (dataclasses.replace(loopback(), runs=()), "runs"),
    ]),
    "fleet": (fleet(), [
        (fleet(crash=True), "ok=False"),
        (fleet(tamper=True), "merged digest"),
    ]),
}

CLEAN = [pytest.param(kind, clean, id=kind) for kind, (clean, _) in CASES.items()]
FLIPPED = [
    pytest.param(kind, result, field, id=f"{kind}-{field}-{i}")
    for kind, (_, flips) in CASES.items()
    for i, (result, field) in enumerate(flips)
]


def run_cli_and_gate(kind, result, tmp_path, monkeypatch, *extra_argv):
    """``repro <kind>`` over ``result``, then ``ci_checks <kind>`` on its artifact."""
    artifact = str(tmp_path / "artifact.json")
    if kind in ("faults", "chaos"):
        def fake_campaign(**kwargs):
            for field in ("restarts", "deadletters"):  # the gate's metric cross-check
                get_registry().counter(f"kompics.{field}_total").inc(getattr(result, field, 0))
            return result

        driver = {"faults": "run_fault_campaign", "chaos": "run_chaos_campaign"}[kind]
        fake_campaign.__name__ = driver
        monkeypatch.setattr(f"repro.cli.{driver}", fake_campaign)
        argv = [kind, "--format", "json", "--output", artifact]
    elif kind == "chaos-aio":
        monkeypatch.setattr("repro.bench.chaos.run_aio_chaos_campaign", lambda **kw: result)
        argv = ["chaos", "--backend", "aio", "--format", "json", "--output", artifact]
    elif kind == "loopback":
        monkeypatch.setattr(
            "repro.bench.loopback.run_loopback_comparison", lambda *a, **kw: result
        )
        argv = ["loopback", "--format", "json", "--output", artifact]
    else:
        monkeypatch.setattr("repro.bench.fleet.run_campaign", lambda *a, **kw: result.document)
        argv = ["fleet", "run", "--out", artifact]
    cli_code = cli_main(argv + list(extra_argv))
    gate_argv = [kind, artifact, artifact, "--baseline", ""] if kind == "fleet" else [kind, artifact]
    return cli_code, ci_checks.main(gate_argv), artifact


@pytest.mark.parametrize("kind, result", CLEAN)
def test_clean_result_passes_everywhere(kind, result, tmp_path, monkeypatch, capsys):
    assert result.problems() == []
    assert campaign_summary(result).endswith("converged       yes")
    cli_code, gate_code, artifact = run_cli_and_gate(kind, result, tmp_path, monkeypatch)
    assert (cli_code, gate_code) == (0, 0), capsys.readouterr().err
    if kind != "fleet":  # the fleet document is pinned byte for byte; its verdict is recomputed
        document = result.to_document()
        assert (document["kind"], document["converged"], document["problems"]) == \
            (result.kind, True, [])
        recorded = json.load(open(artifact))
        recorded = recorded.get("meta", {}).get("summary", recorded)
        assert recorded["problems"] == [] and recorded["kind"] == result.kind


@pytest.mark.parametrize("kind, result, field", FLIPPED)
def test_flipped_condition_fails(
    kind, result, field, tmp_path, monkeypatch, capsys
):
    named = [p for p in result.problems() if field in p]
    assert named, f"no problem names {field}: {result.problems()}"
    assert campaign_summary(result).endswith("converged       NO")
    cli_code, gate_code, _ = run_cli_and_gate(kind, result, tmp_path, monkeypatch)
    err = capsys.readouterr().err
    assert (cli_code, gate_code) == (1, 1)
    assert err.count(named[0]) == 2  # once from the CLI, once from the gate
    if kind != "fleet":
        document = result.to_document()
        assert document["converged"] is False and named[0] in document["problems"]


def test_properties_are_the_verdict():
    # a loopback run's ``complete`` is its verdict; the campaign results
    # have no property beside ``problems()``
    assert LOOPBACK_RUN.complete
    assert not dataclasses.replace(LOOPBACK_RUN, delivered=0).complete


def test_exercise_checks_follow_the_runs_own_plan():
    # no cut inside the run, no component fault planned, no kill planned:
    # zero reconnects / restarts are then not a problem
    assert dataclasses.replace(
        FAULTS, cut_at=30.0, reconnect_attempts=0, reconnect_recovered=0).problems() == []
    assert dataclasses.replace(CHAOS, faults_injected=0, restarts=0).problems() == []
    assert dataclasses.replace(
        CHAOS_AIO, restarts_planned=0, restarts_done=0, epochs=(5,)).problems() == []
    # at-most-once may fail and drop chunks caught by a kill
    assert dataclasses.replace(
        CHAOS_AIO, redelivery="at-most-once", ok=16, failed=2, delivered_unique=16,
    ).problems() == []


def test_no_recovery_is_the_one_exemption(tmp_path, monkeypatch, capsys):
    bare = dataclasses.replace(FAULTS, transfer_done=False, reconnect_attempts=0,
                               reconnect_recovered=0)
    cli_code, gate_code, _ = run_cli_and_gate(
        "faults", bare, tmp_path, monkeypatch, "--no-recovery")
    assert (cli_code, gate_code) == (0, 1)
    assert "transfer_done=False" in capsys.readouterr().err


def test_chaos_gate_cross_checks_exported_counters(tmp_path, monkeypatch, capsys):
    # the one chaos check that needs more than the result: its counters
    # against the kompics.*_total metrics of the same snapshot
    _, _, artifact = run_cli_and_gate("chaos", CHAOS, tmp_path, monkeypatch)
    doc = json.load(open(artifact))
    doc["metrics"]["kompics.restarts_total"][0]["value"] += 1
    json.dump(doc, open(artifact, "w"))
    assert ci_checks.main(["chaos", artifact]) == 1
    assert "counter mismatch" in capsys.readouterr().err


def test_gate_rejects_the_wrong_kind_and_a_missing_verdict(tmp_path, capsys):
    artifact = tmp_path / "a.json"
    artifact.write_text(json.dumps(CHAOS_AIO.to_document()))
    assert ci_checks.main(["loopback", str(artifact)]) == 1
    assert "kind='chaos-aio'" in capsys.readouterr().err
    document = CHAOS_AIO.to_document()
    del document["problems"]
    artifact.write_text(json.dumps(document))
    assert ci_checks.main(["chaos-aio", str(artifact)]) == 1
    assert "no problems list" in capsys.readouterr().err


def test_unfinished_transfer_fails_the_chaos_command(capsys):
    # Regression: exited 0 ("converged yes") with the transfer at 8.8 %
    # while ci_checks.py chaos failed the same artifact.
    code = cli_main([
        "chaos", "--duration", "6", "--chaos-start", "1", "--chaos-end", "3",
        "--tail", "2", "--events", "3", "--transfer-mb", "400", "--seed", "3",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "converged       NO" in captured.out
    assert "transfer_done=False" in captured.err and "8.8%" in captured.err
