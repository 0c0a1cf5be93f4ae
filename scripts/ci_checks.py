#!/usr/bin/env python3
"""Assertions the CI campaign matrix runs against campaign artifacts.

Moved out of inline workflow YAML so the checks are testable, diffable
and shared between CI and local runs:

    python scripts/ci_checks.py faults faults-a.json
    python scripts/ci_checks.py chaos chaos-a.json
    python scripts/ci_checks.py fleet fleet-a.json fleet-b.json \
        --baseline BENCH_FLEET.json

Each subcommand exits non-zero with a reason on the first failed
assertion and prints a one-line OK summary otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict


def _load(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _metric_total(doc: Dict[str, Any], name: str) -> float:
    return sum(entry["value"] for entry in doc["metrics"][name])


def check_faults(args: argparse.Namespace) -> int:
    """The fault campaign must actually have exercised recovery."""
    doc = _load(args.snapshot)
    summary = doc["meta"]["summary"]
    assert summary["reconnect_attempts"] > 0, "no reconnect attempts"
    assert summary["reconnect_recovered"] > 0, "channel never recovered"
    for name in ("messaging.reconnect.attempts_total",
                 "messaging.reconnect.recovered_total"):
        assert _metric_total(doc, name) > 0, f"{name} is zero"
    print(f"recovery OK: {summary['reconnect_attempts']} attempts, "
          f"{summary['reconnect_recovered']} recovered, "
          f"backoff {summary['backoff_delays']}")
    return 0


def check_chaos(args: argparse.Namespace) -> int:
    """The chaos campaign must have restarted, converged and balanced."""
    doc = _load(args.snapshot)
    summary = doc["meta"]["summary"]
    assert summary["restarts"] > 0, "supervision never restarted anything"
    assert summary["transfer_done"], "transfer did not complete after restarts"
    assert summary["pings_answered"] > summary["pings_answered_before_tail"], \
        "no pings answered after the last chaos event"
    restarts = _metric_total(doc, "kompics.restarts_total")
    assert restarts == summary["restarts"], "restart counter mismatch"
    deadletters = _metric_total(doc, "kompics.deadletters_total")
    assert deadletters == summary["deadletters"], \
        "dead-letter leak: counter mismatch"
    print(f"chaos OK: {summary['restarts']} restarts, "
          f"{summary['deadletters']} dead letters, converged")
    return 0


def check_chaos_aio(args: argparse.Namespace) -> int:
    """Real-socket chaos: zero leaks, zero duplicates, epochs monotone.

    The artifact is one ``repro chaos --backend aio --format json`` run:
    a live AioNetwork killed and supervision-restarted mid-transfer.  The
    gate asserts the crash-recovery contract, not throughput: every
    MessageNotify resolved exactly once (``leaked == 0``), no chunk was
    delivered twice (the epoch fence + dedup window), every planned kill
    actually happened, and each incarnation announced a strictly larger
    network epoch with the ``aio.epoch``/``aio.nodup`` invariants clean.
    """
    doc = _load(args.artifact)
    assert doc.get("kind") == "chaos-aio", \
        f"not a chaos-aio artifact: kind={doc.get('kind')!r}"
    assert doc["restarts_done"] >= 1, "no supervised restart ever happened"
    assert doc["restarts_done"] == doc["restarts_planned"], \
        f"only {doc['restarts_done']}/{doc['restarts_planned']} kills landed"
    assert doc["leaked"] == 0, \
        f"{doc['leaked']} notifies never resolved (leak across restart)"
    assert doc["duplicates_delivered"] == 0, \
        f"{doc['duplicates_delivered']} duplicate chunk deliveries"
    epochs = doc["epochs"]
    assert len(epochs) == doc["restarts_done"] + 1, \
        f"expected {doc['restarts_done'] + 1} epochs, saw {len(epochs)}"
    assert all(a < b for a, b in zip(epochs, epochs[1:])), \
        f"network epochs not strictly increasing: {epochs}"
    assert doc["check_ok"], "invariant violations: " + "; ".join(doc["violations"])
    assert doc["sender_done"], "sender never finished its accounting"
    if doc["redelivery"] == "at-least-once":
        assert doc["delivered_unique"] == doc["chunks"], \
            f"at-least-once lost chunks: {doc['delivered_unique']}/{doc['chunks']}"
        assert doc["failed"] == 0, \
            f"at-least-once failed {doc['failed']} notifies"
    assert doc["converged"], "campaign did not converge"
    assert "aio" in doc.get("check_streams", {}), \
        "no aio digest stream recorded (checker was off?)"
    print(f"chaos-aio OK: {doc['transport']}/{doc['redelivery']}, "
          f"{doc['restarts_done']} restart(s), epochs {epochs}, "
          f"{doc['delivered_unique']}/{doc['chunks']} delivered, "
          f"0 leaked, 0 duplicated")
    return 0


def check_loopback(args: argparse.Namespace) -> int:
    """The real-socket loopback run must be loss-free and leak-free.

    Every transport's run has to deliver all chunks, resolve every
    MessageNotify (success), and leak nothing; the DATA run must have
    actually exercised the adaptive selector (only wire protocols on the
    received messages, never the DATA pseudo-protocol).
    """
    doc = _load(args.artifact)
    assert doc.get("kind") == "loopback-comparison", \
        f"not a loopback artifact: kind={doc.get('kind')!r}"
    runs = doc["runs"]
    assert runs, "loopback artifact contains no runs"
    for run in runs:
        t = run["transport"]
        assert run["delivered"] == run["chunks"], \
            f"{t}: delivered {run['delivered']}/{run['chunks']} chunks"
        assert run["notifies_ok"] == run["chunks"], \
            f"{t}: only {run['notifies_ok']}/{run['chunks']} notifies succeeded"
        assert run["notifies_failed"] == 0, \
            f"{t}: {run['notifies_failed']} failed notifies"
        assert run["leaked_notifies"] == 0, \
            f"{t}: {run['leaked_notifies']} notifies never resolved (leak)"
        assert run["throughput"] > 0, f"{t}: zero throughput"
        if t == "data":
            assert "data" not in run["protocols"], \
                "DATA pseudo-protocol reached the wire unstamped"
            assert run["protocols"], "data run recorded no wire protocols"
    summary = ", ".join(
        f"{run['transport']} {run['throughput'] / (1024 * 1024):.1f} MB/s"
        for run in runs
    )
    print(f"loopback OK: {len(runs)} run(s) complete, zero leaks ({summary})")
    return 0


def check_fleet(args: argparse.Namespace) -> int:
    """Fleet campaign artifacts: valid schema, deterministic, no failures.

    Compares two artifacts from independent invocations (different
    ``PYTHONHASHSEED``) byte for byte, validates the document against
    its own units, requires every unit ok, and — when a committed
    baseline exists — pins the merged digest to it so a silent
    determinism break shows up as a diff against history.  A missing
    baseline is tolerated with a note (the artifact lands in the same
    PR that introduces the gate).
    """
    from repro.bench.fleet import validate_campaign_document

    with open(args.run_a, "rb") as fh:
        bytes_a = fh.read()
    with open(args.run_b, "rb") as fh:
        bytes_b = fh.read()
    assert bytes_a == bytes_b, \
        f"{args.run_a} and {args.run_b} differ: campaign is not deterministic"

    doc = json.loads(bytes_a)
    problems = validate_campaign_document(doc)
    assert not problems, "invalid campaign document: " + "; ".join(problems)
    totals = doc["merged"]["totals"]
    assert totals["failed"] == 0, f"{totals['failed']} campaign unit(s) failed"

    if args.baseline and os.path.exists(args.baseline):
        baseline = _load(args.baseline)
        base_units = {
            (u["scenario"], u["seed"]): u.get("digest")
            for u in baseline.get("units", [])
        }
        matched = mismatched = 0
        for unit in doc["units"]:
            expected = base_units.get((unit["scenario"], unit["seed"]))
            if expected is None:
                continue
            if unit.get("digest") == expected:
                matched += 1
            else:
                mismatched += 1
                print(f"unit digest drift: {unit['scenario']} seed "
                      f"{unit['seed']}: {unit.get('digest')} != {expected}",
                      file=sys.stderr)
        assert mismatched == 0, \
            f"{mismatched} unit digest(s) drifted from {args.baseline}"
        note = f", {matched} unit digest(s) match {args.baseline}"
    else:
        note = f", baseline {args.baseline!r} not present (tolerated)"
    print(f"fleet OK: {totals['ok']}/{totals['units']} units, "
          f"merged digest {doc['merged']['digest']}{note}")
    return 0


def check_hygiene(args: argparse.Namespace) -> int:
    """No compiled or packaging artifacts may ever be tracked by git.

    A tracked ``.pyc`` is stale the moment its source changes and breaks
    fresh-clone determinism, and a tracked ``*.egg-info/`` lists sources
    that have since moved; this gate fails the build if ``git ls-files``
    reports any ``__pycache__`` / ``*.egg-info`` directory or ``*.pyc``
    file (all three are in ``.gitignore``).
    """
    import subprocess

    out = subprocess.run(
        ["git", "ls-files"], capture_output=True, text=True, check=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    tracked = out.stdout.splitlines()
    offenders = [
        path for path in tracked
        if path.endswith(".pyc") or any(
            part == "__pycache__" or part.endswith(".egg-info")
            for part in path.split("/")[:-1]
        )
    ]
    assert not offenders, \
        "build artifacts tracked by git: " + ", ".join(offenders)
    print(f"hygiene OK: {len(tracked)} tracked files, "
          "no __pycache__/*.pyc/*.egg-info")
    return 0


def check_cc_matrix(args: argparse.Namespace) -> int:
    """The congestion-control sweep must be deterministic per arm.

    Takes two artifacts from independent ``repro fleet campaign`` runs
    over the registered cc scenarios (different ``PYTHONHASHSEED``) and
    asserts: byte-identical artifacts, a valid campaign document, every
    unit converged, at least ``--min-arms`` distinct cc scenarios swept,
    and — since each arm drives a different controller — pairwise
    distinct digests per seed across arms.  Identical digests would mean
    the ``cc=`` spec silently stopped reaching the flows.
    """
    from repro.bench.fleet import validate_campaign_document

    with open(args.run_a, "rb") as fh:
        bytes_a = fh.read()
    with open(args.run_b, "rb") as fh:
        bytes_b = fh.read()
    assert bytes_a == bytes_b, \
        f"{args.run_a} and {args.run_b} differ: cc sweep is not deterministic"

    doc = json.loads(bytes_a)
    problems = validate_campaign_document(doc)
    assert not problems, "invalid campaign document: " + "; ".join(problems)
    totals = doc["merged"]["totals"]
    assert totals["failed"] == 0, f"{totals['failed']} cc sweep unit(s) failed"

    cc_units = [u for u in doc["units"] if u["scenario"].startswith("cc-")]
    assert cc_units, "no cc-* scenarios in the artifact"
    arms = sorted({u["scenario"] for u in cc_units})
    assert len(arms) >= args.min_arms, \
        f"only {len(arms)} cc arm(s) swept ({', '.join(arms)}); " \
        f"need at least {args.min_arms}"

    by_seed: Dict[Any, Dict[str, str]] = {}
    for unit in cc_units:
        by_seed.setdefault(unit["seed"], {})[unit["scenario"]] = unit["digest"]
    for seed, digests in sorted(by_seed.items()):
        values = list(digests.values())
        assert len(set(values)) == len(values), \
            f"seed {seed}: cc arms produced colliding digests {digests}"
    print(f"cc-matrix OK: {len(arms)} arms ({', '.join(arms)}), "
          f"{len(cc_units)} units, digests distinct per seed, "
          f"merged digest {doc['merged']['digest']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_faults = sub.add_parser("faults", help="fault-campaign snapshot checks")
    p_faults.add_argument("snapshot")
    p_faults.set_defaults(func=check_faults)

    p_chaos = sub.add_parser("chaos", help="chaos-campaign snapshot checks")
    p_chaos.add_argument("snapshot")
    p_chaos.set_defaults(func=check_chaos)

    p_chaos_aio = sub.add_parser(
        "chaos-aio", help="real-socket chaos artifact checks"
    )
    p_chaos_aio.add_argument("artifact")
    p_chaos_aio.set_defaults(func=check_chaos_aio)

    p_loopback = sub.add_parser(
        "loopback", help="real-socket loopback artifact checks"
    )
    p_loopback.add_argument("artifact")
    p_loopback.set_defaults(func=check_loopback)

    p_fleet = sub.add_parser("fleet", help="fleet campaign artifact checks")
    p_fleet.add_argument("run_a")
    p_fleet.add_argument("run_b")
    p_fleet.add_argument("--baseline", default="BENCH_FLEET.json",
                         help="committed campaign artifact to pin digests "
                              "against (missing file tolerated)")
    p_fleet.set_defaults(func=check_fleet)

    p_hygiene = sub.add_parser(
        "hygiene", help="fail if git tracks __pycache__/*.pyc/*.egg-info artifacts"
    )
    p_hygiene.set_defaults(func=check_hygiene)

    p_cc = sub.add_parser(
        "cc-matrix", help="congestion-control sweep artifact checks"
    )
    p_cc.add_argument("run_a")
    p_cc.add_argument("run_b")
    p_cc.add_argument("--min-arms", type=int, default=3,
                      help="minimum distinct cc-* scenarios required")
    p_cc.set_defaults(func=check_cc_matrix)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AssertionError as exc:
        print(f"{args.command} check FAILED: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
