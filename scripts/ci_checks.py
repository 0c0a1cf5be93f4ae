#!/usr/bin/env python3
"""Assertions the CI campaign matrix runs against campaign artifacts.

Moved out of inline workflow YAML so the checks are testable, diffable
and shared between CI and local runs:

    python scripts/ci_checks.py faults faults-a.json
    python scripts/ci_checks.py chaos chaos-a.json
    python scripts/ci_checks.py fleet fleet-a.json fleet-b.json \
        --baseline BENCH_FLEET.json

Each subcommand exits non-zero with a reason on the first failed
assertion and prints a one-line OK summary otherwise.  What a campaign
must satisfy is not written here: the artifact records the problems its
result found (``problems()`` under ``src/repro/bench/``) and these gates
read them, adding only what needs something outside the result.
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
    return sum(entry["value"] for entry in doc["metrics"].get(name, []))


def _chaos_counters(doc: Dict[str, Any], summary: Dict[str, Any]) -> None:
    """The summary's supervision counters must equal the exported metrics."""
    for field, metric in (("restarts", "kompics.restarts_total"),
                          ("deadletters", "kompics.deadletters_total")):
        total = _metric_total(doc, metric)
        assert total == summary[field], \
            f"{field}={summary[field]} but {metric} sums to {total}: counter mismatch"


#: subcommand -> (the artifact's ``kind``, where the campaign document sits
#: inside the artifact, a check that needs more than the campaign document)
CAMPAIGNS = {
    "faults": ("faults", ("meta", "summary"), None),
    "chaos": ("chaos", ("meta", "summary"), _chaos_counters),
    "chaos-aio": ("chaos-aio", (), None),
    "loopback": ("loopback-comparison", (), None),
}


def check_campaign(args: argparse.Namespace) -> int:
    """One campaign artifact: the right kind, and no recorded problem.

    What "passed" means is stated once, by the result's ``problems()``
    under ``src/repro/bench/`` (docs/resilience.md, "Campaign artifact and
    verdict"); ``repro <campaign>`` records that list in the artifact and
    exits by it, and this gate reads the same list.
    """
    kind, where, extra = CAMPAIGNS[args.command]
    artifact = _load(args.artifact)
    doc = artifact
    for key in where:
        doc = doc.get(key, {})
    assert doc.get("kind") == kind, \
        f"not a {kind} artifact: kind={doc.get('kind')!r}"
    assert "problems" in doc, "artifact records no problems list (no verdict)"
    assert not doc["problems"], "; ".join(doc["problems"])
    if extra is not None:
        extra(artifact, doc)
    print(f"{args.command} OK: {kind} artifact records 0 problems")
    return 0


def _load_campaign_pair(args: argparse.Namespace) -> Dict[str, Any]:
    """Two fleet artifacts from independent runs: byte-identical and clean."""
    from repro.bench.fleet import FleetCampaign

    with open(args.run_a, "rb") as fh:
        bytes_a = fh.read()
    with open(args.run_b, "rb") as fh:
        bytes_b = fh.read()
    assert bytes_a == bytes_b, \
        f"{args.run_a} and {args.run_b} differ: campaign is not deterministic"
    doc = json.loads(bytes_a)
    problems = FleetCampaign(doc).problems()
    assert not problems, "; ".join(problems)
    return doc


def check_fleet(args: argparse.Namespace) -> int:
    """Fleet campaign artifacts: deterministic, clean, pinned to history.

    Compares two artifacts from independent invocations (different
    ``PYTHONHASHSEED``) byte for byte, requires the campaign verdict
    clean (valid document, every unit ok) and — when a committed
    baseline exists — pins the unit digests to it so a silent
    determinism break shows up as a diff against history.  A missing
    baseline is tolerated with a note (the artifact lands in the same
    PR that introduces the gate).
    """
    doc = _load_campaign_pair(args)
    totals = doc["merged"]["totals"]

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


#: ``find src -name '*.py' | xargs cat | wc -l`` may only go down (ROADMAP:
#: "src/ should end the round smaller"); a PR that shrinks src/ lowers this
#: to its own total, a PR that must grow it raises it in the open
SRC_LINE_CEILING = 18714


def check_hygiene(args: argparse.Namespace) -> int:
    """No compiled or packaging artifacts may ever be tracked by git.

    A tracked ``.pyc`` is stale the moment its source changes and breaks
    fresh-clone determinism, and a tracked ``*.egg-info/`` lists sources
    that have since moved; this gate fails the build if ``git ls-files``
    reports any ``__pycache__`` / ``*.egg-info`` directory or ``*.pyc``
    file (all three are in ``.gitignore``).  It also holds ``src/`` under
    :data:`SRC_LINE_CEILING` and free of ``gc.collect(`` / ``gc.disable(``
    / ``gc.freeze(`` / ``gc.set_threshold(``, every ``repro`` option to at least one
    user under tests/, docs/, examples/, .github/, README or EXPERIMENTS,
    and every dotted config key ``src/`` reads to at least one setter.
    """
    import pathlib
    import re
    import subprocess

    root = pathlib.Path(__file__).resolve().parent.parent
    src_lines = sum(p.read_bytes().count(b"\n") for p in (root / "src").rglob("*.py"))
    assert src_lines <= SRC_LINE_CEILING, \
        f"src/ has {src_lines} lines of Python, above the ceiling of {SRC_LINE_CEILING}"
    # A reference cycle is cut where it is made (``SimNetwork.close``),
    # never left to a collection that src/ forces or tunes.
    collector = sorted(
        f"{path.relative_to(root)}:{number}"
        for path in (root / "src").rglob("*.py")
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(r"\bgc\.(?:collect|disable|freeze|set_threshold)\(", line)
    )
    assert not collector, "gc calls under src/: " + ", ".join(collector)
    # Flag census: an option no test, doc, example or CI entry sets is a
    # knob nothing needs — make it a constant instead of shipping it.
    users = [root / "README.md", root / "EXPERIMENTS.md", *(
        p for d in ("tests", "docs", "examples", ".github") for p in (root / d).rglob("*")
        if p.suffix in (".py", ".md", ".yml")
    )]
    text = "\n".join(p.read_text(encoding="utf-8") for p in users)
    flags = set(re.findall(r'"(--[a-z][a-z-]*)"', (root / "src/repro/cli.py").read_text()))
    unset = sorted(f for f in flags if not re.search(re.escape(f) + r"(?![a-z-])", text))
    assert not unset, "repro options nothing sets: " + ", ".join(unset)
    # Config-key census, same rule: a key ``src/`` reads through
    # ``.get*("...")`` must appear as a ``"key":`` entry in some test,
    # example, benchmark, CI file, ``src/repro/bench`` module or the CLI.
    keys = set()
    for path in (root / "src").rglob("*.py"):
        keys.update(re.findall(
            r'\.get(?:_[a-z]+)?\(\s*"((?:kompics|messaging|net|data)\.[a-z0-9_.]+)"',
            path.read_text(encoding="utf-8"),
        ))
    setters = [root / "src/repro/cli.py", *(
        p for d in ("tests", "examples", "benchmarks", ".github", "src/repro/bench")
        for p in (root / d).rglob("*") if p.suffix in (".py", ".yml", ".json")
    )]
    text = "\n".join(p.read_text(encoding="utf-8") for p in setters)
    unset = sorted(k for k in keys if not re.search('"' + re.escape(k) + r'"\s*:', text))
    assert not unset, "config keys nothing sets: " + ", ".join(unset)
    out = subprocess.run(
        ["git", "ls-files"], capture_output=True, text=True, check=True, cwd=root,
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
          f"no __pycache__/*.pyc/*.egg-info, src/ {src_lines} <= {SRC_LINE_CEILING} lines "
          f"and no gc calls, "
          f"{len(flags)} repro options and {len(keys)} config keys all set somewhere")
    return 0


def check_cc_matrix(args: argparse.Namespace) -> int:
    """The congestion-control sweep must be deterministic per arm.

    Takes two artifacts from independent ``repro fleet sweep`` runs
    over the cc-* presets (different ``PYTHONHASHSEED``) and
    asserts: byte-identical artifacts, a valid campaign document, every
    unit converged, at least ``--min-arms`` distinct cc scenarios swept,
    and — since each arm drives a different controller — pairwise
    distinct digests per seed across arms.  Identical digests would mean
    the ``cc=`` spec silently stopped reaching the flows.
    """
    doc = _load_campaign_pair(args)

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

    for command, (kind, _, _) in CAMPAIGNS.items():
        p_campaign = sub.add_parser(command, help=f"{kind} artifact: kind and verdict")
        p_campaign.add_argument("artifact")
        p_campaign.set_defaults(func=check_campaign)

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
