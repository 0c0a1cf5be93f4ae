"""Command-line interface: run the paper's experiments from a shell.

Examples::

    python -m repro figures fig9
    python -m repro transfer --setup EU2US --transport data --size-mb 96 --runs 3
    python -m repro latency --setup EU2AU --data-transport udt
    python -m repro learn --value-function approx --duration 60
    python -m repro faults --cut-at 3 --cut-duration 2
    python -m repro chaos --seed 3 --events 5
    python -m repro setups
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional, Tuple

from repro.bench import AWS_SETUPS, setup_by_name
from repro.bench.chaos import ALL_TARGETS, DEFAULT_TARGETS, run_chaos_campaign
from repro.bench.faults import run_fault_campaign
from repro.bench.fleet import SCENARIOS
from repro.bench.harness import (
    run_latency_experiment,
    run_learner_trace,
    run_static_reference,
    run_transfer_repeated,
)
from repro.bench.report import campaign_summary, format_table
from repro.check.workloads import WORKLOADS, run_workload
from repro.core import TDRatioLearner
from repro.messaging import Transport

MB = 1024 * 1024

SETUP_NAMES = tuple(s.name for s in AWS_SETUPS)

FIGURES = ("fig1", "fig2", "fig4", "fig5", "fig6", "fig8", "fig9")


def _transport(name: str) -> Transport:
    try:
        return Transport(name.lower())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown transport {name!r}; choose from "
            f"{[t.value for t in Transport]}"
        )


def _targets(text: str) -> Tuple[str, ...]:
    targets = tuple(t.strip() for t in text.split(",") if t.strip())
    unknown = [t for t in targets if t not in ALL_TARGETS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown chaos target(s) {unknown}; choose from {list(ALL_TARGETS)}"
        )
    return targets


def _emit(text: str, output: Optional[str], what: str) -> None:
    """Write ``text`` to the ``--output`` file, or print it."""
    if output is None:
        print(text)
        return
    with open(output, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(f"wrote {what} to {output}")


def _finish(result, fmt: str, output: Optional[str], document: Optional[dict] = None,
            enforce: bool = True) -> int:
    """Where every campaign command ends: render, emit, problems, exit code.

    ``result`` follows the contract in :mod:`repro.bench.report`;
    ``document`` replaces its own when the result rides inside an obs
    snapshot (faults, chaos).
    """
    from repro.obs.export import document_json

    if fmt == "json":
        text = document_json(result.to_document() if document is None else document)
    else:
        text = campaign_summary(result)
    _emit(text, output, f"{fmt} output")
    problems = result.problems()
    for problem in problems:
        print(f"{result.kind}: {problem}" + ("" if enforce else " (not enforced)"),
              file=sys.stderr)
    return 1 if problems and enforce else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="KompicsMessaging reproduction (ICDCS 2017) experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("setups", help="list the simulated testbed setups")

    figures = sub.add_parser("figures", help="regenerate paper figures")
    figures.add_argument("which", nargs="*", default=["all"],
                         help=f"figures to run: {', '.join(FIGURES)} or 'all'")

    transfer = sub.add_parser("transfer", help="repeated disk-to-disk transfer")
    transfer.add_argument("--setup", choices=SETUP_NAMES, default="EU2US",
                          help="testbed setup name")
    transfer.add_argument("--transport", type=_transport, default=Transport.DATA)
    transfer.add_argument("--size-mb", type=int, default=395)
    transfer.add_argument("--runs", type=int, default=5)
    transfer.add_argument("--seed", type=int, default=1)

    latency = sub.add_parser("latency", help="ping RTT with optional parallel data")
    latency.add_argument("--setup", choices=SETUP_NAMES, default="EU2AU")
    latency.add_argument("--data-transport", type=_transport, default=None)
    latency.add_argument("--transfer-mb", type=int, default=395)
    latency.add_argument("--seed", type=int, default=2)

    learn = sub.add_parser("learn", help="watch the ratio learner converge")
    learn.add_argument("--value-function", choices=("matrix", "model", "approx"),
                       default="approx")
    learn.add_argument("--duration", type=float, default=120.0)
    learn.add_argument("--seed", type=int, default=4)

    obs = sub.add_parser(
        "obs",
        help="run an instrumented ping-pong + DATA scenario and dump metrics",
    )
    obs.add_argument("--setup", choices=SETUP_NAMES, default=None,
                     help="testbed setup name (default: the learner environment)")
    obs.add_argument("--duration", type=float, default=10.0,
                     help="simulated seconds to run")
    obs.add_argument("--seed", type=int, default=3)
    obs.add_argument("--format", choices=("json", "lines"), default="json",
                     help="snapshot format: full JSON or flat line protocol")
    obs.add_argument("--output", default=None,
                     help="write the snapshot to this file instead of stdout")
    obs.add_argument("--trace", action="store_true",
                     help="include trace records in the JSON snapshot")

    loopback = sub.add_parser(
        "loopback",
        help="run the fig9-style workload on REAL loopback sockets and "
             "compare against the netsim prediction",
    )
    loopback.add_argument("--size-mb", type=float, default=2.0,
                          help="dataset size per transport")
    loopback.add_argument("--seed", type=int, default=3)
    loopback.add_argument("--format", choices=("table", "json"), default="table",
                          help="human table or the JSON document")
    loopback.add_argument("--output", default=None,
                          help="write the output to this file instead of stdout")

    faults = sub.add_parser(
        "faults",
        help="scripted fault campaign (cut/degrade/restore) with recovery metrics",
    )
    faults.add_argument("--duration", type=float, default=20.0,
                        help="simulated seconds to run")
    faults.add_argument("--cut-at", type=float, default=3.0,
                        help="when to cut the link (sim seconds)")
    faults.add_argument("--cut-duration", type=float, default=2.0,
                        help="how long the link stays down")
    faults.add_argument("--degrade-at", type=float, default=None,
                        help="optionally degrade the link at this time")
    faults.add_argument("--transfer-mb", type=int, default=8,
                        help="parallel file-transfer size")
    faults.add_argument("--transport", type=_transport, default=Transport.TCP,
                        help="transfer transport (pings always use TCP)")
    faults.add_argument("--seed", type=int, default=5)
    faults.add_argument("--no-recovery", action="store_true",
                        help="run the bare middleware (today's loss behaviour)")
    faults.add_argument("--fallback", action="store_true",
                        help="enable degrade-to-TCP transport fallback")
    faults.add_argument("--jitter", type=float, default=None,
                        help="override messaging.reconnect.jitter")
    faults.add_argument("--format", choices=("summary", "json"), default="summary",
                        help="human summary or the full obs snapshot document")
    faults.add_argument("--output", default=None,
                        help="write the output to this file instead of stdout")

    chaos = sub.add_parser(
        "chaos",
        help="seeded random fault campaign (handler faults + link cuts) "
             "under component supervision",
    )
    chaos.add_argument("--backend", choices=("sim", "aio"), default="sim",
                       help="sim: netsim testbed campaign; aio: kill/restart a "
                            "live real-socket AioNetwork mid-transfer")
    chaos.add_argument("--restarts", type=int, default=2,
                       help="[aio] planned supervised kills of the sender network")
    chaos.add_argument("--redelivery", choices=("at-most-once", "at-least-once"),
                       default="at-most-once",
                       help="[aio] messaging.aio.redelivery contract across restarts")
    chaos.add_argument("--size-mb", type=float, default=1.0,
                       help="[aio] transfer size in MB")
    chaos.add_argument("--duration", type=float, default=20.0,
                       help="simulated seconds to run")
    chaos.add_argument("--events", type=int, default=5,
                       help="how many chaos events to draw")
    chaos.add_argument("--chaos-start", type=float, default=2.0,
                       help="earliest chaos event (sim seconds)")
    chaos.add_argument("--chaos-end", type=float, default=10.0,
                       help="latest chaos event (sim seconds)")
    chaos.add_argument("--tail", type=float, default=3.0,
                       help="chaos-free convergence window at the end")
    chaos.add_argument("--targets", type=_targets, default=DEFAULT_TARGETS,
                       help=f"comma-separated fault targets ({','.join(ALL_TARGETS)})")
    chaos.add_argument("--transfer-mb", type=int, default=4,
                       help="parallel file-transfer size")
    chaos.add_argument("--transport", type=_transport, default=Transport.TCP,
                       help="transfer transport (pings always use TCP)")
    chaos.add_argument("--seed", type=int, default=3)
    chaos.add_argument("--format", choices=("summary", "json"), default="summary",
                       help="human summary or the full obs snapshot document")
    chaos.add_argument("--output", default=None,
                       help="write the output to this file instead of stdout")

    perf = sub.add_parser(
        "perf",
        help="golden-digest gate (rates: python3 perf/run.py)",
    )
    perf.add_argument("--equivalence", action="store_true",
                      help="check each workload's obs snapshot against its "
                           "committed golden digest")

    fleet = sub.add_parser(
        "fleet",
        help="fleet-scale topologies and parallel seeds x scenarios campaigns",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_action", required=True)

    fleet_sub.add_parser("list", help="list the fleet presets and their arguments")

    fleet_run = fleet_sub.add_parser(
        "run", help="run one fleet workload campaign across seeds",
    )
    fleet_run.add_argument("--topology", default="star",
                           choices=("star", "fat-tree", "wan-mesh"),
                           help="generated topology family")
    fleet_run.add_argument("--hosts", type=int, default=32,
                           help="leaf host count (switches/routers are extra)")
    fleet_run.add_argument("--flows", type=int, default=200,
                           help="concurrent flows per seeded run")
    fleet_run.add_argument("--pattern", default="uniform",
                           choices=("uniform", "incast", "churn"),
                           help="traffic pattern (arrival/departure shape)")
    fleet_run.add_argument("--horizon", type=float, default=120.0,
                           help="simulated-seconds cap per run")
    fleet_run.add_argument("--seeds", type=int, default=4,
                           help="how many seeded runs to fan out (seeds 0..N-1)")
    fleet_run.add_argument("--workers", type=int, default=1,
                           help="process-pool width (1 = run inline)")
    fleet_run.add_argument("--out", default=None,
                           help="write the campaign document (JSON) to this file")
    fleet_run.add_argument("--format", choices=("summary", "json"),
                           default="summary",
                           help="stdout format: human summary or the document")

    fleet_sweep = fleet_sub.add_parser(
        "sweep", help="run fleet presets x seeds as one campaign",
    )
    fleet_sweep.add_argument("--scenario", action="append", required=True,
                             choices=sorted(SCENARIOS), metavar="NAME",
                             help="preset to include (repeatable); see "
                                  "'fleet list'")
    fleet_sweep.add_argument("--seeds", type=int, default=4)
    fleet_sweep.add_argument("--workers", type=int, default=1)
    fleet_sweep.add_argument("--out", default=None,
                             help="write the campaign document (JSON) to this file")
    fleet_sweep.add_argument("--format", choices=("summary", "json"),
                             default="summary")

    cc = sub.add_parser(
        "cc",
        help="pluggable congestion-control policies (the netsim registry)",
    )
    cc_sub = cc.add_subparsers(dest="cc_action", required=True)
    cc_sub.add_parser("list", help="list registered congestion-control policies")

    check = sub.add_parser(
        "check",
        help="runtime invariant checker, trace digests, divergence bisection",
    )
    check.add_argument("action", nargs="?", default="run",
                       choices=("run", "compare", "bisect", "mutate"),
                       help="run: workload with invariants on; compare: digest "
                            "a --perturb'ed run vs. a clean one; bisect: name "
                            "the first divergent event; mutate: seeded-violation "
                            "self-test")
    check.add_argument("--mutate", action="store_true",
                       help="alias for the 'mutate' action")
    check.add_argument("--workload", default="transfer", choices=sorted(WORKLOADS),
                       help="check workload")
    check.add_argument("--size-mb", type=float, default=4.0,
                       help="transfer size for fig8/transfer workloads")
    check.add_argument("--duration", type=float, default=4.0,
                       help="sim duration for the obs workload")
    check.add_argument("--seed", type=int, default=3)
    check.add_argument("--perturb", type=int, default=None, metavar="N",
                       help="arm the seeded RX-train swap on the Nth eligible "
                            "append (the divergence compare/bisect look for)")
    check.add_argument("--output", default=None,
                       help="write the checker document (JSON) to this file")

    return parser


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_setups(args: argparse.Namespace) -> int:
    rows = [
        (
            s.name,
            f"{s.rtt * 1000:.0f}ms",
            f"{s.bandwidth / MB:.0f}MB/s",
            f"{s.loss:.0e}" if s.loss else "0",
            f"{s.udp_cap / MB:.0f}MB/s" if s.udp_cap else "-",
            "loopback" if s.local else "point-to-point",
        )
        for s in AWS_SETUPS
    ]
    print(format_table(
        ("setup", "RTT", "bandwidth", "loss", "UDP cap", "kind"), rows,
        title="Simulated testbed setups (paper Figure 7)",
    ))
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.bench import figures as figmod

    wanted = list(args.which)
    if "all" in wanted:
        wanted = list(FIGURES)
    unknown = [w for w in wanted if w not in FIGURES]
    if unknown:
        print(f"unknown figure(s): {unknown}; choose from {FIGURES}", file=sys.stderr)
        return 2
    runners = {
        "fig1": lambda: figmod.fig1_selection_skew(),
        "fig2": lambda: figmod.fig2_psp_convergence()[0],
        "fig4": lambda: figmod.fig4_matrix_q()[0],
        "fig5": lambda: figmod.fig5_model_based()[0],
        "fig6": lambda: figmod.fig6_approximation()[0],
        "fig8": lambda: figmod.fig8_latency()[0],
        "fig9": lambda: figmod.fig9_throughput()[0],
    }
    for name in wanted:
        print(runners[name]().render())
        print()
    return 0


def cmd_transfer(args: argparse.Namespace) -> int:
    setup = setup_by_name(args.setup)
    rep = run_transfer_repeated(
        setup, args.transport, args.size_mb * MB,
        min_runs=args.runs, max_runs=args.runs, base_seed=args.seed,
    )
    rows = [(i + 1, f"{args.size_mb * MB / d / MB:8.2f}", f"{d:8.2f}")
            for i, d in enumerate(rep.durations)]
    print(format_table(
        ("run", "MB/s", "seconds"), rows,
        title=f"{args.size_mb} MB over {args.transport.value} on {setup.name}",
    ))
    ci = rep.confidence_interval()
    print(f"mean {rep.mean_throughput / MB:.2f} MB/s ± {ci.half_width / MB:.2f} (95% CI)")
    return 0


def cmd_latency(args: argparse.Namespace) -> int:
    setup = setup_by_name(args.setup)
    result = run_latency_experiment(
        setup, Transport.TCP, args.data_transport,
        seed=args.seed, transfer_bytes=args.transfer_mb * MB,
    )
    print(f"{result.combo} on {setup.name}: median {result.median_ms:.2f} ms, "
          f"mean {result.mean_ms:.2f} ms over {len(result.rtts_ms)} pings")
    return 0


def cmd_learn(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    kind = args.value_function
    trace = run_learner_trace(
        kind,
        prp_factory=lambda: TDRatioLearner(rng, kind),
        duration=args.duration,
        seed=args.seed,
    )
    tcp = run_static_reference(Transport.TCP, duration=args.duration, seed=args.seed)
    rows = []
    for t in range(10, int(args.duration) + 1, 10):
        thr = (trace.throughput.window_mean(t - 10, t) or 0.0) / MB
        ratio = trace.ratio_true.window_mean(t - 10, t)
        ref = (tcp.throughput.window_mean(t - 10, t) or 0.0) / MB
        rows.append((f"{t}s", f"{thr:7.2f}", "n/a" if ratio is None else f"{ratio:+5.2f}",
                     f"{ref:7.2f}"))
    print(format_table(
        ("time", "learner MB/s", "true ratio", "TCP ref MB/s"), rows,
        title=f"TD learner ({kind}) on a TCP-favouring link",
    ))
    from repro.bench.report import sparkline

    per_episode = trace.throughput.values
    print(f"throughput/episode: {sparkline(per_episode, low=0.0)}")
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    from repro.bench.harness import LEARNER_ENV, run_observability_demo, run_observed
    from repro.obs.export import document_json, document_lines

    setup = LEARNER_ENV if args.setup is None else setup_by_name(args.setup)
    summary, document = run_observed(
        run_observability_demo, setup=setup, duration=args.duration, seed=args.seed,
        meta={"setup": setup.name, "duration": args.duration, "seed": args.seed},
    )
    document["meta"]["summary"] = summary
    if not args.trace:
        document.pop("trace", None)

    if args.format == "json":
        text = document_json(document)
    else:
        text = "\n".join(document_lines(document["metrics"]))
    _emit(text, args.output, f"{args.format} snapshot")
    return 0


def cmd_loopback(args: argparse.Namespace) -> int:
    from repro.bench.loopback import run_loopback_comparison

    comparison = run_loopback_comparison(size=int(args.size_mb * MB), seed=args.seed)
    return _finish(comparison, args.format, args.output)


def _sim_campaign(driver, args: argparse.Namespace, enforce: bool = True,
                  meta: Optional[dict] = None, **kwargs) -> int:
    """``faults`` and ``chaos``: the campaign driver, observed, then finished."""
    from repro.bench.harness import run_observed

    result, document = run_observed(
        driver,
        duration=args.duration,
        transfer_bytes=args.transfer_mb * MB,
        transfer_transport=args.transport,
        seed=args.seed,
        meta={"seed": args.seed, "duration": args.duration, **(meta or {})},
        **kwargs,
    )
    document["meta"]["summary"] = result.to_document()
    return _finish(result, args.format, args.output, document, enforce=enforce)


def cmd_faults(args: argparse.Namespace) -> int:
    # Bare runs demonstrate the unrecovered floor and are allowed to lose
    # the transfer; with recovery on, any problem is a failure.
    return _sim_campaign(
        run_fault_campaign, args,
        enforce=not args.no_recovery,
        cut_at=args.cut_at,
        cut_duration=args.cut_duration,
        degrade_at=args.degrade_at,
        recovery=not args.no_recovery,
        fallback=args.fallback,
        reconnect={} if args.jitter is None else {"jitter": args.jitter},
    )


def cmd_chaos(args: argparse.Namespace) -> int:
    if args.backend == "aio":
        return _cmd_chaos_aio(args)
    return _sim_campaign(
        run_chaos_campaign, args, meta={"events": args.events},
        chaos_start=args.chaos_start,
        chaos_end=args.chaos_end,
        events=args.events,
        targets=args.targets,
        tail=args.tail,
    )


def _cmd_chaos_aio(args: argparse.Namespace) -> int:
    """``repro chaos --backend aio``: real-socket kill/restart campaign."""
    from repro.bench.chaos import run_aio_chaos_campaign

    result = run_aio_chaos_campaign(
        transport=args.transport,
        size=int(args.size_mb * MB),
        seed=args.seed,
        restarts=args.restarts,
        redelivery=args.redelivery,
    )
    return _finish(result, args.format, args.output)


def cmd_perf(args: argparse.Namespace) -> int:
    from repro.bench.perf import run_equivalence

    if not args.equivalence:
        print("repro perf only runs the digest gate (--equivalence); "
              "rates are measured by: python3 perf/run.py --workload NAME",
              file=sys.stderr)
        return 2
    outcomes = run_equivalence()
    width = max(len(name) for name, _, _ in outcomes)
    bad = []
    for name, golden, digest in outcomes:
        print(f"{name:<{width}}  {'IDENTICAL' if digest == golden else 'DIFFER'}")
        if digest != golden:
            bad.append(name)
            print(f"  {name}: golden {golden}, got {digest}", file=sys.stderr)
    if bad:
        print(f"equivalence gate FAILED: {', '.join(bad)}", file=sys.stderr)
        return 1
    print("equivalence gate passed: every workload matches its golden digest")
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    from repro.bench.fleet import FleetCampaign, plan_campaign, run_campaign
    from repro.obs.export import document_json

    if args.fleet_action == "list":
        width = max(len(name) for name in SCENARIOS)
        for name, preset in SCENARIOS.items():
            args_text = " ".join(f"{k}={v}" for k, v in preset.items())
            print(f"{name:<{width}}  {args_text or '(run_fleet_workload defaults)'}")
        return 0

    if args.fleet_action == "run":
        entries = [("fleet", {
            "topology": args.topology,
            "hosts": args.hosts,
            "flows": args.flows,
            "pattern": args.pattern,
            "horizon": args.horizon,
        })]
    else:  # sweep
        entries = [(name, None) for name in args.scenario]

    seeds = list(range(args.seeds))
    campaign = FleetCampaign(run_campaign(plan_campaign(entries, seeds), workers=args.workers))
    if args.out is not None:
        _emit(document_json(campaign.document), args.out, "campaign document")
    return _finish(campaign, args.format, None)


def cmd_cc(args: argparse.Namespace) -> int:
    from repro.netsim.congestion import CC_POLICIES

    policies = CC_POLICIES.all()
    width = max(len(p.name) for p in policies)
    print("netsim congestion-control policies (connect(..., cc=NAME)):")
    for policy in policies:
        print(f"  {policy.name:<{width}}  {policy.description}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    import json
    from contextlib import ExitStack

    from repro.check import checking
    from repro.check import perturb as check_perturb
    from repro.check.bisection import bisect_divergence, compare_documents

    action = "mutate" if args.mutate else args.action

    if action == "mutate":
        from repro.check.selftest import run_selftest

        results = run_selftest()
        width = max(len(r.scenario) for r in results)
        missed = [r for r in results if not r.caught]
        for r in results:
            status = "CAUGHT" if r.caught else "MISSED"
            print(f"{r.scenario:<{width}}  {r.invariant:<18} {status} "
                  f"({r.violations} violation(s))")
        if missed:
            print(f"mutation self-test FAILED: "
                  f"{', '.join(r.scenario for r in missed)} not caught",
                  file=sys.stderr)
            return 1
        print("mutation self-test passed: every seeded violation was caught")
        return 0

    def run_once(capture=None, perturbed=False):
        with ExitStack() as stack:
            if perturbed and args.perturb is not None:
                stack.enter_context(check_perturb.rx_swap(at=args.perturb))
            chk = stack.enter_context(checking(capture=capture))
            run_workload(args.workload, size_mb=args.size_mb,
                         duration=args.duration, seed=args.seed)
        return chk.document()

    if action == "run":
        doc = run_once(perturbed=True)
        for name, stream in doc["streams"].items():
            print(f"stream {name:<8} events={stream['count']:>8} "
                  f"digest={stream['digest']} "
                  f"checkpoints={len(stream['checkpoints'])}")
        if args.output is not None:
            _emit(json.dumps(doc, indent=2, sort_keys=True), args.output, "checker document")
        violations = doc["violations"]
        if violations:
            for v in violations:
                detail = " ".join(f"{k}={val}" for k, val in v["fields"].items())
                print(f"VIOLATION [{v['invariant']}] {v['message']} ({detail})",
                      file=sys.stderr)
            print(f"{len(violations)} invariant violation(s)", file=sys.stderr)
            return 1
        print("invariants held: no violations")
        return 0

    if action == "compare":
        doc_a = run_once(perturbed=True)
        doc_b = run_once()
        divergences = compare_documents(doc_a, doc_b)
        names = sorted(set(doc_a["streams"]) | set(doc_b["streams"]))
        diverged = {d.stream for d in divergences}
        for name in names:
            print(f"stream {name:<8} "
                  f"{'DIVERGED' if name in diverged else 'IDENTICAL'}")
        for d in divergences:
            print(f"  '{d.stream}' first diverges in events "
                  f"{d.window[0] + 1}..{d.window[1]}", file=sys.stderr)
        if divergences:
            print("runs diverge (use 'check bisect' to name the first event)",
                  file=sys.stderr)
            return 1
        print("runs identical on every stream")
        return 0

    # action == "bisect"
    def run_pair(capture):
        return run_once(capture=capture, perturbed=True), run_once(capture=capture)

    report = bisect_divergence(run_pair)
    print(report.format())
    return 0 if report.identical else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "setups": cmd_setups,
        "figures": cmd_figures,
        "transfer": cmd_transfer,
        "latency": cmd_latency,
        "learn": cmd_learn,
        "obs": cmd_obs,
        "loopback": cmd_loopback,
        "faults": cmd_faults,
        "chaos": cmd_chaos,
        "perf": cmd_perf,
        "fleet": cmd_fleet,
        "cc": cmd_cc,
        "check": cmd_check,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
