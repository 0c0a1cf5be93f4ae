#!/usr/bin/env python3
"""The repository benchmark: five workloads over both backends.

One workload, in this process (what the benchmark driver calls)::

    python3 perf/run.py --workload aio-tcp-bulk --seed 3 --seconds 10 --trace 0

prints every metric as ``<workload> <metric> <value> <unit>`` and, as the
last line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``).  A wrong result, an invalid measurement or a missing
program exits non-zero without that line.

All workloads, each in a fresh process, one at a time::

    python3 perf/run.py --seed 3 [--sets N] [--trace] [--out FILE]
    python3 perf/run.py --compare A.json B.json

See perf/README.md.
"""

from __future__ import annotations

import time

ENTERED_AT = time.perf_counter()  # before anything of the program is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The program is run from source; the checkout has no installed package.
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402

#: fresh processes whose set-up time is measured, this one included
SETUP_SAMPLES = 3
OUT_DIR = os.path.join(HERE, "out")


def _default_seconds() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return int(json.load(handle)["run_seconds"])


def _set_up_only(name: str, scale: str, seed: int) -> float:
    """Set the workload up and tear it down; seconds since process entry."""
    import workloads

    params = workloads.parameters(name, scale)
    if workloads.WORKLOADS[name]["kind"] == "aio":
        import aiorun
        return aiorun.measure_setup(params, seed, ENTERED_AT)
    workloads.sim_plan(name, params, seed, 1)
    return time.perf_counter() - ENTERED_AT


def _set_up_elsewhere(name: str, scale: str, seed: int) -> float:
    """The same set-up in a fresh process (imports are paid once per process)."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--scale", scale, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_one(name: str, seed: int, seconds: int, traced: bool, scale: str) -> Dict[str, Any]:
    """Run one workload here and return its result with every metric filled in."""
    import workloads

    params = workloads.parameters(name, scale)
    if workloads.WORKLOADS[name]["kind"] == "aio":
        import aiorun
        result = aiorun.run_aio(params, seed, seconds, traced, ENTERED_AT)
    else:
        result = workloads.run_sim(name, params, seed, seconds, traced, ENTERED_AT)
    values = result["values"]
    setups = [values["setup_s"]]
    setups += [_set_up_elsewhere(name, scale, seed) for _ in range(SETUP_SAMPLES - 1)]
    values["setup_s"] = metrics.median(setups)
    values["peak_rss_MB"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if traced:
        _write_trace(name, seed, result)
    return result


def _write_trace(name: str, seed: int, result: Dict[str, Any]) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    document = {
        "workload": name,
        "seed": seed,
        "metrics": metrics.report(result["values"], metrics.PER_LAYER),
        **result["info"],
    }
    with open(os.path.join(OUT_DIR, f"trace-{name}.json"), "w") as handle:
        json.dump(document, handle)


def _print_lines(name: str, reported: Dict[str, dict]) -> None:
    for metric, entry in reported.items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")


def single(args: argparse.Namespace) -> int:
    """Contract mode: one workload in this process, result line last."""
    try:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except metrics.InvalidRun as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 3
    if not result["correct"]:
        print("wrong result:", *result["errors"], sep="\n  ", file=sys.stderr)
        return 2
    rows = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    reported = metrics.report(result["values"], rows)
    _print_lines(args.workload, reported)
    print(json.dumps({
        "correct": True,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": reported,
    }))
    return 0


def _run_elsewhere(name: str, args: argparse.Namespace, trace: int) -> Optional[Dict[str, Any]]:
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--scale", args.scale, "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=600)
    if done.returncode != 0:
        print(f"{name}: exit code {done.returncode}", file=sys.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def sets(args: argparse.Namespace) -> int:
    """N full sets back to back; each workload in a fresh process, one at a time."""
    import workloads

    chosen = [args.workload] if args.workload else list(workloads.WORKLOADS)
    collected: List[Dict[str, Any]] = []
    status = 0
    for index in range(args.sets):
        one_set: Dict[str, Any] = {}
        for trace in (0, 1) if args.trace else (0,):
            for name in chosen:
                result = _run_elsewhere(name, args, trace)
                if result is None:
                    status = 1
                    continue
                entry = one_set.setdefault(
                    name, {"attempted": 0, "failed": 0, "metrics": {}})
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                entry["metrics"].update(result["metrics"])
                if args.sets > 1:
                    print(f"# set {index + 1}, trace {trace}")
                _print_lines(name, result["metrics"])
        collected.append(one_set)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"seed": args.seed, "seconds": args.seconds, "scale": args.scale,
                       "sets": collected}, handle, indent=1)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload (alone: in this process)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds the generated inputs only (default 0)")
    parser.add_argument("--seconds", type=int, default=None,
                        help="how long one run measures (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the traced pass and the per-layer metrics")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny is for perf/tests")
    parser.add_argument("--sets", type=int, default=None,
                        help="run N full sets, every workload in a fresh process")
    parser.add_argument("--out", help="with --sets: write the sets to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two files written by --out")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        import compare
        return compare.main(*args.compare)
    if args.seconds is None:
        args.seconds = _default_seconds()
    if args.workload is not None:
        import workloads
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        print(repr(_set_up_only(args.workload, args.scale, args.seed)))
        return 0
    if args.sets is None and args.out is None and args.workload is not None:
        return single(args)
    args.sets = args.sets or 1
    return sets(args)


if __name__ == "__main__":
    sys.exit(main())
