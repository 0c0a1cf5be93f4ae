#!/usr/bin/env python3
"""Reachability census: the functions under ``src/`` no shipped entry point calls.

A path stays in ``src/`` only if a CI entry, a shipped CLI command, an
example, a ``BENCHMARK.json`` workload or an EXPERIMENTS.md claim reaches
it (ROADMAP item 8).  This script runs those entry points — every CI
campaign, every CLI command, the nine examples, the figure and ablation
benches and the five ``perf/run.py`` workloads traced and untraced — under
a ``sys.setprofile`` hook, then prints, per module, the functions none of
them entered, and the totals::

    python scripts/reach.py
    python scripts/reach.py --write REACH.txt

``--write`` also writes the unreached functions to a file, one
``repro.module Qualname — reason`` line each.  A reason already in that
file is kept; a new entry gets ``unexplained``, which
``ci_checks.py hygiene`` rejects until someone states why the function
stays (see :func:`ci_checks.check_reach` for the reasons it accepts) or
deletes it.

The hook is a generated ``sitecustomize`` put first on ``PYTHONPATH``, so
subprocesses are counted too (``perf/run.py``'s children,
``check_determinism.py``'s runs); children started with an environment of
their own get it put back on their path.  Fleet runs at ``--workers 1``
(pool workers leave through ``os._exit``, which skips the dump), and the
benches run with ``--benchmark-disable`` (pytest-benchmark clears the
profile hook inside ``benchmark(...)``).  The traced ``perf/run.py`` pass
swaps the hook for ``cProfile`` inside its measured window; the untraced
pass covers the same calls.  About 20 minutes on a 2-core machine, so it
is not a CI step.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from ci_checks import functions, module_name

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PY = sys.executable
#: seconds one command may take under the hook (the benches take ~15 min)
TIMEOUT = 3600

SITECUSTOMIZE = '''\
import atexit, os, subprocess, sys, threading

_DIR, _OUT = {hook_dir!r}, {out_dir!r}
_codes = {{}}


def _profile(frame, event, arg, _codes=_codes, _id=id):
    if event == "call":
        code = frame.f_code
        _codes[_id(code)] = code


def _dump():
    sys.setprofile(None)
    rows = sorted({{f"{{c.co_filename}}\\t{{c.co_firstlineno}}\\t{{c.co_name}}"
                   for c in list(_codes.values())}})
    with open(os.path.join(_OUT, f"{{os.getpid()}}.txt"), "a", encoding="utf-8") as fh:
        fh.write("\\n".join(rows) + "\\n")


_popen_init = subprocess.Popen.__init__


def _keep_hook(self, *args, env=None, **kwargs):
    if env is not None and _DIR not in env.get("PYTHONPATH", "").split(os.pathsep):
        env = dict(env, PYTHONPATH=os.pathsep.join(filter(None, (_DIR, env.get("PYTHONPATH")))))
    _popen_init(self, *args, env=env, **kwargs)


subprocess.Popen.__init__ = _keep_hook
atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''

#: (argv, PYTHONHASHSEED or None); ``{out}`` in an argument is the scratch directory
Command = Tuple[List[str], Optional[str]]


def cli(*args: str, hash_seed: Optional[str] = None) -> Command:
    return [PY, "-m", "repro.cli", *args], hash_seed


def script(*args: str, hash_seed: Optional[str] = None) -> Command:
    return [PY, *args], hash_seed


def _twice(make) -> List[Command]:
    """A CI entry's double run: PYTHONHASHSEED 1 writes a.json, 4242 b.json."""
    return [make(seed, name) for seed, name in (("1", "a"), ("4242", "b"))]


def entries() -> List[Tuple[str, List[Command]]]:
    fleet_star = ("fleet", "run", "--topology", "star", "--hosts", "64", "--flows", "500",
                  "--seeds", "4", "--workers", "1", "--horizon", "120")
    fleet_wan = ("fleet", "run", "--topology", "wan-mesh", "--hosts", "32", "--flows", "200",
                 "--seeds", "2", "--workers", "1", "--horizon", "60")
    cc_sweep = ("fleet", "sweep", "--scenario", "cc-reno", "--scenario", "cc-cubic",
                "--scenario", "cc-bbr", "--seeds", "2", "--workers", "1")
    fleet_ft = ("fleet", "run", "--topology", "fat-tree", "--pattern", "churn", "--hosts", "32",
                "--flows", "200", "--seeds", "2", "--workers", "1", "--horizon", "60")
    faults = ("faults", "--duration", "12", "--cut-at", "2", "--cut-duration", "2",
              "--transfer-mb", "4", "--seed", "3", "--jitter", "0", "--format", "json")
    faults_data = ("faults", "--transport", "data", "--fallback", "--duration", "12",
                   "--cut-at", "2", "--format", "json")
    give_up = ("faults", "--transport", "data", "--fallback", "--duration", "40",
               "--cut-duration", "20", "--jitter", "0", "--seed", "3", "--format", "json")
    chaos = ("chaos", "--duration", "20", "--events", "5", "--seed", "3", "--format", "json")
    aio_chaos = [("tcp", "at-least-once", "3"), ("udt", "at-least-once", "4"),
                 ("tcp", "at-most-once", "5")]
    runs: List[Tuple[str, List[Command]]] = [
        # .github/workflows/ci.yml (its micro-bench entry is part of the benches below)
        ("ci lint", [script("scripts/lint.py"), script("scripts/ci_checks.py", "hygiene")]),
        ("ci obs smoke", [cli("obs", "--duration", "3", "--seed", "3",
                              "--output", "{out}/obs.json")]),
        ("ci faults", _twice(lambda s, n: cli(*faults, "--output", f"{{out}}/faults-{n}.json",
                                              hash_seed=s))
         + [script("scripts/ci_checks.py", "faults", "{out}/faults-a.json")]),
        ("ci faults-data", _twice(lambda s, n: cli(*faults_data, "--output",
                                                   f"{{out}}/faults-data-{n}.json", hash_seed=s))
         + [script("scripts/ci_checks.py", "faults", "{out}/faults-data-a.json")]),
        ("ci faults-give-up", _twice(lambda s, n: cli(*give_up, "--output",
                                                      f"{{out}}/give-up-{n}.json", hash_seed=s))
         + [script("scripts/ci_checks.py", "faults", "{out}/give-up-a.json")]),
        ("ci chaos", _twice(lambda s, n: cli(*chaos, "--output", f"{{out}}/chaos-{n}.json",
                                             hash_seed=s))
         + [script("scripts/ci_checks.py", "chaos", "{out}/chaos-a.json")]),
        ("ci chaos-aio", [cmd for transport, mode, seed in aio_chaos for cmd in (
            cli("chaos", "--backend", "aio", "--transport", transport, "--redelivery", mode,
                "--restarts", "2", "--seed", seed, "--format", "json",
                "--output", f"{{out}}/chaos-aio-{seed}.json"),
            script("scripts/ci_checks.py", "chaos-aio", f"{{out}}/chaos-aio-{seed}.json"))]),
        ("ci perf-equivalence", _twice(lambda s, n: cli("perf", "--equivalence", hash_seed=s))),
        ("ci check", [cli("check", "run", "--workload", "fig8",
                          "--output", "{out}/check-fig8.json"),
                      cli("check", "mutate")]),
        ("ci loopback", [cli("loopback", "--size-mb", "1", "--seed", "3", "--format", "json",
                             "--output", "{out}/loopback.json"),
                         script("scripts/ci_checks.py", "loopback", "{out}/loopback.json")]),
        ("ci fleet", _twice(lambda s, n: cli(*fleet_star, "--out", f"{{out}}/fleet-{n}.json",
                                             hash_seed=s))
         + [script("scripts/ci_checks.py", "fleet", "{out}/fleet-a.json", "{out}/fleet-b.json",
                   "--baseline", "BENCH_FLEET.json")]),
        ("ci fleet-wan-mesh", _twice(lambda s, n: cli(*fleet_wan, "--out", f"{{out}}/wan-{n}.json",
                                                      hash_seed=s))
         + [script("scripts/ci_checks.py", "fleet", "{out}/wan-a.json", "{out}/wan-b.json",
                   "--baseline", "BENCH_FLEET_WAN.json")]),
        ("ci fleet-fat-tree", _twice(lambda s, n: cli(*fleet_ft, "--out", f"{{out}}/ft-{n}.json",
                                                      hash_seed=s))
         + [script("scripts/ci_checks.py", "fleet", "{out}/ft-a.json", "{out}/ft-b.json",
                   "--baseline", "BENCH_FLEET_FAT_TREE.json")]),
        ("ci cc-matrix", _twice(lambda s, n: cli(*cc_sweep, "--out", f"{{out}}/ccm-{n}.json",
                                                 hash_seed=s))
         + [script("scripts/ci_checks.py", "cc-matrix", "{out}/ccm-a.json", "{out}/ccm-b.json")]),
        ("ci determinism", [script("scripts/check_determinism.py")]),
    ]
    # the CLI commands no CI entry runs; the campaigns in their default
    # summary format (CI writes JSON), faults with its degrade window, and
    # the check workload CI does not pick
    for args in (("setups",), ("figures", "all"), ("transfer",), ("latency",), ("learn",),
                 ("fleet", "list"), ("cc", "list"),
                 ("faults", "--degrade-at", "4"), ("chaos",), ("chaos", "--backend", "aio"),
                 ("loopback",), ("check", "run", "--workload", "obs-demo")):
        runs.append(("cli " + " ".join(args), [cli(*args)]))
    for example in sorted((REPO_ROOT / "examples").glob("*.py")):
        runs.append((f"example {example.stem}", [script(f"examples/{example.name}")]))
    runs.append(("benches", [script("-m", "pytest", "-q", "-p", "no:cacheprovider",
                                    "benchmarks/", "--benchmark-disable")]))
    for workload in ("sim-fig9", "sim-fleet", "aio-tcp-bulk", "aio-tcp-small", "aio-udt-msg"):
        for trace in ("0", "1"):
            runs.append((f"perf {workload} --trace {trace}", [script(
                "perf/run.py", "--workload", workload, "--seed", "1", "--trace", trace)]))
    return runs


def run_entries(hook_dir: Path, out_dir: Path, scratch: Path) -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(hook_dir), str(SRC))))
    failed = 0
    for name, commands in entries():
        for argv, hash_seed in commands:
            argv = [arg.replace("{out}", str(scratch)) for arg in argv]
            run_env = env if hash_seed is None else dict(env, PYTHONHASHSEED=hash_seed)
            try:
                done = subprocess.run(argv, cwd=REPO_ROOT, env=run_env, timeout=TIMEOUT,
                                      stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            except subprocess.TimeoutExpired:  # killed: its calls go uncounted
                failed += 1
                print(f"  {name}: killed after {TIMEOUT} s", file=sys.stderr)
                continue
            if done.returncode != 0:
                failed += 1
                last = (done.stderr.strip().splitlines() or [""])[-1]
                print(f"  {name}: exit {done.returncode}: {last}", file=sys.stderr)
        print(f"ran {name}", file=sys.stderr, flush=True)
    return failed


def reached(out_dir: Path) -> Set[Tuple[str, int, str]]:
    seen = set()
    for dump in out_dir.iterdir():
        for line in dump.read_text(encoding="utf-8").splitlines():
            if line:
                filename, firstlineno, name = line.split("\t")
                seen.add((os.path.realpath(filename), int(firstlineno), name))
    return seen


def report(seen: Set[Tuple[str, int, str]]) -> List[str]:
    """Print the unreached functions per module and the totals; return them
    as ``repro.module Qualname`` entries."""
    total = body_lines = 0
    unreached: List[str] = []
    per_module: Dict[str, List[str]] = defaultdict(list)
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = module_name(SRC, path)
        real = os.path.realpath(path)
        spans = []  # unreached (first, last): lines nested in one count once
        for first, last, name in functions(path):
            total += 1
            if (real, first, name.rpartition(".")[2]) in seen:
                continue
            unreached.append(f"{module} {name}")
            per_module[module].append(f"    {first:5d} {name} ({last - first + 1} lines)")
            if not any(a <= first and last <= b for a, b in spans):
                spans.append((first, last))
                body_lines += last - first + 1
    for module, rows in per_module.items():
        print(f"{module}: {len(rows)} unreached")
        print("\n".join(rows))
    print(f"unreached: {len(unreached)} of {total} functions ({body_lines} lines) under src/")
    return unreached


def write(path: Path, unreached: List[str]) -> None:
    """One ``entry — reason`` line per unreached function, keeping known reasons."""
    reasons = {}
    if path.exists():
        for line in path.read_text(encoding="utf-8").splitlines():
            entry, _, reason = line.partition(" — ")
            reasons[entry] = reason
    path.write_text("".join(f"{entry} — {reasons.get(entry) or 'unexplained'}\n"
                            for entry in unreached), encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", metavar="PATH", type=Path, default=None,
                        help="also write the unreached functions to PATH (REACH.txt)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as tmp:
        hook_dir, out_dir, scratch = (Path(tmp) / d for d in ("hook", "out", "scratch"))
        for d in (hook_dir, out_dir, scratch):
            d.mkdir()
        (hook_dir / "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(hook_dir=str(hook_dir), out_dir=str(out_dir)), encoding="utf-8")
        failed = run_entries(hook_dir, out_dir, scratch)
        unreached = report(reached(out_dir))
    if args.write is not None:
        write(args.write, unreached)
    if failed:
        print(f"{failed} entry command(s) exited non-zero (listed above)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
