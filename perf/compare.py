"""Compare two files written by ``run.py --sets N --out FILE``.

One row per workload x metric with each side's median and quartiles over
its sets.  For an end-to-end metric the verdict follows the benchmark's
own bound: ``worse`` when B's median is worse than A's by more than the
bound, ``unresolved`` when either side's own sets spread wider than the
bound (so the comparison cannot tell), ``ok`` otherwise.  Per-layer
metrics have no bound and get no verdict.
"""

from __future__ import annotations

import json
from typing import Dict, List

import metrics


def _load(path: str) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per set]}}``"""
    with open(path) as handle:
        document = json.load(handle)
    table: Dict[str, Dict[str, List[float]]] = {}
    for one_set in document["sets"]:
        for workload, entry in one_set.items():
            for metric, reading in entry["metrics"].items():
                table.setdefault(workload, {}).setdefault(metric, []).append(reading["value"])
    return table


def verdict(row: metrics.EndToEnd, a: List[float], b: List[float]) -> str:
    if max(metrics.spread(a), metrics.spread(b)) > row.bound:
        return "unresolved"
    base, new = metrics.median(a), metrics.median(b)
    change = (new - base) / base if base else 0.0
    worse = change if row.better == "lower" else -change
    return "worse" if worse > row.bound else "ok"


def main(path_a: str, path_b: str) -> int:
    a, b = _load(path_a), _load(path_b)
    bounded = {row.name: row for row in metrics.END_TO_END}
    status = 0
    print(f"{'workload':14} {'metric':36} {'A q1/median/q3':>34} {'B q1/median/q3':>34}  verdict")
    for workload in a:
        for metric in a[workload]:
            if metric not in b.get(workload, {}):
                continue
            side_a, side_b = a[workload][metric], b[workload][metric]
            row = bounded.get(metric)
            outcome = verdict(row, side_a, side_b) if row else "-"
            if outcome == "worse":
                status = 1
            cells = ["/".join(f"{q:.5g}" for q in metrics.quartiles(side))
                     for side in (side_a, side_b)]
            print(f"{workload:14} {metric:36} {cells[0]:>34} {cells[1]:>34}  {outcome}")
    return status
