"""BENCHMARK.json against the catalogue in perf/metrics.py and the contract's limits."""

import json
import os
import re

import metrics
import workloads
from conftest import ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_keys_and_limits():
    doc = _benchmark()
    assert sorted(doc) == ["command", "end_to_end", "paths", "per_layer",
                           "run_seconds", "workloads"]
    assert doc["command"] == ["python3", "perf/run.py"]
    assert doc["paths"] == ["perf"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for workload in doc["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")


def test_matches_the_catalogue():
    doc = _benchmark()
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == \
        [(name, w["why"]) for name, w in workloads.WORKLOADS.items()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == \
        [(r.name, r.unit, r.better, r.bound) for r in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        [(r.name, r.unit, r.better) for r in metrics.PER_LAYER]


def test_setup_metric_has_the_largest_bound():
    bounds = {r.name: r.bound for r in metrics.END_TO_END}
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(r for r in metrics.END_TO_END if r.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
