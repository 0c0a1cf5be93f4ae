"""The command line: result line, exit codes, sets and compare."""

import json
import os
import shutil
import subprocess
import sys

import compare
import metrics
import run
from conftest import PERF, ROOT

RUN = os.path.join(PERF, "run.py")


def _invoke(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_result_line_of_the_contract():
    for trace, rows in (("0", metrics.END_TO_END), ("1", metrics.PER_LAYER)):
        done = _invoke("--workload", "sim-fleet", "--scale", "tiny", "--seed", "4",
                       "--seconds", "1", "--trace", trace)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True and result["failed"] == 0
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert list(result["metrics"]) == metrics.names(rows)
        for row in rows:
            reading = result["metrics"][row.name]
            assert sorted(reading) == ["unit", "value"] and reading["unit"] == row.unit
        # and every metric by name with its unit, one per line
        assert lines[0].split()[:2] == ["sim-fleet", rows[0].name]
        assert len(lines) == len(rows) + 1
        if trace == "0":
            assert all(r["value"] > 0 for r in result["metrics"].values())
        else:
            assert os.path.exists(os.path.join(PERF, "out", "trace-sim-fleet.json"))


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "aio-tcp-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _args(**kwargs):
    defaults = dict(workload="sim-fleet", seed=0, seconds=1, trace=0, scale="tiny")
    return type("Args", (), {**defaults, **kwargs})()


def test_a_wrong_result_exits_non_zero_without_a_result_line(monkeypatch, capsys):
    wrong = {"correct": False, "errors": ["sequence: expected 3, got 4"],
             "attempted": 10, "failed": 0, "values": {}, "info": {}}
    monkeypatch.setattr(run, "run_one", lambda *a: wrong)
    assert run.single(_args()) == 2
    out, err = capsys.readouterr()
    assert out == "" and "expected 3, got 4" in err


def test_an_invalid_measurement_exits_non_zero(monkeypatch, capsys):
    def hog(*_args):
        raise metrics.InvalidRun("the load generator used 40 % of the process CPU")
    monkeypatch.setattr(run, "run_one", hog)
    assert run.single(_args()) == 3
    out, err = capsys.readouterr()
    assert out == "" and "load generator" in err


def test_sets_then_compare(tmp_path, capsys):
    out = tmp_path / "a.json"
    done = _invoke("--sets", "2", "--workload", "sim-fleet", "--scale", "tiny",
                   "--seconds", "1", "--out", str(out))
    assert done.returncode == 0, done.stderr
    document = json.loads(out.read_text())
    assert len(document["sets"]) == 2
    assert list(document["sets"][0]["sim-fleet"]["metrics"]) == \
        metrics.names(metrics.END_TO_END)

    def side(path, rates, rss=(100.0, 100.0, 100.0)):
        sets = [{"w": {"attempted": 1, "failed": 0, "metrics": {
            "msgs_per_s": {"value": rate, "unit": "msg/s"},
            "peak_rss_MB": {"value": mem, "unit": "MiB"},
            "aio.frames_per_batch": {"value": 4.0, "unit": "count"}}}}
            for rate, mem in zip(rates, rss)]
        path.write_text(json.dumps({"sets": sets}))
        return str(path)

    a = side(tmp_path / "x.json", (1000.0, 1010.0, 990.0))
    same = side(tmp_path / "y.json", (1005.0, 995.0, 1000.0), rss=(105.0, 104.0, 106.0))
    slow = side(tmp_path / "z.json", (700.0, 705.0, 695.0))
    noisy = side(tmp_path / "n.json", (1000.0, 400.0, 1600.0))
    capsys.readouterr()
    assert compare.main(a, same) == 0
    rows = {line.split()[1]: line.split()[-1]
            for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows == {"msgs_per_s": "ok", "peak_rss_MB": "ok", "aio.frames_per_batch": "-"}
    assert compare.main(a, slow) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main(a, noisy) == 0
    assert "unresolved" in capsys.readouterr().out
