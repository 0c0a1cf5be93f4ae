"""``ci_checks.py hygiene``'s REACH.txt gate: the reachability census, committed.

``REACH.txt`` lists the functions under ``src/`` that no shipped entry
point reaches (``scripts/reach.py --write REACH.txt``), each with the
reason it stays.  The gate rejects an entry whose function is gone, an
entry without a known reason or whose named test does not exist, and
more entries than ``UNREACHED_CEILING``.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import scripts.ci_checks as ci_checks

ROOT = Path(__file__).resolve().parent.parent


def tree(tmp_path, reach_lines, source="def kept():\n    pass\n\n\nclass Box:\n    def open(self):\n        pass\n"):
    """A minimal repository: one module under src/repro, a test, REACH.txt."""
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "mod.py").write_text(source)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text("def test_open():\n    pass\n")
    (tmp_path / "REACH.txt").write_text("".join(line + "\n" for line in reach_lines))
    return tmp_path


class TestReachGate:
    def test_entries_with_known_reasons_pass(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ci_checks, "UNREACHED_CEILING", 2)
        root = tree(tmp_path, [
            "repro.mod kept — abstract method",
            "repro.mod Box.open — defensive path reached by tests/test_mod.py::test_open",
        ])
        assert ci_checks.check_reach(root) == 2

    def test_an_entry_naming_a_deleted_function_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ci_checks, "UNREACHED_CEILING", 2)
        root = tree(tmp_path, ["repro.mod Box.close — null stub"])
        with pytest.raises(AssertionError, match="does not define"):
            ci_checks.check_reach(root)

    def test_more_entries_than_the_ceiling_fail(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ci_checks, "UNREACHED_CEILING", 1)
        root = tree(tmp_path, ["repro.mod kept — null stub", "repro.mod Box.open — __repr__"])
        with pytest.raises(AssertionError, match="above the ceiling of 1"):
            ci_checks.check_reach(root)

    @pytest.mark.parametrize("reason", [
        "unexplained",
        "defensive path reached by tests/test_mod.py::test_missing",
        "API pinned by tests/test_gone.py::test_open",
    ], ids=["no-reason", "missing-test", "missing-file"])
    def test_an_entry_needs_a_reason_and_an_existing_test(self, tmp_path, monkeypatch, reason):
        monkeypatch.setattr(ci_checks, "UNREACHED_CEILING", 1)
        root = tree(tmp_path, [f"repro.mod Box.open — {reason}"])
        with pytest.raises(AssertionError, match="REACH.txt"):
            ci_checks.check_reach(root)

    def test_qualified_names_nest_through_classes_and_functions(self, tmp_path):
        path = tmp_path / "m.py"
        path.write_text("class A:\n    def f(self):\n        def g():\n            pass\n")
        assert [name for _, _, name in ci_checks.functions(path)] == ["A.f", "A.f.g"]

    def test_the_committed_census_passes_its_own_ceiling(self):
        assert ci_checks.check_reach(ROOT) == ci_checks.UNREACHED_CEILING

    def test_hygiene_passes_outside_a_git_checkout(self, tmp_path):
        # an exported tree: everything hygiene reads, no .git
        skip = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache", ".hypothesis")
        for name in ("src", "tests", "docs", "examples", "benchmarks", ".github", "scripts"):
            shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
        for name in ("README.md", "EXPERIMENTS.md", "REACH.txt"):
            shutil.copy(ROOT / name, tmp_path / name)
        done = subprocess.run([sys.executable, "scripts/ci_checks.py", "hygiene"], cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "tracked-artifact check not run: no git index" in done.stdout
        assert "unreached functions in REACH.txt" in done.stdout
