"""repro.check — default-off runtime correctness layer.

Two pieces, mirroring a sanitizer:

- an **invariant registry** (:mod:`repro.check.checker`) with cheap hook
  points in the sim kernel, destination flows, the wire layer, the RL
  stack and link allocation;
- a **trace digester** (:mod:`repro.check.digest`) folding canonical
  per-subsystem event streams into rolling hashes with checkpoints, and
  comparing two runs' checkpoints to name the first diverging window.
  ``repro perf --equivalence`` compares them with the committed
  ``GOLDEN.json`` (:mod:`repro.bench.perf`).

Everything is off by default; enable per run with::

    from repro.check import checking

    with checking() as chk:
        ...build and run a scenario...
    assert chk.ok, chk.violations

Like the observability layer, instruments bind at construction time —
components built *before* ``checking()`` is entered stay unhooked.

This module imports only stdlib-backed pieces so any subsystem can import
it without cycles; mutations and the self-test live in submodules
imported lazily by the CLI.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.check.checker import (
    NULL_CHECKER,
    InvariantChecker,
    InvariantError,
    NullChecker,
    Violation,
)
from repro.check.digest import DEFAULT_CHECKPOINT_EVERY, RollingDigest

__all__ = [
    "DEFAULT_CHECKPOINT_EVERY",
    "InvariantChecker",
    "InvariantError",
    "NULL_CHECKER",
    "NullChecker",
    "RollingDigest",
    "Violation",
    "checking",
    "get_checker",
    "set_checker",
]

_current = NULL_CHECKER


def get_checker():
    """The currently installed checker (NULL_CHECKER when off)."""
    return _current


def set_checker(checker) -> None:
    """Install ``checker`` as the current instance (None resets to null)."""
    global _current
    _current = NULL_CHECKER if checker is None else checker


@contextmanager
def checking(**kwargs) -> Iterator[InvariantChecker]:
    """Install a fresh :class:`InvariantChecker` for the ``with`` body."""
    previous = _current
    checker = InvariantChecker(**kwargs)
    set_checker(checker)
    try:
        yield checker
    finally:
        set_checker(previous)
