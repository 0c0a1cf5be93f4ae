"""Runtime invariant registry (default off, sanitizer-style).

The checker mirrors the observability layer's plumbing: a module-level
current instance (:func:`repro.check.get_checker`) that defaults to a
:class:`NullChecker` whose hook factories return ``None``.  Subsystems
bind their hook **once at construction time**::

    chk = get_checker()
    self._check = chk.sim_hook() if chk.enabled else None

and hot paths pay a single ``if self._check is not None:`` test when
checking is off — the same discipline the metrics/tracer instruments use,
so invariants-off runs stay byte-identical to unhooked code.

Invariants carry stable dotted names used by violations, tests and the
``repro check mutate`` self-test:

===================  ==============================================================
``sim.clock``        executed event time went backwards (heap order corrupted)
``sim.stopped``      an event executed after ``Simulator.stop()`` inside ``run``
``flow.window``      a ``DestinationFlow`` exceeded its release window
``flow.conservation``released != acked + failed + in-flight for a destination flow
``wire.fifo``        an ordered wire flow delivered out of order or twice
``rl.trace``         an eligibility trace left ``(0, 1]`` (replacing) or finiteness
``rl.q``             a Q-value or TD signal became non-finite
``link.allocation``  a max-min allocation became infeasible beyond tolerance
``aio.epoch``        an aio network (re)started with a non-increasing epoch
``aio.nodup``        an aio receiver delivered the same ``(epoch, seq)`` twice
===================  ==============================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Tuple

from repro.check.digest import RollingDigest


class InvariantError(AssertionError):
    """Raised in strict mode the moment an invariant is violated."""


@dataclass(frozen=True)
class Violation:
    """One observed invariant violation."""

    invariant: str
    message: str
    fields: Mapping[str, Any] = field(default_factory=dict)

    def format(self) -> str:
        detail = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"[{self.invariant}] {self.message}" + (f" ({detail})" if detail else "")


class InvariantChecker:
    """Collects violations and trace digests for one checked run.

    ``strict=True`` raises :class:`InvariantError` on the first violation
    (useful in tests); the default collects everything so one run reports
    every broken invariant.
    """

    enabled = True

    def __init__(
        self,
        strict: bool = False,
        tolerance: float = 1e-6,
        max_violations: int = 1000,
    ) -> None:
        self.strict = strict
        self.tolerance = tolerance
        self.max_violations = max_violations
        self.violations: List[Violation] = []
        self._digests: Dict[str, RollingDigest] = {}
        self._wire_streams = 0
        self._wire_last: Dict[int, int] = {}
        self._aio_epochs: Dict[str, int] = {}
        self._aio_seen: Dict[Tuple[str, str], set] = {}

    # ------------------------------------------------------------------
    # core
    # ------------------------------------------------------------------
    def violation(self, invariant: str, message: str, **fields: Any) -> None:
        v = Violation(invariant, message, fields)
        if len(self.violations) < self.max_violations:
            self.violations.append(v)
        if self.strict:
            raise InvariantError(v.format())

    def digest(self, name: str) -> RollingDigest:
        dig = self._digests.get(name)
        if dig is None:
            dig = RollingDigest(name)
            self._digests[name] = dig
        return dig

    @property
    def ok(self) -> bool:
        return not self.violations

    def document(self) -> Dict[str, Any]:
        """JSON-ready summary of this run: digests + violations."""
        return {
            "streams": {
                name: dig.document() for name, dig in sorted(self._digests.items())
            },
            "violations": [
                {"invariant": v.invariant, "message": v.message, "fields": dict(v.fields)}
                for v in self.violations
            ],
        }

    # ------------------------------------------------------------------
    # hook factories — one per subsystem, None from the NullChecker
    # ------------------------------------------------------------------
    def sim_hook(self) -> "_SimHook":
        return _SimHook(self)

    def flow_hook(self, destination: str, window: int) -> "_FlowHook":
        return _FlowHook(self, destination, window)

    def rl_hook(self) -> "_RlHook":
        return _RlHook(self)

    def link_hook(self, link_name: str) -> "_LinkHook":
        return _LinkHook(self, link_name)

    # ------------------------------------------------------------------
    # wire FIFO / exactly-once
    # ------------------------------------------------------------------
    def register_wire_stream(self) -> int:
        """Allocate a sequence-stamped stream id for one ordered wire flow.

        Ids are handed out in flow-construction order, which is part of
        the deterministic event order, so digests built from them are
        comparable across configuration re-runs.
        """
        self._wire_streams += 1
        return self._wire_streams

    def on_wire_delivery(self, stream: int, seq: int) -> None:
        last = self._wire_last.get(stream, -1)
        if seq <= last:
            kind = "duplicate" if seq == last else "reordered"
            self.violation(
                "wire.fifo",
                f"{kind} delivery on ordered wire stream",
                stream=stream, seq=seq, last=last,
            )
        else:
            self._wire_last[stream] = seq
        self.digest("wire").fold((stream, seq))

    # ------------------------------------------------------------------
    # aio epochs / crash-recovery delivery
    # ------------------------------------------------------------------
    # These live on the checker itself (not on a per-instance hook object)
    # because AioNetwork rebinds its hooks at construction time and the
    # whole point is to observe *across* supervised restarts of the same
    # network instance: the epoch history and delivery windows must
    # survive the component being torn down and reinstantiated.

    def on_aio_epoch(self, instance: str, epoch: int) -> None:
        """An aio network came up on ``instance`` with ``epoch``.

        Epochs must be strictly increasing per instance address — a
        restarted network announcing an old epoch would defeat the fence
        that makes crash-resume redelivery safe (``aio.epoch``).
        """
        last = self._aio_epochs.get(instance)
        if last is not None and epoch <= last:
            self.violation(
                "aio.epoch",
                "aio network (re)started with a non-increasing epoch",
                instance=instance, epoch=epoch, last=last,
            )
        else:
            self._aio_epochs[instance] = epoch
        self.digest("aio").fold(("epoch", instance, epoch))

    def on_aio_delivery(self, instance: str, peer: str, epoch: int, seq: int) -> None:
        """``instance`` delivered frame ``(epoch, seq)`` from ``peer``.

        Called *after* the receiver's own dedup window admitted the frame,
        so a second admission of the same pair means the window failed —
        exactly the double-delivery the ``aio.nodup`` invariant guards
        against (e.g. an at-least-once requeue replaying a crashed
        sender's frames past the dedup bound).
        """
        seen = self._aio_seen.get((instance, peer))
        if seen is None:
            seen = self._aio_seen[(instance, peer)] = set()
        if (epoch, seq) in seen:
            self.violation(
                "aio.nodup",
                "aio receiver delivered the same (epoch, seq) twice",
                instance=instance, peer=peer, epoch=epoch, seq=seq,
            )
        else:
            seen.add((epoch, seq))
        self.digest("aio").fold(("rx", instance, peer, epoch, seq))


class _SimHook:
    """Monotonic clock + no post-stop execution, plus the ``sim`` digest.

    The ``sim`` digest folds every executed event's time, so it moves
    with any change to when the kernel runs something, including how many
    events a delivery train coalesces.  The label only names the event in
    a violation: schedulers build labels only while a tracer is installed,
    so folding them would make the stream depend on tracing.
    """

    __slots__ = ("checker", "last_time", "running", "stopped", "_digest")

    def __init__(self, checker: InvariantChecker) -> None:
        self.checker = checker
        self.last_time = -math.inf
        self.running = False
        self.stopped = False
        self._digest = checker.digest("sim")

    def on_run_begin(self) -> None:
        self.running = True
        self.stopped = False

    def on_run_end(self) -> None:
        self.running = False

    def on_stop(self) -> None:
        self.stopped = True

    def on_execute(self, time: float, label: str) -> None:
        if time < self.last_time:
            self.checker.violation(
                "sim.clock",
                "event executed with non-monotonic time",
                time=time, last=self.last_time, label=label,
            )
        else:
            self.last_time = time
        if self.running and self.stopped:
            self.checker.violation(
                "sim.stopped",
                "event executed after Simulator.stop()",
                time=time, label=label,
            )
        self._digest.fold((time,))


class _FlowHook:
    """Release-window bound + count conservation for one DestinationFlow."""

    __slots__ = ("checker", "destination", "window", "released", "completed", "_digest")

    def __init__(self, checker: InvariantChecker, destination: str, window: int) -> None:
        self.checker = checker
        self.destination = destination
        self.window = window
        self.released = 0
        self.completed = 0
        self._digest = checker.digest("flow")

    def on_release(self, transport_value: str, in_flight: int) -> None:
        self.released += 1
        if in_flight > self.window:
            self.checker.violation(
                "flow.window",
                "destination flow exceeded its release window",
                destination=self.destination, in_flight=in_flight, window=self.window,
            )
        self._check_conservation(in_flight)
        self._digest.fold((self.destination, transport_value, self.released))

    def on_result(self, success: bool, in_flight: int) -> None:
        self.completed += 1
        self._check_conservation(in_flight)
        self._digest.fold((self.destination, "ok" if success else "fail", self.completed))

    def _check_conservation(self, in_flight: int) -> None:
        if self.released != self.completed + in_flight:
            self.checker.violation(
                "flow.conservation",
                "released != acked + failed + in-flight",
                destination=self.destination,
                released=self.released, completed=self.completed, in_flight=in_flight,
            )


class _RlHook:
    """Eligibility-trace bounds, Q/TD finiteness, and the ``rl`` digest."""

    __slots__ = ("checker", "_digest")

    def __init__(self, checker: InvariantChecker) -> None:
        self.checker = checker
        self._digest = checker.digest("rl")

    def check_traces(self, kind: str, traces: Mapping[Any, float]) -> None:
        for key, value in traces.items():
            if not math.isfinite(value) or value <= 0.0:
                self.checker.violation(
                    "rl.trace",
                    "eligibility trace outside (0, inf)",
                    key=key, value=value, kind=kind,
                )
            elif kind == "replacing" and value > 1.0 + self.checker.tolerance:
                self.checker.violation(
                    "rl.trace",
                    "replacing trace exceeds 1",
                    key=key, value=value,
                )

    def check_q(self, state: Any, action: Any, value: float) -> None:
        if not math.isfinite(value):
            self.checker.violation(
                "rl.q", "Q-value became non-finite",
                state=state, action=action, value=value,
            )

    def on_step(self, reward: float, delta: float) -> None:
        if not math.isfinite(delta):
            self.checker.violation(
                "rl.q", "TD error became non-finite", reward=reward, delta=delta,
            )
        self._digest.fold((reward, delta))


class _LinkHook:
    """Max-min allocation feasibility within tolerance for one link side.

    Verifies the allocation the link already computed — it never calls
    ``demand_rate`` again, because congestion controllers mutate state in
    their demand queries.
    """

    __slots__ = ("checker", "link", "_digest")

    def __init__(self, checker: InvariantChecker, link_name: str) -> None:
        self.checker = checker
        self.link = link_name
        self._digest = checker.digest("link")

    def on_allocation(
        self,
        demands: Mapping[Any, float],
        allocation: Mapping[Any, float],
        bandwidth: float,
        scavengers: Mapping[Any, bool],
    ) -> None:
        tol = self.checker.tolerance
        slack = bandwidth * tol + 1e-9
        total_fg = 0.0
        for flow, rate in allocation.items():
            demand = demands.get(flow, math.inf)
            if rate > demand + demand * tol + 1e-9:
                self.checker.violation(
                    "link.allocation",
                    "allocated rate exceeds flow demand",
                    link=self.link, rate=rate, demand=demand,
                )
            if not scavengers.get(flow, False):
                total_fg += rate
        if total_fg > bandwidth + slack:
            self.checker.violation(
                "link.allocation",
                "foreground allocation exceeds link bandwidth",
                link=self.link, total=total_fg, bandwidth=bandwidth,
            )
        self._digest.fold((self.link, len(allocation), round(total_fg, 3)))


class NullChecker:
    """Checking disabled: every hook factory returns ``None``."""

    enabled = False
    strict = False
    violations: List[Violation] = []

    @property
    def ok(self) -> bool:
        return True

    def violation(self, invariant: str, message: str, **fields: Any) -> None:
        raise AssertionError("NullChecker.violation should never be reached")

    def digest(self, name: str) -> None:
        return None

    def sim_hook(self) -> None:
        return None

    def flow_hook(self, destination: str, window: int) -> None:
        return None

    def rl_hook(self) -> None:
        return None

    def link_hook(self, link_name: str) -> None:
        return None

    def register_wire_stream(self) -> int:  # pragma: no cover - guarded by enabled
        return 0

    def on_wire_delivery(self, stream: int, seq: int) -> None:  # pragma: no cover
        return None

    def on_aio_epoch(self, instance: str, epoch: int) -> None:  # pragma: no cover
        return None

    def on_aio_delivery(self, instance: str, peer: str, epoch: int, seq: int) -> None:  # pragma: no cover
        return None

    def document(self) -> Dict[str, Any]:
        return {"streams": {}, "violations": []}


NULL_CHECKER = NullChecker()
