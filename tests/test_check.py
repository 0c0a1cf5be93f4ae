"""Invariant checker, rolling digests, and their comparison."""

import math

import pytest

from repro.check import checking, get_checker, set_checker
from repro.check.checker import (
    NULL_CHECKER,
    InvariantChecker,
    InvariantError,
    Violation,
)
from repro.check.digest import (
    DEFAULT_CHECKPOINT_EVERY,
    RollingDigest,
    compare_documents,
    first_checkpoint_divergence,
)


class TestRollingDigest:
    def test_count_and_checkpoints(self):
        dig = RollingDigest("s")
        hashes = []
        for i in range(2 * DEFAULT_CHECKPOINT_EVERY + 7):
            dig.fold((i,))
            hashes.append(dig.hexdigest)
        assert dig.count == 2 * DEFAULT_CHECKPOINT_EVERY + 7
        assert dig.checkpoints == [hashes[DEFAULT_CHECKPOINT_EVERY - 1],
                                   hashes[2 * DEFAULT_CHECKPOINT_EVERY - 1]]

    def test_same_events_same_digest(self):
        a, b = RollingDigest("s"), RollingDigest("s")
        for dig in (a, b):
            dig.fold((1, "x"))
            dig.fold((2, "y"))
        assert a.hexdigest == b.hexdigest
        assert a.checkpoints == b.checkpoints

    def test_different_events_differ(self):
        a, b = RollingDigest("s"), RollingDigest("s")
        a.fold((1, "x"))
        b.fold((1, "y"))
        assert a.hexdigest != b.hexdigest

    def test_stream_name_seeds_the_hash(self):
        a, b = RollingDigest("left"), RollingDigest("right")
        a.fold((1,))
        b.fold((1,))
        assert a.hexdigest != b.hexdigest

    def test_order_matters(self):
        a, b = RollingDigest("s"), RollingDigest("s")
        a.fold((1,))
        a.fold((2,))
        b.fold((2,))
        b.fold((1,))
        assert a.hexdigest != b.hexdigest

    def test_document_shape(self):
        dig = RollingDigest("s")
        dig.fold(("a",))
        dig.fold(("b",))
        assert dig.document() == {"count": 2, "digest": dig.hexdigest, "checkpoints": []}


class TestCheckerPlumbing:
    def test_default_is_null_checker(self):
        chk = get_checker()
        assert chk is NULL_CHECKER
        assert not chk.enabled
        assert chk.sim_hook() is None
        assert chk.flow_hook("d", 4) is None
        assert chk.rl_hook() is None
        assert chk.link_hook("l") is None
        assert chk.digest("sim") is None
        assert chk.ok

    def test_checking_installs_and_restores(self):
        assert not get_checker().enabled
        with checking() as chk:
            assert get_checker() is chk
            assert chk.enabled
        assert get_checker() is NULL_CHECKER

    def test_set_checker_none_resets(self):
        chk = InvariantChecker()
        set_checker(chk)
        try:
            assert get_checker() is chk
        finally:
            set_checker(None)
        assert get_checker() is NULL_CHECKER

    def test_checking_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with checking():
                raise RuntimeError("boom")
        assert get_checker() is NULL_CHECKER


class TestInvariantChecker:
    def test_collects_violations(self):
        chk = InvariantChecker()
        chk.violation("sim.clock", "went backwards", time=1.0)
        assert not chk.ok
        assert chk.violations == [
            Violation("sim.clock", "went backwards", {"time": 1.0})
        ]
        assert "sim.clock" in chk.violations[0].format()

    def test_strict_raises(self):
        chk = InvariantChecker(strict=True)
        with pytest.raises(InvariantError):
            chk.violation("flow.window", "overflow")

    def test_max_violations_cap(self):
        chk = InvariantChecker(max_violations=3)
        for i in range(10):
            chk.violation("rl.q", "bad", i=i)
        assert len(chk.violations) == 3

    def test_document_shape(self):
        chk = InvariantChecker()
        chk.digest("port").fold(("x",))
        chk.violation("rl.trace", "poisoned", key="k")
        doc = chk.document()
        assert set(doc["streams"]) == {"port"}
        assert doc["streams"]["port"]["count"] == 1
        assert doc["violations"] == [
            {"invariant": "rl.trace", "message": "poisoned", "fields": {"key": "k"}}
        ]

    def test_wire_fifo_gap_is_fine_but_reorder_and_dup_are_not(self):
        chk = InvariantChecker()
        s = chk.register_wire_stream()
        chk.on_wire_delivery(s, 0)
        chk.on_wire_delivery(s, 3)  # gap: at-most-once loss is legal
        assert chk.ok
        chk.on_wire_delivery(s, 3)  # duplicate
        chk.on_wire_delivery(s, 1)  # reorder
        kinds = [v.fields["seq"] for v in chk.violations]
        assert [v.invariant for v in chk.violations] == ["wire.fifo", "wire.fifo"]
        assert kinds == [3, 1]

    def test_wire_streams_are_independent(self):
        chk = InvariantChecker()
        s1, s2 = chk.register_wire_stream(), chk.register_wire_stream()
        assert s1 != s2
        chk.on_wire_delivery(s1, 5)
        chk.on_wire_delivery(s2, 0)  # lower seq, but a different stream
        assert chk.ok

    def test_aio_epoch_must_strictly_increase_per_instance(self):
        chk = InvariantChecker()
        chk.on_aio_epoch("127.0.0.1:9000", 1)
        chk.on_aio_epoch("127.0.0.1:9000", 4)  # gaps are fine (other nets drew 2, 3)
        chk.on_aio_epoch("127.0.0.1:9001", 2)  # instances are independent
        assert chk.ok
        chk.on_aio_epoch("127.0.0.1:9000", 4)  # stale re-announcement
        chk.on_aio_epoch("127.0.0.1:9000", 3)  # regression
        assert [v.invariant for v in chk.violations] == ["aio.epoch", "aio.epoch"]
        assert "aio" in chk.document()["streams"]

    def test_aio_delivery_window_rejects_same_epoch_seq_twice(self):
        chk = InvariantChecker()
        chk.on_aio_delivery("n1", "p:1/tcp", 1, 0)
        chk.on_aio_delivery("n1", "p:1/tcp", 1, 1)
        chk.on_aio_delivery("n1", "p:1/tcp", 2, 0)  # new epoch restarts seq: fine
        chk.on_aio_delivery("n1", "p:1/udt", 1, 0)  # per-transport streams independent
        chk.on_aio_delivery("n2", "p:1/tcp", 1, 0)  # receivers independent
        assert chk.ok
        chk.on_aio_delivery("n1", "p:1/tcp", 1, 1)  # crash-resume double delivery
        assert [v.invariant for v in chk.violations] == ["aio.nodup"]


class TestHooks:
    def test_sim_hook_clock_and_stop(self):
        chk = InvariantChecker()
        hook = chk.sim_hook()
        hook.on_run_begin()
        hook.on_execute(1.0, "a")
        hook.on_execute(0.5, "b")  # backwards
        hook.on_stop()
        hook.on_execute(2.0, "c")  # after stop
        hook.on_run_end()
        assert [v.invariant for v in chk.violations] == ["sim.clock", "sim.stopped"]
        assert chk.violations[1].fields["label"] == "c"

    def test_sim_digest_folds_the_time_not_the_label(self):
        """Schedulers label events only under a tracer: the label must
        not reach the digest, or tracing would move the ``sim`` stream."""
        labelled, bare = InvariantChecker(), InvariantChecker()
        labelled.sim_hook().on_execute(1.0, "exec:sender")
        bare.sim_hook().on_execute(1.0, "")
        assert labelled.document() == bare.document()

    def test_flow_hook_window_and_conservation(self):
        chk = InvariantChecker()
        hook = chk.flow_hook("d", window=2)
        hook.on_release("tcp", 1)
        hook.on_release("udt", 2)
        assert chk.ok
        hook.on_release("tcp", 3)  # over the window (and conservation breaks)
        assert {v.invariant for v in chk.violations} == {"flow.window"}
        chk.violations.clear()
        hook.on_result(True, 1)  # released=3, completed=1, in_flight=1 -> leak
        assert [v.invariant for v in chk.violations] == ["flow.conservation"]

    def test_rl_hook_bounds(self):
        chk = InvariantChecker()
        hook = chk.rl_hook()
        hook.check_traces("replacing", {("s", "a"): 0.7})
        hook.check_q("s", "a", 1.5)
        hook.on_step(0.1, -0.2)
        assert chk.ok
        hook.check_traces("replacing", {("s", "a"): 1.5})
        hook.check_traces("accumulating", {("s", "b"): -0.1})
        hook.check_q("s", "a", math.nan)
        hook.on_step(0.1, math.inf)
        assert [v.invariant for v in chk.violations] == [
            "rl.trace", "rl.trace", "rl.q", "rl.q",
        ]

    def test_link_hook_feasibility(self):
        chk = InvariantChecker()
        hook = chk.link_hook("lnk")
        f1, f2 = object(), object()
        hook.on_allocation(
            demands={f1: 5.0, f2: 5.0},
            allocation={f1: 5.0, f2: 5.0},
            bandwidth=10.0,
            scavengers={f1: False, f2: False},
        )
        assert chk.ok
        hook.on_allocation(  # over-demand and over-bandwidth
            demands={f1: 5.0},
            allocation={f1: 20.0},
            bandwidth=10.0,
            scavengers={f1: False},
        )
        assert [v.invariant for v in chk.violations] == [
            "link.allocation", "link.allocation",
        ]

    def test_link_hook_scavenger_excluded_from_bandwidth(self):
        chk = InvariantChecker()
        hook = chk.link_hook("lnk")
        fg, bg = object(), object()
        hook.on_allocation(
            demands={fg: 10.0, bg: 10.0},
            allocation={fg: 10.0, bg: 10.0},  # sums over bandwidth, but bg scavenges
            bandwidth=10.0,
            scavengers={fg: False, bg: True},
        )
        assert chk.ok


class TestCheckpointBisection:
    def test_identical_and_empty(self):
        assert first_checkpoint_divergence([], []) is None
        same = ["a", "b", "c"]
        assert first_checkpoint_divergence(same, same) is None

    def test_prefix_match_shorter_list(self):
        a = ["a", "b"]
        b = ["a", "b", "c"]
        assert first_checkpoint_divergence(a, b) is None

    @pytest.mark.parametrize("split", [0, 1, 2, 5, 9])
    def test_finds_first_divergent_index(self, split):
        a = [f"h{i}" for i in range(10)]
        b = [f"h{i}" if i < split else f"x{i}" for i in range(10)]
        assert first_checkpoint_divergence(a, b) == split

    def test_compare_documents_windows(self):
        n = DEFAULT_CHECKPOINT_EVERY

        def doc(digests, count):
            return {
                "streams": {
                    "port": {
                        "count": count,
                        "digest": digests[-1] if digests else "empty",
                        "checkpoints": digests,
                    }
                }
            }

        # checkpoint divergence at index 1 -> window (n, 2n]
        d = compare_documents(doc(["a", "b", "c"], 3 * n), doc(["a", "X", "Y"], 3 * n))
        assert len(d) == 1
        assert d[0].stream == "port"
        assert d[0].window == (n, 2 * n)
        assert d[0].checkpoint_index == 1

        # identical
        assert compare_documents(doc(["a"], n + 1), doc(["a"], n + 1)) == []

        # tail divergence: checkpoints agree, counts differ
        d = compare_documents(doc(["a"], n + 1), doc(["a"], n + 3))
        assert d[0].window == (n, n + 3)
        assert d[0].checkpoint_index is None

    def test_compare_documents_missing_stream(self):
        full = {"streams": {"wire": {"count": 3, "digest": "d", "checkpoints": []}}}
        d = compare_documents(full, {"streams": {}})
        assert d[0].stream == "wire"
        assert d[0].window == (0, 3)

    def test_compare_includes_sim_by_default(self):
        def doc(digest):
            return {"streams": {"sim": {"count": 9, "digest": digest, "checkpoints": []}}}

        assert [d.stream for d in compare_documents(doc("a"), doc("b"))] == ["sim"]
