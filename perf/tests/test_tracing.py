"""The span self-time arithmetic and the profile roll-up."""

import os

import pytest
import tracing
from tracing import Span, message_spans, roll_up, self_times


def test_self_time_is_duration_minus_children():
    spans = [
        Span("root", "a", 0.0, 10.0, None, 1),
        Span("child", "b", 1.0, 4.0, 0, 1),
        Span("grandchild", "c", 2.0, 3.0, 1, 1),
        Span("other", "b", 6.0, 8.0, 0, 1),
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_overlapping_children_are_counted_once_and_clipped():
    spans = [
        Span("root", "a", 0.0, 10.0, None, 1),
        Span("x", "b", 2.0, 6.0, 0, 1),
        Span("y", "b", 4.0, 8.0, 0, 1),   # overlaps x from 4 to 6
        Span("z", "b", 9.0, 12.0, 0, 1),  # sticks out by 2
        Span("w", "b", 20.0, 21.0, 0, 1),  # wholly outside
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_message_stages_tile_the_delivery():
    stamps = (1.0, 1.2, 1.3, 5.0, 5.1, 5.5)
    spans = message_spans(7, stamps)
    own = self_times(spans)
    assert [s.name for s in spans] == ["deliver", "send_hop", "serialize", "wire",
                                       "deserialize", "recv_hop"]
    assert own[0] == pytest.approx(0.0)
    assert sum(own[1:]) == pytest.approx(stamps[-1] - stamps[0])
    assert all(s.msg == 7 for s in spans)


def _path(*parts):
    return os.sep + os.path.join("x", "src", "repro", *parts)


def test_layers_by_package():
    assert tracing.layer_of(_path("netsim", "link.py")) == "netsim"
    assert tracing.layer_of(_path("bench", "fleet.py")) == "loadgen"
    assert tracing.layer_of(_path("util", "rng.py")) is None
    assert tracing.layer_of(_path("fastpath.py")) is None
    assert tracing.layer_of("~") is None
    assert tracing.layer_of(tracing.__file__) == "loadgen"


def test_builtins_are_charged_to_the_calling_layer():
    sim = (_path("sim", "simulator.py"), 10, "run")
    link = (_path("netsim", "link.py"), 20, "allocate_rate")
    helper = (_path("util", "rng.py"), 5, "derive")
    heappush = ("~", 0, "<built-in method heappush>")
    hashing = ("~", 0, "<built-in method blake2b>")
    entry = (os.path.join(os.path.dirname(tracing.__file__), "workloads.py"), 1, "unit")
    # stats[func] = (primitive calls, calls, self time, cumulative, callers);
    # callers[caller] = (calls, primitive calls, self time, cumulative)
    stats = {
        entry: (1, 1, 0.5, 10.0, {}),
        sim: (1, 1, 2.0, 9.5, {entry: (1, 1, 2.0, 9.5)}),
        link: (4, 4, 3.0, 4.0, {sim: (4, 4, 3.0, 4.0)}),
        heappush: (10, 10, 1.0, 1.0, {sim: (6, 6, 0.75, 0.75), link: (4, 4, 0.25, 0.25)}),
        # a helper with no layer, called 3x from netsim and 1x from sim ...
        helper: (4, 4, 0.4, 0.8, {link: (3, 3, 0.3, 0.6), sim: (1, 1, 0.1, 0.2)}),
        # ... whose own built-in is passed up in proportion to those calls
        hashing: (4, 4, 0.4, 0.4, {helper: (4, 4, 0.4, 0.4)}),
    }
    layers = roll_up(stats)
    calls = {name: value[0] for name, value in layers.items()}
    seconds = {name: value[1] for name, value in layers.items()}
    assert calls == {"loadgen": 1, "sim": 1 + 6 + 1 + 1, "netsim": 4 + 4 + 3 + 3}
    assert seconds["sim"] == pytest.approx(2.0 + 0.75 + 0.1 + 0.1)
    assert seconds["netsim"] == pytest.approx(3.0 + 0.25 + 0.3 + 0.3)
    assert sum(calls.values()) == sum(entry[1] for entry in stats.values())
    assert sum(seconds.values()) == pytest.approx(sum(e[2] for e in stats.values()))
    assert roll_up(stats) == layers  # same table, same numbers, to the last digit


def test_named_function_counts():
    link = (_path("netsim", "link.py"), 20, "allocate_rate")
    other = (_path("netsim", "routing.py"), 69, "allocate_rate")
    stats = {link: (4, 5, 3.0, 4.0, {}), other: (7, 7, 1.0, 1.5, {})}
    assert tracing.calls_of(stats, "netsim/link.py", ("allocate_rate",)) == 5
    assert tracing.cumulative_of(stats, "netsim/routing.py", "allocate_rate") == 1.5


def test_steady_total_takes_each_segment_from_its_fastest_repetition():
    import pace

    def repetition(slow_from, slow_to):
        """100 ticks of simulated time 0..99; 10 ms each, 30 ms inside the slow stretch."""
        clock, readings = 0.0, [(pace._START, 0.0, 0.0)]
        for now in range(100):
            clock += 0.03 if slow_from <= now < slow_to else 0.01
            readings.append((float(now), clock, clock / 2))
        readings.append((pace._END, clock, clock / 2))
        return readings

    calm = repetition(0, 0)
    assert pace.steady_total([calm], 1) == pytest.approx(1.0)
    # disturbed in different places: together as good as one calm repetition
    disturbed = [repetition(10, 40), repetition(50, 90)]
    assert pace.steady_total(disturbed[:1], 1) == pytest.approx(1.6)
    assert pace.steady_total(disturbed, 1) == pytest.approx(1.0, abs=0.05)
    assert pace.steady_total(disturbed, 2) == pytest.approx(0.5, abs=0.03)
    # a repetition read at other instants is cut at the same simulated times
    offbeat = [calm[0]] + [(x + 0.5, t + 0.005, c + 0.0025) for x, t, c in calm[1:-2]] + [calm[-1]]
    assert pace.steady_total([calm, offbeat], 1) == pytest.approx(1.0, abs=0.01)
