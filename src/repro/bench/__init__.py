"""Benchmark harness: scenario construction and per-figure experiments.

* :mod:`repro.bench.scenario` — the paper's EC2 testbed (Figure 7) as
  simulated setups: Local (0 ms), EU-VPC (3 ms), EU2US (155 ms),
  EU2AU (320 ms) — and :class:`TestbedPair`, where every two-node driver
  starts: it wires the endpoints and offers the workloads (pings, the
  disk-clocked transfer, the notify-clocked stream).  Its real-socket
  twin is :func:`repro.bench.loopback.loopback_pair`.
* :mod:`repro.bench.harness` — experiment drivers: repeated transfers with
  the paper's RSE stopping rule, parallel ping+data latency runs, learner
  traces, and offline selection-skew sampling.
* :mod:`repro.bench.figures` — one function per paper figure, returning
  structured rows and printing the table the figure plots.
* :mod:`repro.bench.faults` — scripted fault campaigns (cut / degrade /
  restore) exercising the channel-recovery layer.
* :mod:`repro.bench.chaos` — seeded random fault campaigns (handler
  faults + link cuts) exercising component supervision end to end.
* :mod:`repro.bench.perf` — the golden-digest gate (rates are
  measured by ``python3 perf/run.py``, not here).
* :mod:`repro.bench.topology` — deterministic fleet-scale topology
  generation (star / fat-tree / wan-mesh) with per-link WAN specs.
* :mod:`repro.bench.fleet` — fleet workloads (thousands of churning
  flows over a generated topology), their named presets, and the
  parallel seeds x presets campaign runner with mergeable, digest-gated
  results.
"""
