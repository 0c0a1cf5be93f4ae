"""Ablation: UDT receive-buffer size on high-BDP links (§V-A).

The paper had to raise Netty-UDT's default 12 MB protocol buffers to
100 MB because "on high BDP links the normal default values resulted in
high packet loss rates on the receiver side".  The simulation's buffer
overshoot model reproduces this: with the small buffer the UDT rate
control keeps tripping over receiver-side drops.
"""

import pytest

from repro.bench.harness import run_transfer_repeated
from repro.bench.scenario import MB, setup_by_name
from repro.messaging import Transport

from conftest import save_result

SIZE = 96 * MB


def experiment():
    out = {}
    for label, buf in (("12MB (Netty default)", 12 * MB), ("100MB (paper's fix)", 100 * MB)):
        rep = run_transfer_repeated(
            setup_by_name("EU2AU"),
            Transport.UDT,
            SIZE,
            min_runs=4,
            max_runs=4,
            base_seed=3,
            net_config={"net.udt.receive_buffer": buf},
        )
        out[label] = rep
    return out


@pytest.mark.slow
def test_ablation_udt_buffers(benchmark):
    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    lines = ["Ablation: UDT receive buffer on EU2AU (320 ms RTT)"]
    for label, rep in results.items():
        lines.append(f"  {label:22s}: {rep.mean_throughput / MB:6.2f} MB/s")
    save_result("ablation_udt_buffers", "\n".join(lines))

    small = results["12MB (Netty default)"].mean_throughput
    large = results["100MB (paper's fix)"].mean_throughput
    assert small < 0.8 * large, (small / MB, large / MB)
    assert large > 8 * MB  # with the fix UDT reaches the policing cap
