"""Control-plane heartbeats next to bulk replication — the paper's story.

A service on EU-VPC replicates a 395 MB snapshot to a peer while sending
latency-sensitive heartbeats to the same peer.  The transport choice for
the *bulk* stream decides whether the heartbeats survive:

* bulk over TCP   -> heartbeats queue behind the snapshot (seconds!),
* bulk over UDT   -> heartbeats unaffected (separate channel),
* bulk over DATA  -> adaptive: near-TCP throughput, heartbeats fine.

This is Figure 8 + Figure 9 as one program.

Run:  python examples/control_and_bulk.py
"""

from repro.bench.harness import estimate_rate, run_latency_experiment
from repro.bench.scenario import setup_by_name
from repro.messaging import Transport

MB = 1024 * 1024


def main() -> None:
    import os

    quick = os.environ.get("REPRO_EXAMPLE_QUICK") == "1"
    transfer_bytes = (64 if quick else 395) * MB
    setup = setup_by_name("EU-VPC")
    print(f"{setup.name}: heartbeats every 250 ms while replicating a snapshot\n")
    print(f"{'bulk transport':15s} {'heartbeat RTT (median)':>24s} {'bulk rate (est.)':>18s}")
    baseline = run_latency_experiment(setup, Transport.TCP, None, seed=3)
    print(f"{'(no bulk)':15s} {baseline.median_ms:>21.2f} ms {'-':>18s}")
    for bulk in (Transport.TCP, Transport.UDT, Transport.DATA):
        result = run_latency_experiment(setup, Transport.TCP, bulk, seed=3, transfer_bytes=transfer_bytes)
        rate = estimate_rate(setup, bulk) / MB
        print(f"{bulk.value:15s} {result.median_ms:>21.2f} ms {rate:>15.1f} MB/s")
    print(
        "\nSharing the TCP channel queues heartbeats behind the snapshot;\n"
        "UDT and the adaptive DATA protocol keep the control plane live\n"
        "while still moving the bulk data at full speed."
    )


if __name__ == "__main__":
    main()
