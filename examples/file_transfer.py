"""Bulk file transfer over TCP, UDT and the adaptive DATA protocol.

Replays the paper's §V-B experiment on the simulated EU2US setup
(155 ms RTT, lossy WAN, EC2-style 10 MB/s UDP policing): the paper's
395 MB NetCDF-like dataset is moved disk-to-disk with each transport,
four times per transport so the DATA learner's ramp-up and steady state
are both visible.

Run:  python examples/file_transfer.py
"""

from repro.bench.harness import run_transfer_repeated
from repro.bench.scenario import setup_by_name
from repro.messaging import Transport

MB = 1024 * 1024


def main() -> None:
    import os

    quick = os.environ.get("REPRO_EXAMPLE_QUICK") == "1"
    setup = setup_by_name("EU2US")
    size = (64 if quick else 395) * MB
    print(f"Transferring {size // MB} MB disk-to-disk on {setup.name} "
          f"(RTT {setup.rtt * 1000:.0f} ms, {setup.loss:.0e} loss, "
          f"UDP capped at {setup.udp_cap // MB} MB/s)\n")

    print(f"{'transport':9s} " + " ".join(f"{'run ' + str(i + 1):>9s}" for i in range(2 if quick else 4)) + f" {'mean':>9s}")
    for transport in (Transport.TCP, Transport.UDT, Transport.DATA):
        runs = 2 if quick else 4
        rep = run_transfer_repeated(setup, transport, size, min_runs=runs, max_runs=runs, base_seed=1)
        runs = [size / d / MB for d in rep.durations]
        print(
            f"{transport.value:9s} "
            + " ".join(f"{r:7.2f}MB" for r in runs)
            + f" {rep.mean_throughput / MB:7.2f}MB"
        )

    print(
        "\nTCP collapses at this bandwidth-delay product once past slow-start;\n"
        "UDT rides at the UDP policing cap; DATA learns the mix online, with\n"
        "visibly higher run-to-run variance while it keeps exploring."
    )


if __name__ == "__main__":
    main()
