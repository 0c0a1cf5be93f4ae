"""LEDBAT background bulk data: the scavenger extension in action.

The paper's introduction recalls implementing LEDBAT on Kompics before
moving to UDT, and §IV invites extending per-message selection to other
protocols.  This example shows why a scavenger matters: a big background
sync over LEDBAT leaves a foreground TCP transfer (and TCP control pings)
essentially untouched, while the same background traffic over TCP starves
them.

Run:  python examples/background_transfer.py
"""

from repro.apps import FileSender, SyntheticDataset
from repro.bench.harness import run_in_steps
from repro.bench.scenario import Setup, TestbedPair
from repro.messaging import Transport

MB = 1024 * 1024
SETUP = Setup(name="office-uplink", rtt=0.006, bandwidth=40 * MB, udp_cap=None)


def run_scenario(background: Transport | None) -> float:
    with TestbedPair(SETUP, seed=11) as pair:
        pair.wire()
        pair.start(pair.file_receiver())

        if background is not None:
            # memory-to-memory (no disk model), so it does not share the
            # foreground's disk — attached like any app, by hand
            bulk = pair.system.create(
                FileSender, pair.sender.address, pair.receiver.address,
                SyntheticDataset(size=400 * MB),
                transport=background, name="background-sync",
            )
            pair.sender.attach(bulk)
            pair.start(bulk)

        foreground = pair.file_sender(
            SyntheticDataset(size=40 * MB), Transport.TCP, name="foreground"
        )
        pair.start(foreground)
        run_in_steps(pair, 600.0, lambda: foreground.definition.duration is not None)
        return foreground.definition.duration


def main() -> None:
    print(f"40 MB foreground TCP transfer on a {SETUP.bandwidth // MB} MB/s link,\n"
          f"while a 400 MB background sync runs over different transports:\n")
    for label, transport in (
        ("no background sync", None),
        ("background over TCP", Transport.TCP),
        ("background over LEDBAT", Transport.LEDBAT),
    ):
        duration = run_scenario(transport)
        print(f"  {label:24s}: foreground took {duration:6.2f}s "
              f"({40 * MB / duration / MB:5.1f} MB/s)")
    print(
        "\nLEDBAT (RFC 6817) is less-than-best-effort: it soaks up spare\n"
        "capacity and yields the moment foreground traffic appears."
    )


if __name__ == "__main__":
    main()
