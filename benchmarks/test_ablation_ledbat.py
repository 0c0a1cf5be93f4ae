"""Extension bench: LEDBAT as the background bulk transport.

The paper's §I recalls a LEDBAT-on-Kompics implementation and §IV invites
extending per-message selection to other protocols.  This bench shows what
the extension buys: bulk data over LEDBAT leaves a concurrent foreground
TCP transfer essentially undisturbed, while bulk data over TCP halves it.
"""

import pytest

from repro.apps import FileSender, SyntheticDataset
from repro.bench.harness import run_in_steps
from repro.bench.scenario import MB, Setup, TestbedPair
from repro.messaging import Transport

from conftest import save_result

SETUP = Setup(name="vpc-like", rtt=0.003, bandwidth=60 * MB, udp_cap=None)
FOREGROUND = 60 * MB
BACKGROUND = 240 * MB


def foreground_duration(background_transport) -> float:
    """Foreground TCP transfer time while a background stream runs."""
    with TestbedPair(SETUP, seed=5) as pair:
        pair.wire()
        pair.start(pair.file_receiver())

        if background_transport is not None:
            # memory-to-memory: the background must not share the foreground's disk
            bg = pair.system.create(
                FileSender, pair.sender.address, pair.receiver.address,
                SyntheticDataset(size=BACKGROUND),
                transport=background_transport, name="bg-sender",
            )
            pair.sender.attach(bg)
            pair.start(bg)

        fg = pair.file_sender(
            SyntheticDataset(size=FOREGROUND), Transport.TCP, name="fg-sender"
        )
        pair.start(fg)

        run_in_steps(pair, 600.0, lambda: fg.definition.duration is not None)
        assert fg.definition.duration is not None
        return fg.definition.duration


def experiment():
    return {
        "no background": foreground_duration(None),
        "background over TCP": foreground_duration(Transport.TCP),
        "background over LEDBAT": foreground_duration(Transport.LEDBAT),
    }


@pytest.mark.slow
def test_ablation_ledbat_background(benchmark):
    durations = benchmark.pedantic(experiment, rounds=1, iterations=1)
    lines = [f"Extension: {FOREGROUND // MB} MB foreground TCP transfer vs background bulk"]
    for label, duration in durations.items():
        lines.append(f"  {label:24s}: {duration:6.2f} s ({FOREGROUND / duration / MB:6.2f} MB/s)")
    save_result("ablation_ledbat", "\n".join(lines))

    alone = durations["no background"]
    with_tcp = durations["background over TCP"]
    with_ledbat = durations["background over LEDBAT"]
    # TCP background competes ~fairly: foreground roughly halves.
    assert with_tcp > 1.6 * alone
    # LEDBAT background scavenges: foreground within 25% of running alone.
    assert with_ledbat < 1.25 * alone
