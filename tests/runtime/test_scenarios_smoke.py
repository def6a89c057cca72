"""Every paper scenario runs end-to-end at tiny size and every cell's numbers
are pinned exactly (the shape assertions live in ``benchmarks/``)."""

from __future__ import annotations

import pytest

from repro.runtime import scenarios

FAST = dict(warmup=0.3, duration=0.8)

#: ``figure:cell -> cell()`` at the sizes used below.  The ByzCast cells
#: with local messages were re-recorded when a local multicast's delivery
#: began to travel as its ordered reply (one reply per replica instead of
#: two shifts the sim's jitter stream); the values before it are in
#: EXPERIMENTS.md, "One reply per replica", and those before natural
#: batching under "Natural batching".  Every cell that relays was
#: re-recorded when a child began to order each relayed batch once, as a
#: relay certificate; the values before it are in EXPERIMENTS.md, "Relay
#: certificates".  Every cell that relays was re-recorded once more when a
#: child began to acknowledge a relay stream instead of each copy, and an
#: entry group that is not a destination to answer only a retransmission
#: (fewer messages, fewer jitter draws); the values before it are in
#: EXPERIMENTS.md, "Stream acks".
PINS = {
    "fig3:skewed/2-level": (1400.0, 0.0060716900073497955, 0.0, 0.0060716900073497955),
    "fig3:skewed/3-level": (1300.0, 0.005849731292149857, 0.0, 0.005849731292149857),
    "fig3:uniform/2-level": (975.0, 0.005945499603183415, 0.0, 0.005945499603183415),
    "fig3:uniform/3-level": (787.5, 0.007894556467396271, 0.0, 0.007894556467396271),
    "fig4a:baseline/2": (1950.0, 0.006129274416102732, 0.006129274416102732, 0.0),
    "fig4a:bftsmart": (3750.0, 0.003151200260480551, 0.003151200260480551, 0.0),
    "fig4a:byzcast/2": (4050.0, 0.0029577708415626167, 0.0029577708415626167, 0.0),
    "fig4b:baseline/2": (1800.0, 0.00660060510293943, 0.0, 0.00660060510293943),
    "fig4b:bftsmart": (3750.0, 0.003151200260480551, 0.003151200260480551, 0.0),
    "fig4b:byzcast/2": (1800.0, 0.00660060510293943, 0.0, 0.00660060510293943),
    "fig5a:baseline": (350.0, 0.00565652930039383, 0.00565652930039383, 0.0),
    "fig5a:bft-smart": (700.0, 0.0028243719351531637, 0.0028243719351531637, 0.0),
    "fig5a:byzcast": (725.0, 0.002806901558627374, 0.002806901558627374, 0.0),
    "fig6:baseline": (975.0, 0.005825298813083931, 0.005821150070165294, 0.005857105842126795),
    "fig6:byzcast": (1850.0, 0.0032078390924079113, 0.002836758157462937, 0.005727283334929044),
    "fig6:byzcast/pure-local": (2100.0, 0.0028287892819561004, 0.0028287892819561004, 0.0),
    "fig7:baseline/global/2": (175.0, 0.005633296230097359, 0.0, 0.005633296230097359),
    "fig7:baseline/local/2": (175.0, 0.00561291135287793, 0.00561291135287793, 0.0),
    "fig7:bftsmart": (362.5, 0.002793811584722583, 0.002793811584722583, 0.0),
    "fig7:byzcast/global/2": (175.0, 0.005633296230097359, 0.0, 0.005633296230097359),
    "fig7:byzcast/local/2": (362.5, 0.002793877379899919, 0.002793877379899919, 0.0),
    "fig8:baseline/global": (9.0, 0.42743704096616, 0.0, 0.42743704096616),
    "fig8:baseline/local": (9.0, 0.42759789125122605, 0.42759789125122605, 0.0),
    "fig8:bftsmart": (16.666666666666668, 0.23987837425921893, 0.23987837425921893, 0.0),
    "fig8:byzcast/global": (9.0, 0.42743704096616, 0.0, 0.42743704096616),
    "fig8:byzcast/local": (16.666666666666668, 0.2400465118654026, 0.2400465118654026, 0.0),
    "fig9:baseline": (18.75, 0.43470205907916304, 0.43674545320132796, 0.41120302667426484),
    "fig9:byzcast": (32.0, 0.25453695030615053, 0.23944437181691236, 0.43262937647916094),
}


def cell(result):
    if isinstance(result, list):  # fig5: a one-point curve per protocol
        (result,) = result
    return (result.throughput, result.latency.mean,
            result.local_latency.mean, result.global_latency.mean)


def check(figure, results):
    assert {f"{figure}:{key}": cell(r) for key, r in results.items()} == {
        key: pin for key, pin in PINS.items() if key.startswith(figure + ":")}


def test_table1_smoke():
    results = scenarios.table1_wan_latency()
    assert len(results) == 6
    assert all(row["measured_ms"] > 0 for row in results.values())


@pytest.mark.slow
def test_fig3_smoke():
    check("fig3", scenarios.fig3_tree_layouts(
        uniform_clients=6, skewed_clients=8, **FAST))


@pytest.mark.slow
def test_fig4_smoke():
    for figure, kind in (("fig4a", "local"), ("fig4b", "global")):
        check(figure, scenarios.fig4_scalability(
            group_counts=(2,), clients_per_group=6, message_kind=kind, **FAST))


@pytest.mark.slow
def test_fig5_smoke():
    check("fig5a", scenarios.fig5_throughput_latency(
        client_counts=(2,), message_kind="local", **FAST))


@pytest.mark.slow
def test_fig6_smoke():
    check("fig6", scenarios.fig6_mixed_lan(clients=6, **FAST))


@pytest.mark.slow
def test_fig7_smoke():
    check("fig7", scenarios.fig7_latency_lan(group_counts=(2,), **FAST))


@pytest.mark.slow
def test_fig8_smoke():
    check("fig8", scenarios.fig8_latency_wan(warmup=1.0, duration=3.0))


@pytest.mark.slow
def test_fig9_smoke():
    check("fig9", scenarios.fig9_fig10_mixed_wan(
        clients_per_group=2, warmup=1.0, duration=4.0))
