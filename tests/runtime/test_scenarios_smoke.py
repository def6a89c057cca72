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
#: EXPERIMENTS.md, "Stream acks".  Every cell was re-recorded when requests,
#: relay copies and live replies began to go to or come from the 2f+1
#: replicas of the current regency's quorum; the values before it are in
#: EXPERIMENTS.md, "Quorum sends".  Every cell was re-recorded when the
#: leader's PROPOSE became its WRITE and only the parent's quorum relayed
#: live; the values before it are in EXPERIMENTS.md, "Quorum writes and
#: relays".
PINS = {
    "fig3:skewed/2-level": (1300.0, 0.005953191772924829, 0.0, 0.005953191772924829),
    "fig3:skewed/3-level": (1400.0, 0.005738622667619088, 0.0, 0.005738622667619088),
    "fig3:uniform/2-level": (975.0, 0.005821848712898235, 0.0, 0.005821848712898235),
    "fig3:uniform/3-level": (787.5, 0.007775410025325178, 0.0, 0.007775410025325178),
    "fig4a:baseline/2": (2100.0, 0.006015016421815228, 0.006015016421815228, 0.0),
    "fig4a:bftsmart": (3750.0, 0.0031454653102188576, 0.0031454653102188576, 0.0),
    "fig4a:byzcast/2": (4050.0, 0.0029476786215825645, 0.0029476786215825645, 0.0),
    "fig4b:baseline/2": (1950.0, 0.006381093296383676, 0.0, 0.006381093296383676),
    "fig4b:bftsmart": (3750.0, 0.0031454653102188576, 0.0031454653102188576, 0.0),
    "fig4b:byzcast/2": (1950.0, 0.006381093296383676, 0.0, 0.006381093296383676),
    "fig5a:baseline": (350.0, 0.005574621537541091, 0.005574621537541091, 0.0),
    "fig5a:bft-smart": (725.0, 0.0028152141529194, 0.0028152141529194, 0.0),
    "fig5a:byzcast": (725.0, 0.002777875795281071, 0.002777875795281071, 0.0),
    "fig6:baseline": (1050.0, 0.005727823502784973, 0.0057213757854817065, 0.005781554480312203),
    "fig6:byzcast": (1925.0, 0.0031865113700929116, 0.0028136584679142127, 0.005684625814690199),
    "fig6:byzcast/pure-local": (2175.0, 0.002812699111646364, 0.002812699111646364, 0.0),
    "fig7:baseline/global/2": (175.0, 0.0055463282628810335, 0.0, 0.0055463282628810335),
    "fig7:baseline/local/2": (175.0, 0.005528416031017639, 0.005528416031017639, 0.0),
    "fig7:bftsmart": (362.5, 0.00278253903687555, 0.00278253903687555, 0.0),
    "fig7:byzcast/global/2": (175.0, 0.0055463282628810335, 0.0, 0.0055463282628810335),
    "fig7:byzcast/local/2": (362.5, 0.002782605358481109, 0.002782605358481109, 0.0),
    "fig8:baseline/global": (9.0, 0.4316141376641032, 0.0, 0.4316141376641032),
    "fig8:baseline/local": (9.0, 0.4272758050441411, 0.4272758050441411, 0.0),
    "fig8:bftsmart": (16.333333333333332, 0.24148543576705725, 0.24148543576705725, 0.0),
    "fig8:byzcast/global": (9.0, 0.4316141376641032, 0.0, 0.4316141376641032),
    "fig8:byzcast/local": (16.333333333333332, 0.24077070000846687, 0.24077070000846687, 0.0),
    "fig9:baseline": (18.25, 0.43798361099524385, 0.43976850702387177, 0.41805227200890044),
    "fig9:byzcast": (31.25, 0.25527528881752587, 0.24157110646360438, 0.4319069724902904),
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
