"""Every paper scenario runs end-to-end at tiny size and every cell's numbers
are pinned exactly (the shape assertions live in ``benchmarks/``)."""

from __future__ import annotations

import pytest

from repro.runtime import scenarios

FAST = dict(warmup=0.3, duration=0.8)

#: ``figure:cell -> cell()`` at the sizes used below, recorded at 2fca3e9 from
#: the per-protocol harness PR 23 deleted.  Only Fig. 8's four sampled cells
#: were re-recorded: its clients are now ``c<i>``, not ``c-<region>`` (same
#: sites, another RNG stream label; EXPERIMENTS.md, "One construction path").
PINS = {
    "fig3:skewed/2-level": (1037.5, 0.007638415372540438, 0.0, 0.007638415372540438),
    "fig3:skewed/3-level": (1075.0, 0.007338181548455561, 0.0, 0.007338181548455561),
    "fig3:uniform/2-level": (975.0, 0.006415023824940559, 0.0, 0.006415023824940559),
    "fig3:uniform/3-level": (575.0, 0.010088402367620573, 0.0, 0.010088402367620573),
    "fig4a:baseline/2": (1800.0, 0.006645354359685324, 0.006645354359685324, 0.0),
    "fig4a:bftsmart": (3600.0, 0.0032946338096619303, 0.0032946338096619303, 0.0),
    "fig4a:byzcast/2": (3900.0, 0.0031349776304446264, 0.0031349776304446264, 0.0),
    "fig4b:baseline/2": (1650.0, 0.007248837792485207, 0.0, 0.007248837792485207),
    "fig4b:bftsmart": (3600.0, 0.0032946338096619303, 0.0032946338096619303, 0.0),
    "fig4b:byzcast/2": (1650.0, 0.007248837792485207, 0.0, 0.007248837792485207),
    "fig5a:baseline": (325.0, 0.0061276540748484805, 0.0061276540748484805, 0.0),
    "fig5a:bft-smart": (675.0, 0.003018432768071038, 0.003018432768071038, 0.0),
    "fig5a:byzcast": (650.0, 0.0030036646834490075, 0.0030036646834490075, 0.0),
    "fig6:baseline": (975.0, 0.006336445288122904, 0.006325762688261383, 0.006444797372432591),
    "fig6:byzcast": (1725.0, 0.003497659878967576, 0.0030806906499078676, 0.006465499685804327),
    "fig6:byzcast/pure-local": (2025.0, 0.0030262903691853976, 0.0030262903691853976, 0.0),
    "fig7:baseline/global/2": (175.0, 0.0061054517910705056, 0.0, 0.0061054517910705056),
    "fig7:baseline/local/2": (175.0, 0.006080032506640766, 0.006080032506640766, 0.0),
    "fig7:bftsmart": (325.0, 0.0029942680352872805, 0.0029942680352872805, 0.0),
    "fig7:byzcast/global/2": (175.0, 0.0061054517910705056, 0.0, 0.0061054517910705056),
    "fig7:byzcast/local/2": (325.0, 0.002992164692974692, 0.002992164692974692, 0.0),
    "fig8:baseline/global": (8.666666666666666, 0.4476444889538854, 0.0, 0.4476444889538854),
    "fig8:baseline/local": (9.0, 0.4324042853706543, 0.4324042853706543, 0.0),
    "fig8:bftsmart": (16.666666666666668, 0.24003490334757552, 0.24003490334757552, 0.0),
    "fig8:byzcast/global": (8.666666666666666, 0.4476444889538854, 0.0, 0.4476444889538854),
    "fig8:byzcast/local": (16.666666666666668, 0.24060191344808438, 0.24060191344808438, 0.0),
    "fig9:baseline": (18.25, 0.4531391526573167, 0.4544062760731143, 0.43898960784757685),
    "fig9:byzcast": (30.75, 0.25884827670298904, 0.24341826836982056, 0.45429504892312217),
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
