"""Calibration probe for the cost model (developer tool).

Targets (paper §V):
  * single group saturation  ≈ 19,500 msgs/s   (BFT-SMaRt, Fig 4(b) best case)
  * single-client LAN latency ≈ 4 ms            (Fig 7)
  * ByzCast global throughput ≈ 9,500-9,700 m/s (K(h), §V-C / Fig 4(b))
  * Baseline local saturation ≈ 11,000-12,000   (Fig 4(a))

Run:  python scripts/calibrate.py [calibrated|bench] [clients]
(``bench``: the suite's ×10 cost model; its numbers print at bench scale)
"""

from __future__ import annotations

import sys

from repro.scenario import (
    ProtocolSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    run_scenario,
)


def main() -> None:
    costs = sys.argv[1] if len(sys.argv) > 1 else "calibrated"
    clients = int(sys.argv[2]) if len(sys.argv) > 2 else 200

    def probe(label, kind, count, destinations, fixed=()):
        """One cell (warmup/window as in Fig. 7 / Fig. 4), printed as a row."""
        warmup, duration = (0.5, 2.0) if count == 1 else (1.0, 3.0)
        result = run_scenario(ScenarioSpec(
            name=label,
            topology=TopologySpec(groups=4, latency="lan"),
            workload=WorkloadSpec(clients=count, destinations=destinations,
                                  fixed=fixed, warmup=warmup, duration=duration),
            protocol=ProtocolSpec(kind=kind, max_in_flight=4, costs=costs),
        ))
        print(f"{result.row()}  median={result.latency.median * 1000:7.2f} ms")

    probe("bftsmart 1 client", "bftsmart", 1, "fixed", ("g1",))
    probe(f"bftsmart {clients} clients", "bftsmart", clients, "fixed", ("g1",))
    probe("byzcast local 1 client", "byzcast", 1, "fixed", ("g1",))
    probe("byzcast global 1 client", "byzcast", 1, "fixed", ("g1", "g2"))
    probe(f"byzcast global {clients} cl", "byzcast", clients, "global")
    probe(f"baseline local {clients} cl", "baseline", clients, "local")


if __name__ == "__main__":
    main()
