"""Regenerate the paper's Table III (optimization model outcomes).

For the uniform and skewed workloads of Table II, evaluate the 2-level tree
``T₂`` and the 3-level tree ``T₃`` of Fig. 1, reporting per-auxiliary
``T(T, x)`` and ``L(T, x)``, the objective ``Σ H(T, d)``, and the verdict
(best choice / poor choice / not viable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.tree import OverlayTree
from repro.optimizer.model import (
    OptimizationInput,
    destinations_through,
    evaluate_tree,
)
from repro.types import Destination
from repro.workload.spec import table2_skewed_demand, table2_uniform_demand

VERDICT_BEST = "Best choice"
VERDICT_POOR = "Poor choice"
VERDICT_NOT_VIABLE = "Not viable (load exceeds capacity)"


@dataclass(frozen=True)
class AuxiliaryRow:
    """One auxiliary group's T(T, x) and L(T, x) entries."""

    group: str
    destinations: Tuple[Destination, ...]
    load: float


@dataclass(frozen=True)
class Table3Entry:
    """One (workload, tree) cell of Table III."""

    workload: str
    tree_label: str
    auxiliaries: Tuple[AuxiliaryRow, ...]
    sum_heights: int
    feasible: bool
    verdict: str


def _paper_trees() -> Dict[str, OverlayTree]:
    return {
        "T2": OverlayTree.two_level(["g1", "g2", "g3", "g4"]),
        "T3": OverlayTree.paper_tree(),
    }


def table3_report(capacity: float = 9500.0) -> List[Table3Entry]:
    """All four Table III cells, with verdicts assigned per workload."""
    workloads = {
        "uniform": table2_uniform_demand(),
        "skewed": table2_skewed_demand(),
    }
    trees = _paper_trees()
    entries: List[Table3Entry] = []
    for workload_name, demand in workloads.items():
        problem = OptimizationInput(
            targets=("g1", "g2", "g3", "g4"),
            auxiliaries=("h1", "h2", "h3"),
            demand=demand,
            capacity=capacity,
        )
        evaluations = {
            label: evaluate_tree(tree, problem) for label, tree in trees.items()
        }
        feasible = {
            label: ev for label, ev in evaluations.items() if ev.feasible
        }
        best_objective = (
            min(ev.objective for ev in feasible.values()) if feasible else None
        )
        for label, evaluation in evaluations.items():
            if not evaluation.feasible:
                verdict = VERDICT_NOT_VIABLE
            elif evaluation.objective == best_objective:
                verdict = VERDICT_BEST
            else:
                verdict = VERDICT_POOR
            aux_rows = tuple(
                AuxiliaryRow(
                    group=aux,
                    destinations=tuple(
                        sorted(
                            destinations_through(evaluation.tree, aux, demand),
                            key=sorted,
                        )
                    ),
                    load=evaluation.loads[aux],
                )
                for aux in sorted(evaluation.tree.auxiliaries)
            )
            entries.append(
                Table3Entry(
                    workload=workload_name,
                    tree_label=label,
                    auxiliaries=aux_rows,
                    sum_heights=evaluation.objective,
                    feasible=evaluation.feasible,
                    verdict=verdict,
                )
            )
    return entries


def format_table3(entries: Sequence[Table3Entry]) -> str:
    """Render the report in the layout of the paper's Table III."""
    lines: List[str] = []
    for workload in ("uniform", "skewed"):
        lines.append(f"{workload.capitalize()} workload")
        for entry in entries:
            if entry.workload != workload:
                continue
            for index, row in enumerate(entry.auxiliaries):
                dsts = ", ".join(
                    "{" + ",".join(sorted(d)) + "}" for d in row.destinations
                ) or "∅"
                head = (
                    f"  {entry.tree_label}"
                    if index == 0
                    else "    "
                )
                tail = ""
                if index == 0:
                    tail = f"   ΣH = {entry.sum_heights:<3}  {entry.verdict}"
                lines.append(
                    f"{head:<6} T({row.group}) = {dsts:<60} "
                    f"L({row.group}) = {row.load:>7.0f} m/s{tail}"
                )
        lines.append("")
    return "\n".join(lines)
