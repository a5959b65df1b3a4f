"""Table 6 — pattern-matching F1 across query scenarios (Amazon-like).

Protocol (Section 5.4): random queries of size 3-13 extracted from the
data graph, four scenarios (Exact / Noisy-E / Noisy-L / Combined, noise
up to 33%), top-1 match per query, paper F1. Algorithms: NAGA-like,
G-Finder-like, TSpan-1/-3-like, strong simulation, FSim_s, FSim_dp.

Shape to reproduce: everything is perfect-ish on Exact except NAGA;
strong simulation collapses under noise; TSpan-3 stays strong on
Noisy-E but has no results under label noise; FSim_s beats FSim_dp and
all baselines on the noisy scenarios.
"""
from __future__ import annotations

from typing import Callable, Dict, Optional

import pandas as pd

from ..exact.pysim import strong_simulation_match
from ..graphs.generators import dataset_pd
from ..graphs.model import AdjGraph, Graph
from ..graphs.noise import Query, make_workload, noise_query
from ..matching.baselines import gfinder_like, naga_like, tspan_like
from ..matching.harness import (f1_match, f1_match_nodeset,
                                run_fsim_scenario, scenario_mean)
from .runner import make_session

SCENARIOS = ["Exact", "Noisy-E", "Noisy-L", "Combined"]
SEED = 3

#: Paper Table 6 (Amazon, avg F1 % over 100 queries).
PAPER_TABLE6 = {
    "NAGA": {"Exact": 30.2, "Noisy-E": 30.5, "Noisy-L": 20.6, "Combined": 21.2},
    "G-Finder": {"Exact": 100.0, "Noisy-E": 49.2, "Noisy-L": 40.7, "Combined": 40.9},
    "TSpan-1": {"Exact": 100.0, "Noisy-E": 71.0, "Noisy-L": None, "Combined": None},
    "TSpan-3": {"Exact": 100.0, "Noisy-E": 95.8, "Noisy-L": None, "Combined": None},
    "StrongSim": {"Exact": 100.0, "Noisy-E": 50.0, "Noisy-L": 33.3, "Combined": 29.2},
    "FSim_s": {"Exact": 100.0, "Noisy-E": 84.0, "Noisy-L": 75.1, "Combined": 76.6},
    "FSim_dp": {"Exact": 100.0, "Noisy-E": 65.7, "Noisy-L": 73.2, "Combined": 66.7},
}


def tspan_f1(max_missing: int) -> Callable[[Query, AdjGraph], Optional[float]]:
    """TSpan-x's per-query F1; ``None`` when it finds no match."""
    def f1(q: Query, data: AdjGraph) -> Optional[float]:
        a = tspan_like(q, data, max_missing)
        return None if a is None else f1_match(q, a)
    return f1


#: Per-query baselines: name -> F1 of its top-1 match (``None``: no
#: result). They run on the driver over the data ``AdjGraph``.
BASELINES: Dict[str, Callable[[Query, AdjGraph], Optional[float]]] = {
    "NAGA": lambda q, data: f1_match(q, naga_like(q, data)),
    "G-Finder": lambda q, data: f1_match(q, gfinder_like(q, data)),
    "TSpan-1": tspan_f1(1),
    "TSpan-3": tspan_f1(3),
    "StrongSim": lambda q, data: f1_match_nodeset(
        q, strong_simulation_match(q.labels, q.edges, data)),
}


def run(*, scale: float, n_queries: int, eps: float = 1e-2) -> pd.DataFrame:
    spark = make_session()
    nodes_pd, edges_pd = dataset_pd("Amazon", scale=scale, seed=SEED)
    data = Graph.from_pandas(spark, nodes_pd, edges_pd)
    adj = AdjGraph.build(nodes_pd, edges_pd)
    all_labels = sorted(nodes_pd.label.unique())
    base = make_workload(nodes_pd, edges_pd, n_queries=n_queries, seed=SEED)
    rows = []
    for scenario in SCENARIOS:
        qs = base if scenario == "Exact" else [
            noise_query(q, scenario, all_labels, seed=SEED + 77 + q.qid)
            for q in base]
        measured = {
            **{name: scenario_mean([f1(q, adj) for q in qs])
               for name, f1 in BASELINES.items()},
            "FSim_s": run_fsim_scenario(spark, qs, data, adj, "s", eps=eps),
            "FSim_dp": run_fsim_scenario(spark, qs, data, adj, "dp", eps=eps),
        }
        for algo, f1 in measured.items():
            rows.append({
                "scenario": scenario, "algorithm": algo,
                "paper_f1": PAPER_TABLE6[algo][scenario],
                "our_f1": None if f1 is None else round(f1, 1),
            })
    return pd.DataFrame(rows)
