"""Table 9 — alignment F1 of evolving graph versions (G1-G2, G1-G3).

Algorithms: 2-/4-bisimulation alignment, Olap-like, GSANA-like,
FINAL-like, EWS-like, and FSim_b / FSim_bj {ub, theta=1}. Shape to
reproduce: FSim variants dominate every baseline by a wide margin;
exact-bisimulation-family methods (x-bisim, Olap) and positional GSANA
trail far behind; EWS and FINAL land in between.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from ..align.baselines import (ews_align_f1, final_align_f1, gsana_align_f1,
                               kbisim_align_f1, olap_align_f1)
from ..align.harness import fsim_align_f1
from ..graphs.generators import evolving_graphs_pd
from ..graphs.model import AdjGraph, Graph

#: Paper Table 9 (F1 %).
PAPER_TABLE9 = {
    "G1-G2": {"2-bisim": 19.9, "4-bisim": 9.1, "Olap": 37.9, "GSANA": 11.8,
              "FINAL": 55.2, "EWS": 70.8, "FSim_b": 97.6, "FSim_bj": 96.5},
    "G1-G3": {"2-bisim": 53.0, "4-bisim": 10.9, "Olap": 37.6, "GSANA": 14.9,
              "FINAL": 52.7, "EWS": 65.3, "FSim_b": 96.9, "FSim_bj": 95.6},
}


def run(spark: SparkSession, *, n_nodes: int = 500, n_edges: int = 1100,
        seed: int = 23, w_star: float = 0.2, eps: float = 1e-2,
        beta: float = 0.3) -> pd.DataFrame:
    versions = evolving_graphs_pd(n_nodes=n_nodes, n_edges=n_edges,
                                  n_labels=8, n_versions=3, seed=seed)
    # the engine reads Spark graphs, the baselines driver-side ones
    g1, g2, g3 = (Graph.from_pandas(spark, n, e) for n, e in versions)
    a1, a2, a3 = (AdjGraph.build(n, e) for n, e in versions)
    rows = []
    for pair_name, other, a_other in (("G1-G2", g2, a2), ("G1-G3", g3, a3)):
        measured = {
            "2-bisim": kbisim_align_f1(a1, a_other, 2),
            "4-bisim": kbisim_align_f1(a1, a_other, 4),
            "Olap": olap_align_f1(a1, a_other),
            "GSANA": gsana_align_f1(a1, a_other),
            "FINAL": final_align_f1(a1, a_other),
            "EWS": ews_align_f1(a1, a_other),
            "FSim_b": fsim_align_f1(spark, g1, other, "b", w_star=w_star,
                                    eps=eps, upper_bound=True, beta=beta),
            "FSim_bj": fsim_align_f1(spark, g1, other, "bj", w_star=w_star,
                                     eps=eps, upper_bound=True, beta=beta),
        }
        for algo, f1 in measured.items():
            rows.append({"graphs": pair_name, "algorithm": algo,
                         "paper_f1": PAPER_TABLE9[pair_name][algo],
                         "our_f1": round(f1, 1)})
    return pd.DataFrame(rows)
