"""Table 4 — dataset statistics, paper vs scaled synthetic stand-ins.

For each of the eight datasets: generate the synthetic substitute at
``scale`` and compute |V|, |E|, |Sigma|, average degree and max out/in
degree from its node and edge frames, next to the paper's recorded
values. No Spark job runs.
"""
from __future__ import annotations

from typing import Dict

import pandas as pd

from ..graphs.generators import (DATASET_SPECS, PAPER_TABLE4,
                                 PAPER_TABLE4_DEGREES, dataset_pd)


def stats(nodes: pd.DataFrame, edges: pd.DataFrame) -> Dict[str, float]:
    """|V|, |E|, |Sigma|, average degree and max out/in degree."""
    return {
        "V": len(nodes),
        "E": len(edges),
        "labels": nodes["label"].nunique(),
        # the paper's d_G is |E| / |V| (cf. Yeast: 7182/2361 ~= 3)
        "avg_degree": len(edges) / len(nodes),
        "max_out_degree": edges["src"].value_counts().max(),
        "max_in_degree": edges["dst"].value_counts().max(),
    }


def run(*, scale: float) -> pd.DataFrame:
    rows = []
    for name in DATASET_SPECS:
        s = stats(*dataset_pd(name, scale=scale))
        paper = PAPER_TABLE4[name]
        pd_deg = PAPER_TABLE4_DEGREES[name]
        rows.append({
            "dataset": name,
            "paper_V": paper["V"], "our_V": s["V"],
            "paper_E": paper["E"], "our_E": s["E"],
            "paper_labels": paper["labels"], "our_labels": s["labels"],
            "paper_avg_deg": pd_deg[0], "our_avg_deg": round(s["avg_degree"], 1),
            "paper_max_dout": pd_deg[1], "our_max_dout": s["max_out_degree"],
            "paper_max_din": pd_deg[2], "our_max_din": s["max_in_degree"],
        })
    return pd.DataFrame(rows)
