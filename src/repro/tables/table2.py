"""Table 2 — exact verdicts + fractional scores on the Figure-1 toy.

For each variant chi and each pair (u, v_i): whether u is chi-simulated
by v_i (exact fixpoint) and FSim_chi(u, v_i) from the framework. The
verdict grid must match the paper cell-for-cell; fractional scores are
reported side-by-side (the paper's exact values depend on unstated
figure details and weights, so only the shape — 1.00 on checkmarks,
high-but-below-1 near-misses — is comparable).
"""
from __future__ import annotations

import pandas as pd

from ..core.fsim import fsim_spark
from ..core.reference import FSimConfig
from ..exact.pysim import exact_simulation_py
from ..graphs.toy import PAPER_TABLE2, U, V, figure1_graphs, figure1_py
from .runner import make_session

VARIANTS = ["s", "dp", "b", "bj"]

#: convergence tolerance (tighter than the paper's 0.01)
EPS = 1e-3


def run() -> pd.DataFrame:
    spark = make_session()
    g1, g2 = figure1_graphs(spark)
    l1, e1, l2, e2 = figure1_py()
    rows = []
    for variant in VARIANTS:
        cfg = FSimConfig(variant=variant, eps=EPS)
        got = {(r["u"], r["v"]): r["score"]
               for r in fsim_spark(spark, g1, g2, cfg).collect()}
        relation = exact_simulation_py(l1, e1, l2, e2, variant)
        for name, v in V.items():
            paper_verdict, paper_score = PAPER_TABLE2[variant][name]
            rows.append({
                "variant": variant,
                "pair": f"(u,{name})",
                "paper_verdict": paper_verdict,
                "paper_score": paper_score,
                "our_verdict": (U, v) in relation,
                "our_score": round(got[(U, v)], 3),
            })
    return pd.DataFrame(rows)
