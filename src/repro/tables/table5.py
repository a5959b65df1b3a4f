"""Table 5 — sensitivity of FSim_chi to the initialization function.

Protocol (Section 5.2): on the NELL-like graph, compute FSim_chi for
every variant under each label function L_I (indicator), L_E
(normalized edit distance) and L_J (Jaro-Winkler), then report
Pearson's correlation between the score vectors of each pair of label
functions. The paper finds all coefficients > 0.92 — FSim is not
sensitive to the initialization choice — and that is the shape to
reproduce.

theta = 0 (the paper's sensitivity default), so the candidate set is
identical across label functions and vectors align pair-for-pair.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..core.fsim import fsim_spark
from ..core.reference import FSimConfig
from ..graphs.generators import dataset_pd
from ..graphs.model import Graph
from .runner import make_session

VARIANTS = ["s", "dp", "b", "bj"]
LABEL_FNS = {"L_I": "indicator", "L_E": "edit", "L_J": "jaro_winkler"}
PAIRS = [("L_I", "L_E"), ("L_I", "L_J"), ("L_J", "L_E")]
SEED = 7

#: Paper Table 5 (NELL): rows L_I-L_E / L_I-L_J / L_J-L_E per variant.
PAPER_TABLE5 = {
    ("L_I", "L_E"): {"s": 0.990, "dp": 0.982, "b": 0.979, "bj": 0.969},
    ("L_I", "L_J"): {"s": 0.967, "dp": 0.950, "b": 0.937, "bj": 0.922},
    ("L_J", "L_E"): {"s": 0.985, "dp": 0.977, "b": 0.975, "bj": 0.962},
}


def _scores(spark: SparkSession, g: Graph, variant: str, label_fn: str,
            eps: float) -> pd.Series:
    cfg = FSimConfig(variant=variant, label_fn=label_fn, eps=eps)
    pdf = fsim_spark(spark, g, g, cfg).toPandas()
    return pdf.set_index(["u", "v"])["score"].sort_index()


def run(*, scale: float, eps: float = 1e-2) -> pd.DataFrame:
    spark = make_session()
    g = Graph.from_pandas(spark, *dataset_pd("NELL", scale=scale, seed=SEED,
                                             label_style="words"))
    rows = []
    for variant in VARIANTS:
        vecs = {
            name: _scores(spark, g, variant, fn, eps)
            for name, fn in LABEL_FNS.items()
        }
        for a, b in PAIRS:
            va, vb = vecs[a].align(vecs[b], join="inner")
            r = float(np.corrcoef(va.to_numpy(), vb.to_numpy())[0, 1])
            rows.append({
                "pair": f"{a}-{b}", "variant": variant,
                "paper_pearson": PAPER_TABLE5[(a, b)][variant],
                "our_pearson": round(r, 3),
            })
    return pd.DataFrame(rows)
