"""Graph-alignment harness for the Table-9 case study.

A node ``u`` of G1 is aligned to ``A_u = argmax_v FSim_chi(u, v)`` (a
*set* — ties are kept, as in the paper), and quality is the paper's F1:

    F1 = sum_u 2 P_u R_u / (|V1| (P_u + R_u)),
    P_u = 1/|A_u| and R_u = 1 when A_u contains the ground truth,
    else P_u = R_u = 0.

Ground truth for our evolving synthetic versions is the identity map on
shared node ids (URIs never change in the paper's RDF versions either).
"""
from __future__ import annotations

from typing import Dict, Iterable, Set

import pandas as pd
from pyspark.sql import SparkSession

from ..core.fsim import fsim_spark
from ..core.reference import FSimConfig
from ..graphs.model import Graph


def argmax_alignment(scores: pd.DataFrame, tol: float = 1e-9) -> Dict[int, Set[int]]:
    """``u -> {v : score(u, v) within tol of max_v score(u, v)}``."""
    out: Dict[int, Set[int]] = {}
    for u, grp in scores.groupby("u"):
        m = grp["score"].max()
        out[int(u)] = set(grp.loc[grp["score"] >= m - tol, "v"].astype(int))
    return out


def f1_alignment(align: Dict[int, Set[int]], truth: Dict[int, int],
                 n_total: int) -> float:
    """The paper's alignment F1 (percent) over ``n_total`` = |V1| nodes."""
    total = 0.0
    for u, t in truth.items():
        a = align.get(u, set())
        if t in a:
            p = 1.0 / len(a)
            r = 1.0
            total += 2 * p * r / (p + r)
    return 100.0 * total / n_total


def identity_f1(align: Dict[int, Set[int]], ids: Iterable[int]) -> float:
    """``f1_alignment`` against the identity map on G1's node ``ids``."""
    truth = {int(i): int(i) for i in ids}
    return f1_alignment(align, truth, len(truth))


def fsim_align_f1(spark: SparkSession, g1: Graph, g2: Graph, variant: str,
                  *, eps: float = 1e-2) -> float:
    """Align g1 to g2 with Table 9's FSim_variant{theta=1, ub} (paper
    default weights, alpha = 0, beta = 0.3) and return F1."""
    cfg = FSimConfig(variant=variant, theta=1.0, eps=eps,
                     upper_bound=True, beta=0.3)
    pdf = fsim_spark(spark, g1, g2, cfg).toPandas()
    return identity_f1(argmax_alignment(pdf),
                       g1.nodes.select("id").toPandas()["id"])
