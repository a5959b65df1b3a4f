"""Section 4.3 configurations: SimRank and RoleSim inside FSimX.

The paper shows the framework subsumes both similarity measures:

- SimRank: ``G1 = G2``, label-free (L = 0), ``w+ = 0``, ``w- = C``
  (decay), ``M = S1 x S2``, ``Omega = |S1||S2|``, diagonal pinned at 1.
- RoleSim: undirected (out-edges hold the symmetrized neighbors,
  ``w- = 0``), ``L = 1`` everywhere so the label term is the RoleSim
  ``beta``, bj's mapping/normalizing operators, and the degree-ratio
  initialization ``min(d_u, d_v) / max(d_u, d_v)``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..graphs.model import Graph
from .fsim import fsim_spark
from .reference import FSimConfig


def symmetrize(g: Graph) -> Graph:
    """Undirected view: every edge present in both directions, no dups."""
    fwd = g.edges.select("src", "dst")
    bwd = g.edges.select(F.col("dst").alias("src"), F.col("src").alias("dst"))
    return Graph(g.nodes, fwd.unionByName(bwd).distinct())


def simrank(spark: SparkSession, g: Graph, *, decay: float = 0.8,
            iters: int = 10) -> DataFrame:
    """SimRank scores of all node pairs of ``g`` via the FSimX engine."""
    cfg = FSimConfig(
        variant="simrank", w_out=0.0, w_in=decay,
        label_fn=lambda a, b: 0.0, theta=0.0, exact_iters=iters,
    )
    ids1 = g.nodes.select(F.col("id").alias("u"))
    ids2 = g.nodes.select(F.col("id").alias("v"))
    init = ids1.crossJoin(ids2).select(
        "u", "v",
        F.when(F.col("u") == F.col("v"), F.lit(1.0)).otherwise(F.lit(0.0))
        .alias("score"),
    )
    return fsim_spark(spark, g, g, cfg, init=init)


def rolesim(spark: SparkSession, g: Graph, *, beta: float = 0.2,
            eps: float = 1e-2, max_iter: int = 30) -> DataFrame:
    """RoleSim-style axiomatic role similarity via the bj configuration."""
    und = symmetrize(g)
    cfg = FSimConfig(
        variant="bj", w_out=1.0 - beta, w_in=0.0,
        label_fn=lambda a, b: 1.0, theta=0.0, eps=eps, max_iter=max_iter,
    )
    deg = und.degrees().select(F.col("id"), F.col("dout").alias("d"))
    d1 = deg.select(F.col("id").alias("u"), F.col("d").alias("du"))
    d2 = deg.select(F.col("id").alias("v"), F.col("d").alias("dv"))
    init = d1.crossJoin(d2).select(
        "u", "v",
        F.when((F.col("du") == 0) & (F.col("dv") == 0), F.lit(1.0))
        .otherwise(
            F.least("du", "dv").cast("double")
            / F.greatest(F.greatest("du", "dv"), F.lit(1)).cast("double")
        ).alias("score"),
    )
    return fsim_spark(spark, und, und, cfg, init=init)
