"""Exact chi-simulation as a distributed anti-join fixpoint.

The classical refinement algorithm on Spark DataFrames: start from all
same-label pairs and repeatedly delete pairs violating the variant's
neighbor conditions until stable.

- ``s`` and ``b`` conditions are purely relational: "some u-neighbor has
  no simulating v-neighbor" is an anti-join of required rows against
  satisfied rows.
- ``dp`` and ``bj`` need an injective-matching existence test per pair
  (Definition 2/3), done exactly with Kuhn's algorithm inside a pandas
  UDF over the pair's surviving neighbor candidates.

Cross-checked against the Python reference (``exact/pysim.py``) in the
tests. No table calls it: Table 2's verdicts come from
``exact_simulation_py`` on the driver.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import BooleanType

from ..core.ops import kuhn_saturating
from ..graphs.model import Graph

VARIANTS = ("s", "dp", "b", "bj")


@F.pandas_udf(BooleanType())
def _saturating_udf(cands: pd.Series, d1s: pd.Series, d2s: pd.Series,
                    bijective: pd.Series) -> pd.Series:
    """Exact saturation check per (u, v): every u-neighbor matchable
    injectively into v-neighbors (and |N1| == |N2| for bj)."""
    out = []
    for cand, d1, d2, bij in zip(cands, d1s, d2s, bijective):
        d1, d2 = int(d1), int(d2)
        if bij and d1 != d2:
            out.append(False)
            continue
        if d1 == 0:
            out.append(True)
            continue
        adj: dict = {}
        if cand is not None:
            for item in cand:
                x = item["x"] if isinstance(item, dict) else item[0]
                y = item["y"] if isinstance(item, dict) else item[1]
                adj.setdefault(x, []).append(y)
        if len(adj) < d1:  # some neighbor has no candidate at all
            out.append(False)
            continue
        out.append(kuhn_saturating(list(adj.keys()), adj))
    return pd.Series(out)


def _bad_forward(r: DataFrame, e1d: DataFrame, e2d: DataFrame) -> DataFrame:
    """Pairs where some u-neighbor x has no v-neighbor y with (x,y) in R."""
    r2 = r.select(F.col("u").alias("x"), F.col("v").alias("y"))
    need = r.join(e1d, "u").select("u", "v", "x")
    sat = (
        need.join(e2d, "v")
        .join(r2, ["x", "y"])
        .select("u", "v", "x")
        .distinct()
    )
    return need.distinct().join(sat, ["u", "v", "x"], "left_anti") \
        .select("u", "v").distinct()


def _bad_backward(r: DataFrame, e1d: DataFrame, e2d: DataFrame) -> DataFrame:
    """Pairs where some v-neighbor y has no u-neighbor x with (x,y) in R."""
    r2 = r.select(F.col("u").alias("x"), F.col("v").alias("y"))
    need = r.join(e2d, "v").select("u", "v", "y")
    sat = (
        need.join(e1d, "u")
        .join(r2, ["x", "y"])
        .select("u", "v", "y")
        .distinct()
    )
    return need.distinct().join(sat, ["u", "v", "y"], "left_anti") \
        .select("u", "v").distinct()


def _matching_keep(r: DataFrame, e1d: DataFrame, e2d: DataFrame,
                   deg1: DataFrame, deg2: DataFrame,
                   bijective: bool) -> DataFrame:
    """Pairs of R passing the exact injective-matching test (one direction)."""
    r2 = r.select(F.col("u").alias("x"), F.col("v").alias("y"))
    rows = r.join(e1d, "u").join(e2d, "v").join(r2, ["x", "y"])
    agg = rows.groupBy("u", "v").agg(
        F.collect_list(F.struct("x", "y")).alias("cand"))
    checked = (
        r.join(agg, ["u", "v"], "left")
        .join(deg1, "u").join(deg2, "v")
        .withColumn(
            "ok",
            _saturating_udf(
                F.col("cand"), F.col("d1"), F.col("d2"), F.lit(bijective)),
        )
    )
    return checked.filter("ok").select("u", "v")


def exact_simulation_spark(spark: SparkSession, g1: Graph, g2: Graph,
                           variant: str = "s", max_rounds: int = 200) -> DataFrame:
    """Maximal chi-simulation relation R as a DataFrame ``(u, v)``."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of "
                         f"{VARIANTS}")
    r = (
        g1.nodes.select(F.col("id").alias("u"), "label")
        .join(g2.nodes.select(F.col("id").alias("v"), "label"), "label")
        .select("u", "v")
        .localCheckpoint()
    )
    e1o = g1.out_edges().withColumnsRenamed({"nbr": "x"})
    e1i = g1.in_edges().withColumnsRenamed({"nbr": "x"})
    e2o = g2.out_edges().withColumnsRenamed({"u": "v", "nbr": "y"})
    e2i = g2.in_edges().withColumnsRenamed({"u": "v", "nbr": "y"})
    d1 = g1.degrees()
    d2 = g2.degrees()
    d1o = d1.select(F.col("id").alias("u"), F.col("dout").alias("d1"))
    d1i = d1.select(F.col("id").alias("u"), F.col("din").alias("d1"))
    d2o = d2.select(F.col("id").alias("v"), F.col("dout").alias("d2"))
    d2i = d2.select(F.col("id").alias("v"), F.col("din").alias("d2"))

    size = r.count()
    for _ in range(max_rounds):
        if variant in ("s", "b"):
            bad = _bad_forward(r, e1o, e2o).unionByName(
                _bad_forward(r, e1i, e2i))
            if variant == "b":
                bad = bad.unionByName(_bad_backward(r, e1o, e2o)).unionByName(
                    _bad_backward(r, e1i, e2i))
            new_r = r.join(bad.distinct(), ["u", "v"], "left_anti")
        else:
            bij = variant == "bj"
            keep_o = _matching_keep(r, e1o, e2o, d1o, d2o, bij)
            keep_i = _matching_keep(r, e1i, e2i, d1i, d2i, bij)
            new_r = r.join(keep_o, ["u", "v"]).join(keep_i, ["u", "v"])
        new_r = new_r.localCheckpoint()
        new_size = new_r.count()
        r = new_r
        if new_size == size:
            break
        size = new_size
    return r
