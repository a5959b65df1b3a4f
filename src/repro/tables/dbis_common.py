"""Shared DBIS venue-similarity computation for Tables 7 and 8.

Runs every similarity algorithm once over the DBIS-like graph and
returns venue->ranked-venue lists per algorithm:

- PCRW, PathSim, JoinSim: meta-path measures (``similarity/metapath``),
- nSimGram-like: q-gram cosine (``similarity/nsimgram``),
- FSim_b / FSim_bj: the framework at theta=0 without upper-bound
  updating (see the note on theta below).
"""
from __future__ import annotations

from typing import Dict, List

import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from ..core.fsim import fsim_spark
from ..core.reference import FSimConfig
from ..graphs.generators import DbisData, dbis_like
from ..similarity.metapath import joinsim, pathsim, pcrw
from ..similarity.nsimgram import nsimgram

ALGOS = ["PCRW", "PathSim", "JoinSim", "nSimGram", "FSim_b", "FSim_bj"]


def _rank_table(pdf: pd.DataFrame, names: Dict[int, str]) -> Dict[str, List[str]]:
    """Per source venue: other venues sorted by score desc (name tiebreak)."""
    out: Dict[str, List[str]] = {}
    for v1, grp in pdf.groupby("v1"):
        if int(v1) not in names:
            continue
        grp = grp[grp["v2"].astype(int).isin(names)]
        ranked = grp.sort_values(["score", "v2"], ascending=[False, True])
        out[names[int(v1)]] = [names[int(v)] for v in ranked["v2"].astype(int)]
    return out


def venue_rankings(
    spark: SparkSession, data: DbisData, *, w_star: float = 0.2,
    eps: float = 1e-2, theta: float = 0.0, q: int = 3,
) -> Dict[str, Dict[str, List[str]]]:
    g = data.graph
    names = dict(zip(data.venues["id"].astype(int), data.venues["name"]))
    venue_ids = spark.createDataFrame(
        data.venues[["id"]].astype({"id": "int64"}), schema="id long")

    rankings: Dict[str, Dict[str, List[str]]] = {}
    for algo, df in (("PCRW", pcrw(g)), ("PathSim", pathsim(g)),
                     ("JoinSim", joinsim(g))):
        rankings[algo] = _rank_table(df.toPandas(), names)
    ns = nsimgram(g, q=q, sources=venue_ids).toPandas()
    rankings["nSimGram"] = _rank_table(ns, names)

    # theta = 0: the paper's DBIS runs maintain ALL node pairs ("134060 x
    # 134060 pairs", Section 5.4 efficiency note), so differently-named
    # authors still compare structurally — that cross-name recursion is
    # what lets FSim rank venues beyond raw co-author overlap.
    w = (1.0 - w_star) / 2.0
    for variant in ("b", "bj"):
        cfg = FSimConfig(variant=variant, w_out=w, w_in=w, theta=theta,
                         label_fn="indicator", eps=eps,
                         max_pairs=20_000_000)
        scores = fsim_spark(spark, g, g, cfg)
        vv = (scores.join(venue_ids.withColumnRenamed("id", "u"), "u")
              .join(venue_ids.withColumnRenamed("id", "v"), "v")
              .select(F.col("u").alias("v1"), F.col("v").alias("v2"), "score")
              .toPandas())
        rankings[f"FSim_{variant}"] = _rank_table(vv, names)
    return rankings


def load_dbis(spark: SparkSession, *, n_venues: int = 60, n_papers: int = 400,
              n_authors: int = 300, seed: int = 11) -> DbisData:
    return dbis_like(spark, n_venues=n_venues, n_papers=n_papers,
                     n_authors=n_authors, seed=seed)
