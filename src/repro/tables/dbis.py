"""Tables 7 and 8 — the DBIS venue-similarity case study (Section 5.4).

One run ranks, per algorithm, every venue of the DBIS-like graph
against the others, and both tables read those rankings:

- PCRW, PathSim, JoinSim: meta-path measures (``similarity/metapath``),
- nSimGram-like: q-gram cosine (``similarity/nsimgram``),
- FSim_b / FSim_bj: the framework at theta=0 without upper-bound
  updating (see the note on theta in :func:`venue_rankings`).

Table 7 — top-5 venues most similar to WWW. Shape to reproduce: every
algorithm puts WWW itself first and related venues (CIKM/SIGIR/...)
high, but only FSim_bj surfaces all the WWW near-duplicates
(WWW_1..WWW_3) inside its top-5.

Table 8 — nDCG of venue-similarity ranking over subject venues. For
each of 15 subject venues, take the top-15 most similar venues per
algorithm; relevance of a returned venue is 2 (same area, tier 1), 1
(same area) or 0, from the generator's area/tier ground truth; report
mean nDCG@15. Shape: FSim_bj wins, FSim_b is competitive with the
meta-path baselines. The subject venue itself is excluded from its
ranking (it carries the same constant gain for every algorithm); the
WWW duplicates are distinct nodes and count as relevant results.
"""
from __future__ import annotations

import math
from typing import Dict, List

import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from ..core.fsim import fsim_spark
from ..core.reference import FSimConfig
from ..graphs.generators import SUBJECT_VENUES, dbis_like_pd
from ..graphs.model import Graph
from ..similarity.metapath import joinsim, pathsim, pcrw
from ..similarity.nsimgram import nsimgram
from .runner import make_session

ALGOS = ["PCRW", "PathSim", "JoinSim", "nSimGram", "FSim_b", "FSim_bj"]

#: The generator's seed, nSimGram's walk length, and the nDCG cut-off.
SEED = 11
Q = 3
K = 15

#: Paper Table 7 columns.
PAPER_TABLE7 = {
    "PCRW": ["WWW", "SIGIR", "ICDE", "VLDB", "Hypertext"],
    "PathSim": ["WWW", "CIKM", "SIGKDD", "WISE", "ICDM"],
    "JoinSim": ["WWW", "WWW_1", "CIKM", "WSDM", "WWW_2"],
    "nSimGram": ["WWW", "CIKM", "SIGIR", "WWW_1", "SIGKDD"],
    "FSim_b": ["WWW", "CIKM", "ICDE", "VLDB", "SIGIR"],
    "FSim_bj": ["WWW", "WWW_1", "CIKM", "WWW_2", "WWW_3"],
}

#: Paper Table 8 (mean nDCG): PCRW, PathSim, JoinSim, nSimGram, FSim_b, FSim_bj.
PAPER_TABLE8 = {"PCRW": 0.684, "PathSim": 0.684, "JoinSim": 0.689,
                "nSimGram": 0.700, "FSim_b": 0.699, "FSim_bj": 0.733}


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
    spark: SparkSession, g: Graph, venues: pd.DataFrame, *, eps: float,
) -> Dict[str, Dict[str, List[str]]]:
    """Per algorithm: venue name -> the other venues, most similar first."""
    names = dict(zip(venues["id"].astype(int), venues["name"]))
    venue_ids = spark.createDataFrame(
        venues[["id"]].astype({"id": "int64"}), schema="id long")

    rankings: Dict[str, Dict[str, List[str]]] = {}
    for algo, df in (("PCRW", pcrw(g)), ("PathSim", pathsim(g)),
                     ("JoinSim", joinsim(g))):
        rankings[algo] = _rank_table(df.toPandas(), names)
    ns = nsimgram(g, q=Q, sources=venue_ids).toPandas()
    rankings["nSimGram"] = _rank_table(ns, names)

    # theta = 0 (the default): the paper's DBIS runs maintain ALL node pairs ("134060 x
    # 134060 pairs", Section 5.4 efficiency note), so differently-named
    # authors still compare structurally — that cross-name recursion is
    # what lets FSim rank venues beyond raw co-author overlap.
    for variant in ("b", "bj"):
        cfg = FSimConfig(variant=variant, eps=eps)
        scores = fsim_spark(spark, g, g, cfg)
        vv = (scores.join(venue_ids.withColumnRenamed("id", "u"), "u")
              .join(venue_ids.withColumnRenamed("id", "v"), "v")
              .select(F.col("u").alias("v1"), F.col("v").alias("v2"), "score")
              .toPandas())
        rankings[f"FSim_{variant}"] = _rank_table(vv, names)
    return rankings


def _relevance(venues: pd.DataFrame) -> Dict[str, Dict[str, int]]:
    area = dict(zip(venues["name"], venues["area"]))
    tier = dict(zip(venues["name"], venues["tier"]))
    rel: Dict[str, Dict[str, int]] = {}
    for s in venues["name"]:
        rel[s] = {}
        for v in venues["name"]:
            if area[v] == area[s]:
                rel[s][v] = 2 if tier[v] == 1 else 1
            else:
                rel[s][v] = 0
    return rel


def ndcg_at_k(ranked: List[str], rel: Dict[str, int]) -> float:
    gains = [rel.get(v, 0) for v in ranked[:K]]
    dcg = sum((2 ** g - 1) / math.log2(i + 2) for i, g in enumerate(gains))
    ideal = sorted(rel.values(), reverse=True)[:K]
    idcg = sum((2 ** g - 1) / math.log2(i + 2) for i, g in enumerate(ideal))
    return dcg / idcg if idcg > 0 else 0.0


def _table7(rankings: Dict[str, Dict[str, List[str]]]) -> pd.DataFrame:
    rows = []
    for rank in range(5):
        row = {"rank": rank + 1}
        for algo in ALGOS:
            ranked = rankings[algo].get("WWW", [])
            row[f"paper_{algo}"] = PAPER_TABLE7[algo][rank]
            row[f"our_{algo}"] = ranked[rank] if rank < len(ranked) else "-"
        rows.append(row)
    return pd.DataFrame(rows)


def _table8(rankings: Dict[str, Dict[str, List[str]]],
            venues: pd.DataFrame) -> pd.DataFrame:
    rel = _relevance(venues)
    subjects = [s for s in SUBJECT_VENUES if s in rel]
    rows = []
    for algo in ALGOS:
        scores = []
        for s in subjects:
            ranked = [v for v in rankings[algo].get(s, []) if v != s]
            r = dict(rel[s])
            r.pop(s, None)
            scores.append(ndcg_at_k(ranked, r))
        rows.append({
            "algorithm": algo,
            "paper_ndcg": PAPER_TABLE8[algo],
            "our_ndcg": round(sum(scores) / len(scores), 3) if scores else None,
        })
    return pd.DataFrame(rows)


def run(*, n_venues: int, n_papers: int, n_authors: int,
        eps: float = 1e-2) -> Dict[str, pd.DataFrame]:
    """Both tables from one set of venue rankings:
    ``{"table7": ..., "table8": ...}``."""
    spark = make_session()
    nodes, edges, venues = dbis_like_pd(n_venues=n_venues, n_papers=n_papers,
                                        n_authors=n_authors, seed=SEED)
    rankings = venue_rankings(spark, Graph.from_pandas(spark, nodes, edges),
                              venues, eps=eps)
    return {"table7": _table7(rankings), "table8": _table8(rankings, venues)}
