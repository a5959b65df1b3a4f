"""nSimGram-like q-gram node similarity (case-study baseline).

Conte et al. [43] measure node similarity by comparing the multisets of
label q-grams realized by walks around each node. We implement the
same idea relationally: enumerate undirected walks of length <= q from
each source node, concatenate the labels along the walk into a gram
string, count grams per node, and score node pairs by cosine similarity
of their gram-count vectors. A simplified but faithful-in-spirit
stand-in for the authors' FPT sampling algorithm (DESIGN.md §3).
"""
from __future__ import annotations

from typing import Optional

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.configs import symmetrize
from ..graphs.model import Graph


def gram_counts(g: Graph, q: int = 3,
                sources: Optional[DataFrame] = None) -> DataFrame:
    """Per-node gram counts ``(id, gram, cnt)`` for walks of length < q.

    ``sources`` optionally restricts the start nodes (e.g. venues only),
    keeping the walk expansion linear in the relevant subgraph.
    """
    lab = g.nodes.select("id", "label")
    start = sources.join(lab, "id") if sources is not None else lab
    und = symmetrize(g).edges
    # frontier: (id, cur, gram) — walk from id currently at node cur
    frontier = start.select("id", F.col("id").alias("cur"),
                            F.col("label").alias("gram"))
    grams = frontier.select("id", "gram")
    for _ in range(1, q):
        frontier = (
            frontier.join(und, frontier.cur == und.src)
            .join(lab.select(F.col("id").alias("nxt"), F.col("label").alias("nlab")),
                  F.col("dst") == F.col("nxt"))
            .select("id", F.col("nxt").alias("cur"),
                    F.concat_ws(">", "gram", "nlab").alias("gram"))
        )
        grams = grams.unionByName(frontier.select("id", "gram"))
    return grams.groupBy("id", "gram").agg(F.count("*").cast("double").alias("cnt"))


def cosine_similarity(counts: DataFrame) -> DataFrame:
    """All-pairs cosine similarity of gram-count vectors: ``(v1, v2, score)``."""
    norms = counts.groupBy("id").agg(
        F.sqrt(F.sum(F.col("cnt") * F.col("cnt"))).alias("norm"))
    a = counts.select(F.col("id").alias("v1"), "gram", F.col("cnt").alias("c1"))
    b = counts.select(F.col("id").alias("v2"), "gram", F.col("cnt").alias("c2"))
    dots = (a.join(b, "gram")
            .groupBy("v1", "v2").agg(F.sum(F.col("c1") * F.col("c2")).alias("dot")))
    return (
        dots.join(norms.select(F.col("id").alias("v1"), F.col("norm").alias("n1")), "v1")
        .join(norms.select(F.col("id").alias("v2"), F.col("norm").alias("n2")), "v2")
        .select("v1", "v2", (F.col("dot") / (F.col("n1") * F.col("n2"))).alias("score"))
    )


def nsimgram(g: Graph, q: int = 3, sources: Optional[DataFrame] = None) -> DataFrame:
    """q-gram cosine similarity between (source) nodes."""
    return cosine_similarity(gram_counts(g, q=q, sources=sources))
