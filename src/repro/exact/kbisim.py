"""k-bisimulation signatures and the Weisfeiler-Lehman test.

Substrates for Section 4.3's relation theorems:

- Theorem 4: u and v are k-bisimilar (equal hash-refinement signatures
  ``sig_k``, Luo et al. [21], out-neighbors only) iff
  ``FSim_b^k(u, v) = 1`` with ``G1 = G2`` and ``w- = 0``.
- Theorem 5: the WL color-refinement test deems u, v equivalent iff
  ``FSim_bj(u, v) = 1`` on the undirected view.

Signatures are computed distributedly (join + sort_array + sha2 per
round); the Olap-like alignment baseline reads them level by level via
``kbisim_refine``. The WL refinement is a small driver-side kernel, the
Theorem-5 oracle of the tests.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..graphs.model import Graph

Pair = Tuple[int, int]


def kbisim_signatures(spark: SparkSession, g: Graph, k: int) -> DataFrame:
    """Per-node k-bisimulation signature: DataFrame ``(id, sig)``.

    ``sig_0 = label``; ``sig_i = kbisim_refine(g, sig_{i-1})``. Two
    nodes are k-bisimilar iff their ``sig_k`` match [21].
    """
    sig = g.nodes.select("id", F.col("label").alias("sig"))
    for _ in range(k):
        sig = kbisim_refine(g, sig)
    return sig


def kbisim_refine(g: Graph, sig: DataFrame) -> DataFrame:
    """One refinement round: ``sig_i = H(sig_{i-1} || sorted *set* of
    out-neighbors' sig_{i-1})``, from ``sig_{i-1}`` as ``(id, sig)``.

    The neighborhood is a set, not a multiset (Theorem 4's proof: "the
    set of signature values in u's neighborhood"), matching FSim_b's
    reuse-allowing mapping.
    """
    nbsig = (
        g.edges.join(
            sig.select(F.col("id").alias("dst"), F.col("sig").alias("nsig")),
            "dst",
        )
        .groupBy(F.col("src").alias("id"))
        .agg(F.sort_array(F.collect_set("nsig")).alias("nsigs"))
    )
    return (
        sig.join(nbsig, "id", "left")
        .select(
            "id",
            F.sha2(
                F.concat_ws("|", F.col("sig"), F.concat_ws(",", "nsigs")),
                256,
            ).alias("sig"),
        )
        .localCheckpoint()
    )


def kbisim_pairs(spark: SparkSession, g: Graph, k: int) -> DataFrame:
    """All k-bisimilar pairs ``(u, v)`` of one graph (self-join on sig)."""
    sig = kbisim_signatures(spark, g, k)
    a = sig.select(F.col("id").alias("u"), "sig")
    b = sig.select(F.col("id").alias("v"), "sig")
    return a.join(b, "sig").select("u", "v")


# ----------------------------------------------------------------- WL test

def wl_colors(labels: Dict[int, str], edges: List[Pair],
              max_iters: int = 50) -> Dict[int, int]:
    """Undirected WL color refinement until stable (or ``max_iters``).

    Returns the final color id per node; run both graphs through one
    call (disjoint-union ids) to compare across graphs.
    """
    adj: Dict[int, List[int]] = {u: [] for u in labels}
    for s, d in edges:
        adj[s].append(d)
        adj[d].append(s)
    palette: Dict[object, int] = {}

    def intern(key) -> int:
        if key not in palette:
            palette[key] = len(palette)
        return palette[key]

    color = {u: intern(("L", l)) for u, l in labels.items()}
    n_colors = len(set(color.values()))
    for _ in range(max_iters):
        new = {
            u: intern((color[u], tuple(sorted(color[n] for n in adj[u]))))
            for u in labels
        }
        new_n = len(set(new.values()))
        color = new
        if new_n == n_colors:
            break
        n_colors = new_n
    return color
