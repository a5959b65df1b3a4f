"""Labeled directed graph on Spark DataFrames.

The paper's data model (Section 2): ``G = (V, E, l)`` with ``V`` a node
set, ``E`` directed edges and ``l : V -> Sigma`` a labeling function.
Here a :class:`Graph` holds two DataFrames:

- ``nodes``: columns ``id:long, label:string`` (one row per node),
- ``edges``: columns ``src:long, dst:long`` (one row per directed edge).

The Spark algorithms (FSim and the meta-path and nSimGram baselines)
consume this representation. Helpers compute degrees and the Table-4
statistics. :class:`AdjGraph` is the driver-side adjacency-list form
that every small Python kernel, exact simulation and colour refinement
included, reads.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Mapping, Tuple

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

NODE_SCHEMA = "id long, label string"
EDGE_SCHEMA = "src long, dst long"


@dataclass(frozen=True)
class Graph:
    """A node-labeled directed graph backed by Spark DataFrames."""

    nodes: DataFrame
    edges: DataFrame

    # ---------------------------------------------------------------- build
    @staticmethod
    def from_pandas(
        spark: SparkSession, nodes: pd.DataFrame, edges: pd.DataFrame
    ) -> "Graph":
        """Create a Graph from pandas frames (``id,label`` / ``src,dst``)."""
        n = spark.createDataFrame(nodes[["id", "label"]], schema=NODE_SCHEMA)
        if len(edges) == 0:
            e = spark.createDataFrame([], schema=EDGE_SCHEMA)
        else:
            e = spark.createDataFrame(edges[["src", "dst"]], schema=EDGE_SCHEMA)
        return Graph(n, e)

    @staticmethod
    def from_edge_list(
        spark: SparkSession,
        labels: Dict[int, str],
        edge_list: List[Tuple[int, int]],
    ) -> "Graph":
        """Create a Graph from a ``{id: label}`` dict and ``(src, dst)`` list."""
        nodes = pd.DataFrame(
            {"id": list(labels.keys()), "label": list(labels.values())}
        )
        edges = pd.DataFrame(edge_list, columns=["src", "dst"], dtype="int64")
        return Graph.from_pandas(spark, nodes, edges)

    # ---------------------------------------------------------------- views
    def out_edges(self) -> DataFrame:
        """Edges as ``(u, nbr)`` where ``nbr`` is an out-neighbor of ``u``."""
        return self.edges.select(F.col("src").alias("u"), F.col("dst").alias("nbr"))

    def in_edges(self) -> DataFrame:
        """Edges as ``(u, nbr)`` where ``nbr`` is an in-neighbor of ``u``."""
        return self.edges.select(F.col("dst").alias("u"), F.col("src").alias("nbr"))

    def degrees(self) -> DataFrame:
        """Per-node out/in degrees: ``(id, label, dout, din)``; absent = 0."""
        dout = self.edges.groupBy(F.col("src").alias("id")).agg(
            F.count("*").alias("dout")
        )
        din = self.edges.groupBy(F.col("dst").alias("id")).agg(
            F.count("*").alias("din")
        )
        return (
            self.nodes.join(dout, "id", "left")
            .join(din, "id", "left")
            .select(
                "id",
                "label",
                F.coalesce("dout", F.lit(0)).cast("long").alias("dout"),
                F.coalesce("din", F.lit(0)).cast("long").alias("din"),
            )
        )

    def stats(self) -> Dict[str, float]:
        """Table-4 statistics: |V|, |E|, |Sigma|, avg degree, max out/in degree."""
        n_nodes = self.nodes.count()
        n_edges = self.edges.count()
        n_labels = self.nodes.select("label").distinct().count()
        row = self.degrees().agg(
            F.max("dout").alias("max_dout"), F.max("din").alias("max_din")
        ).first()
        # the paper's d_G is |E| / |V| (cf. Yeast: 7182/2361 ~= 3)
        avg_deg = (n_edges / n_nodes) if n_nodes else 0.0
        return {
            "V": n_nodes,
            "E": n_edges,
            "labels": n_labels,
            "avg_degree": avg_deg,
            "max_out_degree": int(row["max_dout"] or 0),
            "max_in_degree": int(row["max_din"] or 0),
        }

    def validate(self) -> None:
        """Raise ``ValueError`` on duplicate node ids or dangling edge endpoints."""
        n = self.nodes.count()
        n_ids = self.nodes.select("id").distinct().count()
        if n_ids != n:
            raise ValueError(f"{n - n_ids} duplicate node ids")
        ids = self.nodes.select("id")
        dangling = (
            self.edges.join(ids, self.edges.src == ids.id, "left_anti").count()
            + self.edges.join(ids, self.edges.dst == ids.id, "left_anti").count()
        )
        if dangling:
            raise ValueError(f"{dangling} dangling edge endpoints")


class AdjGraph:
    """Driver-side adjacency lists: the one graph every small Python
    kernel reads (the FSim reference, exact and strong simulation,
    k-bisimulation and WL colour refinement, seed and expand, and the
    Table-6/9 baselines).

    ``label`` maps node id -> label; ``out``/``inn`` map node id -> its
    out-/in-neighbours in edge order; ``nbrs`` maps node id -> its
    neighbours on both sides, tagged ``"out"`` or ``"in"``, in edge
    order. The greedy kernels break ties by these orders, so the orders
    are part of their output. Built from a ``{id: label}`` map and
    ``(src, dst)`` pairs; an edge endpoint absent from the map raises
    ``ValueError``.
    """

    def __init__(self, labels: Mapping[int, str],
                 edges: Iterable[Tuple[int, int]]) -> None:
        self.label: Dict[int, str] = dict(labels)
        self.out: Dict[int, List[int]] = {u: [] for u in self.label}
        self.inn: Dict[int, List[int]] = {u: [] for u in self.label}
        self.nbrs: Dict[int, List[Tuple[int, str]]] = {u: [] for u in self.label}
        for s, d in edges:
            for x in (s, d):
                if x not in self.label:
                    raise ValueError(
                        f"dangling edge endpoint {x} in edge ({s}, {d})")
            self.out[s].append(d)
            self.inn[d].append(s)
            self.nbrs[s].append((d, "out"))
            self.nbrs[d].append((s, "in"))

    @staticmethod
    def build(nodes_pd: pd.DataFrame, edges_pd: pd.DataFrame) -> "AdjGraph":
        """From pandas frames (``id,label`` / ``src,dst``)."""
        return AdjGraph(
            dict(zip(nodes_pd["id"].astype(int), nodes_pd["label"])),
            zip(edges_pd["src"].astype(int), edges_pd["dst"].astype(int)))

    def step(self, u: int, direction: str) -> List[int]:
        """``u``'s neighbours in one ``nbrs`` direction (``"out"``/``"in"``)."""
        return self.out[u] if direction == "out" else self.inn[u]

    @cached_property
    def by_label(self) -> Dict[str, List[int]]:
        """Label -> the node ids carrying it, in node order."""
        idx: Dict[str, List[int]] = {}
        for u, lab in self.label.items():
            idx.setdefault(lab, []).append(u)
        return idx

    def bfs(self, src: int) -> Dict[int, int]:
        """Undirected hop distance of every node reachable from ``src``,
        keyed in visit order (neighbours in ``nbrs`` order)."""
        dist = {src: 0}
        queue = deque([src])
        while queue:
            x = queue.popleft()
            for y, _ in self.nbrs[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        return dist

    def bfs_order(self) -> List[int]:
        """Undirected BFS order from the first node of maximum degree;
        nodes it does not reach follow in node order."""
        start = max(self.label, key=lambda u: len(self.nbrs[u]))
        seen = self.bfs(start)
        return list(seen) + [u for u in self.label if u not in seen]
