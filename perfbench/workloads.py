"""The benchmark's workloads: inputs from a seed, one solve, its reference.

A *solve* is one complete user computation on inputs that are already
built: the engine runs to convergence (eps = 1e-2, max_iter 60) and the
solve ends when the result the user reads, an F1, is on the driver. The scores the output check needs are collected afterwards,
outside the timed region, from the engine's checkpointed frames.

Each workload has one fixed base instance. ``--seed`` permutes its node
ids and the row order of its node and edge frames, so every seed gives
other inputs (ids, hash partitioning, tie-breaks) with the same work:
the same candidate pairs up to renaming and the same iteration count.
Fresh generator seeds change both by 10-20% and would make run-to-run
spread measure the input, not the system.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

import repro.matching.harness as matching
from repro.align.harness import argmax_alignment, f1_alignment
from repro.core.fsim import fsim_spark
from repro.core.reference import FSimConfig, fsim_reference
from repro.graphs.generators import dataset_pd
from repro.graphs.model import AdjGraph, Graph
from repro.graphs.noise import make_workload, noise_query

from check import Scores, to_frame, to_scores
from trace import NullTracer

Pair = Tuple[int, int]


@dataclass
class Inputs:
    """One workload's built inputs: Spark graphs for the engine, the same
    graphs as dicts for the reference, and workload extras."""

    g1: Optional[Graph]
    g2: Graph
    ref_graphs: Tuple[Dict[int, str], List[Pair], Dict[int, str], List[Pair]]
    extra: Dict[str, Any]


@dataclass
class Outcome:
    """What one solve produced: the F1 the user reads, and the scores
    and frozen pairs for the output check."""

    f1: float
    scores: Scores
    frozen: Scores


@dataclass
class Reference:
    scores: Scores
    frozen: Scores
    f1: float
    iterations: int


def _dicts(nodes: pd.DataFrame, edges: pd.DataFrame
           ) -> Tuple[Dict[int, str], List[Pair]]:
    """The reference's form of a graph. Edges are sorted: the reference
    breaks dp/bj greedy ties by position in its neighbour lists, the
    engine by node id, and the two orders agree only on sorted lists."""
    labels = dict(zip(nodes["id"].astype(int), nodes["label"]))
    return labels, sorted(zip(edges["src"].astype(int), edges["dst"].astype(int)))


def _relabel(nodes: pd.DataFrame, edges: pd.DataFrame, seed: int
             ) -> Tuple[pd.DataFrame, pd.DataFrame, np.ndarray]:
    """Rename node ``i`` (ids are 0..n-1) to ``perm[i]`` and shuffle the
    rows of both frames; returns the frames and ``perm``."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(nodes))
    nodes = pd.DataFrame({"id": perm[nodes["id"].to_numpy()],
                          "label": nodes["label"].to_numpy()})
    edges = pd.DataFrame({"src": perm[edges["src"].to_numpy()],
                          "dst": perm[edges["dst"].to_numpy()]})
    nodes = nodes.iloc[rng.permutation(len(nodes))].reset_index(drop=True)
    edges = edges.iloc[rng.permutation(len(edges))].reset_index(drop=True)
    return nodes, edges, perm


def _graph(spark: SparkSession, nodes: pd.DataFrame, edges: pd.DataFrame) -> Graph:
    """Convert to Spark and materialise both frames."""
    g = Graph.from_pandas(spark, nodes, edges)
    g.nodes.count()
    g.edges.count()
    return g


def _cfg(variant: str, upper_bound: bool) -> FSimConfig:
    # the harnesses' Table 6/9 settings: w* = 0.2, theta = 1, L_I
    return FSimConfig(variant=variant, w_out=0.4, w_in=0.4, theta=1.0,
                      label_fn="indicator", eps=1e-2, max_iter=60,
                      upper_bound=upper_bound, alpha=0.0,
                      beta=0.3 if upper_bound else 0.0)


class Workload:
    name: str
    same_graph: bool
    cfg: FSimConfig
    # after the cold solve: unmeasured warm-up solves, then the measured
    # solves that solve_s is the median of (see README, Warm-up)
    warmup: int
    measured: int

    def build(self, spark: SparkSession, seed: int) -> Inputs:
        raise NotImplementedError

    def solve(self, spark: SparkSession, inp: Inputs, tr: NullTracer
              ) -> Callable[[], Outcome]:
        """Run one solve; returns a function that collects the outcome
        for the check (called outside the timed region)."""
        raise NotImplementedError

    def f1_of(self, inp: Inputs, scores: Scores) -> float:
        raise NotImplementedError

    def reference(self, inp: Inputs) -> Reference:
        r = fsim_reference(*inp.ref_graphs, self.cfg)
        return Reference(r.scores, r.frozen, self.f1_of(inp, r.scores),
                         r.iterations)

    def diagonal(self, inp: Inputs) -> Optional[List[int]]:
        return sorted(inp.ref_graphs[0]) if self.same_graph else None


class JdkDpUb(Workload):
    """A hub-heavy graph aligned to itself with FSim_dp{ub}: hub pairs
    make large mapping groups, so the greedy fold and the fold-based
    Eq.-6 bound dominate."""

    name = "jdk-dp-ub"
    same_graph = True
    cfg = _cfg("dp", True)
    warmup, measured = 1, 3
    scale = 0.01
    base_seed = 7

    def build(self, spark, seed):
        nodes, edges, _ = _relabel(
            *dataset_pd("JDK", scale=self.scale, seed=self.base_seed), seed)
        g = _graph(spark, nodes, edges)
        labels, e = _dicts(nodes, edges)
        return Inputs(g, g, (labels, e, labels, e), {})

    def solve(self, spark, inp, tr):
        # the steps of repro.align.harness.fsim_align_f1, keeping the
        # scores for the check
        fsim = tr.wrap_fsim(fsim_spark)
        scores, frozen = fsim(spark, inp.g1, inp.g2, self.cfg,
                              return_frozen=True)
        with tr.span("align.collect"):
            pdf = scores.toPandas()
            ids = inp.g1.nodes.select("id").toPandas()["id"]
        with tr.span("align.argmax"):
            truth = {int(i): int(i) for i in ids}
            f1 = f1_alignment(argmax_alignment(pdf), truth, len(truth))

        def outcome() -> Outcome:
            return Outcome(f1, to_scores(pdf), to_scores(frozen.toPandas()))
        return outcome

    def f1_of(self, inp, scores):
        truth = {u: u for u in inp.ref_graphs[0]}
        return f1_alignment(argmax_alignment(to_frame(scores)), truth,
                            len(truth))


class QueryBatch(Workload):
    """Table 6: noisy queries packed into one FSim_s run, then
    seed-expand and F1 on the driver. Fixed per-job and driver cost
    dominate, whatever the data size."""

    name = "query-batch"
    same_graph = False
    cfg = _cfg("s", False)
    warmup, measured = 0, 2
    scale = 0.003
    n_queries = 30
    base_seed = 3  # the default of tables/table6.py

    def build(self, spark, seed):
        b = self.base_seed
        nodes, edges = dataset_pd("Amazon", scale=self.scale, seed=b)
        labels = sorted(nodes["label"].unique())
        base = make_workload(nodes, edges, n_queries=self.n_queries, seed=b)
        noisy = [noise_query(q, "Combined", labels, seed=b + 77 + q.qid)
                 for q in base]
        nodes, edges, perm = _relabel(nodes, edges, seed)
        queries = [replace(q, origin={i: int(perm[g]) for i, g in q.origin.items()})
                   for q in noisy]
        data = _graph(spark, nodes, edges)
        adj = AdjGraph.build(nodes, edges)
        qlabels: Dict[int, str] = {}
        qedges: List[Pair] = []
        for q in queries:
            off = q.qid * matching.QOFF
            qlabels.update({off + i: lab for i, lab in q.labels.items()})
            qedges += [(off + s, off + d) for s, d in q.edges]
        dlabels, dedges = _dicts(nodes, edges)
        # g1, the packed queries, is built inside each solve
        return Inputs(None, data, (qlabels, qedges, dlabels, dedges),
                      {"queries": queries, "adj": adj})

    def solve(self, spark, inp, tr):
        queries = inp.extra["queries"]
        with tr.span("matching.collect"):
            per_query = matching.batch_fsim_scores(spark, queries, inp.g2,
                                                   self.cfg)
        with tr.span("matching.seed_expand"):
            f1 = self._f1(inp, per_query)

        def outcome() -> Outcome:
            scores = {(qid * matching.QOFF + q, v): s
                      for qid, d in per_query.items() for (q, v), s in d.items()}
            return Outcome(f1, scores, {})
        return outcome

    def _f1(self, inp, per_query) -> float:
        queries, adj = inp.extra["queries"], inp.extra["adj"]
        f1s = [matching.f1_match(q, matching.seed_expand(q, per_query[q.qid], adj))
               for q in queries]
        return 100.0 * sum(f1s) / len(f1s)

    def f1_of(self, inp, scores):
        per_query: Dict[int, Scores] = {q.qid: {} for q in inp.extra["queries"]}
        for (u, v), s in scores.items():
            per_query[u // matching.QOFF][(u % matching.QOFF, v)] = s
        return self._f1(inp, per_query)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (JdkDpUb(), QueryBatch())}


def trace_hooks(tr) -> List[Tuple[Any, str, Callable]]:
    """Module-level functions that harness code calls internally."""
    return [(matching, "pack_queries", lambda fn: tr.wrap(fn, "matching.pack")),
            (matching, "fsim_spark", tr.wrap_fsim)]
