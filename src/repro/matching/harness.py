"""Pattern-matching harness for the Table-6 case study.

Protocol (Section 5.4, following NAGA [35]): extract random connected
subgraphs (|Q| in [3, 13]) as queries — the extraction is the ground
truth — optionally noise them (scenarios Exact / Noisy-E / Noisy-L /
Combined), then:

1. compute FSim_chi scores between *all queries at once* and the data
   graph: the queries are packed into one disjoint-union graph (scores
   of disconnected components are independent), so a whole scenario is
   a single distributed FSim run instead of |Q| tiny ones;
2. generate the top-1 match per query by NAGA-style seed-and-expand:
   seed at the best-scoring pair, then walk the query BFS-wise, mapping
   each query node to the best-scoring data node among the right-
   direction neighbors of its matched neighbor;
3. score with the paper's F1: P = |phi_t| / |phi|, R = |phi_t| / |Q|.
"""
from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from pyspark.sql import SparkSession

from ..core.fsim import fsim_spark
from ..core.reference import FSimConfig
from ..graphs.model import AdjGraph, Graph
from ..graphs.noise import Query

Pair = Tuple[int, int]

#: offset multiplier giving each query a private global-id range
QOFF = 1000


def pack_queries(spark: SparkSession, queries: List[Query]) -> Graph:
    """Disjoint union of all query graphs (node ``i`` of query ``k`` gets
    global id ``k * QOFF + i``)."""
    labels: Dict[int, str] = {}
    edges: List[Pair] = []
    for q in queries:
        base = q.qid * QOFF
        for i, l in q.labels.items():
            labels[base + i] = l
        for s, d in q.edges:
            edges.append((base + s, base + d))
    return Graph.from_edge_list(spark, labels, edges)


def batch_fsim_scores(
    spark: SparkSession, queries: List[Query], data: Graph, cfg: FSimConfig
) -> Dict[int, Dict[Pair, float]]:
    """FSim scores per query: ``qid -> {(q_local, data_node): score}``."""
    packed = pack_queries(spark, queries)
    pdf = fsim_spark(spark, packed, data, cfg).toPandas()
    out: Dict[int, Dict[Pair, float]] = {q.qid: {} for q in queries}
    for u, v, s in zip(pdf["u"], pdf["v"], pdf["score"]):
        out[int(u) // QOFF][(int(u) % QOFF, int(v))] = float(s)
    return out


def seed_expand(
    q: Query, score: Dict[Pair, float], data: AdjGraph
) -> Dict[int, int]:
    """NAGA-style multi-seed match generation from per-pair scores.

    The paper's protocol: "node pairs with high FSim scores are
    considered to be seeds, and matches are generated by expanding the
    regions around the seeds". Repeatedly seed the best-scoring
    unassigned pair and BFS-expand its region, mapping each query
    neighbor to the best-scoring *edge-consistent* data neighbor; query
    nodes whose region stalls (e.g. a noise-corrupted label) get their
    own seed later instead of poisoning the rest of the match.
    Returns the query-node -> data-node assignment (injective).
    """
    if not score:
        return {}
    qg = AdjGraph(q.labels, q.edges)
    # candidates per query node, best first
    by_q: Dict[int, List[Tuple[float, int]]] = {}
    for (qq, m), sc in score.items():
        by_q.setdefault(qq, []).append((sc, m))
    for qq in by_q:
        by_q[qq].sort(key=lambda t: (-t[0], t[1]))

    assigned: Dict[int, int] = {}
    used: set = set()
    pending = set(q.labels)
    while pending:
        # next seed: globally best (score, q, m) among pending q, unused m
        seed: Optional[Tuple[float, int, int]] = None
        for qq in pending:
            for sc, m in by_q.get(qq, []):
                if m not in used:
                    if seed is None or sc > seed[0]:
                        seed = (sc, qq, m)
                    break  # candidates are sorted; first unused is best
        if seed is None:
            break  # remaining query nodes have no candidates at all
        _, seed_q, seed_m = seed
        assigned[seed_q] = seed_m
        used.add(seed_m)
        pending.discard(seed_q)
        frontier = deque([seed_q])
        while frontier:
            qa = frontier.popleft()
            ma = assigned[qa]
            for qb, direction in qg.nbrs[qa]:
                if qb not in pending:
                    continue
                best: Optional[Tuple[float, int]] = None
                for m in data.step(ma, direction):
                    if m in used:
                        continue
                    sc = score.get((qb, m))
                    if sc is not None and (best is None or sc > best[0]):
                        best = (sc, m)
                if best is not None:
                    assigned[qb] = best[1]
                    used.add(best[1])
                    pending.discard(qb)
                    frontier.append(qb)
    return assigned


def _f1(hits: int, returned: int, size: int) -> float:
    """The paper's F1 from P = hits / returned and R = hits / size."""
    if not returned:
        return 0.0
    p = hits / returned
    r = hits / size
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def f1_match(q: Query, assigned: Dict[int, int]) -> float:
    """The paper's F1: phi_t = correctly matched nodes, P=|phi_t|/|phi|,
    R=|phi_t|/|Q|."""
    phi_t = sum(1 for qq, m in assigned.items() if q.origin.get(qq) == m)
    return _f1(phi_t, len(set(assigned.values())), q.n_nodes())


def f1_match_nodeset(q: Query, phi: Optional[set]) -> float:
    """F1 for baselines that return a node *set* (strong simulation):
    phi_t = returned nodes that are ground-truth nodes of the query."""
    phi = phi or set()
    return _f1(len(phi & set(q.origin.values())), len(phi), q.n_nodes())


def scenario_mean(f1s: List[Optional[float]]) -> Optional[float]:
    """Average F1 (percent) over one scenario's queries.

    ``None`` marks a query with no result. It counts as F1 = 0 (a miss),
    like the paper's averaging, unless *every* query has none: then the
    mean is ``None`` (TSpan under label noise, reported as '-').
    """
    if all(f is None for f in f1s):
        return None
    return 100.0 * sum(f or 0.0 for f in f1s) / len(f1s)


def run_fsim_scenario(spark: SparkSession, queries: List[Query], data: Graph,
                      data_adj: AdjGraph, variant: str, *,
                      eps: float = 1e-2) -> Optional[float]:
    """Average F1 of FSim_variant over one scenario's queries, at the
    paper's default weights and theta = 1."""
    cfg = FSimConfig(variant=variant, theta=1.0, eps=eps)
    scores = batch_fsim_scores(spark, queries, data, cfg)
    return scenario_mean([f1_match(q, seed_expand(q, scores[q.qid], data_adj))
                          for q in queries])
