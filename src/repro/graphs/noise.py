"""Query extraction and per-query noise (Section 5.4, Table 6).

- ``extract_query`` / ``make_workload``: random connected subgraphs of
  the data graph, |Q| in [3, 13], which serve as their own ground truth;
- ``noise_query``: the Table-6 scenarios applied to one query —
  "Noisy-E" inserts edges, "Noisy-L" reassigns node labels, each up to
  33% of the query, and "Combined" does both.

Queries are tiny, so this runs on the driver over the data graph's
pandas frames; the data graph itself is never perturbed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
import pandas as pd

# ------------------------------------------------------------------ queries

@dataclass
class Query:
    """An extracted (possibly noised) query graph.

    ``labels[i]`` is the label of query node ``i``; ``edges`` are query
    edges over local ids; ``origin[i]`` is the data-graph node the query
    node was extracted from (the F1 ground truth).
    """

    labels: Dict[int, str]
    edges: List[Tuple[int, int]]
    origin: Dict[int, int]
    scenario: str = "Exact"
    qid: int = 0

    def n_nodes(self) -> int:
        return len(self.labels)


def extract_query(nodes: pd.DataFrame, edges: pd.DataFrame, size: int,
                  seed: int = 0) -> Query:
    """Random connected subgraph of ``size`` nodes (undirected BFS walk)."""
    rng = np.random.default_rng(seed)
    und: Dict[int, set] = {}
    for s, d in zip(edges.src, edges.dst):
        und.setdefault(int(s), set()).add(int(d))
        und.setdefault(int(d), set()).add(int(s))
    label_of = dict(zip(nodes.id.astype(int), nodes.label))
    candidates = [u for u, nb in und.items() if len(nb) > 0]
    for _ in range(60):
        start = candidates[int(rng.integers(len(candidates)))]
        chosen = {start}
        frontier = list(und[start])
        while len(chosen) < size and frontier:
            pick = frontier.pop(int(rng.integers(len(frontier))))
            if pick in chosen:
                continue
            chosen.add(pick)
            frontier.extend(n for n in und[pick] if n not in chosen)
        if len(chosen) == size:
            break
    ids = sorted(chosen)
    local = {g: i for i, g in enumerate(ids)}
    edge_set = set(zip(edges.src.astype(int), edges.dst.astype(int)))
    q_edges = [(local[s], local[d]) for s in ids for d in ids
               if s != d and (s, d) in edge_set]
    return Query(
        labels={local[g]: label_of[g] for g in ids},
        edges=q_edges,
        origin={local[g]: g for g in ids},
    )


def noise_query(q: Query, scenario: str, all_labels: List[str],
                frac: float = 0.33, seed: int = 0) -> Query:
    """Apply the Table-6 scenario noise to a query (query-local ids)."""
    rng = np.random.default_rng(seed)
    labels = dict(q.labels)
    edges = list(q.edges)
    n = q.n_nodes()
    # "up to 33%" noise (paper wording): the per-query amount is drawn
    # uniformly from [0, floor(frac * size)], so small queries are often
    # lightly corrupted or untouched.
    if scenario in ("Noisy-E", "Combined"):
        k = int(rng.integers(0, int(len(edges) * frac) + 1))
        present = set(edges)
        added = 0
        for _ in range(60 * k + 1):
            if added >= k:
                break
            s, d = int(rng.integers(n)), int(rng.integers(n))
            if s != d and (s, d) not in present:
                present.add((s, d))
                edges.append((s, d))
                added += 1
    if scenario in ("Noisy-L", "Combined"):
        k = int(rng.integers(0, int(n * frac) + 1))
        idx = rng.choice(n, size=min(k, n), replace=False)
        for i in idx:
            alts = [l for l in all_labels if l != labels[int(i)]]
            if alts:
                labels[int(i)] = alts[int(rng.integers(len(alts)))]
    return Query(labels=labels, edges=edges, origin=dict(q.origin),
                 scenario=scenario, qid=q.qid)


def make_workload(nodes: pd.DataFrame, edges: pd.DataFrame, *, n_queries: int,
                  sizes: Tuple[int, int] = (3, 13), seed: int = 0) -> List[Query]:
    """The Table-6 exact-query workload (noise applied per scenario later)."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_queries):
        size = int(rng.integers(sizes[0], sizes[1] + 1))
        q = extract_query(nodes, edges, size, seed=seed + 1000 + i)
        q.qid = i
        out.append(q)
    return out
