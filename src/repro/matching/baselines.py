"""Approximate pattern-matching baselines for Table 6.

Faithful-in-spirit, simplified re-implementations of the paper's
closed-source comparators (DESIGN.md §3):

- ``tspan_like``: edit-distance category (TSpan [31]) — enumerate
  injective, label-exact assignments with at most ``x`` missing query
  edges via pruned backtracking; top-1 = fewest missing edges. Returns
  ``None`` when labels cannot match (mirrors TSpan having no results
  under label noise).
- ``naga_like``: similarity category (NAGA [35]) — chi-square statistic
  between neighbor-label count vectors as the node similarity, matches
  generated with the same seed-and-expand used for FSim.
- ``gfinder_like``: cost-based category (G-Finder [36]) — beam-search
  expansion minimizing missing-edge + label-mismatch cost.

Each runs per query on the driver over the data ``AdjGraph``;
``tables/table6.py`` loops over the queries. No Spark job runs them.
"""
from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Set, Tuple

from ..graphs.model import AdjGraph
from ..graphs.noise import Query
from .harness import seed_expand

Pair = Tuple[int, int]


# ------------------------------------------------------------- TSpan-like

def tspan_like(q: Query, data: AdjGraph, max_missing: int,
               node_budget: int = 150_000) -> Optional[Dict[int, int]]:
    """Best label-exact assignment with <= ``max_missing`` missing edges.

    Iterative deepening on the missing-edge budget: exact matches are
    found with tight pruning before any budget is spent on sloppier
    thresholds (otherwise TSpan-3 exhausts its search budget on queries
    TSpan-1 solves instantly).
    """
    if any(l not in data.by_label for l in q.labels.values()):
        return None  # a query label absent from the data: no results
    qg = AdjGraph(q.labels, q.edges)
    for x in range(max_missing + 1):
        r = _tspan_search(qg, set(q.edges), data, x, node_budget)
        if r is not None:
            return r
    return None


def _tspan_search(q: AdjGraph, edge_set: Set[Pair], data: AdjGraph,
                  max_missing: int, node_budget: int) -> Optional[Dict[int, int]]:
    """Branch-and-bound search at one missing-edge threshold."""
    order = q.bfs_order()
    best: Dict[str, object] = {"miss": max_missing + 1, "assign": None}
    budget = {"n": node_budget}

    def missing_increase(qi: int, w: int, assign: Dict[int, int]) -> int:
        miss = 0
        for qj, wj in assign.items():
            if (qi, qj) in edge_set and wj not in data.out[w]:
                miss += 1
            if (qj, qi) in edge_set and wj not in data.inn[w]:
                miss += 1
        return miss

    def backtrack(pos: int, assign: Dict[int, int], used: set, miss: int) -> None:
        if budget["n"] <= 0 or miss >= best["miss"]:
            return
        if pos == len(order):
            best["miss"] = miss
            best["assign"] = dict(assign)
            return
        qi = order[pos]
        # candidates: right-direction neighbors of matched images first,
        # falling back to all same-label nodes (bounded) when allowed.
        cands: List[int] = []
        cset = set()
        for qj, wj in assign.items():
            pools = []
            if (qj, qi) in edge_set:
                pools.append(data.out[wj])
            if (qi, qj) in edge_set:
                pools.append(data.inn[wj])
            for pool in pools:
                for w in pool:
                    if w not in cset and w not in used \
                            and data.label[w] == q.label[qi]:
                        cset.add(w)
                        cands.append(w)
        if not assign or miss + 1 <= max_missing:
            for w in data.by_label[q.label[qi]][:200]:
                if w not in cset and w not in used:
                    cset.add(w)
                    cands.append(w)
        for w in cands:
            budget["n"] -= 1
            if budget["n"] <= 0:
                return
            inc = missing_increase(qi, w, assign)
            if miss + inc >= best["miss"]:
                continue
            assign[qi] = w
            used.add(w)
            backtrack(pos + 1, assign, used, miss + inc)
            del assign[qi]
            used.discard(w)

    backtrack(0, {}, set(), 0)
    return best["assign"]  # type: ignore[return-value]


# -------------------------------------------------------------- NAGA-like

def _label_counts(g: AdjGraph, nodes: List[int]) -> Counter:
    return Counter(g.label[n] for n in nodes)


def naga_like(q: Query, data: AdjGraph) -> Dict[int, int]:
    """Chi-square neighbor-statistics similarity + seed-and-expand."""
    qg = AdjGraph(q.labels, q.edges)
    qcounts = {
        i: _label_counts(qg, [j for j, _ in qg.nbrs[i]]) for i in qg.label
    }
    score: Dict[Pair, float] = {}
    for i, ql in qg.label.items():
        for w, wl in data.label.items():
            if wl != ql:
                continue
            wc = _label_counts(data, data.out[w] + data.inn[w])
            chi = 0.0
            for l in set(qcounts[i]) | set(wc):
                o = qcounts[i].get(l, 0)
                e = wc.get(l, 0)
                chi += (o - e) ** 2 / (e + 1.0)
            score[(i, w)] = 1.0 / (1.0 + chi)
    return seed_expand(q, score, data)


# ----------------------------------------------------------- GFinder-like

def gfinder_like(q: Query, data: AdjGraph, beam: int = 8,
                 cand_cap: int = 60) -> Dict[int, int]:
    """Beam search minimizing missing-edge + label-mismatch cost."""
    qg = AdjGraph(q.labels, q.edges)
    order = qg.bfs_order()
    edge_set = set(q.edges)

    def step_cost(qi: int, w: int, assign: Dict[int, int]) -> float:
        c = 0.0 if data.label[w] == qg.label[qi] else 2.0
        for qj, wj in assign.items():
            if (qi, qj) in edge_set and wj not in data.out[w]:
                c += 1.0
            if (qj, qi) in edge_set and wj not in data.inn[w]:
                c += 1.0
        return c

    states: List[Tuple[float, Dict[int, int]]] = [(0.0, {})]
    for depth, qi in enumerate(order):
        # wide beam while the partial match is unconstrained (every
        # same-label candidate has cost 0 at depth 0), narrow later
        width = beam * 4 if depth < 2 else beam
        nxt: List[Tuple[float, Dict[int, int]]] = []
        for cost, assign in states:
            used = set(assign.values())
            cands: List[int] = []
            cset = set()
            for qj, wj in assign.items():
                if (qj, qi) in edge_set or (qi, qj) in edge_set:
                    for w in data.out[wj] + data.inn[wj]:
                        if w not in used and w not in cset:
                            cset.add(w)
                            cands.append(w)
            for w in data.by_label.get(qg.label[qi], [])[:cand_cap]:
                if w not in used and w not in cset:
                    cset.add(w)
                    cands.append(w)
            scored = sorted(
                ((cost + step_cost(qi, w, assign), w) for w in cands),
                key=lambda t: t[0],
            )[:width]
            for c, w in scored:
                a2 = dict(assign)
                a2[qi] = w
                nxt.append((c, a2))
        nxt.sort(key=lambda t: t[0])
        states = nxt[:width] or states
    return states[0][1] if states else {}
