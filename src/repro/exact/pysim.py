"""Exact (yes/no) chi-simulation kernels, plus strong simulation.

These are the coarse relations the paper quantifies (Definitions 1-3)
and the exact-simulation baselines of the case studies:

- ``exact_simulation_py``: the maximal chi-simulation relation between
  two small graphs via fixpoint refinement; dp/bj use an *exact*
  saturating-matching test (Kuhn augmenting paths), not the greedy
  approximation, because Definition 2's injective functions are
  existence conditions.
- ``maximal_dual_sim`` / ``strong_simulation_match``: Ma et al. [1]
  strong simulation — dual simulation (Definition 1, out+in) between a
  query and every ball ``G[w, dQ]``, accepting balls whose maximal dual
  relation covers all query nodes.

Driver-side by design: each instance (a query, a toy graph) is tiny.
``exact_simulation_py`` is the only exact-simulation kernel: Table 2's
verdicts and the P2 definiteness tests read it.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..core.ops import kuhn_saturating
from ..graphs.model import AdjGraph

Pair = Tuple[int, int]

# 'simrank' is an engine configuration, not an exact simulation
VARIANTS = ("s", "dp", "b", "bj")


def _cond_holds(variant: str, g1: AdjGraph, g2: AdjGraph, u: int, v: int,
                r: Set[Pair]) -> bool:
    """Does (u, v) satisfy the variant's neighbor conditions w.r.t. R?"""
    def sim_forward(n1: List[int], n2: List[int]) -> bool:
        return all(any((a, b) in r for b in n2) for a in n1)

    def sim_backward(n1: List[int], n2: List[int]) -> bool:
        return all(any((a, b) in r for a in n1) for b in n2)

    def injective(n1: List[int], n2: List[int]) -> bool:
        cand = {a: [b for b in n2 if (a, b) in r] for a in n1}
        return kuhn_saturating(n1, cand)

    if variant == "s":
        return (sim_forward(g1.out[u], g2.out[v])
                and sim_forward(g1.inn[u], g2.inn[v]))
    if variant == "b":
        return (sim_forward(g1.out[u], g2.out[v])
                and sim_forward(g1.inn[u], g2.inn[v])
                and sim_backward(g1.out[u], g2.out[v])
                and sim_backward(g1.inn[u], g2.inn[v]))
    if variant == "dp":
        return (injective(g1.out[u], g2.out[v])
                and injective(g1.inn[u], g2.inn[v]))
    # bj: bijective => equal sizes + saturating matching both directions
    return (len(g1.out[u]) == len(g2.out[v])
            and len(g1.inn[u]) == len(g2.inn[v])
            and injective(g1.out[u], g2.out[v])
            and injective(g1.inn[u], g2.inn[v]))


def exact_simulation_py(
    labels1: Dict[int, str], edges1: List[Pair],
    labels2: Dict[int, str], edges2: List[Pair],
    variant: str = "s",
) -> Set[Pair]:
    """The maximal chi-simulation relation R between two graphs."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of "
                         f"{VARIANTS}")
    g1 = AdjGraph(labels1, edges1)
    g2 = AdjGraph(labels2, edges2)
    r: Set[Pair] = {
        (u, v)
        for u, lu in g1.label.items()
        for v, lv in g2.label.items()
        if lu == lv
    }
    changed = True
    while changed:
        changed = False
        for p in sorted(r):
            if not _cond_holds(variant, g1, g2, p[0], p[1], r):
                r.discard(p)
                changed = True
    return r


def chi_simulated(labels1, edges1, labels2, edges2, u: int, v: int,
                  variant: str = "s") -> bool:
    """Is u chi-simulated by v (u ~>chi v)?"""
    return (u, v) in exact_simulation_py(labels1, edges1, labels2, edges2, variant)


# ------------------------------------------------------------ dual sim

def maximal_dual_sim(
    q: AdjGraph, data: AdjGraph, restrict: Optional[Set[int]] = None,
) -> Dict[int, Set[int]]:
    """Maximal dual simulation: candidate data nodes per query node.

    ``restrict`` limits data nodes (the ball). Returns cand[q]; the
    relation is {(q, w) : w in cand[q]} and is empty-able per node.
    """
    nodes = restrict if restrict is not None else set(data.label)
    cand: Dict[int, Set[int]] = {
        qq: {w for w in nodes if data.label[w] == ql}
        for qq, ql in q.label.items()
    }
    changed = True
    while changed:
        changed = False
        for qq in q.label:
            bad = set()
            for w in cand[qq]:
                ok = all(
                    any(w2 in cand[q2] for w2 in data.out[w] if w2 in nodes)
                    for q2 in q.out[qq]
                ) and all(
                    any(w2 in cand[q2] for w2 in data.inn[w] if w2 in nodes)
                    for q2 in q.inn[qq]
                )
                if not ok:
                    bad.add(w)
            if bad:
                cand[qq] -= bad
                changed = True
    return cand


def query_diameter(q: AdjGraph) -> int:
    """Undirected diameter of the query (max finite BFS eccentricity)."""
    return max((max(q.bfs(u).values()) for u in q.label), default=0)


def ball(center: int, radius: int, data: AdjGraph, cap: int = 400) -> Set[int]:
    """Undirected-ball node set G[center, radius], truncated at ``cap``."""
    seen = {center}
    frontier = [center]
    for _ in range(radius):
        nxt = []
        for x in frontier:
            for y in data.out[x] + data.inn[x]:
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if len(seen) >= cap:
                        return seen
        frontier = nxt
    return seen


def strong_simulation_match(
    qlabels: Dict[int, str], qedges: List[Pair], data: AdjGraph,
    max_centers: int = 300, ball_cap: int = 400,
) -> Optional[Set[int]]:
    """Top-1 strong-simulation match (data-node set), or None.

    Candidate centers are data nodes with the (rarest) label of some
    query node; each center's ball is refined with dual simulation and
    accepted if all query nodes keep candidates. Top-1 = smallest match.
    """
    q = AdjGraph(qlabels, qedges)
    qlabs = set(q.label.values())
    by_label = {l: ws for l, ws in data.by_label.items() if l in qlabs}
    if not by_label:
        return None
    rare = min(by_label, key=lambda l: len(by_label[l]))
    centers = by_label[rare][:max_centers]
    radius = query_diameter(q)
    best: Optional[Set[int]] = None
    for w in centers:
        b = ball(w, radius, data, cap=ball_cap)
        cand = maximal_dual_sim(q, data, restrict=b)
        if any(len(c) == 0 for c in cand.values()):
            continue
        if not any(w in c for c in cand.values()):
            continue
        match = _extract_match(q, cand, data)
        if best is None or len(match) < len(best):
            best = match
    return best


def _extract_match(q: AdjGraph, cand: Dict[int, Set[int]],
                   data: AdjGraph) -> Set[int]:
    """Top-1 match graph: one data node per query node from the dual-sim
    candidate sets, chosen greedily (most-constrained query node first,
    then edge-consistent BFS expansion). Keeps precision comparable to
    |Q| instead of returning every simulator in the ball.
    """
    assigned: Dict[int, int] = {}
    start = min(q.label, key=lambda i: (len(cand[i]), i))
    assigned[start] = min(cand[start])
    frontier = [start]
    while frontier:
        qa = frontier.pop(0)
        wa = assigned[qa]
        for qb, direction in q.nbrs[qa]:
            if qb in assigned:
                continue
            pick = sorted(set(data.step(wa, direction)) & cand[qb])
            if pick:
                assigned[qb] = pick[0]
                frontier.append(qb)
    for qq in q.label:  # disconnected leftovers
        if qq not in assigned:
            assigned[qq] = min(cand[qq])
    return set(assigned.values())
