"""Alignment baselines for Table 9 (simplified re-implementations).

- ``kbisim_align_f1``: align u to all v with equal k-bisimulation
  signatures (exactly the paper's protocol for the x-bisim rows).
- ``olap_align_f1``: Olap-like [7] best-effort bisimulation alignment —
  per node, use the deepest signature level that still has matches.
- ``final_align_f1``: FINAL-like [46] — iterative attributed similarity
  ``S = (1 - lam) H + lam * P1^T S P2`` (numpy; the graphs are small
  and the original is a Matlab matrix method).
- ``ews_align_f1``: EWS-like [47] — seeded percolation graph matching:
  grow from a handful of ground-truth seeds by witness counting.
- ``gsana_align_f1``: GSANA-like [45] — positional features (BFS
  distances to anchor seeds) + nearest-neighbor matching per label.
"""
from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..exact.kbisim import kbisim_refine, kbisim_signatures
from ..graphs.model import AdjGraph, Graph
from .harness import identity_f1


def _ids_by_sig(sigs: pd.DataFrame) -> Dict[str, Set[int]]:
    """Signature -> the node ids carrying it, from an ``(id, sig)`` frame."""
    by_sig: Dict[str, Set[int]] = {}
    for i, s in zip(sigs["id"], sigs["sig"]):
        by_sig.setdefault(s, set()).add(int(i))
    return by_sig


# --------------------------------------------------------------- k-bisim

def kbisim_align(spark: SparkSession, g1: Graph, g2: Graph,
                 k: int) -> Dict[int, Set[int]]:
    s1 = kbisim_signatures(spark, g1, k).toPandas()
    by_sig = _ids_by_sig(kbisim_signatures(spark, g2, k).toPandas())
    return {int(i): by_sig.get(s, set()) for i, s in zip(s1["id"], s1["sig"])}


def kbisim_align_f1(spark: SparkSession, g1: Graph, g2: Graph, k: int) -> float:
    return identity_f1(kbisim_align(spark, g1, g2, k), g1)


def olap_align_f1(spark: SparkSession, g1: Graph, g2: Graph,
                  max_k: int = 5) -> float:
    """Best-effort bisimulation alignment: deepest level with matches."""
    def levels(g: Graph) -> List[pd.DataFrame]:
        sig = kbisim_signatures(spark, g, 0)
        out = [sig.toPandas()]
        for _ in range(max_k):
            sig = kbisim_refine(g, sig)
            out.append(sig.toPandas())
        return out

    sig1 = levels(g1)
    by_sig = [_ids_by_sig(s2) for s2 in levels(g2)]
    align: Dict[int, Set[int]] = {}
    for k in range(max_k + 1):  # deeper levels overwrite when non-empty
        for i, s in zip(sig1[k]["id"], sig1[k]["sig"]):
            m = by_sig[k].get(s)
            if m:
                align[int(i)] = m
    return identity_f1(align, g1)


# ----------------------------------------------------------- FINAL-like

def _collect(g: Graph) -> Tuple[pd.DataFrame, pd.DataFrame]:
    return g.nodes.toPandas(), g.edges.toPandas()


def final_align_f1(spark: SparkSession, g1: Graph, g2: Graph,
                   lam: float = 0.8, iters: int = 15) -> float:
    n1pd, e1pd = _collect(g1)
    n2pd, e2pd = _collect(g2)
    ids1 = n1pd["id"].astype(int).to_numpy()
    ids2 = n2pd["id"].astype(int).to_numpy()
    pos1 = {i: k for k, i in enumerate(ids1)}
    pos2 = {i: k for k, i in enumerate(ids2)}
    n1, n2 = len(ids1), len(ids2)
    a1 = np.zeros((n1, n1))
    for s, d in zip(e1pd["src"], e1pd["dst"]):
        a1[pos1[int(s)], pos1[int(d)]] = 1.0
        a1[pos1[int(d)], pos1[int(s)]] = 1.0
    a2 = np.zeros((n2, n2))
    for s, d in zip(e2pd["src"], e2pd["dst"]):
        a2[pos2[int(s)], pos2[int(d)]] = 1.0
        a2[pos2[int(d)], pos2[int(s)]] = 1.0
    p1 = a1 / np.maximum(a1.sum(axis=1, keepdims=True), 1.0)
    p2 = a2 / np.maximum(a2.sum(axis=1, keepdims=True), 1.0)
    # attribute prior: label consistency weighted by degree similarity
    # (FINAL's H encodes node-attribute consistency; degree ratio is the
    # natural structural attribute here)
    d1 = np.maximum(a1.sum(axis=1), 1.0)
    d2 = np.maximum(a2.sum(axis=1), 1.0)
    dr = np.minimum(d1[:, None], d2[None, :]) / np.maximum(d1[:, None], d2[None, :])
    h = (n1pd["label"].to_numpy()[:, None] == n2pd["label"].to_numpy()[None, :]) \
        .astype("float64") * dr
    s = h.copy()
    for _ in range(iters):
        s = (1 - lam) * h + lam * (p1 @ s @ p2.T)
    s = np.where(h > 0, s, -np.inf)  # attribute consistency: same label only
    align: Dict[int, Set[int]] = {}
    for k, u in enumerate(ids1):
        row = s[k]
        m = row.max()
        if np.isfinite(m):
            align[int(u)] = {int(ids2[j]) for j in np.nonzero(row >= m - 1e-12)[0]}
    return identity_f1(align, g1)


# ------------------------------------------------------------- EWS-like

def ews_align_f1(spark: SparkSession, g1: Graph, g2: Graph,
                 n_seeds: int = 30, min_witness: int = 2,
                 seed: int = 5) -> float:
    """Seeded percolation: repeatedly add the candidate pair with the
    most matched neighbor pairs (witnesses), threshold ``min_witness``."""
    a1, a2 = AdjGraph.build(*_collect(g1)), AdjGraph.build(*_collect(g2))
    rng = np.random.default_rng(seed)
    shared = sorted(set(a1.label) & set(a2.label))
    seeds = rng.choice(shared, size=min(n_seeds, len(shared)), replace=False)
    matched1: Dict[int, int] = {int(s): int(s) for s in seeds}
    matched2: Dict[int, int] = {int(s): int(s) for s in seeds}
    witness: Dict[Tuple[int, int], int] = {}

    def bump(u: int, v: int) -> None:
        for x in set(a1.out[u] + a1.inn[u]):
            if x in matched1:
                continue
            for y in set(a2.out[v] + a2.inn[v]):
                if y in matched2 or a1.label[x] != a2.label[y]:
                    continue
                witness[(x, y)] = witness.get((x, y), 0) + 1

    for s in seeds:
        bump(int(s), int(s))
    while witness:
        (u, v), w = max(witness.items(), key=lambda t: (t[1], -t[0][0], -t[0][1]))
        if w < min_witness:
            break
        matched1[u] = v
        matched2[v] = u
        witness = {p: c for p, c in witness.items()
                   if p[0] != u and p[1] != v}
        bump(u, v)
    align = {u: {v} for u, v in matched1.items()}
    return identity_f1(align, g1)


# ------------------------------------------------------------ GSANA-like

def gsana_align_f1(spark: SparkSession, g1: Graph, g2: Graph,
                   n_anchors: int = 4, seed: int = 9) -> float:
    """Positional matching by BFS-distance-to-anchors feature vectors."""
    a1, a2 = AdjGraph.build(*_collect(g1)), AdjGraph.build(*_collect(g2))
    rng = np.random.default_rng(seed)
    shared = sorted(set(a1.label) & set(a2.label))
    anchors = [int(a) for a in
               rng.choice(shared, size=min(n_anchors, len(shared)), replace=False)]

    far = 99
    f1v = {u: [] for u in a1.label}
    f2v = {v: [] for v in a2.label}
    for a in anchors:
        d1 = a1.bfs(a)
        d2 = a2.bfs(a)
        for u in f1v:
            f1v[u].append(d1.get(u, far))
        for v in f2v:
            f2v[v].append(d2.get(v, far))
    align: Dict[int, Set[int]] = {}
    for u, l in a1.label.items():
        cands = a2.by_label.get(l, [])
        if not cands:
            continue
        fu = np.array(f1v[u])
        best_v, best_d = None, None
        for v in cands:
            d = float(np.abs(fu - np.array(f2v[v])).sum())
            if best_d is None or d < best_d:
                best_v, best_d = v, d
        align[u] = {best_v}
    return identity_f1(align, g1)
