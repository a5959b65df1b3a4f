"""Alignment baselines for Table 9 (simplified re-implementations).

Each runs on the driver over two ``AdjGraph`` graphs.

- ``kbisim_align_f1``: align u to all v with equal k-bisimulation
  colours (exactly the paper's protocol for the x-bisim rows).
- ``olap_align_f1``: Olap-like [7] best-effort bisimulation alignment —
  per node, use the deepest colour level that still has matches.
- ``final_align_f1``: FINAL-like [46] — iterative attributed similarity
  ``S = (1 - lam) H + lam * P1^T S P2`` (numpy; the graphs are small
  and the original is a Matlab matrix method).
- ``ews_align_f1``: EWS-like [47] — seeded percolation graph matching:
  grow from a handful of ground-truth seeds by witness counting.
- ``gsana_align_f1``: GSANA-like [45] — positional features (BFS
  distances to anchor seeds) + nearest-neighbor matching per label.
"""
from __future__ import annotations

from typing import Dict, Set, Tuple

import numpy as np

from ..exact.kbisim import Colouring, kbisim_levels
from ..graphs.model import AdjGraph
from .harness import identity_f1


def _align_on_colour(c1: Colouring, c2: Colouring) -> Dict[int, Set[int]]:
    """u -> the nodes of the second graph sharing u's colour."""
    by_colour: Dict[int, Set[int]] = {}
    for v, c in c2.items():
        by_colour.setdefault(c, set()).add(v)
    return {u: by_colour.get(c, set()) for u, c in c1.items()}


# --------------------------------------------------------------- k-bisim

def kbisim_align(g1: AdjGraph, g2: AdjGraph, k: int) -> Dict[int, Set[int]]:
    return _align_on_colour(*kbisim_levels([g1, g2], k)[k])


def kbisim_align_f1(g1: AdjGraph, g2: AdjGraph, k: int) -> float:
    return identity_f1(kbisim_align(g1, g2, k), g1.label)


def olap_align(g1: AdjGraph, g2: AdjGraph,
               max_k: int = 5) -> Dict[int, Set[int]]:
    """Best-effort bisimulation alignment: deepest level with matches."""
    align: Dict[int, Set[int]] = {}
    for c1, c2 in kbisim_levels([g1, g2], max_k):
        # deeper levels overwrite when non-empty
        align.update((u, m) for u, m in _align_on_colour(c1, c2).items() if m)
    return align


def olap_align_f1(g1: AdjGraph, g2: AdjGraph, max_k: int = 5) -> float:
    return identity_f1(olap_align(g1, g2, max_k), g1.label)


# ----------------------------------------------------------- FINAL-like

def _sym_adjacency(g: AdjGraph) -> np.ndarray:
    """Undirected 0/1 adjacency matrix, rows and columns in node order."""
    pos = {u: k for k, u in enumerate(g.label)}
    a = np.zeros((len(pos), len(pos)))
    for s, outs in g.out.items():
        for d in outs:
            a[pos[s], pos[d]] = a[pos[d], pos[s]] = 1.0
    return a


def final_align_f1(g1: AdjGraph, g2: AdjGraph,
                   lam: float = 0.8, iters: int = 15) -> float:
    ids1, ids2 = list(g1.label), list(g2.label)
    a1, a2 = _sym_adjacency(g1), _sym_adjacency(g2)
    p1 = a1 / np.maximum(a1.sum(axis=1, keepdims=True), 1.0)
    p2 = a2 / np.maximum(a2.sum(axis=1, keepdims=True), 1.0)
    # attribute prior: label consistency weighted by degree similarity
    # (FINAL's H encodes node-attribute consistency; degree ratio is the
    # natural structural attribute here)
    d1 = np.maximum(a1.sum(axis=1), 1.0)
    d2 = np.maximum(a2.sum(axis=1), 1.0)
    dr = np.minimum(d1[:, None], d2[None, :]) / np.maximum(d1[:, None], d2[None, :])
    lab1 = np.array(list(g1.label.values()), dtype=object)
    lab2 = np.array(list(g2.label.values()), dtype=object)
    h = (lab1[:, None] == lab2[None, :]).astype("float64") * dr
    s = h.copy()
    for _ in range(iters):
        s = (1 - lam) * h + lam * (p1 @ s @ p2.T)
    s = np.where(h > 0, s, -np.inf)  # attribute consistency: same label only
    align: Dict[int, Set[int]] = {}
    for k, u in enumerate(ids1):
        row = s[k]
        m = row.max()
        if np.isfinite(m):
            align[u] = {ids2[j] for j in np.nonzero(row >= m - 1e-12)[0]}
    return identity_f1(align, g1.label)


# ------------------------------------------------------------- EWS-like

def ews_align_f1(a1: AdjGraph, a2: AdjGraph, n_seeds: int = 30,
                 min_witness: int = 2, seed: int = 5) -> float:
    """Seeded percolation: repeatedly add the candidate pair with the
    most matched neighbor pairs (witnesses), threshold ``min_witness``."""
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
    return identity_f1(align, a1.label)


# ------------------------------------------------------------ GSANA-like

def gsana_align_f1(a1: AdjGraph, a2: AdjGraph, n_anchors: int = 4,
                   seed: int = 9) -> float:
    """Positional matching by BFS-distance-to-anchors feature vectors."""
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
    return identity_f1(align, a1.label)
