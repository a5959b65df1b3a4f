"""Colour refinement: k-bisimulation and the Weisfeiler-Lehman test.

Substrates for Section 4.3's relation theorems:

- Theorem 4: u and v are k-bisimilar (equal level-k refinement
  signatures, Luo et al. [21], out-neighbors only) iff
  ``FSim_b^k(u, v) = 1`` with ``G1 = G2`` and ``w- = 0``.
- Theorem 5: the WL color-refinement test deems u, v equivalent iff
  ``FSim_bj(u, v) = 1`` on the undirected view.

Both are one driver-side refinement loop over ``AdjGraph`` graphs that
share one colour palette, so equal colour ints mean "equivalent" within
one graph and across graphs. Table 9's 2-/4-bisim and Olap alignment
baselines read the k-bisimulation levels; the WL test is the Theorem-5
oracle of the tests.
"""
from __future__ import annotations

from itertools import islice
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from ..graphs.model import AdjGraph

Pair = Tuple[int, int]
Colouring = Dict[int, int]
#: ``(graph, previous colouring, node) -> the neighbourhood part of the key``
NbrKey = Callable[[AdjGraph, Colouring, int], Tuple[int, ...]]


def _refine(graphs: Sequence[AdjGraph],
            nbr_key: NbrKey) -> Iterator[List[Colouring]]:
    """Yield one colouring per graph at level 0 (labels), 1, 2, ...

    A node's level-i colour interns ``(its level-(i-1) colour,
    nbr_key(...))`` in a palette shared by all graphs and levels. Keys
    of different levels never coincide, so each level's colours are
    fresh ints, and two nodes share a colour iff they are equivalent at
    that level.
    """
    palette: Dict[object, int] = {}

    def intern(key) -> int:
        return palette.setdefault(key, len(palette))

    colours = [{u: intern(("L", lab)) for u, lab in g.label.items()}
               for g in graphs]
    while True:
        yield colours
        colours = [{u: intern((c[u], nbr_key(g, c, u))) for u in g.label}
                   for g, c in zip(graphs, colours)]


def _out_set(g: AdjGraph, c: Colouring, u: int) -> Tuple[int, ...]:
    # a set, not a multiset (Theorem 4's proof: "the set of signature
    # values in u's neighborhood"), matching FSim_b's reuse-allowing mapping
    return tuple(sorted({c[n] for n in g.out[u]}))


def _nbr_multiset(g: AdjGraph, c: Colouring, u: int) -> Tuple[int, ...]:
    # a multiset on both sides, matching FSim_bj's injective mapping
    return tuple(sorted(c[n] for n, _ in g.nbrs[u]))


def kbisim_levels(graphs: Sequence[AdjGraph], k: int) -> List[List[Colouring]]:
    """k-bisimulation colours at levels ``0..k``: ``levels[i][j][u]`` is
    node ``u``'s colour in ``graphs[j]``; two nodes, of one graph or of
    two, are i-bisimilar iff their level-i colours are equal [21]."""
    return list(islice(_refine(graphs, _out_set), k + 1))


# ----------------------------------------------------------------- WL test

def wl_colors(labels: Dict[int, str], edges: List[Pair],
              max_iters: int = 50) -> Colouring:
    """Undirected WL color refinement until stable (or ``max_iters``).

    Returns the final color id per node; run both graphs through one
    call (disjoint-union ids) to compare across graphs. An edge endpoint
    absent from ``labels`` raises ``ValueError``.
    """
    levels = _refine([AdjGraph(labels, edges)], _nbr_multiset)
    color = next(levels)[0]
    n_colors = len(set(color.values()))
    for _ in range(max_iters):
        color = next(levels)[0]
        new_n = len(set(color.values()))
        if new_n == n_colors:
            break
        n_colors = new_n
    return color
