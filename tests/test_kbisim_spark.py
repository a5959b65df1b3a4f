"""k-bisimulation colours, Theorem 4 (k-bisim <-> FSim_b^k = 1) and
Theorem 5 (WL <-> FSim_bj = 1): the driver-side refinement kernel against
the Spark engine."""
import random

import pytest

from repro.core.fsim import fsim_spark
from repro.core.reference import FSimConfig
from repro.core.configs import symmetrize
from repro.exact.kbisim import kbisim_levels, wl_colors
from repro.graphs.model import AdjGraph, Graph


def random_graph(seed, n=10, p=0.25, labels=("A", "B")):
    rng = random.Random(seed)
    lab = {i: rng.choice(labels) for i in range(n)}
    edges = [(i, j) for i in range(n) for j in range(n)
             if i != j and rng.random() < p]
    return lab, edges


def kbisim_colors(lab, edges, k):
    """Level-k k-bisimulation colour of every node of one graph."""
    return kbisim_levels([AdjGraph(lab, edges)], k)[k][0]


class TestSignatures:
    def test_sig0_is_label_partition(self):
        lab, edges = random_graph(1)
        sig = kbisim_colors(lab, edges, 0)
        for u in lab:
            for v in lab:
                assert (sig[u] == sig[v]) == (lab[u] == lab[v])

    def test_signatures_refine_monotonically(self):
        lab, edges = random_graph(2)
        prev_partition = None
        for k in range(3):
            sig = kbisim_colors(lab, edges, k)
            partition = {}
            for u, s in sig.items():
                partition.setdefault(s, set()).add(u)
            blocks = sorted(map(frozenset, partition.values()), key=sorted)
            if prev_partition is not None:
                # every new block fits inside an old block (refinement)
                for b in blocks:
                    assert any(b <= old for old in prev_partition)
            prev_partition = blocks

    def test_deterministic_across_runs(self):
        lab, edges = random_graph(3)
        s1 = sorted(kbisim_colors(lab, edges, 2).items())
        s2 = sorted(kbisim_colors(lab, edges, 2).items())
        assert s1 == s2


class TestTheorem4:
    """u, v k-bisimilar iff FSim_b^k(u, v) = 1 (G1 = G2, w- = 0)."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_equivalence(self, spark, k):
        lab, edges = random_graph(4, n=9)
        g = Graph.from_edge_list(spark, lab, edges)
        sig = kbisim_colors(lab, edges, k)
        bis = {(u, v) for u in lab for v in lab if sig[u] == sig[v]}
        cfg = FSimConfig(variant="b", w_out=0.8, w_in=0.0, theta=1.0,
                         exact_iters=k)
        scores = {(r["u"], r["v"]): r["score"]
                  for r in fsim_spark(spark, g, g, cfg).collect()}
        ones = {p for p, s in scores.items() if abs(s - 1.0) < 1e-9}
        assert ones == bis


class TestTheorem5:
    """WL colors equal iff FSim_bj = 1 on the undirected view."""

    def test_equivalence_small(self, spark):
        lab, edges = random_graph(5, n=8, p=0.3)
        g = symmetrize(Graph.from_edge_list(spark, lab, edges))
        und_edges = [(r["src"], r["dst"]) for r in g.edges.collect()]
        colors = wl_colors(lab, [(s, d) for s, d in und_edges if s < d])
        cfg = FSimConfig(variant="bj", w_out=0.8, w_in=0.0, theta=1.0,
                         eps=1e-6, max_iter=30)
        scores = {(r["u"], r["v"]): r["score"]
                  for r in fsim_spark(spark, g, g, cfg).collect()}
        ones = {p for p, s in scores.items() if abs(s - 1.0) < 1e-9}
        wl_equal = {(u, v) for u in lab for v in lab
                    if colors[u] == colors[v] and (u, v) in scores}
        assert ones == wl_equal
