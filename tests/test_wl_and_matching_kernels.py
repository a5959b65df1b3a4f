"""Driver-side kernels: WL color refinement, seed-expand match
generation, per-query baselines, F1 formulas (matching + alignment)."""
import pytest

from repro.align.harness import argmax_alignment, f1_alignment
from repro.exact.kbisim import wl_colors
from repro.graphs.model import AdjGraph
from repro.graphs.noise import Query
from repro.matching.baselines import gfinder_like, naga_like, tspan_like
from repro.matching.harness import (f1_match, f1_match_nodeset,
                                    scenario_mean, seed_expand)
from repro.tables.table6 import tspan_f1

import pandas as pd


class TestWLColors:
    def test_triangle_symmetric(self):
        lab = {0: "A", 1: "A", 2: "A"}
        edges = [(0, 1), (1, 2), (2, 0)]
        c = wl_colors(lab, edges)
        assert len(set(c.values())) == 1

    def test_path_endpoints_vs_middle(self):
        lab = {0: "A", 1: "A", 2: "A"}
        edges = [(0, 1), (1, 2)]
        c = wl_colors(lab, edges)
        assert c[0] == c[2] != c[1]

    def test_labels_separate_colors(self):
        lab = {0: "A", 1: "B"}
        c = wl_colors(lab, [])
        assert c[0] != c[1]

    def test_isomorphic_components_equal(self):
        # two disjoint copies of the same star
        lab = {0: "A", 1: "B", 2: "B", 10: "A", 11: "B", 12: "B"}
        edges = [(0, 1), (0, 2), (10, 11), (10, 12)]
        c = wl_colors(lab, edges)
        assert c[0] == c[10] and {c[1], c[2]} == {c[11], c[12]}

    def test_degree_refinement(self):
        # same label, different degree -> different colors
        lab = {0: "A", 1: "A", 2: "B"}
        edges = [(0, 2), (1, 2), (0, 1)]  # deg(0)=2? 0-2,0-1 -> deg 2; 1: 2; 2: 2
        c = wl_colors(lab, [(0, 2)])
        assert c[0] != c[1]  # node 1 isolated, node 0 has a neighbor

    def test_dangling_edge_raises_value_error(self):
        with pytest.raises(ValueError, match="dangling edge endpoint 7"):
            wl_colors({0: "A", 1: "A"}, [(0, 1), (1, 7)])
        with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
            wl_colors({0: "A", 1: "A"}, [(0, 1), (1, 0), (0, 1)])


def _adj(labels, edges):
    nodes = pd.DataFrame({"id": list(labels), "label": [labels[i] for i in labels]})
    e = pd.DataFrame(edges, columns=["src", "dst"]) if edges else \
        pd.DataFrame(columns=["src", "dst"], dtype="int64")
    return AdjGraph.build(nodes, e)


# a small data graph: A->B->C chain plus decoys
DATA_LABELS = {10: "A", 11: "B", 12: "C", 20: "A", 21: "B", 30: "C"}
DATA_EDGES = [(10, 11), (11, 12), (20, 21)]
DATA = _adj(DATA_LABELS, DATA_EDGES)


def chain_query():
    return Query(labels={0: "A", 1: "B", 2: "C"}, edges=[(0, 1), (1, 2)],
                 origin={0: 10, 1: 11, 2: 12})


class TestSeedExpand:
    def test_perfect_scores_recover_truth(self):
        q = chain_query()
        score = {(i, g): 1.0 for i, g in q.origin.items()}
        # add distractors with lower scores
        score[(0, 20)] = 0.5
        score[(1, 21)] = 0.5
        a = seed_expand(q, score, DATA)
        assert a == q.origin

    def test_empty_scores(self):
        assert seed_expand(chain_query(), {}, DATA) == {}

    def test_injective(self):
        q = chain_query()
        score = {(0, 10): 0.9, (1, 11): 0.9, (2, 12): 0.9, (0, 20): 0.8}
        a = seed_expand(q, score, DATA)
        assert len(set(a.values())) == len(a)

    def test_edge_order_settles_competing_neighbours(self):
        # query node 0's in-edge (2, 0) is listed before its out-edge
        # (0, 1); nodes 1 and 2 compete for data node 11, the only B
        # neighbour of 10 on either side, so edge order makes 2 win
        q = Query(labels={0: "A", 1: "B", 2: "B"}, edges=[(2, 0), (0, 1)],
                  origin={0: 10, 1: 11, 2: 11})
        data = _adj({10: "A", 11: "B"}, [(10, 11), (11, 10)])
        score = {(0, 10): 1.0, (1, 11): 0.5, (2, 11): 0.5}
        assert seed_expand(q, score, data) == {0: 10, 2: 11}

    def test_multi_seed_recovers_disconnected_regions(self):
        # query node 2's candidates exclude data neighbors of node 1's
        # match: it must be re-seeded, not dropped
        q = chain_query()
        score = {(0, 10): 1.0, (1, 11): 1.0, (2, 30): 0.7}
        a = seed_expand(q, score, DATA)
        assert a[2] == 30


class TestF1Formulas:
    def test_perfect_match(self):
        q = chain_query()
        assert f1_match(q, dict(q.origin)) == pytest.approx(1.0)

    def test_empty_match(self):
        assert f1_match(chain_query(), {}) == 0.0

    def test_partial_match(self):
        q = chain_query()
        a = {0: 10, 1: 21, 2: 30}  # 1 of 3 correct
        assert f1_match(q, a) == pytest.approx(1 / 3)

    def test_nodeset_variant(self):
        q = chain_query()
        assert f1_match_nodeset(q, {10, 11, 12}) == pytest.approx(1.0)
        assert f1_match_nodeset(q, None) == 0.0
        # half precision, 2/3 recall
        f1 = f1_match_nodeset(q, {10, 11, 20, 30})
        p, r = 2 / 4, 2 / 3
        assert f1 == pytest.approx(2 * p * r / (p + r))


class TestTspanLike:
    def test_exact_query_found(self):
        a = tspan_like(chain_query(), DATA, max_missing=0)
        assert a == {0: 10, 1: 11, 2: 12}

    def test_missing_edge_tolerated(self):
        q = Query(labels={0: "A", 1: "B", 2: "C"},
                  edges=[(0, 1), (1, 2), (0, 2)],  # extra edge not in data
                  origin={0: 10, 1: 11, 2: 12})
        assert tspan_like(q, DATA, max_missing=0) is None
        a = tspan_like(q, DATA, max_missing=1)
        assert a == {0: 10, 1: 11, 2: 12}

    def test_absent_label_returns_none(self):
        q = Query(labels={0: "Z"}, edges=[], origin={0: 10})
        assert tspan_like(q, DATA, max_missing=3) is None

    def test_scenario_mean_counts_no_result_as_miss(self):
        # one perfect match and one query without result: the mean is
        # 50, not None (only an all-None scenario reports '-')
        z = Query(labels={0: "Z"}, edges=[], origin={0: 10})
        f1s = [tspan_f1(1)(q, DATA) for q in [chain_query(), z]]
        assert f1s == [pytest.approx(1.0), None]
        assert scenario_mean(f1s) == 50.0
        assert scenario_mean([None, None]) is None


class TestNagaAndGFinder:
    def test_naga_exact_chain(self):
        a = naga_like(chain_query(), DATA)
        assert set(a) == {0, 1, 2}
        assert a[2] == 12  # only 12 is a C reachable from a matched B

    def test_gfinder_exact_chain(self):
        a = gfinder_like(chain_query(), DATA)
        assert a == {0: 10, 1: 11, 2: 12}

    def test_gfinder_label_mismatch_allowed(self):
        q = Query(labels={0: "A", 1: "Z"}, edges=[(0, 1)], origin={0: 10, 1: 11})
        a = gfinder_like(q, DATA)
        assert 0 in a and 1 in a  # still produces a (costly) match


class TestAlignmentF1:
    def test_perfect_singletons(self):
        align = {1: {1}, 2: {2}}
        assert f1_alignment(align, {1: 1, 2: 2}, 2) == pytest.approx(100.0)

    def test_ties_penalize_precision(self):
        # A_u = {truth, other}: P = 1/2, R = 1 -> F1 term = 2/3
        align = {1: {1, 9}}
        assert f1_alignment(align, {1: 1}, 1) == pytest.approx(100 * 2 / 3)

    def test_miss_scores_zero(self):
        assert f1_alignment({1: {9}}, {1: 1}, 1) == 0.0

    def test_argmax_alignment_ties(self):
        scores = pd.DataFrame({"u": [1, 1, 1], "v": [5, 6, 7],
                               "score": [0.9, 0.9, 0.2]})
        a = argmax_alignment(scores)
        assert a[1] == {5, 6}
