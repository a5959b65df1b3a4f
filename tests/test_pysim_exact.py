"""Exact chi-simulation (Python kernels): Definition 1-3 semantics,
the Figure-1/Table-2 verdict grid, variant strictness, strong simulation.
"""
import random

import pytest

from repro.core.reference import FSimConfig, fsim_reference
from repro.exact.pysim import (ball, chi_simulated, exact_simulation_py,
                               maximal_dual_sim, query_diameter,
                               strong_simulation_match)
from repro.graphs.model import AdjGraph
from repro.graphs.toy import (G1_EDGES, G1_LABELS, G2_EDGES, G2_LABELS,
                              PAPER_TABLE2, U, V)

VARIANTS = ["s", "dp", "b", "bj"]


def random_graph(seed, n=7, p=0.3, labels=("A", "B")):
    rng = random.Random(seed)
    lab = {i: rng.choice(labels) for i in range(n)}
    edges = [(i, j) for i in range(n) for j in range(n)
             if i != j and rng.random() < p]
    return lab, edges


class TestTable2Verdicts:
    """The reconstructed Figure-1 graphs must reproduce every exact
    verdict of the paper's Table 2."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_verdict_grid(self, variant):
        rel = exact_simulation_py(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES,
                                  variant)
        for name, v in V.items():
            expected, _ = PAPER_TABLE2[variant][name]
            assert ((U, v) in rel) == expected, (variant, name)


class TestBasicSemantics:
    def test_label_mismatch_never_simulates(self):
        rel = exact_simulation_py({0: "A"}, [], {0: "B"}, [], "s")
        assert rel == set()

    def test_isolated_same_label(self):
        for variant in VARIANTS:
            assert chi_simulated({0: "A"}, [], {0: "A"}, [], 0, 0, variant)

    def test_leaf_simulated_by_parent_graph_node(self):
        # u: A->B ; v: A->B : roots simulate each other
        l = {0: "A", 1: "B"}
        e = [(0, 1)]
        for variant in VARIANTS:
            assert chi_simulated(l, e, l, e, 0, 0, variant)

    def test_s_allows_neighbor_reuse_dp_does_not(self):
        # u has two B-children; v has one
        l1 = {0: "A", 1: "B", 2: "B"}
        e1 = [(0, 1), (0, 2)]
        l2 = {0: "A", 1: "B"}
        e2 = [(0, 1)]
        assert chi_simulated(l1, e1, l2, e2, 0, 0, "s")
        assert not chi_simulated(l1, e1, l2, e2, 0, 0, "dp")

    def test_b_requires_converse_coverage(self):
        # v has an extra C-child that simulates nothing in u
        l1 = {0: "A", 1: "B"}
        e1 = [(0, 1)]
        l2 = {0: "A", 1: "B", 2: "C"}
        e2 = [(0, 1), (0, 2)]
        assert chi_simulated(l1, e1, l2, e2, 0, 0, "s")
        assert not chi_simulated(l1, e1, l2, e2, 0, 0, "b")

    def test_bj_requires_equal_degrees(self):
        l1 = {0: "A", 1: "B"}
        e1 = [(0, 1)]
        l2 = {0: "A", 1: "B", 2: "B"}
        e2 = [(0, 1), (0, 2)]
        assert chi_simulated(l1, e1, l2, e2, 0, 0, "dp")
        assert not chi_simulated(l1, e1, l2, e2, 0, 0, "bj")

    def test_dangling_edge_raises_value_error(self):
        # edge (0, 1) names node 1, which has no label
        with pytest.raises(ValueError, match="endpoint 1"):
            AdjGraph({0: "A"}, [(0, 1)])
        with pytest.raises(ValueError, match="endpoint 1"):
            fsim_reference({0: "A"}, [(0, 1)], {0: "A"}, [], FSimConfig())
        with pytest.raises(ValueError, match="endpoint 1"):
            exact_simulation_py({0: "A"}, [], {0: "A"}, [(0, 1)], "s")
        # a repeated edge: the engine and the reference would disagree on it
        lab, twice = {0: "A", 1: "B"}, [(0, 1), (0, 1)]
        with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
            AdjGraph(lab, twice)
        with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
            fsim_reference(lab, twice, lab, [(0, 1)], FSimConfig())
        with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
            exact_simulation_py(lab, [(0, 1)], lab, twice, "s")

    def test_unknown_variant_raises(self):
        # simrank is an engine configuration, not an exact simulation
        with pytest.raises(ValueError, match="simrank"):
            exact_simulation_py(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES,
                                "simrank")

    def test_in_neighbors_matter(self):
        # same out-structure, u has an in-edge that v lacks
        l1 = {0: "A", 1: "C"}
        e1 = [(1, 0)]
        l2 = {0: "A"}
        assert not chi_simulated(l1, e1, l2, [], 0, 0, "s")


class TestStrictnessHierarchy:
    """Figure 3(b): bj implies dp and b; dp and b imply s."""

    @pytest.mark.parametrize("seed", range(8))
    def test_hierarchy_random(self, seed):
        l1, e1 = random_graph(seed)
        l2, e2 = random_graph(seed + 31)
        rel = {v: exact_simulation_py(l1, e1, l2, e2, v) for v in VARIANTS}
        assert rel["bj"] <= rel["dp"] <= rel["s"]
        assert rel["bj"] <= rel["b"] <= rel["s"]

    @pytest.mark.parametrize("variant", ["b", "bj"])
    @pytest.mark.parametrize("seed", range(4))
    def test_converse_invariance(self, variant, seed):
        l1, e1 = random_graph(seed)
        l2, e2 = random_graph(seed + 77)
        fwd = exact_simulation_py(l1, e1, l2, e2, variant)
        bwd = exact_simulation_py(l2, e2, l1, e1, variant)
        assert {(v, u) for (u, v) in fwd} == bwd

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_self_simulation_reflexive(self, variant):
        # every node chi-simulates itself when comparing a graph to itself
        l, e = random_graph(5)
        rel = exact_simulation_py(l, e, l, e, variant)
        for u in l:
            assert (u, u) in rel


class TestDualSimAndStrong:
    def test_query_diameter_path(self):
        assert query_diameter(
            AdjGraph({0: "A", 1: "B", 2: "C"}, [(0, 1), (1, 2)])) == 2

    def test_query_diameter_star(self):
        assert query_diameter(
            AdjGraph({0: "A", 1: "B", 2: "B"}, [(0, 1), (0, 2)])) == 2

    def test_ball_radius_zero(self):
        data = AdjGraph({0: "A", 1: "A"}, [(0, 1)])
        assert ball(0, 0, data) == {0}

    def test_ball_expands(self):
        data = AdjGraph({0: "A", 1: "A", 2: "A"}, [(0, 1), (1, 2)])
        assert ball(0, 1, data) == {0, 1}
        assert ball(0, 2, data) == {0, 1, 2}

    def test_dual_sim_exact_embedding_survives(self):
        data = AdjGraph({10: "A", 11: "B", 12: "C"}, [(10, 11), (11, 12)])
        cand = maximal_dual_sim(AdjGraph({0: "A", 1: "B"}, [(0, 1)]), data)
        assert 10 in cand[0] and 11 in cand[1]

    def test_dual_sim_prunes_impossible(self):
        data = AdjGraph({10: "A", 11: "B", 20: "A"}, [(10, 11)])
        cand = maximal_dual_sim(AdjGraph({0: "A", 1: "B"}, [(0, 1)]), data)
        assert cand[0] == {10}  # node 20 has no B-child

    def test_strong_simulation_finds_exact_match(self):
        data = AdjGraph({10: "A", 11: "B", 12: "C", 13: "D"},
                        [(10, 11), (11, 12), (13, 10)])
        phi = strong_simulation_match({0: "A", 1: "B"}, [(0, 1)], data)
        assert phi == {10, 11}

    def test_strong_simulation_none_when_label_absent(self):
        phi = strong_simulation_match({0: "Z"}, [], AdjGraph({10: "A"}, []))
        assert phi is None

    def test_strong_simulation_none_when_structure_missing(self):
        # query needs A->B but data has no such edge
        data = AdjGraph({10: "A", 11: "B"}, [])
        phi = strong_simulation_match({0: "A", 1: "B"}, [(0, 1)], data)
        assert phi is None
