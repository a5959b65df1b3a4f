"""Properties of the FSim framework via the pure-Python reference
implementation (Definition 4's P1-P3, convergence, operator conventions).
"""
import random

import pytest

from repro.core.reference import FSimConfig, fsim_reference
from repro.exact.pysim import exact_simulation_py
from repro.graphs.toy import G1_EDGES, G1_LABELS, G2_EDGES, G2_LABELS, U, V

VARIANTS = ["s", "dp", "b", "bj"]


def random_graph(seed, n=8, p=0.25, labels=("A", "B", "C")):
    rng = random.Random(seed)
    lab = {i: rng.choice(labels) for i in range(n)}
    edges = [(i, j) for i in range(n) for j in range(n)
             if i != j and rng.random() < p]
    return lab, edges


@pytest.mark.parametrize("variant", VARIANTS)
class TestRangeP1:
    def test_toy(self, variant):
        cfg = FSimConfig(variant=variant)
        r = fsim_reference(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, cfg)
        assert all(0.0 <= s <= 1.0 + 1e-12 for s in r.scores.values())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random(self, variant, seed):
        l1, e1 = random_graph(seed)
        l2, e2 = random_graph(seed + 50)
        cfg = FSimConfig(variant=variant)
        r = fsim_reference(l1, e1, l2, e2, cfg)
        assert all(0.0 <= s <= 1.0 + 1e-12 for s in r.scores.values())


@pytest.mark.parametrize("variant", VARIANTS)
class TestSimulationDefinitenessP2:
    """u ~>chi v  iff  FSim_chi(u, v) = 1 (on the Figure-1 toy, where the
    greedy matching attains the maximum)."""

    def test_verdicts_match_scores(self, variant):
        cfg = FSimConfig(variant=variant, eps=1e-4, max_iter=80)
        r = fsim_reference(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, cfg)
        rel = exact_simulation_py(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES,
                                  variant)
        for name, v in V.items():
            simulated = (U, v) in rel
            score = r.scores[(U, v)]
            if simulated:
                assert score == pytest.approx(1.0, abs=1e-6), (name, score)
            else:
                assert score < 1.0 - 1e-3, (name, score)

    def test_all_pairs_consistency(self, variant):
        cfg = FSimConfig(variant=variant, eps=1e-4, max_iter=80)
        r = fsim_reference(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, cfg)
        rel = exact_simulation_py(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES,
                                  variant)
        for p, score in r.scores.items():
            if p in rel:
                assert score == pytest.approx(1.0, abs=1e-6), p


class TestConditionalSymmetryP3:
    @pytest.mark.parametrize("variant", ["b", "bj"])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_symmetric_variants(self, variant, seed):
        l1, e1 = random_graph(seed)
        l2, e2 = random_graph(seed + 100)
        cfg = FSimConfig(variant=variant, exact_iters=4)
        fwd = fsim_reference(l1, e1, l2, e2, cfg).scores
        bwd = fsim_reference(l2, e2, l1, e1, cfg).scores
        for (u, v), s in fwd.items():
            assert s == pytest.approx(bwd[(v, u)], abs=1e-9)

    def test_s_is_asymmetric_somewhere(self):
        # s-simulation has no converse invariant: find an asymmetric pair
        cfg = FSimConfig(variant="s", exact_iters=4)
        fwd = fsim_reference(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, cfg).scores
        bwd = fsim_reference(G2_LABELS, G2_EDGES, G1_LABELS, G1_EDGES, cfg).scores
        assert any(abs(fwd[(u, v)] - bwd[(v, u)]) > 1e-6 for (u, v) in fwd)


class TestConvergence:
    @pytest.mark.parametrize("variant", ["s", "b"])
    def test_iteration_bound(self, variant):
        # Corollary 1: converges within ceil(log_{w+ + w-} eps) iterations
        import math
        w = 0.3
        eps = 0.01
        cfg = FSimConfig(variant=variant, w_out=w, w_in=w, eps=eps, max_iter=100)
        r = fsim_reference(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, cfg)
        bound = math.ceil(math.log(eps) / math.log(2 * w))
        assert r.iterations <= bound + 1

    def test_smaller_weights_converge_faster(self):
        slow = FSimConfig(variant="s", w_out=0.45, w_in=0.45, eps=1e-3, max_iter=200)
        fast = FSimConfig(variant="s", w_out=0.2, w_in=0.2, eps=1e-3, max_iter=200)
        rs = fsim_reference(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, slow)
        rf = fsim_reference(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, fast)
        assert rf.iterations <= rs.iterations


class TestEmptyNeighborhoodConventions:
    """DESIGN §2: vacuous satisfaction when neighborhoods are empty."""

    def test_isolated_nodes_score_one_all_variants(self):
        l1 = {0: "A"}
        l2 = {0: "A"}
        for variant in VARIANTS:
            r = fsim_reference(l1, [], l2, [], FSimConfig(variant=variant))
            assert r.scores[(0, 0)] == pytest.approx(1.0)

    def test_s_vacuous_when_u_has_no_neighbors(self):
        # u isolated, v has a neighbor: s-simulation holds (score 1)
        l1 = {0: "A"}
        l2 = {0: "A", 1: "B"}
        r = fsim_reference(l1, [], l2, [(0, 1)], FSimConfig(variant="s"))
        assert r.scores[(0, 0)] == pytest.approx(1.0)

    def test_b_fails_when_only_v_has_neighbors(self):
        l1 = {0: "A"}
        l2 = {0: "A", 1: "B"}
        r = fsim_reference(l1, [], l2, [(0, 1)], FSimConfig(variant="b"))
        assert r.scores[(0, 0)] < 1.0

    def test_bj_zero_out_term_on_size_zero_mismatch(self):
        l1 = {0: "A"}
        l2 = {0: "A", 1: "B"}
        cfg = FSimConfig(variant="bj", w_out=0.4, w_in=0.4)
        r = fsim_reference(l1, [], l2, [(0, 1)], cfg)
        # out-term 0 (one side empty), in-term 1 (both empty), label 1
        assert r.scores[(0, 0)] == pytest.approx(0.4 + 0.2)


class TestThetaConstraint:
    def test_theta_one_restricts_candidates(self):
        cfg0 = FSimConfig(variant="s", theta=0.0)
        cfg1 = FSimConfig(variant="s", theta=1.0)
        r0 = fsim_reference(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, cfg0)
        r1 = fsim_reference(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, cfg1)
        assert set(r1.scores) < set(r0.scores)
        same_label = {(u, v) for u in G1_LABELS for v in G2_LABELS
                      if G1_LABELS[u] == G2_LABELS[v]}
        assert set(r1.scores) == same_label

    def test_theta_does_not_change_perfect_scores(self):
        for variant in VARIANTS:
            r1 = fsim_reference(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES,
                                FSimConfig(variant=variant, theta=1.0))
            rel = exact_simulation_py(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES,
                                      variant)
            for p in rel:
                assert r1.scores[p] == pytest.approx(1.0, abs=1e-6)


class TestUpperBoundUpdating:
    def test_beta_zero_freezes_nothing(self):
        cfg = FSimConfig(variant="bj", upper_bound=True, alpha=0.2, beta=0.0)
        r = fsim_reference(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, cfg)
        assert not r.frozen

    def test_beta_one_freezes_imperfect_pairs(self):
        cfg = FSimConfig(variant="bj", upper_bound=True, alpha=0.0, beta=0.999)
        r = fsim_reference(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, cfg)
        assert r.frozen  # plenty of pairs cannot reach ub >= 0.999
        # frozen pairs are excluded from the live score map
        assert not (set(r.frozen) & set(r.scores))

    def test_frozen_score_is_alpha_times_ub(self):
        cfg = FSimConfig(variant="s", upper_bound=True, alpha=0.0, beta=0.5)
        r = fsim_reference(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, cfg)
        assert all(v == 0.0 for v in r.frozen.values())

    def test_ub_keeps_simulated_pairs_live(self):
        # pairs that are exactly simulated have ub = 1 >= beta: never frozen
        for variant in VARIANTS:
            cfg = FSimConfig(variant=variant, upper_bound=True, alpha=0.0,
                             beta=0.9)
            r = fsim_reference(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, cfg)
            rel = exact_simulation_py(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES,
                                      variant)
            for p in rel:
                assert p in r.scores, (variant, p)
                assert r.scores[p] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("variant", ["dp", "bj"])
    def test_bound_holds_on_random_graphs(self, variant):
        # alpha=1, beta > 1 freezes every pair at exactly its Eq.-6 bound;
        # the converged score must not exceed it. Seed 6, for one, broke
        # the bound when |M| was a greedy matching's cardinality.
        labels = ("ab", "ac", "bc", "abc", "b")
        for seed in range(150):
            l1, e1 = random_graph(seed, 9, 0.3, labels)
            l2, e2 = random_graph(seed + 1000, 9, 0.3, labels)
            kw = dict(variant=variant, label_fn="edit", theta=0.5)
            ub = fsim_reference(l1, e1, l2, e2, FSimConfig(
                upper_bound=True, alpha=1.0, beta=1.01, **kw)).frozen
            scores = fsim_reference(l1, e1, l2, e2, FSimConfig(**kw)).scores
            assert set(ub) == set(scores), seed
            for p, s in scores.items():
                assert s <= ub[p] + 1e-12, (seed, p, s, ub[p])


class TestInitOverride:
    def test_custom_init_changes_first_iteration_only_transiently(self):
        cfg = FSimConfig(variant="s", exact_iters=1)
        ones = {(u, v): 1.0 for u in G1_LABELS for v in G2_LABELS}
        r = fsim_reference(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, cfg,
                           init=ones)
        base = fsim_reference(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, cfg)
        assert any(abs(r.scores[p] - base.scores[p]) > 1e-9 for p in r.scores)


class TestConfigValidation:
    def test_rejects_bad_variant(self):
        with pytest.raises(ValueError):
            FSimConfig(variant="nope")

    def test_rejects_weights_sum_one(self):
        with pytest.raises(ValueError):
            FSimConfig(variant="s", w_out=0.5, w_in=0.5)

    def test_rejects_zero_weights(self):
        with pytest.raises(ValueError):
            FSimConfig(variant="s", w_out=0.0, w_in=0.0)

    @pytest.mark.parametrize("alpha", [-0.1, 1.5])
    def test_rejects_alpha_outside_unit_interval(self, alpha):
        # frozen scores are alpha * ub, so alpha > 1 could score above 1
        with pytest.raises(ValueError, match="alpha"):
            FSimConfig(variant="s", upper_bound=True, alpha=alpha)

    def test_rejects_unknown_label_fn(self):
        with pytest.raises(ValueError, match="jaro.*jaro_winkler"):
            FSimConfig(label_fn="jaro")

    def test_rejects_negative_exact_iters(self):
        with pytest.raises(ValueError, match="exact_iters"):
            FSimConfig(exact_iters=-1)
        # zero is Theorem 4 at k = 0, and a callable L stays legal
        FSimConfig(exact_iters=0, label_fn=lambda a, b: 1.0)

    def test_w_label_property(self):
        cfg = FSimConfig(variant="s", w_out=0.3, w_in=0.3)
        assert cfg.w_label == pytest.approx(0.4)
