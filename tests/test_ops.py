"""Unit tests for the matching kernels (core/ops): greedy matching and
Kuhn's saturating-matching check."""
import itertools
import random

import pytest

from repro.core.ops import greedy_matching, kuhn_saturating


def brute_force_best(xs, ys, ss):
    """Exact maximum-weight matching by enumeration (tiny inputs only)."""
    best = 0.0
    n = len(ss)
    for r in range(1, n + 1):
        for combo in itertools.combinations(range(n), r):
            if len({xs[i] for i in combo}) < r or len({ys[i] for i in combo}) < r:
                continue
            best = max(best, sum(ss[i] for i in combo))
    return best


class TestGreedyMatching:
    def test_empty(self):
        assert greedy_matching([], [], []) == (0.0, 0)

    def test_single(self):
        assert greedy_matching([1], [2], [0.5]) == (0.5, 1)

    def test_takes_best_first(self):
        total, count = greedy_matching([1, 1], [2, 3], [0.2, 0.9])
        assert total == 0.9 and count == 1

    def test_injective_both_sides(self):
        # greedy takes (1,5) first (tie-break by x,y), which blocks both
        # (1,6) and (2,5) — cardinality 1, though the optimum is 2
        total, count = greedy_matching([1, 1, 2], [5, 6, 5], [1.0, 1.0, 1.0])
        assert count == 1 and total == 1.0
        # the repeated endpoints are never matched twice
        total2, count2 = greedy_matching([1, 2], [6, 5], [1.0, 1.0])
        assert count2 == 2 and total2 == 2.0

    def test_classic_greedy_suboptimal(self):
        # greedy takes (1,5)=0.6 and blocks both 0.5s -> 0.6 < optimal 1.0
        total, _ = greedy_matching([1, 2], [5, 5], [0.6, 0.5])
        assert total == 0.6

    def test_deterministic_tie_break(self):
        a = greedy_matching([2, 1], [9, 8], [0.5, 0.5])
        b = greedy_matching([1, 2], [8, 9], [0.5, 0.5])
        assert a == b == (1.0, 2)

    @pytest.mark.parametrize("seed", range(20))
    def test_half_approximation_and_validity(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        xs = [rng.randint(0, 3) for _ in range(n)]
        ys = [rng.randint(10, 13) for _ in range(n)]
        ss = [round(rng.random(), 3) for _ in range(n)]
        total, count = greedy_matching(xs, ys, ss)
        opt = brute_force_best(xs, ys, ss)
        assert total <= opt + 1e-9
        assert total >= opt / 2 - 1e-9  # greedy is a 1/2-approximation
        assert 0 <= count <= min(len(set(xs)), len(set(ys)))


class TestKuhnSaturating:
    def test_empty_left(self):
        assert kuhn_saturating([], {}) is True

    def test_simple_saturating(self):
        assert kuhn_saturating([1, 2], {1: [10], 2: [11]}) is True

    def test_no_candidates(self):
        assert kuhn_saturating([1], {1: []}) is False

    def test_requires_augmenting_path(self):
        # greedy-by-order would match 1->10 and strand 2; Kuhn augments
        assert kuhn_saturating([1, 2], {1: [10, 11], 2: [10]}) is True

    def test_infeasible_pigeonhole(self):
        assert kuhn_saturating([1, 2, 3], {1: [10, 11], 2: [10, 11], 3: [10, 11]}) is False

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_brute_force(self, seed):
        rng = random.Random(100 + seed)
        left = list(range(rng.randint(1, 4)))
        right = list(range(10, 10 + rng.randint(1, 4)))
        cand = {u: [v for v in right if rng.random() < 0.5] for u in left}
        got = kuhn_saturating(left, cand)
        # brute force: try all injective assignments
        feasible = False
        for perm in itertools.permutations(right, min(len(left), len(right))):
            if len(perm) < len(left):
                break
            if all(perm[i] in cand[u] for i, u in enumerate(left)):
                feasible = True
                break
        assert got == feasible


class TestGreedySqlEquivalence:
    """The Catalyst fold must agree with the Python kernel (checked via
    Spark in test_fsim_spark.py; here we pin the Python tie-break that
    the SQL comparator mirrors)."""

    def test_order_is_minus_s_then_x_then_y(self):
        # two 0.5 ties: (x=1,y=9) sorts before (x=2,y=8)
        total, count = greedy_matching([2, 1], [8, 9], [0.5, 0.5])
        assert (total, count) == (1.0, 2)
        total2, _ = greedy_matching([1, 1], [9, 8], [0.5, 0.5])
        # same x: y=8 preferred first
        assert total2 == 0.5
