"""The distributed FSim engine vs the pure-Python reference, plus engine-
level properties (P2, theta, upper-bound mode), the max_iter warning, the
greedy-tie stop and the shape of the loop and of one iteration's
physical plan.

Most equivalence runs use ``exact_iters`` so both implementations perform
the same number of iterations; the eps-converged ones check that the
engine's convergence test stops where the reference's does.
"""
import logging
import random

import pytest

from repro.core import fsim as fsim_module
from repro.core.fsim import fsim_spark
from repro.core.reference import FSimConfig, fsim_reference
from repro.exact.pysim import exact_simulation_py
from repro.graphs.model import Graph
from repro.graphs.toy import (G1_EDGES, G1_LABELS, G2_EDGES, G2_LABELS,
                              figure1_graphs)

VARIANTS = ["s", "dp", "b", "bj"]


def random_graph(seed, n=10, p=0.22, labels=("A", "B", "C")):
    rng = random.Random(seed)
    lab = {i: rng.choice(labels) for i in range(n)}
    edges = [(i, j) for i in range(n) for j in range(n)
             if i != j and rng.random() < p]
    return lab, edges


def spark_scores(spark, l1, e1, l2, e2, cfg, **kw):
    g1 = Graph.from_edge_list(spark, l1, e1)
    g2 = Graph.from_edge_list(spark, l2, e2)
    return {(r["u"], r["v"]): r["score"]
            for r in fsim_spark(spark, g1, g2, cfg, **kw).collect()}


def assert_same(spark_map, ref_map, tol=1e-9):
    assert set(spark_map) == set(ref_map)
    for p in ref_map:
        assert spark_map[p] == pytest.approx(ref_map[p], abs=tol), p


@pytest.mark.parametrize("variant", VARIANTS)
class TestEngineMatchesReference:
    def test_toy_theta0(self, spark, variant):
        cfg = FSimConfig(variant=variant, theta=0.0, exact_iters=3)
        got = spark_scores(spark, G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, cfg)
        ref = fsim_reference(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, cfg)
        assert_same(got, ref.scores)

    def test_toy_theta1(self, spark, variant):
        cfg = FSimConfig(variant=variant, theta=1.0, exact_iters=3)
        got = spark_scores(spark, G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, cfg)
        ref = fsim_reference(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, cfg)
        assert_same(got, ref.scores)

    def test_random_graph_jaro_winkler(self, spark, variant):
        l1, e1 = random_graph(7)
        l2, e2 = random_graph(8)
        cfg = FSimConfig(variant=variant, label_fn="jaro_winkler",
                         theta=0.0, exact_iters=2)
        got = spark_scores(spark, l1, e1, l2, e2, cfg)
        ref = fsim_reference(l1, e1, l2, e2, cfg)
        assert_same(got, ref.scores)

    def test_upper_bound_mode(self, spark, variant):
        # Figure 1, and a pair of random graphs on which a greedy
        # matching's cardinality, as |M| for dp, bounded FSim_dp(0, 0) =
        # 0.578 by 0.5 (the count bound freezes fewer dp/bj pairs there)
        labels = ("ab", "ac", "bc", "abc", "b")
        cases = [((G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES), {}),
                 ((*random_graph(6, 9, 0.3, labels),
                   *random_graph(1006, 9, 0.3, labels)),
                  dict(label_fn="edit", theta=0.5))]
        for (l1, e1, l2, e2), kw in cases:
            cfg = FSimConfig(variant=variant, exact_iters=3, upper_bound=True,
                             alpha=0.2, beta=0.6, **kw)
            g1 = Graph.from_edge_list(spark, l1, e1)
            g2 = Graph.from_edge_list(spark, l2, e2)
            scores_df, frozen_df = fsim_spark(spark, g1, g2, cfg,
                                              return_frozen=True)
            got = {(r["u"], r["v"]): r["score"] for r in scores_df.collect()}
            got_frozen = {(r["u"], r["v"]): r["score"]
                          for r in frozen_df.collect()}
            ref = fsim_reference(l1, e1, l2, e2, cfg)
            assert_same(got, ref.scores)
            assert_same(got_frozen, ref.frozen)


@pytest.mark.parametrize("variant", VARIANTS)
def test_partial_init_with_upper_bound(spark, variant):
    """A partial ``init`` and frozen pairs together: a frozen pair scores
    its fixed ``fs`` even where ``init`` gives it another score, and a
    pair absent from ``init`` is ineligible in the first iteration."""
    cfg = FSimConfig(variant=variant, exact_iters=3, upper_bound=True,
                     alpha=0.2, beta=0.6)
    rng = random.Random(5)
    init = {(u, v): rng.random() for u in G1_LABELS for v in G2_LABELS
            if rng.random() < 0.6}
    ref = fsim_reference(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, cfg,
                         init=init)
    assert set(init) & set(ref.frozen) and set(ref.scores) - set(init)
    g1, g2 = figure1_graphs(spark)
    init_df = spark.createDataFrame(
        [(u, v, s) for (u, v), s in init.items()],
        schema="u long, v long, score double")
    scores_df, frozen_df = fsim_spark(spark, g1, g2, cfg, init=init_df,
                                      return_frozen=True)
    assert_same({(r["u"], r["v"]): r["score"] for r in scores_df.collect()},
                ref.scores)
    assert_same({(r["u"], r["v"]): r["score"] for r in frozen_df.collect()},
                ref.frozen)


@pytest.mark.parametrize("upper_bound", [False, True], ids=["no_ub", "ub"])
def test_neighbour_pairs_built_once_per_run(spark, monkeypatch, upper_bound):
    """The Eq.-6 bound and the loop read one index P, built once."""
    calls = []
    build = fsim_module._neighbour_pairs

    def counted(*args):
        calls.append(args)
        return build(*args)
    monkeypatch.setattr(fsim_module, "_neighbour_pairs", counted)
    g1, g2 = figure1_graphs(spark)
    _, frozen = fsim_spark(spark, g1, g2,
                           FSimConfig(variant="s", exact_iters=2,
                                      upper_bound=upper_bound,
                                      alpha=0.2, beta=0.6),
                           return_frozen=True)
    assert len(calls) == 1
    # with the bound on, some pairs freeze
    assert (frozen.count() > 0) == upper_bound


@pytest.mark.parametrize("variant", ["s", "b"])
@pytest.mark.parametrize("upper_bound", [False, True],
                         ids=["no_ub", "ub"])
class TestEpsConvergedMatchesReference:
    """eps-converged s/b runs: the engine's max |delta|, read from its
    iteration checkpoint, stops the loop where the reference stops."""

    def cfg(self, variant, upper_bound):
        return FSimConfig(variant=variant, theta=0.0, eps=1e-3,
                          upper_bound=upper_bound, alpha=0.2, beta=0.6)

    def check(self, spark, l1, e1, l2, e2, cfg):
        g1 = Graph.from_edge_list(spark, l1, e1)
        g2 = Graph.from_edge_list(spark, l2, e2)
        scores_df, frozen_df = fsim_spark(spark, g1, g2, cfg,
                                          return_frozen=True)
        ref = fsim_reference(l1, e1, l2, e2, cfg)
        assert ref.iterations < cfg.max_iter
        assert_same({(r["u"], r["v"]): r["score"]
                     for r in scores_df.collect()}, ref.scores)
        assert_same({(r["u"], r["v"]): r["score"]
                     for r in frozen_df.collect()}, ref.frozen)

    def test_figure1(self, spark, variant, upper_bound):
        self.check(spark, G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES,
                   self.cfg(variant, upper_bound))

    def test_random_graph(self, spark, variant, upper_bound):
        l1, e1 = random_graph(7)
        l2, e2 = random_graph(8)
        self.check(spark, l1, e1, l2, e2, self.cfg(variant, upper_bound))


class TestEngineProperties:
    @pytest.mark.parametrize("variant", ["s", "b"])
    def test_simulation_definiteness_converged(self, spark, variant):
        cfg = FSimConfig(variant=variant, eps=1e-3, max_iter=40)
        got = spark_scores(spark, G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, cfg)
        rel = exact_simulation_py(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES,
                                  variant)
        for p, s in got.items():
            if p in rel:
                assert s == pytest.approx(1.0, abs=1e-6)
            else:
                assert s < 1.0 - 1e-4

    def test_range_all_variants(self, spark):
        for variant in VARIANTS:
            cfg = FSimConfig(variant=variant, exact_iters=2)
            got = spark_scores(spark, G1_LABELS, G1_EDGES, G2_LABELS,
                               G2_EDGES, cfg)
            assert all(-1e-12 <= s <= 1 + 1e-12 for s in got.values())

    def test_theta_prunes_candidate_pairs(self, spark):
        c0 = spark_scores(spark, G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES,
                          FSimConfig(variant="s", theta=0.0, exact_iters=1))
        c1 = spark_scores(spark, G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES,
                          FSimConfig(variant="s", theta=1.0, exact_iters=1))
        assert len(c1) < len(c0)
        assert len(c0) == len(G1_LABELS) * len(G2_LABELS)

    def test_max_pairs_guard(self, spark):
        l1, e1 = random_graph(1, n=12)
        # same-label pairs at theta=1; the cross product at theta=0
        for theta, n in ((1.0, sum(1 for a in l1.values() for b in l1.values()
                                   if a == b)),
                         (0.0, 12 * 12)):
            cfg = FSimConfig(variant="s", theta=theta, exact_iters=1,
                             max_pairs=10)
            with pytest.raises(ValueError, match=f"^{n} candidate pairs .* "
                                                 "max_pairs=10"):
                spark_scores(spark, l1, e1, l1, e1, cfg)

    def test_symmetry_of_bj_on_spark(self, spark):
        cfg = FSimConfig(variant="bj", exact_iters=3)
        fwd = spark_scores(spark, G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, cfg)
        bwd = spark_scores(spark, G2_LABELS, G2_EDGES, G1_LABELS, G1_EDGES, cfg)
        for (u, v), s in fwd.items():
            assert s == pytest.approx(bwd[(v, u)], abs=1e-9)

    def test_warns_when_max_iter_is_reached(self, spark, caplog):
        def warnings(eps):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="repro.core.fsim"):
                spark_scores(spark, G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES,
                             FSimConfig(variant="s", eps=eps, max_iter=2))
            return [r.getMessage() for r in caplog.records
                    if r.levelno == logging.WARNING]
        assert any("max_iter=2" in m for m in warnings(1e-12))
        assert warnings(0.5) == []


@pytest.mark.parametrize("variant", ["dp", "bj"])
def test_greedy_ties_ignore_edge_order(spark, variant):
    """dp/bj greedy ties are broken by node id in the engine and the
    reference alike, so the order of the edge list cannot matter."""
    lab, edges = random_graph(2)
    random.Random(2).shuffle(edges)
    cfg = FSimConfig(variant=variant, theta=0.0, exact_iters=3)
    got = spark_scores(spark, lab, edges, lab, edges, cfg)
    assert_same(got, fsim_reference(lab, edges, lab, edges, cfg).scores)


def _on_iteration(monkeypatch, callback):
    """Call ``callback(iteration)`` whenever the engine logs one."""
    def debug(msg, *args):
        if "iter=" in msg:
            callback(args[1])
    monkeypatch.setattr(fsim_module._log, "debug", debug)


@pytest.mark.parametrize("variant,seed", [("dp", 298), ("bj", 37)])
def test_greedy_tie_cycle_of_period_two_stops(spark, monkeypatch, variant,
                                              seed):
    """On these graphs the greedy matching settles into a cycle where
    max |delta| alternates between two values (dp, seed 298: 0.0477,
    0.0532, 0.0213, 0.0530), so consecutive deltas never come within 5%
    of each other. Engine and reference must both see the plateau two
    iterations apart and stop at the same iteration, not at max_iter."""
    lab, edges = random_graph(seed, n=6, p=0.3,
                              labels=("ab", "abc", "bc", "ca"))
    cfg = FSimConfig(variant=variant, label_fn="jaro_winkler", theta=0.0,
                     max_iter=30)
    ref = fsim_reference(lab, edges, lab, edges, cfg)
    assert ref.iterations < cfg.max_iter
    iters = []
    _on_iteration(monkeypatch, iters.append)
    got = spark_scores(spark, lab, edges, lab, edges, cfg)
    assert iters[-1] == ref.iterations
    assert_same(got, ref.scores)


def test_converged_run_checkpoints_once_per_iteration(spark, monkeypatch):
    """Each iteration of an eps-converged run is one Spark action: the
    eager checkpoint, whose observation carries max |delta|. No
    first/head/take/collect/count runs inside the loop."""
    cls = type(spark.range(1))
    events = []
    for name in ("localCheckpoint", "first", "head", "take", "collect",
                 "count"):
        def record(df, *args, _name=name, _orig=getattr(cls, name), **kwargs):
            events.append(_name)
            return _orig(df, *args, **kwargs)
        monkeypatch.setattr(cls, name, record)
    _on_iteration(monkeypatch, lambda it: events.append("iter"))
    cfg = FSimConfig(variant="s", eps=1e-3)
    g1, g2 = figure1_graphs(spark)
    fsim_spark(spark, g1, g2, cfg)
    monkeypatch.undo()
    ref = fsim_reference(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, cfg)
    segments = " ".join(events).split("iter")
    # segments[0] is setup plus iteration 1, segments[-1] the teardown
    assert len(segments) - 1 == ref.iterations >= 3
    assert [s.split() for s in segments[1:-1]] == (
        [["localCheckpoint"]] * (ref.iterations - 1))
    assert segments[-1].split() == []


def _exchanges_and_cache_sides(plan, since_join=(), out=None):
    """Shuffle origins in an executed plan, the partition count of each
    ``REPARTITION_BY_NUM`` exchange, and for each cached-table scan
    whether a shuffle sits between it and the join it feeds. Does not
    descend into the cached relations themselves."""
    if out is None:
        out = ([], [], [])
    name = plan.getClass().getSimpleName()
    if name == "AdaptiveSparkPlanExec":
        return _exchanges_and_cache_sides(plan.executedPlan(), since_join, out)
    if name.endswith("QueryStageExec"):
        return _exchanges_and_cache_sides(plan.plan(), since_join, out)
    if name == "ShuffleExchangeExec":
        out[0].append(plan.shuffleOrigin().toString())
        if out[0][-1] == "REPARTITION_BY_NUM":
            out[1].append(plan.outputPartitioning().numPartitions())
    if name == "InMemoryTableScanExec":
        out[2].append("ShuffleExchangeExec" in since_join)
    since_join = () if name.endswith("JoinExec") else since_join + (name,)
    kids = plan.children()
    for i in range(kids.size()):
        _exchanges_and_cache_sides(kids.apply(i), since_join, out)
    return out


@pytest.mark.parametrize(
    "variant,upper_bound",
    [(v, False) for v in VARIANTS] + [(v, True) for v in VARIANTS],
    ids=VARIANTS + [f"{v}-ub" for v in VARIANTS])
def test_one_iteration_shuffles_only_the_scores(spark, monkeypatch, variant,
                                                upper_bound):
    """One iteration moves the scores to the cached index (one
    ENSURE_REQUIREMENTS exchange) and regroups by (u, v) (one
    REPARTITION_BY_NUM, one partition per core, capped by the session's
    shuffle partitions); the cached index and pair table never move,
    with or without frozen pairs."""
    cls = type(spark.range(1))
    checkpointed = []
    orig = cls.localCheckpoint

    def record(df, *args, **kwargs):
        checkpointed.append(df)
        return orig(df, *args, **kwargs)
    monkeypatch.setattr(cls, "localCheckpoint", record)
    g1, g2 = figure1_graphs(spark)
    fsim_spark(spark, g1, g2, FSimConfig(variant=variant, exact_iters=2,
                                         upper_bound=upper_bound,
                                         alpha=0.2, beta=0.6))
    # the last checkpoint is the second iteration, after the caches filled
    plan = checkpointed[-1]._jdf.queryExecution().executedPlan()
    exchanges, by_num, cache_sides_shuffled = _exchanges_and_cache_sides(plan)
    assert sorted(exchanges) == ["ENSURE_REQUIREMENTS", "REPARTITION_BY_NUM"]
    assert by_num == [min(int(spark.conf.get("spark.sql.shuffle.partitions")),
                          spark.sparkContext.defaultParallelism)]
    assert len(cache_sides_shuffled) == 2
    assert not any(cache_sides_shuffled)
