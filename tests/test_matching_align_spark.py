"""End-to-end case-study harnesses at micro scale: the Table-6 matching
pipeline and the Table-9 alignment pipeline."""
import numpy as np
import pytest

from repro.align.baselines import (ews_align_f1, final_align_f1,
                                   gsana_align_f1, kbisim_align,
                                   kbisim_align_f1, olap_align, olap_align_f1)
from repro.align.harness import fsim_align_f1
from repro.core.reference import FSimConfig
from repro.graphs.generators import dataset_pd, evolving_graphs_pd
from repro.graphs.model import AdjGraph, Graph
from repro.graphs.noise import make_workload, noise_query
from repro.matching.baselines import run_baseline_parallel
from repro.matching.harness import (batch_fsim_scores, pack_queries,
                                    run_fsim_scenario, seed_expand, f1_match)


@pytest.fixture(scope="module")
def amazon(spark):
    nodes, edges = dataset_pd("Amazon", scale=0.0005, seed=3)
    return (Graph.from_pandas(spark, nodes, edges),
            AdjGraph.build(nodes, edges), nodes, edges)


@pytest.fixture(scope="module")
def workload(amazon):
    _, _, nodes, edges = amazon
    return make_workload(nodes, edges, n_queries=5, sizes=(3, 7), seed=2)


class TestMatchingPipeline:
    def test_pack_queries_disjoint(self, spark, workload):
        packed = pack_queries(spark, workload)
        ids = [r["id"] for r in packed.nodes.collect()]
        assert len(ids) == len(set(ids)) == sum(q.n_nodes() for q in workload)

    def test_batch_scores_cover_queries(self, spark, workload, amazon):
        data = amazon[0]
        cfg = FSimConfig(variant="s", theta=1.0, exact_iters=2)
        scores = batch_fsim_scores(spark, workload, data, cfg)
        assert set(scores) == {q.qid for q in workload}
        for q in workload:
            # the ground-truth pair is always a candidate on exact queries
            assert all((i, q.origin[i]) in scores[q.qid] for i in q.labels)

    def test_exact_queries_score_one_on_truth(self, spark, workload, amazon):
        data = amazon[0]
        cfg = FSimConfig(variant="s", theta=1.0, eps=1e-2)
        scores = batch_fsim_scores(spark, workload, data, cfg)
        for q in workload:
            for i in q.labels:
                assert scores[q.qid][(i, q.origin[i])] == pytest.approx(
                    1.0, abs=1e-6)

    def test_fsim_scenario_exact_high_f1(self, spark, workload, amazon):
        data, adj = amazon[0], amazon[1]
        f1 = run_fsim_scenario(spark, workload, data, adj, "s")
        assert f1 >= 80.0

    def test_fsim_seed_expand_recovers(self, spark, workload, amazon):
        data, adj = amazon[0], amazon[1]
        cfg = FSimConfig(variant="s", theta=1.0, eps=1e-2)
        scores = batch_fsim_scores(spark, workload, data, cfg)
        f1s = [f1_match(q, seed_expand(q, scores[q.qid], adj))
               for q in workload]
        assert sum(f1s) / len(f1s) >= 0.8

    @pytest.mark.parametrize("which", ["naga", "gfinder", "tspan", "strong"])
    def test_baselines_run_parallel(self, spark, workload, amazon, which):
        adj = amazon[1]
        f1 = run_baseline_parallel(spark, workload, adj, which, max_missing=1)
        assert f1 is None or 0.0 <= f1 <= 100.0

    def test_tspan_exact_perfectish(self, spark, workload, amazon):
        adj = amazon[1]
        f1 = run_baseline_parallel(spark, workload, adj, "tspan", max_missing=0)
        assert f1 is not None and f1 >= 80.0

    def test_tspan_none_under_total_label_garbage(self, spark, workload, amazon):
        adj = amazon[1]
        garbage = [noise_query(q, "Noisy-L", ["__nolabel__"], frac=5.0, seed=i)
                   for i, q in enumerate(workload)]
        # every node relabeled to a label absent from the data
        for q in garbage:
            q.labels = {i: "__nolabel__" for i in q.labels}
        f1 = run_baseline_parallel(spark, garbage, adj, "tspan", max_missing=1)
        assert f1 is None


@pytest.fixture(scope="module")
def versions_pd():
    return evolving_graphs_pd(n_nodes=120, n_edges=260, n_labels=6,
                              n_versions=2, seed=17)


@pytest.fixture(scope="module")
def versions(spark, versions_pd):
    """Each version as a (Spark graph, AdjGraph) pair: the engine reads
    the first, the baselines the second."""
    return [(Graph.from_pandas(spark, n, e), AdjGraph.build(n, e))
            for n, e in versions_pd]


class TestAlignmentPipeline:
    def test_fsim_align_beats_baselines(self, spark, versions):
        (g1, a1), (g2, a2) = versions
        fsim = fsim_align_f1(spark, g1, g2, "b")
        kb = kbisim_align_f1(a1, a2, 2)
        assert 0 <= kb <= 100 and 0 <= fsim <= 100
        assert fsim > kb

    def test_fsim_align_self_is_high(self, spark, versions):
        g1 = versions[0][0]
        f1 = fsim_align_f1(spark, g1, g1, "bj")
        assert f1 >= 60.0  # ties on structurally equivalent nodes only

    def test_kbisim_align_contains_truth_at_k0(self, versions):
        (_, a1), (_, a2) = versions
        align = kbisim_align(a1, a2, 0)
        # k=0: aligned by label, so truth is always inside the set
        for u, a in align.items():
            assert u in a

    def test_colours_compare_across_graphs(self, versions_pd):
        # a copy with permuted ids, listed in another node and edge order:
        # each node's image is bisimilar to it at every depth
        nodes, edges = versions_pd[0]
        rng = np.random.default_rng(4)
        perm = rng.permutation(len(nodes))
        image = dict(zip(nodes["id"].astype(int), perm.tolist()))
        nodes2 = nodes.assign(id=perm).sample(frac=1.0, random_state=5)
        edges2 = edges.assign(src=perm[edges["src"]], dst=perm[edges["dst"]]) \
            .sample(frac=1.0, random_state=6)
        a1, a2 = AdjGraph.build(nodes, edges), AdjGraph.build(nodes2, edges2)
        aligns = [kbisim_align(a1, a2, k) for k in range(6)]
        aligns.append(olap_align(a1, a2))
        for align in aligns:
            assert set(align) == set(a1.label)
            for u, a in align.items():
                assert image[u] in a

    @pytest.mark.parametrize("fn", [olap_align_f1, final_align_f1,
                                    ews_align_f1, gsana_align_f1])
    def test_baseline_f1_in_range(self, versions, fn):
        (_, a1), (_, a2) = versions
        f1 = fn(a1, a2)
        assert 0.0 <= f1 <= 100.0

    def test_ews_uses_seeds_well(self, versions):
        (_, a1), (_, a2) = versions
        f1 = ews_align_f1(a1, a2, n_seeds=25)
        assert f1 > 10.0
