"""Query extraction and per-query noise (graphs/noise)."""
import pytest

from repro.graphs.generators import labeled_powerlaw_pd
from repro.graphs.noise import extract_query, make_workload, noise_query


@pytest.fixture(scope="module")
def small_graph():
    return labeled_powerlaw_pd(120, 320, 6, seed=12)


class TestQueryExtraction:
    def test_size_and_connectivity(self, small_graph):
        nodes, edges = small_graph
        q = extract_query(nodes, edges, 6, seed=5)
        assert q.n_nodes() == 6
        # connected in the undirected sense
        adj = {i: set() for i in q.labels}
        for s, d in q.edges:
            adj[s].add(d)
            adj[d].add(s)
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        assert seen == set(q.labels)

    def test_induced_edges(self, small_graph):
        nodes, edges = small_graph
        q = extract_query(nodes, edges, 5, seed=6)
        data_edges = set(zip(edges.src, edges.dst))
        for s, d in q.edges:
            assert (q.origin[s], q.origin[d]) in data_edges

    def test_labels_match_origin(self, small_graph):
        nodes, edges = small_graph
        label_of = dict(zip(nodes.id, nodes.label))
        q = extract_query(nodes, edges, 5, seed=7)
        for i, g in q.origin.items():
            assert q.labels[i] == label_of[g]

    def test_workload_sizes_in_range(self, small_graph):
        nodes, edges = small_graph
        ws = make_workload(nodes, edges, n_queries=10, sizes=(3, 8), seed=1)
        assert len(ws) == 10
        assert all(3 <= q.n_nodes() <= 8 for q in ws)
        assert [q.qid for q in ws] == list(range(10))


class TestQueryNoise:
    @pytest.fixture
    def query(self, small_graph):
        nodes, edges = small_graph
        return extract_query(nodes, edges, 8, seed=9)

    def test_exact_passthrough_structure(self, query):
        q2 = noise_query(query, "Noisy-E", ["L0", "L1"], seed=1)
        assert set(query.edges) <= set(q2.edges)
        assert q2.labels == query.labels

    def test_edge_noise_bounded(self, query):
        for seed in range(10):
            q2 = noise_query(query, "Noisy-E", ["L0"], frac=0.33, seed=seed)
            assert len(q2.edges) - len(query.edges) <= int(len(query.edges) * 0.33)

    def test_label_noise_bounded(self, query):
        pool = sorted({*query.labels.values(), "ZZZ"})
        for seed in range(10):
            q2 = noise_query(query, "Noisy-L", pool, frac=0.33, seed=seed)
            changed = sum(q2.labels[i] != query.labels[i] for i in query.labels)
            assert changed <= int(query.n_nodes() * 0.33)
            assert q2.edges == query.edges

    def test_combined_applies_both(self, query):
        pool = sorted({*query.labels.values(), "ZZZ"})
        diff_edges = False
        diff_labels = False
        for seed in range(20):
            q2 = noise_query(query, "Combined", pool, seed=seed)
            diff_edges |= len(q2.edges) > len(query.edges)
            diff_labels |= q2.labels != query.labels
        assert diff_edges and diff_labels

    def test_origin_preserved(self, query):
        q2 = noise_query(query, "Combined", ["L0", "L1"], seed=3)
        assert q2.origin == query.origin

    def test_deterministic(self, query):
        a = noise_query(query, "Combined", ["L0", "L1"], seed=4)
        b = noise_query(query, "Combined", ["L0", "L1"], seed=4)
        assert a.edges == b.edges and a.labels == b.labels
