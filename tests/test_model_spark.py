"""Graph model on Spark: construction and degrees — degree logic is
cross-checked against DuckDB via the SQL oracle."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs.generators import labeled_powerlaw_pd
from repro.graphs.model import AdjGraph, Graph
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def g(spark):
    nodes, edges = labeled_powerlaw_pd(80, 220, 5, seed=21)
    return Graph.from_pandas(spark, nodes, edges), nodes, edges


class TestConstruction:
    def test_counts(self, g):
        graph, nodes, edges = g
        assert graph.nodes.count() == len(nodes)
        assert graph.edges.count() == len(edges)

    def test_from_edge_list(self, spark):
        graph = Graph.from_edge_list(spark, {0: "A", 1: "B"}, [(0, 1)])
        assert graph.nodes.count() == 2
        assert graph.edges.count() == 1

    def test_empty_edges(self, spark):
        graph = Graph.from_edge_list(spark, {0: "A"}, [])
        assert graph.edges.count() == 0
        row = graph.degrees().first()
        assert row["dout"] == 0 and row["din"] == 0

    def test_validate_ok(self, spark, g):
        _, nodes, edges = g
        Graph.from_pandas(spark, nodes, edges)  # well-formed: no error

    def test_validate_catches_dangling(self, spark):
        with pytest.raises(ValueError,
                           match=r"dangling edge endpoint 99 in edge \(0, 99\)"):
            Graph.from_pandas(
                spark,
                pd.DataFrame({"id": [0], "label": ["A"]}),
                pd.DataFrame({"src": [0], "dst": [99]}),
            )
        # a repeated edge: the engine's degrees would count it twice
        with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
            Graph.from_pandas(
                spark,
                pd.DataFrame({"id": [0, 1], "label": ["A", "B"]}),
                pd.DataFrame({"src": [0, 1, 0], "dst": [1, 0, 1]}),
            )

    def test_validate_catches_duplicate_ids(self, spark):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_pandas(
                spark,
                pd.DataFrame({"id": [0, 0], "label": ["A", "B"]}),
                pd.DataFrame({"src": [], "dst": []}),
            )

    def test_from_edge_list_rejects_dangling_edge(self, spark):
        # the engine would count the edge in degrees() and never match
        # its missing neighbour; fsim_reference raises on the same graph
        with pytest.raises(ValueError, match="dangling edge endpoint 7"):
            Graph.from_edge_list(spark, {0: "A", 1: "B"}, [(0, 1), (7, 1)])
        with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
            Graph.from_edge_list(spark, {0: "A", 1: "B"}, [(0, 1), (0, 1)])


class TestDegreesOracle:
    def test_degrees_vs_duckdb(self, spark, g):
        graph, nodes, edges = g
        got = graph.degrees().select("id", "dout", "din")
        assert_equivalent(
            got,
            """
            SELECT n.id,
                   coalesce(o.c, 0) AS dout,
                   coalesce(i.c, 0) AS din
            FROM nodes n
            LEFT JOIN (SELECT src, count(*) c FROM edges GROUP BY src) o
              ON n.id = o.src
            LEFT JOIN (SELECT dst, count(*) c FROM edges GROUP BY dst) i
              ON n.id = i.dst
            """,
            nodes=nodes, edges=edges,
        )

    def test_out_in_edge_views_vs_duckdb(self, spark, g):
        graph, nodes, edges = g
        assert_equivalent(graph.out_edges(),
                          "SELECT src AS u, dst AS nbr FROM edges",
                          edges=edges)
        assert_equivalent(graph.in_edges(),
                          "SELECT dst AS u, src AS nbr FROM edges",
                          edges=edges)


class TestAdjGraph:
    def test_round_trip(self, g):
        _, nodes, edges = g
        adj = AdjGraph.build(nodes, edges)
        assert adj.label == dict(zip(nodes.id, nodes.label))
        assert sorted((s, d) for s in adj.out for d in adj.out[s]) \
            == sorted(zip(edges.src, edges.dst))
        assert sorted((s, d) for d in adj.inn for s in adj.inn[d]) \
            == sorted(zip(edges.src, edges.dst))
