"""The Spark anti-join/matching exact-simulation fixpoint vs the Python
reference on the toy and random graphs."""
import random

import pytest

from repro.exact.pysim import exact_simulation_py
from repro.exact.simulation import exact_simulation_spark
from repro.graphs.model import Graph
from repro.graphs.toy import G1_EDGES, G1_LABELS, G2_EDGES, G2_LABELS

VARIANTS = ["s", "dp", "b", "bj"]


def random_graph(seed, n=8, p=0.28, labels=("A", "B")):
    rng = random.Random(seed)
    lab = {i: rng.choice(labels) for i in range(n)}
    edges = [(i, j) for i in range(n) for j in range(n)
             if i != j and rng.random() < p]
    return lab, edges


def spark_relation(spark, l1, e1, l2, e2, variant):
    g1 = Graph.from_edge_list(spark, l1, e1)
    g2 = Graph.from_edge_list(spark, l2, e2)
    return {(r["u"], r["v"])
            for r in exact_simulation_spark(spark, g1, g2, variant).collect()}


@pytest.mark.parametrize("variant", VARIANTS)
class TestSparkMatchesPython:
    def test_toy(self, spark, variant):
        got = spark_relation(spark, G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES,
                             variant)
        ref = exact_simulation_py(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES,
                                  variant)
        assert got == ref

    def test_random(self, spark, variant):
        l1, e1 = random_graph(11)
        l2, e2 = random_graph(12)
        got = spark_relation(spark, l1, e1, l2, e2, variant)
        ref = exact_simulation_py(l1, e1, l2, e2, variant)
        assert got == ref


class TestFixpointProperties:
    def test_self_simulation_contains_identity(self, spark):
        l, e = random_graph(13)
        got = spark_relation(spark, l, e, l, e, "s")
        for u in l:
            assert (u, u) in got

    def test_b_relation_symmetric_on_self(self, spark):
        l, e = random_graph(14)
        got = spark_relation(spark, l, e, l, e, "b")
        assert {(v, u) for (u, v) in got} == got


def test_unknown_variant_raises(spark):
    # simrank is an engine configuration, not an exact simulation
    with pytest.raises(ValueError, match="simrank"):
        spark_relation(spark, G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES,
                       "simrank")
