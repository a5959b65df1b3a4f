"""Benchmark: every table pipeline once, at its smoke-test size.

Each case calls the table's ``run`` with the given arguments and checks
the frame it returns.
"""
import pytest

from repro.tables import table2, table4, table5, table6, table7, table8, table9

DBIS = dict(n_venues=32, n_papers=140, n_authors=100)

CASES = {
    # toy FSim, all four variants + verdicts
    "table2": (table2, dict(eps=1e-2),
               lambda df: (df.our_verdict == df.paper_verdict).all()),
    # all eight dataset generators + stats
    "table4": (table4, dict(scale=0.005), lambda df: len(df) == 8),
    # NELL-like, 4 variants x 3 label fns
    "table5": (table5, dict(scale=0.0008), lambda df: len(df) == 12),
    # pattern matching, 4 scenarios x 7 algos
    "table6": (table6, dict(scale=0.001, n_queries=8), lambda df: len(df) == 28),
    # DBIS top-5 venue rankings, 6 algos
    "table7": (table7, DBIS, lambda df: len(df) == 5),
    # DBIS nDCG over subject venues
    "table8": (table8, DBIS, lambda df: len(df) == 6),
    # alignment, 8 algorithms x 2 graph pairs
    "table9": (table9, dict(n_nodes=200, n_edges=440), lambda df: len(df) == 16),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_bench_table(benchmark, spark, name):
    module, kwargs, check = CASES[name]
    df = benchmark.pedantic(lambda: module.run(spark, **kwargs),
                            rounds=1, iterations=1)
    assert check(df)
