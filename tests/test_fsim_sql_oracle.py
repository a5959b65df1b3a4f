"""One FSim_s and one FSim_b iteration, written independently as DuckDB
SQL, against the Spark engine.

The SQL transcribes Eq. 1 with Table 3's s and b operators and the
empty-neighbourhood conventions of DESIGN §2, starting from a seeded
random score for every candidate pair. At theta = 1 with indicator
labels the candidates are the same-label pairs and L(u, v) = 1.
"""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.fsim import fsim_spark
from repro.core.reference import FSimConfig
from repro.graphs.generators import labeled_powerlaw_pd
from repro.graphs.model import Graph
from repro.oracle import assert_equivalent

W = 0.4  # w+ = w-; L(u, v) = 1 carries weight 1 - 2W

ONE_ITERATION = """
WITH nb1 AS (SELECT src AS u, dst AS x, 0 AS d FROM e1
             UNION ALL SELECT dst, src, 1 FROM e1),
     nb2 AS (SELECT src AS v, dst AS y, 0 AS d FROM e2
             UNION ALL SELECT dst, src, 1 FROM e2),
     dirs AS (SELECT * FROM (VALUES (0), (1)) t(d)),
     deg1 AS (SELECT n.id AS u, dirs.d, count(nb1.x) AS k1
              FROM n1 n CROSS JOIN dirs
              LEFT JOIN nb1 ON nb1.u = n.id AND nb1.d = dirs.d
              GROUP BY n.id, dirs.d),
     deg2 AS (SELECT n.id AS v, dirs.d, count(nb2.y) AS k2
              FROM n2 n CROSS JOIN dirs
              LEFT JOIN nb2 ON nb2.v = n.id AND nb2.d = dirs.d
              GROUP BY n.id, dirs.d),
     nrows AS (SELECT p.u, p.v, nb1.d, nb1.x, nb2.y, q.score AS s
               FROM init p
               JOIN nb1 ON nb1.u = p.u
               JOIN nb2 ON nb2.v = p.v AND nb2.d = nb1.d
               JOIN init q ON q.u = nb1.x AND q.v = nb2.y),
     best AS ({best}),
     msums AS (SELECT u, v, d, sum(s) AS msum FROM best GROUP BY u, v, d),
     terms AS (SELECT p.u, p.v, deg1.d, {norm} AS t
               FROM init p
               JOIN deg1 ON deg1.u = p.u
               JOIN deg2 ON deg2.v = p.v AND deg2.d = deg1.d
               LEFT JOIN msums ON msums.u = p.u AND msums.v = p.v
                              AND msums.d = deg1.d)
SELECT u, v, {w} * sum(t) + {w_label} AS score FROM terms GROUP BY u, v
"""

# per variant: the maxima that the mapping sums, and msum / Omega
SQL = {
    "s": dict(
        best="SELECT u, v, d, max(s) AS s FROM nrows GROUP BY u, v, d, x",
        norm="CASE WHEN k1 = 0 THEN 1.0 ELSE coalesce(msum, 0) / k1 END"),
    "b": dict(
        best="SELECT u, v, d, max(s) AS s FROM nrows GROUP BY u, v, d, x "
             "UNION ALL "
             "SELECT u, v, d, max(s) AS s FROM nrows GROUP BY u, v, d, y",
        norm="CASE WHEN k1 = 0 AND k2 = 0 THEN 1.0 "
             "ELSE coalesce(msum, 0) / (k1 + k2) END"),
}


@pytest.fixture(scope="module")
def inputs(spark):
    n1, e1 = labeled_powerlaw_pd(50, 120, 4, seed=31)
    n2, e2 = labeled_powerlaw_pd(50, 120, 4, seed=32)
    init = (n1.rename(columns={"id": "u"})
            .merge(n2.rename(columns={"id": "v"}), on="label")[["u", "v"]])
    init["score"] = np.random.default_rng(33).uniform(size=len(init))
    graphs = (Graph.from_pandas(spark, n1, e1), Graph.from_pandas(spark, n2, e2))
    init_df = spark.createDataFrame(init, schema="u long, v long, score double")
    return graphs, init_df, dict(n1=n1, e1=e1, n2=n2, e2=e2, init=init)


@pytest.mark.parametrize("variant", sorted(SQL))
def test_one_iteration_matches_sql(spark, inputs, variant):
    (g1, g2), init_df, tables = inputs
    cfg = FSimConfig(variant=variant, w_out=W, w_in=W, theta=1.0,
                     exact_iters=1)
    got = fsim_spark(spark, g1, g2, cfg, init=init_df)
    sql = ONE_ITERATION.format(w=W, w_label=1 - 2 * W, **SQL[variant])
    assert_equivalent(got, sql, **tables)
    # the oracle's own check: a 1% error must not pass
    with pytest.raises(AssertionError):
        assert_equivalent(got.withColumn("score", F.col("score") * 1.01),
                          sql, **tables)
