"""FSimX — the paper's fractional chi-simulation framework on Spark.

Distributed transcription of Algorithm 1 + Table 3 as an iterative
DataFrame fixpoint. In Algorithm 1 only the score map H changes between
iterations; the neighbour-pair structure E1(u, x) E2(v, y) restricted to
candidate pairs is static. So one run builds two cached frames once:

- the *pair table* ``(u, v, lsim, do1, di1, do2, di2, fs)``: every
  candidate pair (``L(u, v) >= theta``, the paper's label-constrained
  maintenance) with its degrees and, for pairs frozen by upper-bound
  updating, the frozen score ``fs`` (null for live pairs);
  hash-partitioned by ``(u, v)``;
- the *index* ``P(u, v, d, x, y, fs)``: for each live pair, the
  neighbour pairs ``(x, y)`` that are in the pair table, with ``d = 0``
  for out-neighbours and ``d = 1`` for in-neighbours, plus one ``d = 2``
  row ``(x, y) = (u, v)`` that carries the previous score into the same
  pass; hash-partitioned by ``(x, y)``.

Both use one partition count ``n = min(spark.sql.shuffle.partitions,
defaultParallelism)``, as does each iteration's regrouping by
``(u, v)``, so the three stay co-partitioned. AQE does not coalesce
these fixed-count shuffles; capping ``n`` at the core count runs one
task per core per stage.

One iteration is then a single pass with two shuffles: the checkpointed
scores, renamed to ``(x, y, s)``, join P (only the scores side moves);
``repartition(n, u, v)`` groups each pair's rows; the variant's mapping
operator reduces them (groupBy-max/sum for s and b, and for dp/bj a
greedy max-weight matching, Section 4.2's "greedy approximate of
Hungarian", as a Catalyst higher-order fold over the collected
candidate array, so the loop never starts a Python worker); a left join
onto the co-partitioned pair table normalises. One eager
``localCheckpoint`` truncates lineage and is the iteration's only Spark
action: an ``Observation`` on it reads ``max |score - prev|``. The loop
stops when that is below ``eps`` (Theorem 1 guarantees contraction by a
factor of w+ + w-), or, for dp/bj, when a greedy-tie cycle pins it
(``greedy_tie_plateau``).

Upper-bound updating (Section 3.4): Eq. 6's |M| is a count per
``(u, v, d)`` over the same neighbour pairs, with no fold
(``_bound_reduce``). As scores are <= 1, each variant's count bounds
its mapping sum, so ``ub`` bounds the score. Pairs whose bound is below
``beta`` are frozen at ``alpha * ub`` and only participate as neighbour
lookups, never recomputed.

The ``simrank`` variant (Section 4.3) reuses the same loop with
``M = S1 x S2`` and ``Omega = |S1||S2|``; RoleSim reuses ``bj`` with a
constant label function (see ``core/configs.py``).
"""
from __future__ import annotations

import logging
import time
from typing import Callable, List, Optional, Tuple

from pyspark.sql import Column, DataFrame, Observation, SparkSession
from pyspark.sql import functions as F

from ..graphs.model import Graph
from .labels import LABEL_SIM_SCHEMA, label_sim_pd
from .ops import greedy_matching_sum_col
from .reference import VARIANTS, FSimConfig, greedy_tie_plateau

_log = logging.getLogger(__name__)

# index directions: out-neighbours, in-neighbours, the pair itself
_OUT, _IN, _PREV = 0, 1, 2


def _norm_expr(variant: str, d1: Column, d2: Column, msum: Column) -> Column:
    """msum / Omega_chi with empty-neighborhood conventions (DESIGN §2)."""
    m = F.coalesce(msum, F.lit(0.0))
    if variant in ("s", "dp"):
        return F.when(d1 == 0, F.lit(1.0)).otherwise(m / d1)
    if variant == "b":
        return F.when((d1 == 0) & (d2 == 0), F.lit(1.0)).otherwise(m / (d1 + d2))
    if variant == "bj":
        return (
            F.when((d1 == 0) & (d2 == 0), F.lit(1.0))
            .when((d1 == 0) | (d2 == 0), F.lit(0.0))
            .otherwise(m / F.sqrt((d1 * d2).cast("double")))
        )
    # simrank: Omega = |S1||S2|; empty neighborhood contributes 0
    return F.when((d1 == 0) | (d2 == 0), F.lit(0.0)).otherwise(m / (d1 * d2))


def _score_expr(cfg: FSimConfig) -> Column:
    """Eq. 1 from the per-pair sums ``msum`` (out) and ``msum_in`` (in)."""
    return (cfg.w_out * _norm_expr(cfg.variant, F.col("do1"), F.col("do2"),
                                   F.col("msum"))
            + cfg.w_in * _norm_expr(cfg.variant, F.col("di1"), F.col("di2"),
                                    F.col("msum_in"))
            + cfg.w_label * F.col("lsim"))


def _mapping_reduce(variant: str, n: int) -> Callable[[DataFrame], DataFrame]:
    """A function ``(u, v, d, x, y, s)`` rows -> ``(u, v, msum, msum_in, prev)``.

    It applies the variant's mapping operator to each ``(u, v, d)``
    group. Rows are shuffled once by ``(u, v)``; every aggregation after
    that groups by a superset of ``(u, v)``, so none shuffles again.
    Rows hold only neighbour pairs that are candidates, so an absent
    ``(x, y)`` is ineligible (L < theta): that is the label constraint.
    The column expressions are built here, once per run, because each
    operator costs a Python-to-JVM round trip.
    """
    best, total = F.max("s").alias("s"), F.sum("s").alias("m")
    if variant == "s":
        def per_d(rows: DataFrame) -> DataFrame:
            return (rows.groupBy("u", "v", "d", "x").agg(best)
                    .groupBy("u", "v", "d").agg(total))
    elif variant == "b":
        # x-side and y-side maxima
        side, key = _sides()

        def per_d(rows: DataFrame) -> DataFrame:
            return (rows.select("u", "v", "d", "x", "y", "s", side)
                    .select("u", "v", "d", "side", key, "s")
                    .groupBy("u", "v", "d", "side", "k").agg(best)
                    .groupBy("u", "v", "d").agg(total))
    elif variant == "simrank":
        def per_d(rows: DataFrame) -> DataFrame:
            return rows.groupBy("u", "v", "d").agg(total)
    else:  # dp / bj: greedy matching inside each (u, v, d) group
        cand = F.collect_list(F.struct("x", "y", "s")).alias("cand")
        matched = greedy_matching_sum_col("cand").alias("m")

        def per_d(rows: DataFrame) -> DataFrame:
            return (rows.groupBy("u", "v", "d").agg(cand)
                    .select("u", "v", "d", matched))
    return _per_pair(per_d, n)


def _bound_reduce(variant: str, n: int) -> Callable[[DataFrame], DataFrame]:
    """A function ``(u, v, d, x, y)`` rows -> ``(u, v, msum, msum_in, prev)``
    whose ``m`` per ``(u, v, d)`` group is Eq. 6's label-feasible
    |M_chi|, a count rather than a matching. With ``nx`` (``ny``) the
    distinct x's (y's) of the group, each of which has an eligible
    partner: s counts ``nx``, b ``nx + ny`` and simrank the rows, each
    the variant's mapping sum with every score 1; dp/bj count
    ``min(nx, ny)``, since with scores <= 1 the greedy matching's sum <=
    its cardinality <= the maximum matching <= ``min(nx, ny)``.
    """
    if variant == "simrank":
        def per_d(rows: DataFrame) -> DataFrame:
            return rows.groupBy("u", "v", "d").agg(F.count("*").alias("m"))
        return _per_pair(per_d, n)
    # distinct (side, k) rows, so no count_distinct: two of those would
    # expand the rows and shuffle them again
    side, key = _sides()
    nx = F.count(F.when(F.col("side") == 0, 1))
    ny = F.count(F.when(F.col("side") == 1, 1))
    card = nx if variant == "s" else nx + ny if variant == "b" else F.least(nx, ny)

    def per_d(rows: DataFrame) -> DataFrame:
        return (rows.select("u", "v", "d", "x", "y", side)
                .select("u", "v", "d", "side", key).distinct()
                .groupBy("u", "v", "d").agg(card.alias("m")))
    return _per_pair(per_d, n)


def _sides() -> Tuple[Column, Column]:
    """Columns that explode each row into an x-side (``side`` 0) and a
    y-side (1) row keyed ``k`` by that side's node; the d = 2 row is the
    pair itself and gets only one."""
    side = F.explode(F.when(F.col("d") == _PREV, F.array(F.lit(0)))
                     .otherwise(F.array(F.lit(0), F.lit(1)))).alias("side")
    key = F.when(F.col("side") == 0, F.col("x")).otherwise(F.col("y")).alias("k")
    return side, key


def _per_pair(per_d: Callable[[DataFrame], DataFrame],
              n: int) -> Callable[[DataFrame], DataFrame]:
    """Shuffle rows once by ``(u, v)``, reduce each ``(u, v, d)`` group to
    ``m`` with ``per_d``, and sum ``m`` per pair into ``msum`` (out),
    ``msum_in`` (in) and ``prev`` (the pair's own ``d = 2`` row)."""
    d, m = F.col("d"), F.col("m")
    per_pair = (F.sum(F.when(d == _OUT, m)).alias("msum"),
                F.sum(F.when(d == _IN, m)).alias("msum_in"),
                F.max(F.when(d == _PREV, m)).alias("prev"))

    def reduce(rows: DataFrame) -> DataFrame:
        return per_d(rows.repartition(n, "u", "v")).groupBy("u", "v").agg(*per_pair)
    return reduce


def _neighbour_pairs(g1: Graph, g2: Graph, live: DataFrame,
                     pairs: DataFrame) -> DataFrame:
    """``(u, v, d, x, y, fs)``: neighbour pairs of each live ``(u, v)``
    in direction ``d`` whose ``(x, y)`` is a row of ``pairs``."""
    def by_dir(g: Graph, node: str, nbr: str) -> DataFrame:
        return (g.out_edges().withColumn("d", F.lit(_OUT))
                .unionByName(g.in_edges().withColumn("d", F.lit(_IN)))
                .withColumnsRenamed({"u": node, "nbr": nbr}))
    targets = pairs.select(F.col("u").alias("x"), F.col("v").alias("y"), "fs")
    return (live.select("u", "v")
            .join(by_dir(g1, "u", "x"), "u")
            .join(by_dir(g2, "v", "y"), ["v", "d"])
            .join(targets, ["x", "y"])
            .select("u", "v", "d", "x", "y", "fs"))


def _candidates(spark: SparkSession, g1: Graph, g2: Graph,
                cfg: FSimConfig) -> DataFrame:
    """Candidate pairs ``(u, v, lsim, do1, di1, do2, di2)`` with L >= theta."""
    d1 = g1.degrees().select(
        F.col("id").alias("u"), F.col("label").alias("lab1"),
        F.col("dout").alias("do1"), F.col("din").alias("di1"))
    d2 = g2.degrees().select(
        F.col("id").alias("v"), F.col("label").alias("lab2"),
        F.col("dout").alias("do2"), F.col("din").alias("di2"))
    # nodes per label: the label table's keys, and the candidate count
    # before any join
    n1 = dict(g1.nodes.groupBy("label").count().collect())
    n2 = dict(g2.nodes.groupBy("label").count().collect())
    lsim_pd = label_sim_pd(list(n1), list(n2), cfg.label_fn, min_sim=cfg.theta)
    lsim = spark.createDataFrame(lsim_pd, schema=LABEL_SIM_SCHEMA)
    if cfg.theta > 0.0:
        n_pairs = sum(n1[a] * n2[b]
                      for a, b in zip(lsim_pd["lab1"], lsim_pd["lab2"]))
        c = d1.join(lsim, "lab1").join(d2, "lab2")
    else:
        n_pairs = sum(n1.values()) * sum(n2.values())
        c = (d1.crossJoin(d2)
             .join(lsim, ["lab1", "lab2"], "left")
             .withColumn("lsim", F.coalesce("lsim", F.lit(0.0))))
    if n_pairs > cfg.max_pairs:
        raise ValueError(f"{n_pairs} candidate pairs at theta={cfg.theta} "
                         f"exceed max_pairs={cfg.max_pairs}; raise theta or "
                         "max_pairs")
    return c.select("u", "v", "lsim", "do1", "di1", "do2", "di2")


def fsim_spark(
    spark: SparkSession,
    g1: Graph,
    g2: Graph,
    cfg: FSimConfig,
    init: Optional[DataFrame] = None,
    pin_diagonal: bool = False,
    return_frozen: bool = False,
) -> DataFrame | Tuple[DataFrame, DataFrame]:
    """Compute FSim_chi scores for all candidate pairs of (g1, g2).

    Returns a DataFrame ``(u, v, score)`` (plus the frozen-pair frame if
    ``return_frozen``). ``init`` overrides the default ``L(u, v)``
    initialization (used by the SimRank/RoleSim configurations);
    ``pin_diagonal`` re-asserts ``score(u, u) = 1`` each iteration
    (SimRank's fixed diagonal).
    """
    if cfg.variant not in VARIANTS:
        raise ValueError(f"unknown variant {cfg.variant!r}; expected one of "
                         f"{VARIANTS}")
    # one task per core per stage: AQE does not coalesce these
    # fixed-count shuffles, so more partitions than cores only add tasks
    n = min(int(spark.conf.get("spark.sql.shuffle.partitions")),
            spark.sparkContext.defaultParallelism)
    cand = _candidates(spark, g1, g2, cfg).localCheckpoint()

    pairs = cand.withColumn("fs", F.lit(None).cast("double"))
    frozen = spark.createDataFrame([], schema="u long, v long, score double")
    # ---- upper-bound updating: freeze pairs with ub < beta at alpha*ub
    if cfg.upper_bound:
        card = _bound_reduce(cfg.variant, n)(_neighbour_pairs(g1, g2, pairs, pairs))
        ub = _score_expr(cfg)
        pairs = (
            cand.join(card, ["u", "v"], "left")
            .select("u", "v", "lsim", "do1", "di1", "do2", "di2",
                    F.when(ub < cfg.beta, cfg.alpha * ub).alias("fs"))
            .localCheckpoint()
        )
        frozen = (pairs.filter(F.col("fs").isNotNull())
                  .select("u", "v", F.col("fs").alias("score"))
                  .localCheckpoint())

    # the two static sides, cached: a cached repartition keeps its hash
    # partitioning, a checkpoint does not. The index is built from the
    # uncached pairs, so AQE may coalesce the shuffles of its joins.
    live = pairs.filter(F.col("fs").isNull())
    index = (
        _neighbour_pairs(g1, g2, live, pairs)
        .unionByName(live.select("u", "v", F.lit(_PREV).alias("d"),
                                 F.col("u").alias("x"), F.col("v").alias("y"),
                                 "fs"))
        .repartition(n, "x", "y").cache()
    )
    pairs = pairs.repartition(n, "u", "v").cache()
    live = pairs.filter(F.col("fs").isNull())

    scores = (init if init is not None
              else live.select("u", "v", F.col("lsim").alias("score")))
    scores = scores.localCheckpoint()

    # the loop's column expressions, built once: each operator costs a
    # Python-to-JVM round trip
    score = _score_expr(cfg)
    if pin_diagonal:
        score = F.when(F.col("u") == F.col("v"), F.lit(1.0)).otherwise(score)
    score = score.alias("score")
    delta = F.abs(F.col("score") - F.coalesce("prev", F.lit(0.0))).alias("delta")
    max_delta_col = F.max("delta").alias("max_delta")
    lookup_cols = (F.col("u").alias("x"), F.col("v").alias("y"),
                   F.col("score").alias("s"))
    # frozen neighbours score fs; a live one absent from the scores
    # (a partial ``init``) is ineligible this iteration
    neighbour_s = F.coalesce("fs", "s")
    reduce = _mapping_reduce(cfg.variant, n)

    n_iters = cfg.exact_iters if cfg.exact_iters is not None else cfg.max_iter
    deltas: List[float] = []
    for it in range(n_iters):
        t_iter = time.time()
        rows = (index.join(scores.select(*lookup_cols), ["x", "y"], "left")
                .withColumn("s", neighbour_s)
                .filter(F.col("s").isNotNull()))
        # the checkpoint's own job fills the observation with max delta
        obs = Observation()
        scores = (
            live.join(reduce(rows), ["u", "v"], "left")
            .select("u", "v", score, "prev")
            .select("u", "v", "score", delta)
            .observe(obs, max_delta_col)
            .localCheckpoint(eager=True)
        )
        if cfg.exact_iters is not None:
            _log.debug("fsim %s iter=%d dt=%.2fs", cfg.variant, it + 1,
                       time.time() - t_iter)
            continue
        max_delta = obs.get["max_delta"]
        _log.debug("fsim %s iter=%d delta=%s dt=%.2fs", cfg.variant, it + 1,
                   max_delta, time.time() - t_iter)
        if max_delta is None or max_delta < cfg.eps:
            break
        # Oscillation guard: with exact maximum mappings (Theorem 1,
        # C3) delta contracts by >= (w+ + w-) each iteration. The
        # greedy dp/bj approximation can instead cycle between tied
        # matchings, pinning delta at one amplitude or alternating
        # between two; the scores are then stable up to the greedy
        # tie, so stop.
        if cfg.variant in ("dp", "bj") and greedy_tie_plateau(max_delta, deltas):
            _log.debug("fsim %s greedy-tie plateau at delta=%s; stopping",
                       cfg.variant, max_delta)
            break
        deltas.append(max_delta)
    else:
        if cfg.exact_iters is None:
            _log.warning("fsim %s stopped at max_iter=%d with delta=%s, "
                         "not below eps=%s", cfg.variant, cfg.max_iter,
                         deltas[-1] if deltas else None, cfg.eps)
    pairs.unpersist()
    index.unpersist()
    scores = scores.select("u", "v", "score")
    return (scores, frozen) if return_frozen else scores
