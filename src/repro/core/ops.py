"""Mapping-operator kernels (Section 4, Table 3).

The dp/bj mapping operators are maximum-weight bipartite matchings; the
paper uses "a popular greedy approximate of Hungarian" [23], which we
mirror: scan candidate pairs in decreasing-score order and take every
pair whose endpoints are both unused.

Two implementations with identical semantics (cross-checked in tests):
a pure-Python kernel (reference implementation, driver-side baselines)
and a Catalyst higher-order-function fold applied to
``collect_list(struct(x, y, s))`` columns inside the Spark engine.
The SQL form matters: an iterative loop that runs a pandas UDF every
iteration degrades catastrophically after ~15 iterations (observed
empirically — geometric per-iteration slowdown), while the Tungsten
fold stays flat.
"""
from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from pyspark.sql import functions as F


def greedy_matching(
    xs: Sequence[int], ys: Sequence[int], ss: Sequence[float]
) -> float:
    """Greedy max-weight bipartite matching over candidate pairs.

    Returns the matched score sum. Ties are broken by (x, y) for
    determinism. This is injective on both sides, which is exactly the
    feasible set shared by the dp and bj mapping operators.
    """
    order = sorted(range(len(ss)), key=lambda i: (-ss[i], xs[i], ys[i]))
    used_x: set = set()
    used_y: set = set()
    total = 0.0
    for i in order:
        x, y = xs[i], ys[i]
        if x in used_x or y in used_y:
            continue
        used_x.add(x)
        used_y.add(y)
        total += ss[i]
    return total


def kuhn_saturating(
    left: Iterable[int], candidates: Dict[int, List[int]]
) -> bool:
    """Exact check: can every left node be matched injectively?

    Kuhn's augmenting-path algorithm — used by exact dp-/bj-simulation
    where an *exact* injective mapping existence test is required
    (Definition 2/3), not the greedy approximation.
    """
    match_of: Dict[int, int] = {}

    def try_augment(u: int, seen: set) -> bool:
        for v in candidates.get(u, []):
            if v in seen:
                continue
            seen.add(v)
            if v not in match_of or try_augment(match_of[v], seen):
                match_of[v] = u
                return True
        return False

    for u in left:
        if not try_augment(u, set()):
            return False
    return True


# SQL comparator ordering candidate structs by (-s, x, y) — identical to
# the Python kernel's tie-breaking, so Spark and reference agree bit-for-bit.
_SORT_CMP = (
    "(a, b) -> CASE WHEN a.s > b.s THEN -1 WHEN a.s < b.s THEN 1 "
    "WHEN a.x < b.x THEN -1 WHEN a.x > b.x THEN 1 "
    "WHEN a.y < b.y THEN -1 WHEN a.y > b.y THEN 1 ELSE 0 END"
)

_GREEDY_FOLD = (
    "aggregate("
    "  array_sort({col}, {cmp}),"
    "  named_struct("
    "    'ux', cast(array() as array<bigint>),"
    "    'uy', cast(array() as array<bigint>),"
    "    'tot', cast(0.0 as double)),"
    "  (st, c) -> IF(array_contains(st.ux, c.x) OR array_contains(st.uy, c.y),"
    "              st,"
    "              named_struct('ux', array_append(st.ux, c.x),"
    "                           'uy', array_append(st.uy, c.y),"
    "                           'tot', st.tot + c.s)),"
    "  st -> st.tot)"
)


def greedy_matching_sum_col(cand_col: str) -> "F.Column":
    """Greedy max-weight matching *score sum* as a pure Catalyst column.

    Folds the score-sorted candidate array while tracking used endpoints
    — the same greedy as :func:`greedy_matching`, but evaluated by
    Tungsten (higher-order ``aggregate``), which keeps the iterative
    FSim loop free of Python workers (a long-running pandas-UDF loop
    degrades catastrophically after ~15 iterations; see DESIGN.md).
    """
    return F.expr(_GREEDY_FOLD.format(col=cand_col, cmp=_SORT_CMP))
