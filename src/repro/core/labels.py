"""Label similarity functions L(.) and the label-pair similarity table.

Section 3.2/3.3 of the paper: with no prior knowledge of label
semantics, L can be any string similarity with ``L(a, b) = 1 iff
a == b`` (needed for well-definiteness). The paper evaluates three:
indicator L_I, normalized edit distance L_E, and Jaro-Winkler L_J
(Table 5).

Similarities are computed once per *distinct label pair* on the driver
(|Sigma1| x |Sigma2| is small even when |V1| x |V2| is not) and joined
to node pairs as a Spark DataFrame — the standard dimension-table
pattern.
"""
from __future__ import annotations

from typing import Callable, List

import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def indicator(a: str, b: str) -> float:
    """L_I: 1 if labels are equal else 0."""
    return 1.0 if a == b else 0.0


def edit_similarity(a: str, b: str) -> float:
    """L_E: 1 - levenshtein(a, b) / max(|a|, |b|)."""
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        ca = a[i - 1]
        for j in range(1, lb + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (ca != b[j - 1]))
        prev = cur
    return 1.0 - prev[lb] / max(la, lb)


def jaro(a: str, b: str) -> float:
    """Jaro similarity (helper for Jaro-Winkler)."""
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    window = max(la, lb) // 2 - 1
    match_a = [False] * la
    match_b = [False] * lb
    matches = 0
    for i in range(la):
        lo, hi = max(0, i - window), min(lb, i + window + 1)
        for j in range(lo, hi):
            if not match_b[j] and a[i] == b[j]:
                match_a[i] = match_b[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    t = 0
    k = 0
    for i in range(la):
        if match_a[i]:
            while not match_b[k]:
                k += 1
            if a[i] != b[k]:
                t += 1
            k += 1
    t //= 2
    return (matches / la + matches / lb + (matches - t) / matches) / 3.0


def jaro_winkler(a: str, b: str, p: float = 0.1) -> float:
    """L_J: Jaro boosted by common-prefix length (<= 4)."""
    j = jaro(a, b)
    if j == 1.0:
        return 1.0
    prefix = 0
    for x, y in zip(a[:4], b[:4]):
        if x != y:
            break
        prefix += 1
    # cap below 1 so L(a,b)=1 iff a==b (well-definiteness requirement)
    return min(j + prefix * p * (1.0 - j), 0.999999)


LABEL_FNS: dict[str, Callable[[str, str], float]] = {
    "indicator": indicator,
    "edit": edit_similarity,
    "jaro_winkler": jaro_winkler,
}


def label_sim_pd(labels1: List[str], labels2: List[str], fn: str | Callable,
                 min_sim: float = 0.0) -> pd.DataFrame:
    """All distinct label pairs with similarity ``> 0`` and ``>= min_sim``.

    Pairs with similarity 0 are omitted — downstream code treats a
    missing pair as L = 0 via left joins, keeping the table sparse.
    """
    f = LABEL_FNS[fn] if isinstance(fn, str) else fn
    l1 = sorted(set(labels1))
    l2 = sorted(set(labels2))
    if f is indicator:  # fast path: only equal pairs are non-zero
        common = sorted(set(l1) & set(l2))
        return pd.DataFrame({"lab1": common, "lab2": common,
                             "lsim": [1.0] * len(common)})
    rows = []
    for a in l1:
        for b in l2:
            s = f(a, b)
            if s > 0.0 and s >= min_sim:
                rows.append((a, b, s))
    return pd.DataFrame(rows, columns=["lab1", "lab2", "lsim"])


LABEL_SIM_SCHEMA = "lab1 string, lab2 string, lsim double"


def label_sim_df(spark: SparkSession, labels1: List[str], labels2: List[str],
                 fn: str | Callable, min_sim: float = 0.0) -> DataFrame:
    """Spark dimension table ``(lab1, lab2, lsim)`` of non-zero label pairs."""
    pdf = label_sim_pd(labels1, labels2, fn, min_sim)
    return spark.createDataFrame(pdf, schema=LABEL_SIM_SCHEMA)
