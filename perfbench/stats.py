"""Small numeric helpers shared by the benchmark and its trace.

Pure Python, no Spark: the tests in ``perfbench/tests`` exercise them on
hand-made inputs.
"""
from __future__ import annotations

import statistics
from typing import Iterable, List, Sequence, Tuple

Interval = Tuple[float, float]


def median(xs: Sequence[float]) -> float:
    """Median of a sample; 0.0 when it is empty."""
    return float(statistics.median(xs)) if xs else 0.0


def covered(intervals: Iterable[Interval], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped: List[Interval] = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, children: Iterable[Interval]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - covered(children, start, end)
