"""Output checks run on every solve, outside the timed region.

A solve passes when its scores equal the pure-Python reference
(``repro.core.reference.fsim_reference``) to ``TOL`` over identical
candidate and frozen pair sets, every score lies in [0, 1], the diagonal
is 1 when both sides are the same graph, and the F1 the user reads
equals the F1 the reference scores give.
"""
from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import pandas as pd

Pair = Tuple[int, int]
Scores = Dict[Pair, float]

TOL = 1e-9


def to_scores(pdf: pd.DataFrame) -> Scores:
    """``(u, v, score)`` frame -> ``{(u, v): score}``."""
    return {(int(u), int(v)): float(s)
            for u, v, s in zip(pdf["u"], pdf["v"], pdf["score"])}


def to_frame(scores: Scores) -> pd.DataFrame:
    """``{(u, v): score}`` -> ``(u, v, score)`` frame."""
    return pd.DataFrame([(u, v, s) for (u, v), s in scores.items()],
                        columns=["u", "v", "score"])


def _compare(name: str, got: Scores, want: Scores) -> List[str]:
    errs: List[str] = []
    if got.keys() != want.keys():
        extra = len(got.keys() - want.keys())
        missing = len(want.keys() - got.keys())
        errs.append(f"{name} pair sets differ: {extra} extra, {missing} missing")
        return errs
    worst = max((abs(got[p] - want[p]) for p in want), default=0.0)
    if not worst <= TOL:
        errs.append(f"{name} scores differ from the reference by {worst:.3e}")
    return errs


def check_solve(
    scores: Scores,
    frozen: Scores,
    ref_scores: Scores,
    ref_frozen: Scores,
    f1: float,
    ref_f1: float,
    diagonal: Optional[Iterable[int]] = None,
) -> List[str]:
    """Every way one solve's output disagrees with the reference; empty
    when the solve is correct. ``diagonal`` lists the nodes whose
    self-pair must score 1 (only when G1 = G2)."""
    errs = _compare("active", scores, ref_scores)
    errs += _compare("frozen", frozen, ref_frozen)
    bad = [p for d in (scores, frozen) for p, s in d.items()
           if not 0.0 <= s <= 1.0]
    if bad:
        errs.append(f"{len(bad)} scores outside [0, 1], e.g. {bad[0]}")
    if diagonal is not None:
        off = [u for u in diagonal if abs(scores.get((u, u), -1.0) - 1.0) > TOL]
        if off:
            errs.append(f"{len(off)} self-pairs do not score 1, e.g. node {off[0]}")
    if not abs(f1 - ref_f1) <= TOL:
        errs.append(f"f1 {f1!r} differs from the reference's {ref_f1!r}")
    return errs
