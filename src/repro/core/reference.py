"""Pure-Python reference implementation of the FSimX framework.

A direct, dictionary-based transcription of Equations 1-3 and the
Table-3 operator configurations. It exists to cross-check the
distributed Spark engine (``core/fsim.py``) on small graphs — the
graph-algorithm analogue of the DuckDB SQL oracle: two independent
implementations of the same spec must produce identical scores.

The tests and the benchmark's correctness check call it; no table does.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..graphs.model import AdjGraph
from .labels import LABEL_FNS
from .ops import greedy_matching

Pair = Tuple[int, int]

# 'simrank' is the Section-4.3 configuration (Spark engine only)
VARIANTS = ("s", "dp", "b", "bj", "simrank")


@dataclass
class FSimConfig:
    """Parameters of the FSimX computation (paper defaults).

    ``w_out``/``w_in`` are w+ / w-; ``label_fn`` picks L; ``theta`` is
    the label-constrained-mapping threshold; ``eps`` the convergence
    tolerance (paper: values change by < 0.01); ``exact_iters`` forces
    exactly k iterations (used for the k-bisimulation relation,
    Theorem 4). ``upper_bound`` enables Section 3.4's pruning with
    ``alpha``/``beta``. ``max_pairs`` guards against accidental full
    cross products on large graphs.
    """

    variant: str = "s"  # 's' | 'dp' | 'b' | 'bj' | 'simrank'
    w_out: float = 0.4
    w_in: float = 0.4
    label_fn: str | Callable[[str, str], float] = "indicator"
    theta: float = 0.0
    eps: float = 1e-2
    max_iter: int = 60
    exact_iters: Optional[int] = None
    upper_bound: bool = False
    alpha: float = 0.0
    beta: float = 0.0
    max_pairs: int = 5_000_000

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one "
                             f"of {VARIANTS}")
        if not (0.0 <= self.w_out < 1.0 and 0.0 <= self.w_in < 1.0):
            raise ValueError(f"w_out={self.w_out} and w_in={self.w_in} must "
                             "each lie in [0, 1)")
        if not 0.0 < self.w_out + self.w_in < 1.0:
            raise ValueError(f"w_out + w_in = {self.w_out + self.w_in} must lie "
                             "in (0, 1)")
        if isinstance(self.label_fn, str) and self.label_fn not in LABEL_FNS:
            raise ValueError(f"unknown label_fn {self.label_fn!r}; expected "
                             f"a callable or one of {tuple(LABEL_FNS)}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta={self.theta} must lie in [0, 1]")
        # frozen scores are alpha * ub, so alpha > 1 breaks P1
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha={self.alpha} must lie in [0, 1]")
        # a fixed count, zero included, is exact_iters' job
        if self.max_iter < 1:
            raise ValueError(f"max_iter={self.max_iter} must be at least 1; "
                             "use exact_iters for a fixed count")
        if not self.eps > 0.0:
            raise ValueError(f"eps={self.eps} must be positive, or the run "
                             "never converges before max_iter")
        # 0 is legal: Theorem 4 at k = 0 keeps the initial scores
        if self.exact_iters is not None and self.exact_iters < 0:
            raise ValueError(f"exact_iters={self.exact_iters} must be "
                             "non-negative")

    @property
    def w_label(self) -> float:
        return 1.0 - self.w_out - self.w_in


def _mapping_sum(
    variant: str,
    s1: List[int],
    s2: List[int],
    score: Dict[Pair, float],
) -> float:
    """Sum over M_chi(S1, S2) of previous-iteration scores (Table 3).

    ``score`` holds the (candidate-restricted) previous scores; a pair
    absent from it is ineligible for the mapping (L < theta) — for
    maximization an ineligible/zero pair is never chosen, matching the
    label-constrained mapping operator.
    """
    if variant == "s":
        tot = 0.0
        for x in s1:
            best = 0.0
            hit = False
            for y in s2:
                v = score.get((x, y))
                if v is not None and (not hit or v > best):
                    best, hit = v, True
            tot += best if hit else 0.0
        return tot
    if variant == "b":
        tot = 0.0
        for x in s1:
            vals = [score[(x, y)] for y in s2 if (x, y) in score]
            tot += max(vals) if vals else 0.0
        for y in s2:
            vals = [score[(x, y)] for x in s1 if (x, y) in score]
            tot += max(vals) if vals else 0.0
        return tot
    # dp / bj: greedy max-weight matching over eligible pairs
    xs: List[int] = []
    ys: List[int] = []
    ss: List[float] = []
    for x in s1:
        for y in s2:
            v = score.get((x, y))
            if v is not None:
                xs.append(x)
                ys.append(y)
                ss.append(v)
    return greedy_matching(xs, ys, ss)


def _norm_term(variant: str, d1: int, d2: int, msum: float) -> float:
    """msum / Omega with the empty-neighborhood conventions (DESIGN §2)."""
    if variant in ("s", "dp"):
        if d1 == 0:
            return 1.0
        return msum / d1
    if variant == "b":
        if d1 == 0 and d2 == 0:
            return 1.0
        return msum / (d1 + d2)
    # bj
    if d1 == 0 and d2 == 0:
        return 1.0
    if d1 == 0 or d2 == 0:
        return 0.0
    return msum / (d1 * d2) ** 0.5


def _label_feasible_card(variant: str, s1: List[int], s2: List[int],
                         eligible: Dict[Pair, float]) -> int:
    """|M_chi| under the label constraint only (for Eq. 6 upper bounds),
    from the x's with an eligible y and the y's with an eligible x: all
    of the x's for s, both sets for b, and the smaller set for dp/bj.
    Scores are <= 1, so the greedy matching's sum <= its cardinality <=
    the maximum matching <= that count, and the bound holds."""
    xs = {x for x in s1 if any((x, y) in eligible for y in s2)}
    ys = {y for y in s2 if any((x, y) in eligible for x in s1)}
    if variant == "s":
        return len(xs)
    if variant == "b":
        return len(xs) + len(ys)
    return min(len(xs), len(ys))


def greedy_tie_plateau(delta: float, earlier: List[float]) -> bool:
    """Whether a dp/bj run's ``delta`` has stopped contracting: it lies
    within 5% of the delta one or two iterations back (``earlier`` holds
    the previous iterations' deltas, oldest first; at least two are
    needed). The greedy matching can cycle between tied matchings with
    period 1 or 2; under true contraction delta_t <= (w+ + w-)^2 *
    delta_{t-2}, so neither comparison can hold there."""
    return len(earlier) >= 2 and any(abs(delta - d) < 0.05 * delta
                                     for d in earlier[-2:])


@dataclass
class FSimResult:
    scores: Dict[Pair, float]
    iterations: int
    frozen: Dict[Pair, float] = field(default_factory=dict)  # ub-pruned pairs


def fsim_reference(
    labels1: Dict[int, str],
    edges1: List[Pair],
    labels2: Dict[int, str],
    edges2: List[Pair],
    cfg: FSimConfig,
    init: Optional[Dict[Pair, float]] = None,
) -> FSimResult:
    """Compute FSim_chi(u, v) for all candidate pairs (reference semantics)."""
    g1 = AdjGraph(labels1, edges1)
    g2 = AdjGraph(labels2, edges2)
    fn = LABEL_FNS[cfg.label_fn] if isinstance(cfg.label_fn, str) else cfg.label_fn

    lsim: Dict[Pair, float] = {}
    for u, lu in g1.label.items():
        for v, lv in g2.label.items():
            s = fn(lu, lv)
            if s >= cfg.theta:
                lsim[(u, v)] = s
    if len(lsim) > cfg.max_pairs:
        raise ValueError(f"{len(lsim)} candidate pairs exceed "
                         f"max_pairs={cfg.max_pairs}; raise theta or max_pairs")

    frozen: Dict[Pair, float] = {}
    cand = dict(lsim)
    if cfg.upper_bound:
        for (u, v), l in lsim.items():
            m_out = _label_feasible_card(cfg.variant, g1.out[u], g2.out[v], lsim)
            m_in = _label_feasible_card(cfg.variant, g1.inn[u], g2.inn[v], lsim)
            t_out = _norm_term(cfg.variant, len(g1.out[u]), len(g2.out[v]), float(m_out))
            t_in = _norm_term(cfg.variant, len(g1.inn[u]), len(g2.inn[v]), float(m_in))
            ub = cfg.w_out * t_out + cfg.w_in * t_in + cfg.w_label * l
            if ub < cfg.beta:
                frozen[(u, v)] = cfg.alpha * ub
        for p in frozen:
            del cand[p]

    prev: Dict[Pair, float] = dict(init) if init is not None else dict(cand)
    for p in frozen:
        prev[p] = frozen[p]

    n_iters = cfg.exact_iters if cfg.exact_iters is not None else cfg.max_iter
    it = 0
    deltas: List[float] = []
    for it in range(1, n_iters + 1):
        cur: Dict[Pair, float] = {}
        for (u, v), l in cand.items():
            m_out = _mapping_sum(cfg.variant, g1.out[u], g2.out[v], prev)
            m_in = _mapping_sum(cfg.variant, g1.inn[u], g2.inn[v], prev)
            t_out = _norm_term(cfg.variant, len(g1.out[u]), len(g2.out[v]), m_out)
            t_in = _norm_term(cfg.variant, len(g1.inn[u]), len(g2.inn[v]), m_in)
            cur[(u, v)] = cfg.w_out * t_out + cfg.w_in * t_in + cfg.w_label * l
        delta = max((abs(cur[p] - prev.get(p, 0.0)) for p in cur), default=0.0)
        for p in frozen:
            cur[p] = frozen[p]
        prev = cur
        if cfg.exact_iters is None:
            if delta < cfg.eps:
                break
            # greedy-tie plateau guard — mirrors the Spark engine: the
            # dp/bj greedy matching can cycle between tied matchings,
            # pinning delta above eps; a delta that stopped contracting
            # means the scores are stable up to the tie.
            if cfg.variant in ("dp", "bj") and greedy_tie_plateau(delta, deltas):
                break
            deltas.append(delta)
    scores = {p: s for p, s in prev.items() if p not in frozen}
    return FSimResult(scores=scores, iterations=it, frozen=frozen)
