"""Outside-in per-layer trace of one solve.

Nothing here edits program code. In a traced run the benchmark

- opens spans around its own calls into each layer (``span``), and
  wraps module-level functions that harness code calls internally
  (``wrap``, ``wrap_fsim``);
- wraps the pyspark actions the engine issues (``localCheckpoint``,
  ``first``, ``count``, ``toPandas``, ``collect``), giving each its own
  Spark job group so ``statusTracker().getJobIdsForGroup`` finds its
  jobs, and reads their stage metrics from Spark's status store;
- attributes the actions inside ``fsim_spark`` to engine phases by their
  order (see ``_Fsim.classify``); an action it cannot place goes to
  ``core.fsim.other_s``;
- after the solve, and outside its timing, runs side queries over the
  same joins for row and mapping-group counts and the greedy-fold time.

Untraced runs use ``NullTracer``, which does nothing.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from py4j.protocol import Py4JError, Py4JJavaError
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.labels import label_sim_df
from repro.core.ops import greedy_matching_sum_col

from stats import covered, median, self_time

ACTIONS = ("localCheckpoint", "first", "count", "toPandas", "collect")
FSIM = "core.fsim"


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    end: float = 0.0


@dataclass
class Action:
    phase: str
    group: str
    start: float
    end: float
    in_fsim: bool
    jobs: Dict[str, float] = field(default_factory=dict)


class _Fsim:
    """State of one ``fsim_spark`` call: classifies its actions.

    The engine's action order is: two label ``collect``s and the
    candidate ``localCheckpoint``; with upper-bound updating, the frozen
    and the pruned-candidate checkpoints; the initial-score checkpoint;
    then per iteration one checkpoint and one ``first`` (the Δ job).
    """

    def __init__(self, bound: Dict[str, Any]):
        self.args = bound
        self.upper_bound = bool(bound["cfg"].upper_bound)
        self.checkpoints = 0
        self.captured: Dict[str, DataFrame] = {}

    def classify(self, method: str, out: Any) -> str:
        prelude = 4 if self.upper_bound else 2
        if method == "collect" and self.checkpoints == 0:
            return "candidates"
        if method == "first" and self.checkpoints > prelude:
            return "delta"
        if method != "localCheckpoint":
            return "other"
        idx = self.checkpoints
        self.checkpoints += 1
        if idx == 0:
            self.captured["cand"] = out
            return "candidates"
        if idx == prelude - 1:
            return "candidates"
        if idx < prelude - 1:
            if idx == 1:
                self.captured["frozen"] = out
            return "upper_bound"
        self.captured["scores"] = out
        return "iter"


class NullTracer:
    """Stand-in for untraced runs: every hook is the identity."""

    def span(self, name: str):
        return nullcontext()

    def wrap(self, fn: Callable, name: str) -> Callable:
        return fn

    def wrap_fsim(self, fn: Callable) -> Callable:
        return fn


class Tracer(NullTracer):
    def __init__(self, spark: SparkSession):
        self.spark = spark
        self.sc = spark.sparkContext
        self._seq = 0
        self._patched: List[Tuple[Any, str, Any]] = []
        self._recording = False
        self._in_action = False
        self._reset()

    # ------------------------------------------------------------ install
    def install(self, modules: List[Tuple[Any, str, Callable]]) -> None:
        """Patch the DataFrame actions and ``(module, attr, wrapper)``s."""
        cls = type(self.spark.range(1))
        for name in ACTIONS:
            self._patch(cls, name, self._wrap_action(name, getattr(cls, name)))
        for mod, attr, wrapper in modules:
            self._patch(mod, attr, wrapper(getattr(mod, attr)))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -------------------------------------------------------------- spans
    def _reset(self) -> None:
        self.spans: List[Span] = []
        self.actions: List[Action] = []
        self._stack: List[int] = []
        self._fsim: Optional[_Fsim] = None
        self._fsim_calls: List[_Fsim] = []

    @contextmanager
    def span(self, name: str):
        if not self._recording:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.time(), parent))
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.spans[self._stack.pop()].end = time.time()

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def wrap_fsim(self, fn: Callable) -> Callable:
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._recording:
                return fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            state = _Fsim(dict(bound.arguments))
            self._fsim_calls.append(state)
            self._fsim = state
            try:
                with self.span(FSIM):
                    return fn(*args, **kwargs)
            finally:
                self._fsim = None
        return traced

    def _wrap_action(self, method: str, orig: Callable) -> Callable:
        @functools.wraps(orig)
        def action(df, *args, **kwargs):
            if not self._recording or self._in_action:
                return orig(df, *args, **kwargs)
            self._in_action = True
            self._seq += 1
            group = f"perfbench-{self._seq}"
            self.sc.setJobGroup(group, method)
            start = time.time()
            out = None
            try:
                out = orig(df, *args, **kwargs)
                return out
            finally:
                end = time.time()
                self.sc.setJobGroup(self._base, "solve")
                self._in_action = False
                self._record(method, group, start, end, out)
        return action

    def _record(self, method: str, group: str, start: float, end: float,
                out: Any) -> None:
        if self._fsim is not None:
            phase = self._fsim.classify(method, out)
        elif self._stack:
            phase = self.spans[self._stack[-1]].name
        else:
            phase = "other"
        self.actions.append(
            Action(phase, group, start, end, self._fsim is not None))

    # ------------------------------------------------------------- solves
    def run_solve(self, solve: Callable[[], Any]) -> Tuple[Any, float]:
        """Run one traced solve; returns its result and wall time."""
        self._reset()
        self._seq += 1
        self._base = f"perfbench-solve-{self._seq}"
        self.sc.setJobGroup(self._base, "solve")
        self._recording = True
        try:
            with self.span("solve"):
                out = solve()
        finally:
            self._recording = False
            self.sc.setJobGroup("perfbench-side", "side")
        return out, self.spans[0].end - self.spans[0].start

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer figures of the last traced solve. Never raises:
        a failure to read Spark's counters is reported and the
        counters it needed read as 0."""
        try:
            self.sc._jsc.sc().listenerBus().waitUntilEmpty()
            for a in self.actions:
                a.jobs = self._group_jobs(a.group)
            base = self._group_jobs(self._base)
        except Py4JError:
            traceback.print_exc(file=sys.stderr)
            base = _job_totals([])
        m = engine_metrics(self.spans, self.actions)
        m.update(span_self_times(self.spans))
        parts = [a.jobs for a in self.actions] + [base]
        for key, name in (("jobs", "spark.jobs"), ("tasks", "spark.tasks"),
                          ("shuffle_bytes", "spark.shuffle_write_bytes"),
                          ("task_s", "spark.task_s"), ("gc_s", "spark.gc_s")):
            m[name] = float(sum(p.get(key, 0.0) for p in parts))
        try:
            m.update(self._side_queries())
        except Exception:  # a side query must never fail the run
            traceback.print_exc(file=sys.stderr)
        return m

    # ------------------------------------------------------ spark counters
    def _group_jobs(self, group: str) -> Dict[str, Any]:
        store = self.sc._jsc.sc().statusStore()
        jobs = []
        for jid in self.sc.statusTracker().getJobIdsForGroup(group):
            jd = store.job(jid)
            sub, comp = jd.submissionTime(), jd.completionTime()
            interval = ((sub.get().getTime() / 1e3, comp.get().getTime() / 1e3)
                        if sub.isDefined() and comp.isDefined() else None)
            stages = []
            ids = jd.stageIds().mkString(",")
            for sid in (int(s) for s in ids.split(",") if s):
                try:
                    sd = store.lastStageAttempt(sid)
                except Py4JJavaError:
                    # evicted: past spark.ui.retainedStages the store
                    # drops skipped stages first, and those are not
                    # counted anyway
                    continue
                if sd.status().toString() != "COMPLETE":
                    continue
                stages.append(dict(
                    tasks=sd.numTasks(), task_s=sd.executorRunTime() / 1e3,
                    gc_s=sd.jvmGcTime() / 1e3,
                    shuffle_bytes=sd.shuffleWriteBytes(),
                    shuffle=sd.shuffleWriteBytes() > 0
                    or sd.shuffleWriteRecords() > 0))
            jobs.append((interval, stages))
        return _job_totals(jobs)

    # -------------------------------------------------------- side queries
    def _side_queries(self) -> Dict[str, float]:
        """Row and mapping-group counts over the solve's own joins, and
        the greedy fold's own time over one iteration's groups. Runs after the
        solve, so none of it is in the solve's time."""
        if not self._fsim_calls:
            return {}
        call = self._fsim_calls[0]
        cap, args = call.captured, call.args
        cfg, g1, g2 = args["cfg"], args["g1"], args["g2"]
        m: Dict[str, float] = {}
        labs = [[r[0] for r in g.nodes.select("label").distinct().collect()]
                for g in (g1, g2)]
        t = time.perf_counter()
        label_sim_df(self.spark, labs[0], labs[1], cfg.label_fn,
                     min_sim=cfg.theta)
        m["core.labels.table_s"] = time.perf_counter() - t
        if "cand" in cap:
            m["core.fsim.candidates_rows"] = float(cap["cand"].count())
        if "scores" not in cap:
            return m
        lookup = cap["scores"]
        if "frozen" in cap:
            lookup = lookup.unionByName(cap["frozen"])
        lookup = lookup.select(F.col("u").alias("x"), F.col("v").alias("y"),
                               F.col("score").alias("s"))
        msg = groups = biggest = 0
        fold = 0.0
        for src, dst in (("src", "dst"), ("dst", "src")):
            e1 = g1.edges.select(F.col(src).alias("u"), F.col(dst).alias("x"))
            e2 = g2.edges.select(F.col(src).alias("v"), F.col(dst).alias("y"))
            rows = e1.join(lookup, "x").join(e2, "y")
            msg += rows.count()
            if cfg.variant not in ("dp", "bj"):
                continue
            g = rows.groupBy("u", "v").count().agg(F.count("*"), F.max("count"))
            n, mx = g.first()
            groups += n
            biggest = max(biggest, mx or 0)
            agg = rows.groupBy("u", "v").agg(
                F.collect_list(F.struct("x", "y", "s")).alias("cand")
            ).localCheckpoint()
            # the fold's own cost: the same job with the fold replaced
            # by the group size measures the job's fixed cost and scan
            spent = []
            for col in (F.size("cand"), greedy_matching_sum_col("cand")):
                t = time.perf_counter()
                agg.select(col.alias("m")).agg(F.sum("m")).first()
                spent.append(time.perf_counter() - t)
            fold += spent[1] - spent[0]
        m["core.fsim.msg_rows"] = float(msg)
        m["core.ops.group_rows"] = float(groups)
        m["core.ops.max_group_rows"] = float(biggest)
        m["core.ops.fold_s"] = fold
        return m


def _job_totals(jobs: List[Tuple[Optional[Tuple[float, float]],
                                 List[Dict[str, Any]]]]) -> Dict[str, Any]:
    """Sum per-stage counters over ``(interval, stages)`` job records."""
    stages = [s for _, st in jobs for s in st]
    return dict(
        jobs=len(jobs),
        intervals=[iv for iv, _ in jobs if iv is not None],
        tasks=sum(s["tasks"] for s in stages),
        task_s=sum(s["task_s"] for s in stages),
        gc_s=sum(s["gc_s"] for s in stages),
        shuffle_bytes=sum(s["shuffle_bytes"] for s in stages),
        shuffle_stages=sum(1 for s in stages if s["shuffle"]),
    )


def engine_metrics(spans: List[Span], actions: List[Action]) -> Dict[str, float]:
    """Engine-phase figures of one solve. The ``core.fsim`` span's time
    is cut at each of its actions' ends; each piece goes to the phase of
    the action that ends it, the tail after the last action to other."""
    m: Dict[str, float] = {}
    fsim = [s for s in spans if s.name == FSIM]
    if not fsim:
        return m
    lo, hi = fsim[0].start, fsim[0].end
    acts = [a for a in actions if a.in_fsim]
    seg: Dict[str, List[float]] = {}
    jobs: Dict[str, List[Dict[str, Any]]] = {}
    prev = lo
    for a in acts:
        seg.setdefault(a.phase, []).append(a.end - prev)
        jobs.setdefault(a.phase, []).append(a.jobs)
        prev = a.end
    seg.setdefault("other", []).append(hi - prev)
    for phase in ("candidates", "upper_bound"):
        m[f"core.fsim.{phase}_s"] = sum(seg.get(phase, []))
        m[f"core.fsim.{phase}_jobs"] = float(
            sum(j.get("jobs", 0) for j in jobs.get(phase, [])))
    m["core.fsim.other_s"] = sum(seg["other"])
    it, dl = jobs.get("iter", []), jobs.get("delta", [])
    m["core.fsim.iterations"] = float(len(it))
    m["core.fsim.iter_s"] = median(seg.get("iter", []))
    m["core.fsim.delta_s"] = median(seg.get("delta", []))
    m["core.fsim.delta_jobs"] = median([j.get("jobs", 0) for j in dl])
    for key, name in (("jobs", "iter_jobs"),
                      ("shuffle_stages", "iter_shuffle_stages"),
                      ("shuffle_bytes", "iter_shuffle_bytes"),
                      ("task_s", "iter_task_s")):
        m[f"core.fsim.{name}"] = median([j.get(key, 0) for j in it])
    busy = [iv for a in acts for iv in a.jobs.get("intervals", [])]
    m["core.fsim.driver_s"] = (hi - lo) - covered(busy, lo, hi)
    return m


def span_self_times(spans: List[Span]) -> Dict[str, float]:
    """Self time of every benchmark span, summed by name."""
    m: Dict[str, float] = {}
    for i, s in enumerate(spans):
        kids = [(c.start, c.end) for c in spans if c.parent == i]
        m[f"{s.name}_s"] = (m.get(f"{s.name}_s", 0.0)
                            + self_time(s.start, s.end, kids))
    return m
