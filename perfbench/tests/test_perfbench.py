"""The benchmark's own metric, self-time, attribution and check code, on
tiny inputs. Pure Python: no Spark session is started."""
import threading
import time
import types

import pytest

import run
from check import TOL, check_solve
from repro.core.reference import FSimConfig, fsim_reference
from repro.graphs.toy import G1_EDGES, G1_LABELS
from stats import covered, median, self_time
from trace import FSIM, Action, Span, _Fsim, engine_metrics, span_self_times


# ---------------------------------------------------------------- stats
def test_covered_merges_overlaps_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert covered([(-5, 1), (9, 20)], 0, 10) == 2
    assert covered([], 0, 10) == 0
    assert covered([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_the_union_of_children():
    # children overlap each other: their union (2..7) counts once
    assert self_time(0, 10, [(2, 5), (4, 7)]) == 5
    assert self_time(0, 10, []) == 10


def test_median():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([]) == 0.0


# ---------------------------------------------------------- attribution
def _classify(upper_bound, methods):
    state = _Fsim({"cfg": types.SimpleNamespace(upper_bound=upper_bound)})
    return [state.classify(m, object()) for m in methods], state


def test_classify_without_upper_bound():
    seq = ["collect", "collect", "localCheckpoint", "localCheckpoint",
           "localCheckpoint", "first", "localCheckpoint", "first"]
    phases, state = _classify(False, seq)
    assert phases == ["candidates"] * 4 + ["iter", "delta", "iter", "delta"]
    assert set(state.captured) == {"cand", "scores"}


def test_classify_with_upper_bound_and_unknown_actions():
    seq = ["collect", "collect", "localCheckpoint", "localCheckpoint",
           "localCheckpoint", "localCheckpoint", "count",
           "localCheckpoint", "first"]
    phases, state = _classify(True, seq)
    assert phases == (["candidates"] * 3 + ["upper_bound"] * 2
                      + ["candidates", "other", "iter", "delta"])
    assert set(state.captured) == {"cand", "frozen", "scores"}


def _act(phase, start, end, jobs=1, intervals=(), **kw):
    a = Action(phase, "g", start, end, True)
    a.jobs = dict(jobs=jobs, intervals=list(intervals), **kw)
    return a


def test_engine_metrics_partition_the_fsim_span():
    spans = [Span("solve", 0.0, None, 20.0), Span(FSIM, 1.0, 0, 11.0)]
    acts = [_act("candidates", 1.5, 2.0, intervals=[(1.6, 2.0)]),
            _act("iter", 3.0, 5.0, jobs=3, intervals=[(3.5, 5.0)],
                 shuffle_stages=2, shuffle_bytes=100, task_s=4.0),
            _act("delta", 5.0, 6.0, intervals=[(5.5, 6.0)]),
            _act("iter", 6.0, 9.0, jobs=5, intervals=[(7.0, 9.0)],
                 shuffle_stages=4, shuffle_bytes=300, task_s=6.0),
            _act("delta", 9.0, 10.0, intervals=[(9.5, 10.0)])]
    m = engine_metrics(spans, acts)
    assert m["core.fsim.candidates_s"] == 1.0          # 1.0 .. 2.0
    assert m["core.fsim.iterations"] == 2
    assert m["core.fsim.iter_s"] == 3.0                # median of 3, 3
    assert m["core.fsim.iter_jobs"] == 4               # median of 3, 5
    assert m["core.fsim.iter_shuffle_bytes"] == 200
    assert m["core.fsim.delta_s"] == 1.0
    assert m["core.fsim.other_s"] == 1.0               # 10.0 .. 11.0
    assert m["core.fsim.upper_bound_s"] == 0
    # busy: 0.4 + 1.5 + 0.5 + 2.0 + 0.5 = 4.9 of 10 s
    assert m["core.fsim.driver_s"] == pytest.approx(5.1)
    phases = ("candidates_s", "upper_bound_s", "other_s")
    total = (sum(m[f"core.fsim.{p}"] for p in phases)
             + 2 * m["core.fsim.iter_s"] + 2 * m["core.fsim.delta_s"])
    assert total == pytest.approx(10.0)


def test_span_self_times_sum_by_name():
    spans = [Span("solve", 0.0, None, 10.0),
             Span("matching.collect", 1.0, 0, 6.0),
             Span("matching.pack", 1.0, 1, 2.0),
             Span(FSIM, 2.0, 1, 5.0),
             Span("matching.seed_expand", 6.0, 0, 9.0)]
    m = span_self_times(spans)
    assert m["matching.collect_s"] == 1.0
    assert m["matching.seed_expand_s"] == 3.0
    assert m["solve_s"] == 2.0


# --------------------------------------------------------------- checks
@pytest.fixture(scope="module")
def ref():
    cfg = FSimConfig(variant="s", theta=0.0)
    return fsim_reference(G1_LABELS, G1_EDGES, G1_LABELS, G1_EDGES, cfg)


def _check(scores, ref, f1=50.0, diagonal=None):
    return check_solve(scores, {}, ref.scores, ref.frozen, f1, 50.0, diagonal)


def test_identical_output_passes(ref):
    assert _check(dict(ref.scores), ref, diagonal=sorted(G1_LABELS)) == []


def test_score_drift_beyond_tolerance_fails(ref):
    p = min(ref.scores, key=ref.scores.get)
    near = dict(ref.scores)
    near[p] += TOL / 2
    assert _check(near, ref) == []
    far = dict(ref.scores)
    far[p] += 1e-6
    assert any("differ from the reference" in e for e in _check(far, ref))


def test_pair_sets_must_match(ref):
    fewer = dict(ref.scores)
    fewer.pop(next(iter(fewer)))
    assert any("pair sets differ" in e for e in _check(fewer, ref))


def test_range_diagonal_and_f1_are_checked(ref):
    u = sorted(G1_LABELS)[0]
    bad = dict(ref.scores)
    bad[(u, u)] = 1.5
    errs = _check(bad, ref, f1=49.0, diagonal=sorted(G1_LABELS))
    assert any("outside [0, 1]" in e for e in errs)
    assert any("self-pairs" in e for e in errs)
    assert any("f1" in e for e in errs)


# ------------------------------------------------------------- timeouts
def test_a_solve_past_its_time_limit_is_cancelled_and_fails(monkeypatch):
    monkeypatch.setattr(run, "SOLVE_TIMEOUT_S", 0.1)
    cancelled = threading.Event()
    spark = types.SimpleNamespace(
        sparkContext=types.SimpleNamespace(cancelAllJobs=cancelled.set))

    class Hung:
        def solve(self, spark, inp, tracer):
            if cancelled.wait(30):
                raise RuntimeError("job cancelled")
            return lambda: None

    loop = run.Loop(spark, Hung(), None, None, time.perf_counter())
    assert loop.solve() is None
    assert (loop.attempted, loop.failed) == (1, 1)
    assert "timed out" in loop.errors[0]
