"""FSimX benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload jdk-dp-ub --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

One run is one closed loop with one client: a fresh Spark session from
the jobs' own builder (``repro.tables.runner.make_session``), inputs
built from ``--seed``, one cold solve, then the workload's fixed
number of unmeasured warm-up solves and of measured solves back to
back; more follow, unmeasured, until ``--seconds`` have passed. Every
solve's output is checked against the pure-Python reference outside
the timed region. With ``--trace 1`` the solves after the cold one are
one unmeasured, then untraced, traced, traced and untraced; the
per-layer metrics come from the traced ones.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}`` with the
``end_to_end`` metrics of BENCHMARK.json (``--trace 0``) or its
``per_layer`` metrics (``--trace 1``). The lines before it give the
environment record, the samples behind each metric and a readable
report. The exit code is 0 only when every solve passed its check.
See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
import traceback
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_REPS = 3        # input builds per run; setup_s uses their median
# solve_s is the median of a fixed count of solves after a fixed count
# of warm-up ones (Workload.measured, .warmup), not of "as many as fit
# in --seconds": otherwise a faster engine would also shift solve_s
# towards later, warmer solves.
# A traced run warms up once, then runs untraced, traced, traced,
# untraced solves: both kinds sit at the same mean position, so their
# difference is the tracing overhead.
TRACED_ORDER = ("unmeasured", "untraced", "traced", "traced", "untraced")
SOLVE_TIMEOUT_S = 60.0  # a solve still running is cancelled and fails
RUN_BUDGET_S = 150.0    # start no solve that would end past this


def _prepare_environment(root: str) -> str:
    """Keep every file Spark, the JVM and Python write inside the
    checkout, under ``.bench_build/perfbench``."""
    tmp = os.path.join(root, ".bench_build", "perfbench")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = tmp
    os.environ["JDK_JAVA_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(root, "src"), HERE]
    return tmp


def _status_mb(pid, field: str) -> float:
    """A memory field of ``/proc/<pid>/status`` (``VmHWM``, ``VmRSS``)."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"no {field} for pid {pid}")


def _memory_mb(spark, field: str) -> float:
    """``field`` of the Python process plus that of the driver JVM."""
    jvm = spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
    return _status_mb("self", field) + _status_mb(jvm, field)


def _env_record(spark, seed: int, root: str) -> Dict[str, object]:
    """Settings read back from the live session, not from defaults."""
    sc = spark.sparkContext
    conf = spark.conf
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                             capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "java": sc._jvm.java.lang.System.getProperty("java.version"),
        "spark": spark.version,
        "master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "shuffle_partitions": conf.get("spark.sql.shuffle.partitions"),
        "driver_memory": sc.getConf().get("spark.driver.memory", "unset"),
        "aqe": conf.get("spark.sql.adaptive.enabled"),
        "broadcast_threshold": conf.get("spark.sql.autoBroadcastJoinThreshold"),
        "seed": seed,
    }


def _proc_stat(pid: int) -> Optional[List[str]]:
    """Fields of ``/proc/<pid>/stat`` after the command name (state,
    parent pid, ...), or None once the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def _descendants(pid: int) -> List[int]:
    """Process ids below ``pid``, such as the JVM's Python workers."""
    parent = {}
    for entry in os.listdir("/proc"):
        st = _proc_stat(int(entry)) if entry.isdigit() else None
        if st is not None:
            parent[int(entry)] = int(st[1])
    found, todo = [], [pid]
    while todo:
        cur = todo.pop()
        kids = [c for c, p in parent.items() if p == cur]
        found += kids
        todo += kids
    return found


def _alive(pid: int) -> bool:
    st = _proc_stat(pid)
    return st is not None and st[0] != "Z"


def _stop(spark) -> None:
    """Stop the session and wait until the JVM it launched, and every
    process the JVM started, has exited."""
    from pyspark import SparkContext
    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    others = _descendants(proc.pid) if proc is not None else []
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    deadline = time.monotonic() + 30
    while any(_alive(p) for p in others):
        if time.monotonic() > deadline:
            for p in filter(_alive, others):
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            break
        time.sleep(0.05)


class Loop:
    """Runs and checks solves of one workload, keeping every sample."""

    def __init__(self, spark, wl, inp, ref, start: float):
        self.spark, self.wl, self.inp, self.ref = spark, wl, inp, ref
        self.start = start
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.f1s: List[float] = []
        self.last_s = 0.0
        self.timed_out = False
        self.layers: List[Dict[str, float]] = []

    def time_left(self) -> bool:
        elapsed = time.perf_counter() - self.start
        return elapsed + self.last_s < RUN_BUDGET_S

    def _watchdog(self, done: threading.Event) -> None:
        """Cancel the solve's Spark jobs once it has run past its time
        limit (``SOLVE_TIMEOUT_S``, or the run's budget if that ends
        sooner), and keep cancelling any it starts until it returns."""
        left = RUN_BUDGET_S - (time.perf_counter() - self.start)
        if done.wait(max(min(SOLVE_TIMEOUT_S, left), 1.0)):
            return
        self.timed_out = True
        while not done.is_set():
            self.spark.sparkContext.cancelAllJobs()
            done.wait(0.5)

    def solve(self, tracer=None) -> Optional[float]:
        """One solve and its check; returns its time, or None if it
        failed. ``tracer`` traces it and stores its layer metrics."""
        from check import check_solve
        from trace import NullTracer
        self.attempted += 1
        self.timed_out = False
        done = threading.Event()
        watchdog = threading.Thread(target=self._watchdog, args=(done,),
                                    daemon=True)
        watchdog.start()
        try:
            if tracer is None:
                t = time.perf_counter()
                collect = self.wl.solve(self.spark, self.inp, NullTracer())
                dt = time.perf_counter() - t
            else:
                collect, dt = tracer.run_solve(
                    lambda: self.wl.solve(self.spark, self.inp, tracer))
            done.set()
            self.last_s = dt
            if tracer is not None:
                self.layers.append(tracer.layer_metrics())
            out = collect()
            errs = check_solve(out.scores, out.frozen, self.ref.scores,
                               self.ref.frozen, out.f1, self.ref.f1,
                               self.wl.diagonal(self.inp))
            self.f1s.append(out.f1)
        except Exception:  # a failed solve is counted, not fatal
            errs = [traceback.format_exc()]
            dt = None
        finally:
            done.set()
            watchdog.join()
        if self.timed_out:
            errs.insert(0, "solve timed out; its Spark jobs were cancelled")
        if errs:
            self.failed += 1
            self.errors += errs
            print("\n".join(f"[perfbench] solve failed: {e}" for e in errs),
                  file=sys.stderr)
            return None
        return dt


def run_one(args, root: str, spec: dict) -> int:
    from stats import median
    from workloads import WORKLOADS, trace_hooks

    wl = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    from repro.tables.runner import make_session
    spark = make_session(f"perfbench-{wl.name}")
    session_s = time.perf_counter() - t0
    try:
        builds = []
        for _ in range(SETUP_REPS):
            t = time.perf_counter()
            inp = wl.build(spark, args.seed)
            builds.append(time.perf_counter() - t)
        t = time.perf_counter()
        ref = wl.reference(inp)
        ref_s = time.perf_counter() - t

        loop = Loop(spark, wl, inp, ref, t0)
        first = loop.solve()
        # What one jobs/ invocation of one solve peaks at; later solves
        # grow the heap by erratic amounts.
        peak_mb = _memory_mb(spark, "VmHWM")
        tracer = None
        if args.trace:
            from trace import Tracer
            tracer = Tracer(spark)
            tracer.install(trace_hooks(tracer))
        # The warm-up and measured solves, then unmeasured ones until
        # --seconds have passed since the warm-up started.
        order = (TRACED_ORDER if tracer is not None else
                 ("unmeasured",) * wl.warmup + ("untraced",) * wl.measured)
        samples: Dict[str, List[float]] = {
            "untraced": [], "traced": [], "unmeasured": []}
        w0 = time.perf_counter()
        n = 0
        while loop.time_left() and (
                n < len(order) or time.perf_counter() - w0 < args.seconds):
            kind = order[n] if n < len(order) else "unmeasured"
            dt = loop.solve(tracer if kind == "traced" else None)
            if dt is not None:
                samples[kind].append(dt)
            n += 1
        solves, traced = samples["untraced"], samples["traced"]
        if tracer is not None:
            tracer.uninstall()
        end_peak_mb = _memory_mb(spark, "VmHWM")
        env = _env_record(spark, args.seed, root)
    finally:
        _stop(spark)

    setup_s = session_s + median(builds)
    solve_s = median(solves)
    values = {
        "solve_s": solve_s,
        "first_solve_s": first if first is not None else 0.0,
        "setup_s": setup_s,
        "f1": median(loop.f1s),
    }
    if tracer is not None:
        keys = {k for d in loop.layers for k in d}
        values = {k: median([d.get(k, 0.0) for d in loop.layers]) for k in keys}
        values["peak_rss_mb"] = peak_mb
        values["graphs.build_s"] = median(builds)
        values["core.reference.solve_s"] = ref_s
        values["trace.overhead_s"] = median(traced) - solve_s
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in spec[section]}

    correct = loop.failed == 0 and len(solves) == order.count("untraced")
    details = {
        "workload": wl.name, "env": env,
        "samples": {"solve_s": solves, "first_solve_s": [first],
                    "traced_solve_s": traced, "unmeasured_solve_s": samples["unmeasured"],
                    "session_s": session_s, "build_s": builds, "f1": loop.f1s},
        "reference": {"solve_s": ref_s, "iterations": ref.iterations,
                      "pairs": len(ref.scores) + len(ref.frozen),
                      "frozen": len(ref.frozen)},
        "cost_ratio": {"solve_s / core.reference.solve_s":
                       solve_s / ref_s if ref_s else None},
        "peak_rss_mb": {"after_first_solve": peak_mb, "end_of_run": end_peak_mb},
        "fail_ratio": loop.failed / loop.attempted,
        "errors": loop.errors[:5],
    }
    print(json.dumps({"details": details}))
    print(f"# {wl.name} seed={args.seed} trace={args.trace}: "
          f"{len(solves)} timed solves, {loop.attempted} attempted, "
          f"{loop.failed} failed; reference {ref_s:.3f} s "
          f"({details['cost_ratio']['solve_s / core.reference.solve_s'] or 0:.2f}x)")
    for name, m in metrics.items():
        print(f"#   {name:32s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args, spec: dict) -> int:
    """Every workload in its own process (each needs a fresh session for
    its cold solve); prints one table."""
    rows, ok, attempted, failed, merged = [], True, 0, 0, {}
    for w in spec["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        p = subprocess.run(cmd, capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            sys.stderr.write(p.stderr[-4000:])
        ok = ok and p.returncode == 0
        if not lines:
            continue
        res = json.loads(lines[-1])
        details = next(json.loads(x)["details"] for x in lines
                       if x.startswith('{"details"'))
        attempted += res["attempted"]
        failed += res["failed"]
        for name, m in res["metrics"].items():
            merged[f"{w['name']}/{name}"] = m
            n = (len(details["samples"]["solve_s"]) if name == "solve_s" else 1)
            rows.append((w["name"], name, m["value"], m["unit"], n))
        if "peak_rss_mb" not in res["metrics"]:
            rows.append((w["name"], "peak_rss_mb",
                         details["peak_rss_mb"]["after_first_solve"], "MB", 1))
        rows.append((w["name"], "fail_ratio", details["fail_ratio"], "1",
                     res["attempted"]))
        rows.append((w["name"], "core.reference.solve_s",
                     details["reference"]["solve_s"], "s", 1))
    print(f"{'workload':12s} {'metric':32s} {'value':>14s} {'unit':6s} n")
    for wname, name, v, unit, n in rows:
        print(f"{wname:12s} {name:32s} {v:14.6g} {unit:6s} {n}")
    print(json.dumps({"correct": ok and failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": merged}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "core", "fsim.py")):
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    tmp = _prepare_environment(root)
    try:
        if args.workload == "all":
            return run_all(args, spec)
        return run_one(args, root, spec)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
