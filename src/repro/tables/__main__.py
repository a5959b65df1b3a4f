"""Reproduce the evaluation tables.

    python -m repro.tables [--fast] <table2|table4|...|table9|all>...

Each table is written to ``$REPRO_RESULTS_DIR`` (default ``results/``)
as ``<name>.csv`` and ``<name>.md``. ``--fast`` shrinks every workload
(for smoke runs); without it the sizes are the ones EXPERIMENTS.md
reports.
"""
from __future__ import annotations

import argparse
import time

from . import table2, table4, table5, table6, table7, table8, table9
from .runner import emit, make_session

# name -> (run, full-size kwargs, --fast kwargs)
TABLES = {
    "table2": (table2.run, {}, {}),
    "table4": (table4.run, dict(scale=0.01), dict(scale=0.005)),
    "table5": (table5.run, dict(scale=0.0015), dict(scale=0.0008)),
    "table6": (table6.run, dict(scale=0.002, n_queries=30),
               dict(scale=0.001, n_queries=10)),
    "table7": (table7.run, dict(n_venues=40, n_papers=260, n_authors=160),
               dict(n_venues=40, n_papers=160, n_authors=100)),
    "table8": (table8.run, dict(n_venues=40, n_papers=260, n_authors=160),
               dict(n_venues=40, n_papers=160, n_authors=100)),
    "table9": (table9.run, dict(n_nodes=500, n_edges=1100),
               dict(n_nodes=250, n_edges=550)),
}


def run_tables(spark, names, fast: bool = False,
               outdir: str | None = None) -> None:
    """Run each named table on ``spark`` and emit it to ``outdir``."""
    for name in names:
        run, full, small = TABLES[name]
        t0 = time.time()
        emit(run(spark, **(small if fast else full)), name, outdir)
        print(f"{name} done in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(prog="python -m repro.tables",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--fast", action="store_true",
                    help="shrink every workload (smoke run)")
    ap.add_argument("tables", nargs="+", choices=[*TABLES, "all"],
                    metavar="TABLE", help=f"one of {', '.join(TABLES)}, or all")
    args = ap.parse_args()
    names = list(TABLES) if "all" in args.tables else args.tables
    spark = make_session("repro.tables")
    t0 = time.time()
    run_tables(spark, names, args.fast)
    print(f"\n{len(names)} table(s) done in {time.time() - t0:.0f}s")
    spark.stop()
