"""The one Spark session builder, and table output.

``make_session`` builds every SparkSession in the repository: the table
drivers that run Spark jobs, the pytest fixture and the benchmark all
measure the same config. ``emit`` prints a table and
writes ``<name>.csv`` plus a markdown snippet for EXPERIMENTS.md.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

import pandas as pd
from pyspark.sql import SparkSession


def make_session(app: str = "repro.tables") -> SparkSession:
    """A local SparkSession: ``local[*]`` or ``$SPARK_MASTER``, driver
    memory ``$SPARK_DRIVER_MEM`` or 8g, ``$SPARK_SHUFFLE_PARTITIONS`` or
    16 shuffle partitions, Arrow on, broadcast joins off (so joins take
    the shuffle path), log level ERROR. The FSim engine caps its own
    fixed-count shuffles at the core count (``defaultParallelism``), so
    the shuffle-partition setting is only an upper bound there.

    Master and driver memory are read at JVM launch, so they go into
    ``PYSPARK_SUBMIT_ARGS``; they take effect only if no JVM is running.
    """
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions",
                os.environ.get("SPARK_SHUFFLE_PARTITIONS", "16"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def to_markdown(df: pd.DataFrame) -> str:
    """GitHub-table rendering without the optional ``tabulate`` dep."""
    cells = df.astype(str)
    widths = [max(len(c), cells[c].str.len().max() if len(cells) else 0)
              for c in cells.columns]
    def row(vals):
        return "| " + " | ".join(v.ljust(w) for v, w in zip(vals, widths)) + " |"
    lines = [row(list(cells.columns)),
             "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    lines += [row(list(r)) for r in cells.itertuples(index=False)]
    return "\n".join(lines) + "\n"


def emit(df: pd.DataFrame, name: str, outdir: str | None = None) -> None:
    """Print the table and persist CSV + markdown under ``outdir``
    (default ``$REPRO_RESULTS_DIR`` or ``results/``)."""
    out = Path(outdir or os.environ.get("REPRO_RESULTS_DIR", "results"))
    out.mkdir(parents=True, exist_ok=True)
    print(f"\n=== {name} ===", file=sys.stderr)
    print(df.to_string(index=False))
    df.to_csv(out / f"{name}.csv", index=False)
    (out / f"{name}.md").write_text(to_markdown(df))
