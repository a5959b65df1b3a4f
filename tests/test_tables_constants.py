"""Integrity of the recorded paper numbers and table plumbing (no Spark)."""
import pandas as pd
import pytest
from pyspark.sql import SparkSession

from repro.graphs.generators import (PAPER_TABLE4, PAPER_TABLE4_DEGREES,
                                     labeled_powerlaw_pd)
from repro.graphs.toy import PAPER_TABLE2
from repro.tables.__main__ import TABLES, run_tables
from repro.tables.dbis import PAPER_TABLE7, PAPER_TABLE8
from repro.tables.runner import to_markdown
from repro.tables.table4 import stats
from repro.tables.table5 import PAPER_TABLE5
from repro.tables.table6 import PAPER_TABLE6, SCENARIOS
from repro.tables.table9 import PAPER_TABLE9


class TestPaperConstants:
    def test_table2_grid_complete(self):
        assert set(PAPER_TABLE2) == {"s", "dp", "b", "bj"}
        for grid in PAPER_TABLE2.values():
            assert set(grid) == {"v1", "v2", "v3", "v4"}
            for verdict, score in grid.values():
                assert 0.0 <= score <= 1.0
                assert verdict == (score == 1.0)  # P2 in the paper's table

    def test_table2_strictness_rows(self):
        # bj checkmarks are a subset of every other variant's checkmarks
        bj = {k for k, (v, _) in PAPER_TABLE2["bj"].items() if v}
        for var in ("s", "dp", "b"):
            ok = {k for k, (v, _) in PAPER_TABLE2[var].items() if v}
            assert bj <= ok

    def test_table4_eight_datasets(self):
        assert len(PAPER_TABLE4) == 8
        assert set(PAPER_TABLE4) == set(PAPER_TABLE4_DEGREES)
        for name, row in PAPER_TABLE4.items():
            assert row["E"] > row["V"] or name == "Yeast"  # Yeast: 7182>2361 too
            assert row["E"] > 0 and row["V"] > 0

    def test_table5_coefficients_high(self):
        for pair in PAPER_TABLE5.values():
            for v in pair.values():
                assert v > 0.92  # the paper's headline claim

    def test_table6_scenarios_and_gaps(self):
        for algo, row in PAPER_TABLE6.items():
            assert set(row) == set(SCENARIOS)
        # TSpan has no results under label noise
        assert PAPER_TABLE6["TSpan-3"]["Noisy-L"] is None
        # FSim_s beats every baseline on every noisy scenario
        for sc in ("Noisy-E", "Noisy-L", "Combined"):
            fsim = PAPER_TABLE6["FSim_s"][sc]
            for algo in ("NAGA", "G-Finder", "StrongSim"):
                assert fsim > PAPER_TABLE6[algo][sc]

    def test_table7_only_bj_has_all_dupes(self):
        dupes = {"WWW_1", "WWW_2", "WWW_3"}
        assert dupes <= set(PAPER_TABLE7["FSim_bj"])
        for algo, top5 in PAPER_TABLE7.items():
            if algo != "FSim_bj":
                assert not dupes <= set(top5)

    def test_table8_bj_wins(self):
        assert PAPER_TABLE8["FSim_bj"] == max(PAPER_TABLE8.values())

    def test_table9_fsim_dominates(self):
        for pair in PAPER_TABLE9.values():
            best_baseline = max(v for k, v in pair.items()
                                if not k.startswith("FSim"))
            assert pair["FSim_b"] > best_baseline
            assert pair["FSim_bj"] > best_baseline


class TestTable4Stats:
    def test_stats_fields(self):
        nodes, edges = labeled_powerlaw_pd(80, 220, 5, seed=21)
        s = stats(nodes, edges)
        assert s["V"] == len(nodes)
        assert s["E"] == len(edges)
        assert s["labels"] == nodes.label.nunique()
        assert s["avg_degree"] == pytest.approx(len(edges) / len(nodes))
        assert s["max_out_degree"] == edges.src.value_counts().iloc[0]
        assert s["max_in_degree"] == edges.dst.value_counts().iloc[0]


class TestRunTables:
    def test_dict_result_emits_each_frame_under_its_name(self, tmp_path,
                                                         monkeypatch):
        df = pd.DataFrame({"a": [1]})
        monkeypatch.setitem(TABLES, "pair",
                            (lambda: {"x": df, "y": df}, {}, {}))
        monkeypatch.setitem(TABLES, "lone", (lambda: df, {}, {}))
        run_tables(["pair", "lone"], outdir=str(tmp_path))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "lone.csv", "lone.md", "x.csv", "x.md", "y.csv", "y.md"]

    def test_table4_starts_no_spark_session(self, tmp_path, monkeypatch):
        # every session, make_session's included, comes from getOrCreate
        def no_session(builder):
            raise AssertionError("table4 asked for a Spark session")
        monkeypatch.setattr(SparkSession.Builder, "getOrCreate", no_session)
        run_tables(["table4"], outdir=str(tmp_path))
        assert (tmp_path / "table4.csv").exists()


class TestMarkdownRenderer:
    def test_round_trip_columns(self):
        df = pd.DataFrame({"a": [1, 22], "bb": ["x", "y"]})
        md = to_markdown(df)
        lines = md.strip().split("\n")
        assert lines[0].startswith("| a")
        assert "bb" in lines[0]
        assert len(lines) == 4  # header + rule + 2 rows

    def test_empty_frame(self):
        md = to_markdown(pd.DataFrame({"a": []}))
        assert md.startswith("| a")
