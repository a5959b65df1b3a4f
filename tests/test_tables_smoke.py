"""Every table driver produces a well-formed paper-vs-measured frame at
micro scale, and Table 2's verdict grid matches the paper exactly. The
drivers that run Spark jobs get the test session from ``make_session``
(``getOrCreate``), so those tests request the ``spark`` fixture."""
from pathlib import Path
from unittest import mock

import pandas as pd
import pytest

from repro.graphs.generators import PAPER_TABLE4
from repro.tables import dbis, table4, table5, table6, table9
from repro.tables.__main__ import run_tables

RESULTS = Path(__file__).resolve().parents[1] / "results"


class TestTable2:
    @pytest.fixture(scope="class")
    def out(self, spark, tmp_path_factory):
        """Table 2 as the entrypoint writes it."""
        out = tmp_path_factory.mktemp("results")
        run_tables(["table2"], outdir=str(out))
        return out

    @pytest.fixture(scope="class")
    def df(self, out):
        return pd.read_csv(out / "table2.csv")

    def test_matches_committed_results(self, out):
        assert ((out / "table2.csv").read_text()
                == (RESULTS / "table2.csv").read_text())

    def test_shape(self, df):
        assert len(df) == 16  # 4 variants x 4 pairs

    def test_verdicts_match_paper(self, df):
        assert (df.our_verdict == df.paper_verdict).all()

    def test_scores_one_iff_verdict(self, df):
        hit = df[df.our_verdict]
        miss = df[~df.our_verdict]
        assert (hit.our_score >= 0.999).all()
        assert (miss.our_score < 0.999).all()


class TestTable4:
    def test_eight_datasets(self):
        df = table4.run(scale=0.002)
        assert list(df.dataset) == list(PAPER_TABLE4)
        assert (df.our_V > 0).all() and (df.our_E > 0).all()
        assert (df.our_labels <= df.paper_labels).all()
        # degree skew present: max in-degree well above the average
        assert (df.our_max_din > df.our_avg_deg).all()


@pytest.mark.usefixtures("spark")
class TestTable5:
    def test_micro(self):
        df = table5.run(scale=0.0006, eps=5e-2)
        assert len(df) == 12  # 3 pairs x 4 variants
        assert df.our_pearson.notna().all()
        # the paper's shape: strong correlation across initializations
        assert (df.our_pearson > 0.5).all()


@pytest.mark.usefixtures("spark")
class TestTable6:
    def test_micro(self):
        df = table6.run(scale=0.0005, n_queries=4, eps=5e-2)
        assert set(df.scenario) == {"Exact", "Noisy-E", "Noisy-L", "Combined"}
        assert set(df.algorithm) == {"NAGA", "G-Finder", "TSpan-1", "TSpan-3",
                                     "StrongSim", "FSim_s", "FSim_dp"}
        ours = df[df.algorithm == "FSim_s"].set_index("scenario").our_f1
        assert ours["Exact"] >= 50.0


class TestTables78:
    @pytest.fixture(scope="class")
    def run(self, spark):
        """One ``dbis.run`` and the number of ``venue_rankings`` calls
        it made."""
        with mock.patch.object(dbis, "venue_rankings",
                               wraps=dbis.venue_rankings) as rankings:
            frames = dbis.run(n_venues=32, n_papers=110, n_authors=80,
                              eps=5e-2)
        return frames, rankings.call_count

    @pytest.fixture(scope="class")
    def frames(self, run):
        return run[0]

    def test_both_tables_read_one_ranking_run(self, run):
        assert sorted(run[0]) == ["table7", "table8"]
        assert run[1] == 1

    def test_table7_shape(self, frames):
        df7 = frames["table7"]
        assert list(df7["rank"]) == [1, 2, 3, 4, 5]
        assert (df7.our_FSim_bj.iloc[0]) == "WWW"  # self on top

    def test_table8_shape(self, frames):
        df8 = frames["table8"]
        assert len(df8) == 6
        assert df8.our_ndcg.between(0, 1).all()


@pytest.mark.usefixtures("spark")
class TestTable9:
    def test_micro(self):
        df = table9.run(n_nodes=120, n_edges=260, eps=5e-2)
        assert set(df.graphs) == {"G1-G2", "G1-G3"}
        assert df.our_f1.between(0, 100).all()
        piv = df.pivot(index="algorithm", columns="graphs", values="our_f1")
        # the headline shape: FSim dominates the bisimulation family
        assert piv.loc["FSim_b", "G1-G2"] > piv.loc["4-bisim", "G1-G2"]
