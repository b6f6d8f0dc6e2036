"""Tests for figure CSV exports and the one-call reproduction runner."""

from pathlib import Path

import pytest

import repro.cache as cache_module
import repro.runner as runner
from repro.cache import ResultCache
from repro.errors import ConfigurationError
from repro.experiments import fig3, fig5, fig6, summary
from repro.transport.message import OpKind


class TestFig3Export:
    def test_csv_per_panel_op(self, p7302, tmp_path):
        config = fig3.panel_configs(p7302)[0]
        sweep = fig3.run_panel(
            p7302, config, OpKind.READ,
            transactions_per_core=150, fractions=(0.5,),
        )
        written = fig3.export_csv([sweep], tmp_path)
        assert len(written) == 1
        lines = (tmp_path / "fig3_a_read.csv").read_text().splitlines()
        assert lines[0] == "offered_gbps,achieved_gbps,avg_ns,p999_ns"
        assert len(lines) == 3  # header + one paced point + saturation
        # The unthrottled saturation point has an empty offered column.
        assert lines[-1].startswith(",")


class TestFig5Export:
    def test_render_and_csv(self, p9634, tmp_path):
        result = fig5.run(p9634, "if", duration_s=2.5, dt_s=0.05)
        text = fig5.render([result])
        assert "harvest (paper)" in text
        path = tmp_path / "fig5.csv"
        fig5.export_csv(result, path)
        header = path.read_text().splitlines()[0]
        assert header == "time_s,flow0,flow1"


class TestFig6Export:
    def test_one_csv_per_curve(self, p9634, tmp_path):
        result = fig6.run(p9634, points=6)
        written = fig6.export_csv(result, tmp_path)
        assert len(written) == 16
        sample = tmp_path / "fig6_gmi_read_vs_read.csv"
        assert sample.exists()
        lines = sample.read_text().splitlines()
        assert lines[0] == "y_offered_gbps,x_achieved_gbps"
        assert len(lines) == 7


_REPORT_GOLDEN = (
    Path(__file__).resolve().parent / "goldens" / "repro-all-quick.txt"
)


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """One cold ``reproduce_all`` (quick, seed 0, jobs=1) into a fresh cache.

    Shared by every TestSummary check so tier-1 pays for one full run;
    returns the report and the cache it filled.
    """
    cache = ResultCache(tmp_path_factory.mktemp("summary-cache"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cache_module, "_default", cache)
        report = summary.reproduce_all(quality="quick", seed=0, jobs=1)
    return report, cache


class TestSummary:
    def test_unknown_quality_rejected(self):
        with pytest.raises(ConfigurationError):
            summary.reproduce_all(quality="ludicrous")

    def test_quick_report_contains_every_artifact(self, quick_run):
        report, __ = quick_run
        for marker in (
            "Table 1", "Table 2", "Table 3",
            "Figure 3", "Figure 4", "Figure 5", "Figure 6",
            "Jain fairness",
        ):
            assert marker in report, marker

    def test_quick_report_matches_golden(self, quick_run, update_goldens):
        # The whole `repro all` stdout, byte for byte. Refresh
        # intentionally with --update-goldens.
        report, __ = quick_run
        if update_goldens:
            _REPORT_GOLDEN.write_text(report + "\n", encoding="utf-8")
            pytest.skip(f"updated {_REPORT_GOLDEN.name}")
        assert report + "\n" == _REPORT_GOLDEN.read_text(encoding="utf-8")

    def test_report_is_identical_across_jobs(self, quick_run, monkeypatch):
        report, __ = quick_run
        monkeypatch.setattr(cache_module, "_default", None)
        assert summary.reproduce_all(quality="quick", seed=0, jobs=2) == report

    def test_warm_rerun_executes_nothing(self, quick_run, p9634, monkeypatch):
        report, cache = quick_run
        # Figure 6 is one of the batch's cells, so the cold run cached it.
        key = cache.key_for(fig6.run, (p9634,), {"points": fig6.POINTS})
        assert cache.get(key)[0]
        monkeypatch.setattr(cache_module, "_default", cache)
        executed = []
        original = runner._run_in_process

        def counting(cell, index, attempt):
            executed.append(cell)
            return original(cell, index, attempt)

        monkeypatch.setattr(runner, "_run_in_process", counting)
        warm = summary.reproduce_all(quality="quick", seed=0, jobs=1)
        assert executed == []
        assert warm == report
