"""Tests for the benchmark harness: result formatting, CLI, shape helpers.

The heavy experiment content itself is covered by the ``benchmarks/`` suite;
here we verify the harness plumbing with the smallest presets.
"""

import json

import pytest

from repro.bench.ablations import run_ablation_coldpath
from repro.bench.cli import _baseline_rows, _print_deltas, build_parser, main
from repro.bench.fig2a import run_fig2a, shape_checks as fig2a_checks
from repro.bench.fig2b import run_fig2b, shape_checks as fig2b_checks
from repro.bench.runner import ExperimentResult, check_scale, format_table


class TestRunnerHelpers:
    def test_check_scale(self):
        assert check_scale("small") == "small"
        with pytest.raises(ValueError):
            check_scale("enormous")

    def test_format_table_alignment_and_notes(self):
        result = ExperimentResult("T-1", "A title")
        result.add(alpha=1, beta=2.34567, gamma="x")
        result.add(alpha=100, beta=None, gamma="longer")
        result.note("something to remember")
        text = result.format()
        lines = text.splitlines()
        assert lines[0] == "== T-1: A title =="
        assert "alpha" in lines[1] and "beta" in lines[1]
        assert "2.35" in text          # floats are rounded
        assert "-" in lines[4]         # None rendered as a dash
        assert text.endswith("note: something to remember")

    def test_format_table_without_rows(self):
        result = ExperimentResult("T-2", "Empty")
        assert format_table(result) == "== T-2: Empty =="


class TestFigureHarnesses:
    def test_fig2a_small_scale_shape(self):
        result = run_fig2a("small")
        checks = fig2a_checks(result)
        assert all(checks.values()), checks

    def test_fig2b_small_scale_shape(self):
        result = run_fig2b("small")
        checks = fig2b_checks(result)
        assert all(checks.values()), checks
        # The cold-path columns (DESIGN.md §9) must be present and sane:
        # speculation's over-fetch bound is also a named shape check.
        assert {
            "speculation_overfetch_bounded",
            "speculation_mostly_useful",
        } <= checks.keys()
        for row in result.rows:
            assert row["cold_meta_latency"] > 0.0
            assert 0.0 <= row["speculative_hit_rate"] <= 1.0

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            run_fig2a("galactic")


class TestColdPathAblation:
    """ABL-coldpath pins the acceptance claims of the cold-path PR: each
    piece individually non-regressing, and prefetch cutting the cold
    descent it targets."""

    @pytest.fixture(scope="class")
    def rows(self):
        result = run_ablation_coldpath("small")
        return {row["regime"]: row for row in result.rows}

    def test_each_piece_is_individually_non_regressing(self, rows):
        base = rows["baseline"]
        for regime in ("+prefetch", "+routing", "all-on"):
            assert rows[regime]["avg_bandwidth_mbps"] >= base["avg_bandwidth_mbps"]

    def test_prefetch_cuts_cold_metadata_latency(self, rows):
        base, spec = rows["baseline"], rows["+prefetch"]
        assert spec["cold_meta_latency"] < base["cold_meta_latency"]
        assert spec["speculative_hit_rate"] >= 0.9


class TestCli:
    def test_parser_accepts_known_experiments(self):
        args = build_parser().parse_args(["fig2a", "--scale", "small"])
        assert args.experiment == "fig2a"
        assert args.scale == "small"

    def test_parser_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9z"])

    def test_main_runs_one_experiment(self, capsys):
        assert main(["ablation-space", "--scale", "small"]) == 0
        output = capsys.readouterr().out
        assert "ABL-space" in output
        assert "fullcopy_bytes" in output


class TestBaselineDeltas:
    """The ``--baseline BENCH_prN.json`` delta table of the CLI."""

    @staticmethod
    def snapshot(tmp_path, rows):
        path = tmp_path / "BENCH_test.json"
        path.write_text(
            json.dumps(
                {"scales": {"small": {"fig2b_rows": {"after": rows}}}}
            )
        )
        return path

    def test_baseline_rows_prefers_the_after_side(self, tmp_path):
        path = self.snapshot(tmp_path, [{"readers": 1, "x": 2.0}])
        assert _baseline_rows(path, "fig2b", "small") == [
            {"readers": 1, "x": 2.0}
        ]
        # An uncovered experiment/scale is a None, not an error.
        assert _baseline_rows(path, "fig2a", "small") is None
        assert _baseline_rows(path, "fig2b", "paper") is None

    def test_unreadable_baseline_is_a_clean_exit(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="cannot read baseline"):
            _baseline_rows(bad, "fig2b", "small")

    def test_print_deltas_matches_rows_and_formats_percentages(self, capsys):
        baseline = [{"readers": 1, "avg_bandwidth_mbps": 100.0}]
        current = [
            {"readers": 1, "avg_bandwidth_mbps": 125.0},
            {"readers": 99, "avg_bandwidth_mbps": 1.0},  # unmatched: skipped
        ]
        _print_deltas("fig2b", current, baseline)
        output = capsys.readouterr().out
        assert "[readers=1]" in output
        assert "+25.0%" in output
        assert "readers=99" not in output

    def test_main_reports_a_baseline_without_rows(self, tmp_path, capsys):
        path = self.snapshot(tmp_path, [{"readers": 1}])
        assert (
            main(
                ["ablation-space", "--scale", "small", "--baseline", str(path)]
            )
            == 0
        )
        assert "no ablation-space rows" in capsys.readouterr().out
