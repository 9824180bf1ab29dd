"""Tests for the terminal plotting helpers and the CLI entry point."""

import math

import pytest

from repro.__main__ import build_parser, main
from repro.experiments.harness import Series
from repro.experiments.plotting import ascii_chart, sparkline


class TestSparkline:
    def test_monotone_ramp(self):
        s = sparkline([1, 2, 3, 4])
        assert len(s) == 4
        assert s[0] == "▁" and s[-1] == "█"

    def test_constant_mid_block(self):
        assert set(sparkline([5, 5, 5])) <= set("▁▂▃▄▅▆▇█")

    def test_nan_becomes_space(self):
        assert " " in sparkline([1.0, math.nan, 2.0])

    def test_empty(self):
        assert sparkline([]) == ""


class TestAsciiChart:
    def two_series(self):
        a, b = Series("alpha"), Series("beta")
        for x in range(5):
            a.add(x, x * 1.0)
            b.add(x, 4.0 - x)
        return [a, b]

    def test_contains_legend_and_labels(self):
        chart = ascii_chart(self.two_series(), x_label="load", y_label="ratio")
        assert "o=alpha" in chart and "x=beta" in chart
        assert "[load]" in chart and "[ratio]" in chart

    def test_axis_bounds_rendered(self):
        chart = ascii_chart(self.two_series())
        assert "4" in chart and "0" in chart

    def test_markers_plotted(self):
        chart = ascii_chart(self.two_series())
        assert chart.count("o") >= 4  # legend + points
        assert chart.count("x") >= 4

    def test_dimensions(self):
        chart = ascii_chart(self.two_series(), width=30, height=8)
        body_lines = [l for l in chart.splitlines() if "┤" in l]
        assert len(body_lines) == 8

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            ascii_chart(self.two_series(), width=5, height=2)

    def test_empty_series_handled(self):
        assert ascii_chart([]) == "(no series)"
        assert ascii_chart([Series("empty")]) == "(no data)"

    def test_constant_series(self):
        s = Series("flat")
        for x in range(3):
            s.add(x, 7.0)
        chart = ascii_chart([s])
        assert "o" in chart


class TestCli:
    def test_parser_accepts_known_experiments(self):
        parser = build_parser()
        for name in ("fig8", "fig9", "fig10", "fig11", "overhead", "trust", "all"):
            args = parser.parse_args([name, "--quick"])
            assert args.experiment == name

    def test_parser_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_compose_live_rejects_an_unknown_kill_peer_before_boot(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compose-live", "--peers", "5", "--kill", "9"])
        assert exc.value.code == 2
        assert "--kill 9" in capsys.readouterr().err

    def test_quick_fig10_runs(self, capsys):
        rc = main(["fig10", "--quick", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "total setup(ms)" in out

    def test_plot_flag_renders_chart(self, capsys):
        rc = main(["fig10", "--quick", "--plot"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "└" in out  # chart axis present
