"""Chart rendering tests: element counts, byte determinism, margin and
coordinate recomputation, and input filtering."""
from __future__ import annotations

import re

import pytest

from minelab.harness import SweepRecord
from minelab.percolation import PercRecord
from minelab.plots import PALETTE, EmptyInput, render_plots


def sweep_record(n=20, rho=0.1, policy="sat", alpha=0.5, alpha_se=0.05,
                 maxcore=2.0, maxcore_se=0.4, games=50) -> SweepRecord:
    return SweepRecord(n=n, rho=rho, policy=policy, games=games,
                       alpha_mean=alpha, alpha_se=alpha_se,
                       maxcore_mean=maxcore, maxcore_se=maxcore_se,
                       stuck_fraction=0.0, mean_wall_time=0.0,
                       generation_exhausted=0)


def nine_records():
    out = []
    for i, rho in enumerate((0.05, 0.1, 0.15)):
        out.append(sweep_record(n=20, rho=rho, alpha=0.9 - 0.2 * i))
        out.append(sweep_record(n=40, rho=rho, alpha=0.8 - 0.2 * i))
        out.append(sweep_record(n=20, rho=rho, policy="kset:1",
                                alpha=0.5 - 0.1 * i))
    return out


class TestRendering:
    def test_marker_and_errorbar_counts(self, tmp_path):
        path = render_plots(nine_records(), "alpha", tmp_path / "a.svg")
        svg = path.read_text()
        assert svg.count("<circle") == 9
        # Each point draws one vertical error line plus two caps.
        assert svg.count("<line") == (9 * 3
                                      + svg.count("#e0e0e0")
                                      + 3)      # grid lines + legend swatches
        assert svg.count("<polyline") == 3
        assert "mine density rho" in svg
        assert "alpha (fraction of mines flagged)" in svg
        assert 'width="720"' in svg and 'height="480"' in svg

    def test_byte_identical_rerender(self, tmp_path):
        a = render_plots(nine_records(), "alpha", tmp_path / "a.svg")
        first = a.read_bytes()
        b = render_plots(nine_records(), "alpha", tmp_path / "b.svg")
        assert b.read_bytes() == first

    def test_series_split_and_legend(self, tmp_path):
        svg = render_plots(nine_records(), "alpha",
                           tmp_path / "a.svg").read_text()
        assert "n=20 sat" in svg
        assert "n=40 sat" in svg
        assert "n=20 kset:1" in svg
        # Sorted series names map onto the palette in order.
        assert svg.index(PALETTE[0]) < svg.index(PALETTE[1]) < svg.index(
            PALETTE[2])

    def test_extreme_point_coordinates_recomputed(self, tmp_path):
        records = [sweep_record(rho=0.1, alpha=0.2, alpha_se=0.0),
                   sweep_record(rho=0.3, alpha=0.8, alpha_se=0.0)]
        svg = render_plots(records, "alpha", tmp_path / "a.svg").read_text()
        # Data span plus 5% padding on each side, then the fixed geometry.
        xlo, xhi = 0.1 - 0.2 * 0.05, 0.3 + 0.2 * 0.05
        ylo, yhi = 0.2 - 0.6 * 0.05, 0.8 + 0.6 * 0.05
        left, right, top, bottom = 76, 24, 30, 58
        pw, ph = 720 - left - right, 480 - top - bottom
        x1 = left + (0.1 - xlo) / (xhi - xlo) * pw
        y1 = top + ph - (0.2 - ylo) / (yhi - ylo) * ph
        x2 = left + (0.3 - xlo) / (xhi - xlo) * pw
        y2 = top + ph - (0.8 - ylo) / (yhi - ylo) * ph
        assert f'<circle cx="{x1:.2f}" cy="{y1:.2f}"' in svg
        assert f'<circle cx="{x2:.2f}" cy="{y2:.2f}"' in svg

    def test_error_bars_extend_the_y_range(self, tmp_path):
        records = [sweep_record(rho=0.1, alpha=0.5, alpha_se=0.2),
                   sweep_record(rho=0.2, alpha=0.5, alpha_se=0.2)]
        svg = render_plots(records, "alpha", tmp_path / "a.svg").read_text()
        # With the bars included the data rails run 0.3..0.7; the plotted
        # cap positions must stay strictly inside the plot box.
        ys = [float(m) for m in re.findall(r'y1="([0-9.]+)"', svg)]
        assert all(30 - 1e-9 <= y <= 422 + 1e-9 for y in ys if y > 20)

    def test_core_kind_skips_untracked_series(self, tmp_path):
        records = [sweep_record(policy="sat"),
                   sweep_record(policy="kset:1", maxcore=None,
                                maxcore_se=None)]
        svg = render_plots(records, "core", tmp_path / "c.svg").read_text()
        assert svg.count("<circle") == 1
        assert "kset:1" not in svg
        assert "mean max core size" in svg

    def test_percolation_kind(self, tmp_path):
        records = [PercRecord(mode="independent", param=p, n=64,
                              s_avg_mean=1.0 + p, s_avg_se=0.1, samples=200)
                   for p in (0.5, 0.55, 0.6)]
        records.append(PercRecord(mode="minesweeper", param=0.1, n=64,
                                  s_avg_mean=3.0, s_avg_se=0.2, samples=200))
        svg = render_plots(records, "percolation",
                           tmp_path / "p.svg").read_text()
        assert "independent n=64" in svg
        assert "minesweeper n=64" in svg
        assert svg.count("<circle") == 4
        assert "average cluster size" in svg

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError):
            render_plots([sweep_record()], "histogram", tmp_path / "x.svg")


class TestFiltering:
    def test_empty_records(self, tmp_path):
        with pytest.raises(EmptyInput):
            render_plots([], "alpha", tmp_path / "x.svg")

    def test_all_filtered_out(self, tmp_path):
        empty = SweepRecord(n=20, rho=0.1, policy="sat", games=0,
                            alpha_mean=float("nan"), alpha_se=float("nan"),
                            maxcore_mean=None, maxcore_se=None,
                            stuck_fraction=float("nan"),
                            mean_wall_time=float("nan"),
                            generation_exhausted=50)
        with pytest.raises(EmptyInput):
            render_plots([empty], "alpha", tmp_path / "x.svg")
        with pytest.raises(EmptyInput):
            render_plots([sweep_record(maxcore=None, maxcore_se=None)],
                         "core", tmp_path / "x.svg")

    def test_nan_points_skipped_not_fatal(self, tmp_path):
        records = [sweep_record(rho=0.1),
                   sweep_record(rho=0.2, alpha=float("nan"))]
        svg = render_plots(records, "alpha", tmp_path / "a.svg").read_text()
        assert svg.count("<circle") == 1

    def test_zero_samples_percolation_skipped(self, tmp_path):
        records = [PercRecord(mode="independent", param=0.0, n=8,
                              s_avg_mean=float("nan"), s_avg_se=float("nan"),
                              samples=0),
                   PercRecord(mode="independent", param=0.5, n=8,
                              s_avg_mean=2.0, s_avg_se=0.0, samples=10)]
        svg = render_plots(records, "percolation",
                           tmp_path / "p.svg").read_text()
        assert svg.count("<circle") == 1

    def test_single_point_padding_fallback(self, tmp_path):
        # A lone point has zero span; the 5% fallback pad keeps the scale
        # finite and the point lands mid-plot.
        svg = render_plots([sweep_record(rho=0.2, alpha=0.5, alpha_se=0.0)],
                           "alpha", tmp_path / "one.svg").read_text()
        left, right, top, bottom = 76, 24, 30, 58
        cx = left + (720 - left - right) / 2
        cy = top + (480 - top - bottom) / 2
        assert f'<circle cx="{cx:.2f}" cy="{cy:.2f}"' in svg
