import csv

import numpy as np
import pytest

from trajkit.errors import InvalidStyle
from trajkit.hallmarks import ScalarSeries
from trajkit.heatmap import STOPS, HeatmapStyle, render_svg
from trajkit.report import (
    fmt,
    write_matrix_csv,
    write_series_csv,
)


def test_colormap_endpoints():
    style = HeatmapStyle()
    assert style.rgb(1.0) == (23, 23, 151)
    assert style.rgb(-1.0) == (255, 255, 255)


def test_colormap_clamps_out_of_range():
    style = HeatmapStyle()
    assert style.rgb(5.0) == (23, 23, 151)
    assert style.rgb(-5.0) == (255, 255, 255)


def test_colormap_midpoint():
    # value 0.0 maps to fraction 0.5, an exact stop
    assert HeatmapStyle().rgb(0.0) == (140, 140, 203)


def test_each_stop_fraction_maps_to_its_colour():
    style = HeatmapStyle(v_min=0.0, v_max=1.0)
    assert [f for f, _ in STOPS] == [0.0, 0.25, 0.5, 0.75, 1.0]
    for f, colour in STOPS:
        assert style.rgb(f) == colour


def test_invalid_style_rejected():
    with pytest.raises(InvalidStyle):
        HeatmapStyle(v_min=1.0, v_max=1.0)
    # a span that is not finite would paint every cell one colour
    inf, nan = float("inf"), float("nan")
    for v_min, v_max in ((-inf, inf), (-1e308, 1e308), (0.0, inf), (-inf, 0.0), (0.0, nan)):
        with pytest.raises(InvalidStyle):
            HeatmapStyle(v_min=v_min, v_max=v_max)


def test_one_by_one_svg_single_rect():
    svg = render_svg(np.array([[1.0]]), ["t0"])
    assert svg.count("<rect") == 1
    assert 'fill="rgb(23,23,151)"' in svg


def test_svg_byte_determinism():
    m = np.linspace(-1.0, 1.0, 9).reshape(3, 3)
    labels = ["a", "b", "c"]
    assert render_svg(m, labels).encode() == render_svg(m, labels).encode()


def test_svg_rect_count_and_labels():
    m = np.zeros((3, 3))
    svg = render_svg(m, ["e<0>", "e1", "e2"])
    assert svg.count("<rect") == 9
    assert "e&lt;0&gt;" in svg  # labels are escaped


def test_fmt_round_trips_float64():
    for v in (1.0 / 3.0, -2.5e-30, 1e300, 0.1 + 0.2):
        assert float(fmt(v)) == v


def test_matrix_csv_round_trip_exact(tmp_path):
    m = np.random.default_rng(0).standard_normal((4, 4))
    path = tmp_path / "m.csv"
    write_matrix_csv(m, [f"c{i}" for i in range(4)], path)
    with open(path, newline="") as f:
        labels, *rows = csv.reader(f)
    got = np.array(rows, dtype=np.float64)
    assert labels == ["c0", "c1", "c2", "c3"]
    np.testing.assert_array_equal(got, m)


def test_series_csv_layout(tmp_path):
    series = ScalarSeries(
        measure_id="param_norm",
        points=[(0, 1.5), (1, 2.25)],
        units="l2norm",
    )
    path = tmp_path / "s.csv"
    write_series_csv(series, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,value,units"
    assert lines[1].split(",")[0] == "0"
    assert float(lines[2].split(",")[1]) == 2.25
