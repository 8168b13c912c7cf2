import csv
import xml.etree.ElementTree as ET

import numpy as np
import oracles
import pytest

from trajkit.errors import InvalidStyle
from trajkit.hallmarks import ScalarSeries
from trajkit.heatmap import STOPS, HeatmapStyle, render_svg
from trajkit.report import (
    fmt,
    write_matrix_csv,
    write_series_csv,
    write_spectrum_csv,
)
from trajkit.spectral import MatrixId, SpectralSummary


def test_colormap_endpoints():
    style = HeatmapStyle()
    assert style.rgb(1.0).tolist() == [23, 23, 151]
    assert style.rgb(-1.0).tolist() == [255, 255, 255]


def test_colormap_clamps_out_of_range():
    style = HeatmapStyle()
    assert style.rgb(5.0).tolist() == [23, 23, 151]
    assert style.rgb(-5.0).tolist() == [255, 255, 255]


def test_colormap_midpoint():
    # value 0.0 maps to fraction 0.5, an exact stop
    assert HeatmapStyle().rgb(0.0).tolist() == [140, 140, 203]


def test_each_stop_fraction_maps_to_its_colour():
    style = HeatmapStyle(v_min=0.0, v_max=1.0)
    assert [f for f, _ in STOPS] == [0.0, 0.25, 0.5, 0.75, 1.0]
    for f, colour in STOPS:
        assert tuple(style.rgb(f).tolist()) == colour


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


# (v_min, v_max): the default, a unit range, and spans whose stops are
# exact (8) or inexact (1.3) in binary
STYLES = [(-1.0, 1.0), (0.0, 1.0), (-2.0, 6.0), (-0.4, 0.9)]
SIZES = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 100]


def oracle_matrix(n: int, v_min: float, v_max: float) -> np.ndarray:
    """Uniform values a little past both bounds, shuffled with the stop
    values, the bounds and their neighbours, values beyond them, signed
    zeros, infinities, NaN and a dense sweep of the range."""
    span = v_max - v_min
    rng = np.random.default_rng(n)
    m = rng.uniform(v_min - 0.2 * span, v_max + 0.2 * span, n * n)
    special = [v_min + f * span for f, _ in STOPS]
    special += [np.nan, -0.0, 0.0, np.inf, -np.inf, v_min - 1.0, v_max + 1.0,
                np.nextafter(v_min, -np.inf), np.nextafter(v_max, np.inf)]
    special += list(np.linspace(v_min, v_max, 257))
    k = min(len(special), m.size)
    m[:k] = special[:k]
    return rng.permutation(m).reshape(n, n)


@pytest.mark.parametrize("v_min, v_max", STYLES)
def test_rgb_matches_the_per_value_oracle(v_min, v_max):
    values = oracle_matrix(100, v_min, v_max)
    got = HeatmapStyle(v_min, v_max).rgb(values)
    assert got.shape == (100, 100, 3) and got.dtype == np.uint8
    want = [[oracles.heatmap_rgb(v, v_min, v_max) for v in row] for row in values.tolist()]
    assert got.tolist() == [[list(c) for c in row] for row in want]


@pytest.mark.parametrize("v_min, v_max", STYLES)
def test_svg_bytes_match_the_per_cell_oracle(v_min, v_max):
    for n in SIZES:
        m = oracle_matrix(n, v_min, v_max)
        labels = [f"t{i}" if i % 3 else f"a,b&<{i}>" for i in range(n)]
        got = render_svg(m, labels, HeatmapStyle(v_min, v_max)).encode()
        assert got == oracles.heatmap_svg(m, labels, v_min, v_max).encode(), n


def test_svg_is_well_formed_for_any_label():
    labels = ["a\x00b", "bad\x01label", "\x1f", "x\ufffey\uffff", "&<>", "tab\tnl\ncr\r", "\U0001f600"]
    m = np.linspace(-1.0, 1.0, len(labels) ** 2).reshape(len(labels), -1)
    svg = render_svg(m, labels)
    assert svg == oracles.heatmap_svg(m, labels)
    root = ET.fromstring(svg)
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    want = ["a\ufffdb", "bad\ufffdlabel", "\ufffd", "x\ufffdy\ufffd", "&<>",
            "tab\tnl\ncr\n", "\U0001f600"]  # the parser reads CR as LF
    assert texts == [w for w in want for _ in range(2)]


@pytest.mark.parametrize("v_min, v_max", STYLES)
def test_matrix_csv_bytes_match_the_per_value_oracle(tmp_path, v_min, v_max):
    for n in SIZES:
        m = oracle_matrix(n, v_min, v_max)
        # labels csv.writer must quote: a comma, a quote, a line break
        labels = [f"c{i}" if i % 4 else f'a,"b"\n{i}' for i in range(n)]
        path = tmp_path / f"{n}.csv"
        write_matrix_csv(m, labels, path)
        assert path.read_bytes() == oracles.csv_bytes(labels, m.tolist()), n


def test_series_and_spectrum_csv_bytes_match_the_per_value_oracle(tmp_path):
    values = oracle_matrix(10, -1.0, 1.0).ravel().tolist()
    for units in ("degrees", "l2norm"):
        series = ScalarSeries(measure_id="m", points=list(enumerate(values)), units=units)
        write_series_csv(series, tmp_path / "s.csv")
        rows = [[t, v, units] for t, v in series.points]
        assert (tmp_path / "s.csv").read_bytes() == oracles.csv_bytes(["t", "value", "units"], rows)
    for matrix_id in MatrixId:
        summary = SpectralSummary(matrix_id=matrix_id, eigenvalues=np.array(values), n=100)
        write_spectrum_csv(summary, tmp_path / "e.csv")
        header = [f"eigenvalue_{matrix_id.value}"]
        assert (tmp_path / "e.csv").read_bytes() == oracles.csv_bytes(header, [[v] for v in values])
