"""Grid geometry and sampled signals."""

import numpy as np
import pytest

import gaborfio as gf
from gaborfio import signals
from gaborfio.signals import _csv_rows, _write_csv


def test_grid_geometry():
    grid = gf.Grid(1, 8, 4.0)
    assert grid.spacing == 0.5
    assert grid.half_width == 2.0
    assert grid.freq_spacing == 0.25
    assert grid.freq_half_width == 1.0
    assert grid.points_per_axis == 8
    t = grid.times()
    w = grid.freqs()
    assert t[0] == -2.0 and t[4] == 0.0
    assert w[0] == -1.0 and w[4] == 0.0
    np.testing.assert_allclose(np.diff(t), 0.5)


def test_grid_validation():
    with pytest.raises(ValueError):
        gf.Grid(1, 7, 4.0)
    with pytest.raises(ValueError):
        gf.Grid(1, 0, 4.0)
    with pytest.raises(ValueError):
        gf.Grid(1, 8, 0.0)
    with pytest.raises(ValueError):
        gf.Grid(0, 8, 4.0)
    with pytest.raises(ValueError):
        gf.Grid(2, 8, 4.0)


def test_signal_validation(grid):
    with pytest.raises(ValueError):
        gf.SampledSignal(grid, np.zeros(10))
    bad = np.ones(grid.points_per_axis)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        gf.SampledSignal(grid, bad)
    f = gf.SampledSignal(grid, np.ones(grid.points_per_axis))
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_inner_product_properties(grid):
    rng = np.random.default_rng(2)
    n = grid.points_per_axis
    f = gf.SampledSignal(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    g = gf.SampledSignal(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    fg = gf.inner_product(f, g)
    gf_ = gf.inner_product(g, f)
    assert abs(fg - np.conj(gf_)) <= 1e-12 * abs(fg)
    assert abs(gf.inner_product(f, f) - f.norm() ** 2) <= 1e-10

    other = gf.SampledSignal(gf.Grid(1, 512, 20.0), np.zeros(512))
    with pytest.raises(ValueError):
        gf.inner_product(f, other)


def test_sample_and_norm(grid):
    t = grid.times()
    f = gf.SampledSignal(grid, np.exp(-np.pi * t * t))
    # ||exp(-pi t^2)||_2^2 = integral exp(-2 pi t^2) = 1/sqrt(2)
    assert abs(f.norm() ** 2 - 2.0 ** -0.5) <= 1e-12



def _mismatches(values):
    """(value, written, "%.17g" % value) wherever the CSV text differs."""
    values = np.asarray(values, dtype=float)
    written = bytes(_csv_rows(values.reshape(-1, 1))).split(b"\n")[:-1]
    assert len(written) == len(values)
    return [(v, w, b"%.17g" % v) for v, w in zip(values, written)
            if w != b"%.17g" % v]


def test_csv_text_of_edge_values():
    # Zeros, non-finite values, the subnormal and normal extremes, every
    # power of ten the formatter's tables hold with its neighbours (log10
    # is one off next to them), the switches between fixed and scientific
    # text, and 18-digit ties, which round half to even.
    powers = np.array([float(f"1e{k}") for k in range(
        signals._K_LO - 1, signals._K_HI + 2)])
    info = np.finfo(float)
    values = np.concatenate([
        [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, info.tiny, info.max,
         -info.max, 1e-5, 1e-4, 1e16, 1e17, 1000000000000000.25,
         1000000000000000.75, 0.5, 2.5, 10.0, 99.5, 123456.789],
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    values = np.concatenate([values, -values])
    assert not _mismatches(values)


def test_csv_text_of_random_bit_patterns():
    # 2^20 doubles drawn as uint64 bit patterns hit every binary exponent,
    # subnormals, NaNs and infinities.
    rng = np.random.default_rng(2301)
    bits = rng.integers(0, 2 ** 64, 2 ** 20, dtype=np.uint64)
    values = bits.view(float)
    bad = []
    for lo in range(0, len(values), 2 ** 16):
        bad += _mismatches(values[lo:lo + 2 ** 16])
    assert not bad, bad[:5]


def test_write_csv_matches_a_row_by_row_writer(tmp_path, monkeypatch):
    # Blocks of rows give the file one % per row gave, across block
    # boundaries, from columns of any sequence type.
    monkeypatch.setattr(signals, "CSV_BLOCK_ROWS", 7)
    rng = np.random.default_rng(5)
    z = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    columns = (tuple(np.arange(20) * 0.5 - 5.0), z.real * 1e-200, z.imag,
               [abs(v) for v in z])
    path = tmp_path / "values.csv"
    _write_csv(path, "a,b,c,d", columns)
    row = ",".join(["%.17g"] * 4) + "\n"
    expected = "a,b,c,d\n" + "".join(row % v for v in zip(*columns))
    assert path.read_text() == expected
