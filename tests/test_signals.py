"""Grid geometry and sampled signals."""

import numpy as np
import pytest

import gaborfio as gf


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

