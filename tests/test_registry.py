"""Operator and window name parsing."""

import itertools

import numpy as np
import pytest

import gaborfio as gf
from gaborfio.errors import ConfigError


def test_shipped_names_round_trip():
    names = gf.shipped_operator_names()
    assert len(names) == 5
    for name in names:
        op = gf.parse_operator(name)
        assert op.name == name


def test_shipped_families_are_distinct():
    # Each shipped family moves one Gaussian somewhere else, so no
    # family is another spelled differently (as multiplier:poly:<c> is
    # metaplectic:chirp:<2c>).
    grid = gf.Grid(1, 256, 16.0)
    f = gf.gaussian(2.0).sampled(grid)
    outs = {name: gf.apply(gf.parse_operator(name), f).values
            for name in gf.shipped_operator_names()}
    for first, second in itertools.combinations(outs, 2):
        gap = np.linalg.norm(outs[first] - outs[second])
        assert gap > 1e-6 * np.linalg.norm(outs[first]), (first, second)


def test_operator_defaults():
    assert gf.parse_operator("harmonic").name == f"harmonic:{np.pi / 4}"
    assert gf.parse_operator("metaplectic:chirp").name == "metaplectic:chirp:1.0"
    assert gf.parse_operator("metaplectic:dilation").name == "metaplectic:dilation:2.0"
    assert gf.parse_operator("multiplier:poly").name == "metaplectic:chirp:1.0"


def test_operator_kinds():
    # One operator type, each carrying its matrix; multiplier marks the
    # multipliers.
    for name in gf.shipped_operator_names():
        op = gf.parse_operator(name)
        assert type(op) is gf.FioOperator and op._matrix is not None, name
        assert ((op.multiplier is not None)
                == name.startswith("multiplier:")), name
    for op in (gf.build_metaplectic(gf.chirp_matrix(0.5)),
               gf.chirp_operator(1.0), gf.dilation_operator(2.0),
               gf.harmonic_oscillator(0.5)):
        assert type(op) is gf.FioOperator and op.multiplier is None


def test_operator_parse_errors():
    for bad in ("wavelet", "multiplier", "multiplier:tan",
                "metaplectic:chirp:abc", "harmonic:1:2", "",
                "multiplier:poly:nan", "multiplier:poly:inf",
                "metaplectic:chirp:-inf", "metaplectic:dilation:nan",
                "harmonic:inf"):
        with pytest.raises(ConfigError) as err:
            gf.parse_operator(bad)
        assert repr(bad) in str(err.value)


def test_window_parsing():
    w = gf.parse_window("gaussian:2")
    assert w.kind == "gaussian" and w.width == 2.0
    h = gf.parse_window("hermite:3:1.5")
    assert h.kind == "hermite" and h.order == 3 and h.width == 1.5
    for bad in ("gaussian", "gaussian:0", "hermite:2", "boxcar:1", ""):
        with pytest.raises(ConfigError):
            gf.parse_window(bad)
