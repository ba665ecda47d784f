"""Operator and window name parsing."""

import numpy as np
import pytest

import gaborfio as gf
from gaborfio.errors import ConfigError


def test_shipped_names_round_trip():
    names = gf.shipped_operator_names()
    assert len(names) == 6
    for name in names:
        op = gf.parse_operator(name)
        assert op.name == name


def test_operator_defaults():
    assert gf.parse_operator("harmonic").name == f"harmonic:{np.pi / 4}"
    assert gf.parse_operator("metaplectic:chirp").name == "metaplectic:chirp:1.0"
    assert gf.parse_operator("metaplectic:dilation").name == "metaplectic:dilation:2.0"
    assert gf.parse_operator("multiplier:poly").name == "multiplier:poly:0.5"


def test_operator_kinds():
    # One operator type; multiplier_fn marks the multipliers.
    for name in gf.shipped_operator_names():
        op = gf.parse_operator(name)
        assert type(op) is gf.FioOperator, name
        assert ((op.multiplier_fn is not None)
                == name.startswith("multiplier:")), name
    for op in (gf.build_metaplectic(gf.chirp_matrix(0.5)),
               gf.chirp_operator(1.0), gf.dilation_operator(2.0),
               gf.harmonic_oscillator(0.5)):
        assert type(op) is gf.FioOperator and op.multiplier_fn is None


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
