"""Name-to-object parsing for operators and windows.

Operator specs are colon-separated: identity, multiplier:cos,
metaplectic:chirp:<c>, metaplectic:dilation:<a>, harmonic:<t>; and
multiplier:poly:<c2>, a second spelling that builds metaplectic:chirp:<2 c2>.
Parameters may be omitted where a documented default exists. Window
specs are gaussian:<width> or hermite:<order>:<width>.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .fio import FioOperator
from .gabor import Window, gaussian, hermite
from .metaplectic import (IDENTITY, build_metaplectic, chirp_operator,
                          dilation_operator, harmonic_oscillator)

__all__ = ["parse_operator", "parse_window", "shipped_operator_names"]

DEFAULT_POLY_COEFF = 0.5
DEFAULT_CHIRP_RATE = 1.0
DEFAULT_DILATION = 2.0
DEFAULT_HARMONIC_TIME = math.pi / 4


def _param(parts, index, default, spec):
    if len(parts) <= index:
        return default
    try:
        value = float(parts[index])
    except ValueError as exc:
        raise ConfigError(
            f"bad numeric parameter in operator {spec!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"non-finite parameter in operator {spec!r}")
    return value


def parse_operator(spec: str) -> FioOperator:
    parts = spec.strip().split(":")
    kind = parts[0]
    if kind == "identity" and len(parts) == 1:
        return build_metaplectic(IDENTITY, name="identity")
    if kind == "multiplier" and len(parts) >= 2:
        if parts[1] == "cos" and len(parts) == 2:
            return build_metaplectic(
                IDENTITY, name="multiplier:cos",
                multiplier=(np.cos, lambda x: -np.sin(x),
                            lambda x: -np.cos(x)))
        if parts[1] == "poly" and len(parts) <= 3:
            return chirp_operator(
                2.0 * _param(parts, 2, DEFAULT_POLY_COEFF, spec))
    if kind == "metaplectic" and len(parts) >= 2 and len(parts) <= 3:
        if parts[1] == "chirp":
            return chirp_operator(_param(parts, 2, DEFAULT_CHIRP_RATE, spec))
        if parts[1] == "dilation":
            return dilation_operator(_param(parts, 2, DEFAULT_DILATION, spec))
    if kind == "harmonic" and len(parts) <= 2:
        return harmonic_oscillator(_param(parts, 1, DEFAULT_HARMONIC_TIME,
                                          spec))
    raise ConfigError(f"unknown operator spec {spec!r}")


def parse_window(spec: str) -> Window:
    parts = spec.strip().split(":")
    try:
        if parts[0] == "gaussian" and len(parts) == 2:
            return gaussian(float(parts[1]))
        if parts[0] == "hermite" and len(parts) == 3:
            return hermite(int(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise ConfigError(f"bad window spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown window spec {spec!r}")


def shipped_operator_names() -> tuple:
    """Canonical example of each shipped operator family."""
    return (
        "identity",
        "multiplier:cos",
        f"metaplectic:chirp:{DEFAULT_CHIRP_RATE}",
        f"metaplectic:dilation:{DEFAULT_DILATION}",
        f"harmonic:{DEFAULT_HARMONIC_TIME}",
    )
