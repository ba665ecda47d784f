"""Quadratic-phase operators attached to 2x2 symplectic matrices.

For mat = [[a, b], [c, d]] with ad - bc = 1 and a != 0, the associated
operator has phase Phi(x, eta) = (c/a) x^2 / 2 + x eta / a
- (b/a) eta^2 / 2 (in cycles) and constant symbol |a|^(-1/2); its
canonical transformation is the linear map mat itself. The unit-modulus
prefactor of the classical representation is fixed only up to sign; this
choice makes the symbol real positive, which is the branch all magnitude
and decay measurements are blind to.

The harmonic oscillator propagator at time t is the rotation case
mat = [[cos t, -sin t], [sin t, cos t]]; at odd multiples of pi/2 the
a-block vanishes and construction is refused with the distance to the
singular time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError, SingularTimeError
from .fio import FioOperator, Phase, Symbol

__all__ = [
    "SymplecticMatrix",
    "chirp_matrix",
    "dilation_matrix",
    "rotation_matrix",
    "build_metaplectic",
    "chirp_operator",
    "dilation_operator",
    "harmonic_oscillator",
    "singular_time_distance",
]

SYMPLECTIC_TOL = 1e-12
BLOCK_FLOOR = 1e-10
COS_FLOOR = 1e-6


@dataclass(frozen=True)
class SymplecticMatrix:
    """2x2 real matrix validated against the symplectic form.

    Rejects input with |mat^T J mat - J| above SYMPLECTIC_TOL, which for
    2x2 matrices is |det - 1|.
    """

    entries: tuple

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.shape != (2, 2) or not np.all(np.isfinite(arr)):
            raise ValueError("need a finite 2x2 matrix")
        j = np.array([[0.0, 1.0], [-1.0, 0.0]])
        defect = np.max(np.abs(arr.T @ j @ arr - j))
        if defect > SYMPLECTIC_TOL:
            raise ValueError(
                f"matrix is not symplectic: form defect {defect:.3e}")
        object.__setattr__(
            self, "entries",
            ((float(arr[0, 0]), float(arr[0, 1])),
             (float(arr[1, 0]), float(arr[1, 1]))))

    @property
    def a(self) -> float:
        return self.entries[0][0]

    @property
    def b(self) -> float:
        return self.entries[0][1]

    @property
    def c(self) -> float:
        return self.entries[1][0]

    @property
    def d(self) -> float:
        return self.entries[1][1]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.entries, dtype=float)


def chirp_matrix(c: float) -> SymplecticMatrix:
    return SymplecticMatrix(((1.0, 0.0), (float(c), 1.0)))


def dilation_matrix(a: float) -> SymplecticMatrix:
    if a == 0 or not math.isfinite(a):
        raise ValueError("dilation factor must be finite and nonzero")
    return SymplecticMatrix(((float(a), 0.0), (0.0, 1.0 / float(a))))


def rotation_matrix(t: float) -> SymplecticMatrix:
    return SymplecticMatrix(((math.cos(t), -math.sin(t)),
                             (math.sin(t), math.cos(t))))


def build_metaplectic(mat: SymplecticMatrix, *, name: str = ""
                      ) -> FioOperator:
    """Operator with phase and symbol generated by the matrix.

    Requires |a| >= BLOCK_FLOOR: the generating-phase representation
    breaks down when the upper-left block degenerates.
    """
    a, b, c = mat.a, mat.b, mat.c
    if abs(a) < BLOCK_FLOOR:
        raise HypothesisError(
            f"upper-left block too small for a generating phase: |{a:.3e}|",
            min_det=abs(a))
    ca, ia, ba = c / a, 1.0 / a, b / a
    amp = abs(a) ** -0.5
    phase = Phase(
        value=lambda x, eta: (0.5 * ca * np.asarray(x) ** 2
                              + ia * np.asarray(x) * np.asarray(eta)
                              - 0.5 * ba * np.asarray(eta) ** 2),
        gradient=lambda x, eta: (
            ca * np.asarray(x, dtype=float) + ia * np.asarray(eta,
                                                              dtype=float),
            ia * np.asarray(x, dtype=float) - ba * np.asarray(eta,
                                                              dtype=float)),
        hessian=lambda x, eta: ((ca, ia), (ia, -ba)),
        name=name or "metaplectic", smoothness_order=0.5)
    symbol = Symbol(lambda x, eta: np.full(
        np.broadcast(np.asarray(x), np.asarray(eta)).shape, amp,
        dtype=complex), name="constant")
    return FioOperator(
        phase=phase, symbol=symbol, name=name or "metaplectic",
        closed_map=lambda y, eta: (
            a * np.asarray(y, dtype=float) + b * np.asarray(eta, dtype=float),
            c * np.asarray(y, dtype=float)
            + mat.d * np.asarray(eta, dtype=float)))


def chirp_operator(c: float) -> FioOperator:
    """Tf = exp(pi i c x^2) f."""
    return build_metaplectic(chirp_matrix(c), name=f"metaplectic:chirp:{c}")


def dilation_operator(a: float) -> FioOperator:
    """Tf = |a|^(-1/2) f(x / a)."""
    return build_metaplectic(dilation_matrix(a),
                             name=f"metaplectic:dilation:{a}")


def singular_time_distance(t: float) -> float:
    """Distance from t to the nearest odd multiple of pi / 2."""
    k = round((t - math.pi / 2) / math.pi)
    return abs(t - (math.pi / 2 + k * math.pi))


def harmonic_oscillator(t: float) -> FioOperator:
    """Propagator of the quantum harmonic oscillator at time t.

    The canonical transformation is the phase-space rotation by t
    (counterclockwise). Times within COS_FLOOR of the caustic are
    refused; the error carries the distance to the singular time.
    """
    if abs(math.cos(t)) < COS_FLOOR:
        raise SingularTimeError(
            f"harmonic propagator is singular near t = {t!r}",
            distance=singular_time_distance(t))
    return build_metaplectic(rotation_matrix(t), name=f"harmonic:{t}")
