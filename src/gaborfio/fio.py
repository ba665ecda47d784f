"""Oscillatory-integral operators: phases, symbols, apply, canonical map.

An operator acts as Tf(x) = (1/L)^d sum_k exp(2 pi i Phi(x, w_k))
sigma(x, w_k) fhat(w_k) over the centered frequency grid, i.e. the
trapezoid-free Riemann quadrature that is exact for grid-bandlimited
inputs. Phases are real with quadratic growth; all phase values are in
cycles (the 2 pi lives in the exponential, not in Phi).

The canonical transformation chi(y, eta) = (x, xi) solves
d_eta Phi(x, eta) = y for x and sets xi = d_x Phi(x, eta). Operators whose
mixed phase Hessian degenerates somewhere in the working box can be
constructed and inspected, but apply and canonical_map refuse them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import HypothesisError, SolverError
from .signals import Grid, SampledSignal

__all__ = [
    "Phase",
    "Symbol",
    "FioOperator",
    "unit_symbol",
    "linear_phase",
    "identity_operator",
    "multiplier_operator",
    "apply",
    "multiplier_apply",
    "canonical_map",
    "ensure_nondegenerate",
    "validate_hypotheses",
]

# Box, sampling density, and determinant floor for the nondegeneracy scan.
HYPOTHESIS_BOX = 8.0
HYPOTHESIS_POINTS = 33
HYPOTHESIS_DET_FLOOR = 1e-10

# Construction-time consistency check of user-supplied derivatives.
VALIDATION_POINTS = 20
VALIDATION_STEP = 1e-4
VALIDATION_RTOL = 1e-5


@dataclass(frozen=True)
class Phase:
    """Real phase function with explicit first and second derivatives.

    value(x, eta) -> Phi, gradient(x, eta) -> (d_x Phi, d_eta Phi),
    hessian(x, eta) -> ((Phi_xx, Phi_xeta), (Phi_etax, Phi_etaeta)); all
    entries broadcast against the inputs. Construction cross-checks the
    derivatives against central differences at fixed pseudorandom points
    and rejects inconsistent or asymmetric input.

    smoothness_order and smoothness_constant declare the regularity scale
    of the phase (0.5 for quadratic polynomials, 1.0 for generic analytic
    phases with bounded higher derivatives). They select which decay
    exponent experiments expect; they are trusted metadata, not certified
    numerically.
    """

    value: Callable
    gradient: Callable
    hessian: Callable
    name: str = ""
    smoothness_order: float = 1.0
    smoothness_constant: float = 1.0

    def __post_init__(self):
        if self.smoothness_order < 0.5:
            raise ValueError("smoothness_order must be >= 0.5")
        if not self.smoothness_constant > 0:
            raise ValueError("smoothness_constant must be positive")
        rng = np.random.default_rng(0)
        pts = rng.uniform(-4.0, 4.0, size=(VALIDATION_POINTS, 2))
        x, eta = pts[:, 0], pts[:, 1]
        h = VALIDATION_STEP
        gx, ge = (np.asarray(c, dtype=float) for c in self.gradient(x, eta))
        fd_x = (self.value(x + h, eta) - self.value(x - h, eta)) / (2 * h)
        fd_e = (self.value(x, eta + h) - self.value(x, eta - h)) / (2 * h)
        scale_x = np.maximum(1.0, np.abs(gx))
        scale_e = np.maximum(1.0, np.abs(ge))
        if (np.max(np.abs(fd_x - gx) / scale_x) > VALIDATION_RTOL
                or np.max(np.abs(fd_e - ge) / scale_e) > VALIDATION_RTOL):
            raise ValueError(
                f"phase {self.name!r}: gradient disagrees with finite "
                "differences")
        pxx, pxe, pex, pee = _hessian_entries(self, x, eta)
        if np.max(np.abs(pxe - pex) / np.maximum(1.0, np.abs(pxe))) > 1e-10:
            raise ValueError(f"phase {self.name!r}: hessian not symmetric")
        fdh_x = (np.asarray(self.gradient(x + h, eta)[0], dtype=float)
                 - np.asarray(self.gradient(x - h, eta)[0], dtype=float)
                 ) / (2 * h)
        fdh_e = (np.asarray(self.gradient(x, eta + h)[1], dtype=float)
                 - np.asarray(self.gradient(x, eta - h)[1], dtype=float)
                 ) / (2 * h)
        if (np.max(np.abs(fdh_x - pxx) / np.maximum(1.0, np.abs(pxx)))
                > VALIDATION_RTOL
                or np.max(np.abs(fdh_e - pee) / np.maximum(1.0, np.abs(pee)))
                > VALIDATION_RTOL):
            raise ValueError(
                f"phase {self.name!r}: hessian disagrees with finite "
                "differences of the gradient")


def _hessian_entries(phase: Phase, x, eta):
    """Hessian entries broadcast to the common shape of x and eta."""
    h = phase.hessian(x, eta)
    raw = (h[0][0], h[0][1], h[1][0], h[1][1])
    shape = np.broadcast(np.asarray(x), np.asarray(eta)).shape
    return tuple(np.broadcast_to(np.asarray(e, dtype=float), shape)
                 for e in raw)


@dataclass(frozen=True)
class Symbol:
    """Amplitude sigma(x, eta) with a polynomial weight exponent.

    weight_exponent is N in the growth bound
    |sigma(z)| <= c (1 + |z|^2)^(N/2); validate_hypotheses reports the
    measured constant over the working box. Default 0 means a bounded
    symbol.
    """

    value: Callable
    weight_exponent: float = 0.0
    name: str = ""

    def __post_init__(self):
        if self.weight_exponent < 0:
            raise ValueError("weight_exponent must be nonnegative")


def unit_symbol() -> Symbol:
    return Symbol(lambda x, eta: np.ones(np.broadcast(
        np.asarray(x), np.asarray(eta)).shape), weight_exponent=0.0,
        name="one")


OPERATOR_KINDS = ("general", "multiplier", "metaplectic")


@dataclass(frozen=True)
class FioOperator:
    """Phase plus symbol, with optional exact forms for cross-checks.

    kind tags the family: "multiplier" operators carry phi with
    Tf = exp(2 pi i phi(x)) f(x), "metaplectic" ones come from a
    symplectic matrix, anything else is "general". closed_map, when set,
    is the exact canonical transformation (y, eta) -> (x, xi) used to
    validate the Newton solver; closed_apply applies T without
    quadrature.
    """

    phase: Phase
    symbol: Symbol
    name: str = ""
    kind: str = "general"
    multiplier_fn: Callable | None = field(default=None, repr=False)
    closed_map: Callable | None = field(default=None, repr=False)
    closed_apply: Callable | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in OPERATOR_KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.kind == "multiplier" and self.multiplier_fn is None:
            raise ValueError("multiplier operators need multiplier_fn")


def linear_phase() -> Phase:
    """Phase x * eta of the identity operator."""
    return Phase(
        value=lambda x, eta: np.asarray(x) * np.asarray(eta),
        gradient=lambda x, eta: (np.asarray(eta, dtype=float),
                                 np.asarray(x, dtype=float)),
        hessian=lambda x, eta: ((0.0, 1.0), (1.0, 0.0)),
        name="linear", smoothness_order=0.5)


def identity_operator() -> FioOperator:
    return FioOperator(
        phase=linear_phase(),
        symbol=unit_symbol(),
        name="identity",
        closed_map=lambda y, eta: (np.asarray(y, dtype=float),
                                   np.asarray(eta, dtype=float)))


def multiplier_operator(phi: Callable, phi_prime: Callable,
                        phi_second: Callable, name: str,
                        smoothness_order: float = 1.0) -> FioOperator:
    """Unimodular multiplier Tf = exp(2 pi i phi(x)) f(x).

    Phase x * eta + phi(x); the canonical map shears frequency by phi'.
    """
    phase = Phase(
        value=lambda x, eta: np.asarray(x) * np.asarray(eta) + phi(x),
        gradient=lambda x, eta: (np.asarray(eta, dtype=float) + phi_prime(x),
                                 np.asarray(x, dtype=float)),
        hessian=lambda x, eta: ((phi_second(x), 1.0), (1.0, 0.0)),
        name=f"multiplier:{name}", smoothness_order=smoothness_order)

    def closed_map(y, eta):
        y = np.asarray(y, dtype=float)
        return y, np.asarray(eta, dtype=float) + phi_prime(y)

    return FioOperator(phase=phase, symbol=unit_symbol(),
                       name=f"multiplier:{name}", kind="multiplier",
                       multiplier_fn=phi, closed_map=closed_map)


def _min_mixed_hessian(op: FioOperator, box: float, n_points: int) -> float:
    """Minimum |d^2 Phi / dx deta| over an n_points^2 scan of the box."""
    axis = np.linspace(-box, box, n_points)
    _, pxe, _, _ = _hessian_entries(
        op.phase, *np.meshgrid(axis, axis, indexing="ij"))
    return float(np.min(np.abs(pxe)))


def ensure_nondegenerate(op: FioOperator, *, box: float = HYPOTHESIS_BOX,
                         n_points: int = HYPOTHESIS_POINTS) -> float:
    """Scan the mixed phase Hessian over the box; raise if it degenerates.

    Returns the minimum |d^2 Phi / dx deta| found. The scan is a sampled
    surrogate for global nondegeneracy, adequate for the smooth phases
    this library targets.
    """
    min_det = _min_mixed_hessian(op, box, n_points)
    if min_det < HYPOTHESIS_DET_FLOOR:
        raise HypothesisError(
            f"operator {op.name!r}: mixed phase Hessian degenerates "
            f"(min |det| {min_det:.3e} inside box {box})",
            min_det=min_det)
    return min_det


def _apply_columns(op: FioOperator, grid: Grid, values: np.ndarray
                   ) -> np.ndarray:
    """T applied to samples on grid: one function (1-D) or one per column.

    Centered transform, then the N x N kernel exp(2 pi i Phi) sigma, which
    is freed on return. Callers check nondegeneracy.
    """
    grid.require_1d()
    t, om = grid.times()[:, None], grid.freqs()[None, :]
    spectra = grid.spacing * np.fft.fftshift(
        np.fft.fft(np.fft.ifftshift(values, axes=0), axis=0), axes=0)
    kern = np.exp(2j * np.pi * op.phase.value(t, om)) * op.symbol.value(t, om)
    return (kern @ spectra) / grid.length


def apply(op: FioOperator, f: SampledSignal) -> SampledSignal:
    """Quadrature application over the full frequency grid, O(N^2) per dim."""
    ensure_nondegenerate(op)
    return SampledSignal(f.grid, _apply_columns(op, f.grid, f.values))


def multiplier_apply(op: FioOperator, f: SampledSignal) -> SampledSignal:
    """Shortcut for multiplier operators; exact, no quadrature."""
    if op.multiplier_fn is None:
        raise ValueError(f"operator {op.name!r} is not a multiplier")
    return SampledSignal(
        f.grid,
        f.values * np.exp(2j * np.pi * op.multiplier_fn(f.grid.times())))


def canonical_map(op: FioOperator, points, *, tol: float = 1e-12,
                  max_iterations: int = 50) -> np.ndarray:
    """chi(y, eta) at each input point via Newton on d_eta Phi = y.

    points is (n, 2); the initial guess is x0 = y. Non-convergence raises
    SolverError carrying the last iterate.
    """
    ensure_nondegenerate(op)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    y, eta = pts[:, 0].copy(), pts[:, 1].copy()
    x = y.copy()
    for _ in range(max_iterations):
        _, f_eta = op.phase.gradient(x, eta)
        resid = np.asarray(f_eta, dtype=float) - y
        if np.max(np.abs(resid)) <= tol:
            break
        _, pxe, _, _ = _hessian_entries(op.phase, x, eta)
        x = x - resid / pxe
    else:
        _, f_eta = op.phase.gradient(x, eta)
        resid = np.asarray(f_eta, dtype=float) - y
        if np.max(np.abs(resid)) > tol:
            raise SolverError(
                f"canonical map Newton iteration for {op.name!r} did not "
                f"reach {tol:g} in {max_iterations} steps",
                residual=float(np.max(np.abs(resid))),
                last_iterate=x)
    xi, _ = op.phase.gradient(x, eta)
    return np.column_stack([x, np.asarray(xi, dtype=float)])


def validate_hypotheses(op: FioOperator, *, box: float = HYPOTHESIS_BOX,
                        n_points: int = HYPOTHESIS_POINTS,
                        det_floor: float = HYPOTHESIS_DET_FLOOR) -> dict:
    """Measured hypothesis report over the working box.

    Keys: min_mixed_hessian (nondegeneracy margin), nondegenerate (min
    against det_floor; False instead of raising), symbol_weight_exponent,
    and symbol_weight_constant (sup |sigma(z)| / (1+|z|^2)^(N/2)).
    """
    min_det = _min_mixed_hessian(op, box, n_points)
    axis = np.linspace(-box, box, n_points)
    xg, eg = np.meshgrid(axis, axis, indexing="ij")
    weight = (1.0 + xg * xg + eg * eg) ** (op.symbol.weight_exponent / 2.0)
    sig = np.abs(np.asarray(op.symbol.value(xg, eg), dtype=complex))
    constant = float(np.max(sig / weight))
    return {
        "operator": op.name,
        "min_mixed_hessian": min_det,
        "nondegenerate": bool(min_det >= det_floor),
        "symbol_weight_exponent": float(op.symbol.weight_exponent),
        "symbol_weight_constant": constant,
    }
