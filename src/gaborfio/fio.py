"""Oscillatory-integral operators: phases, symbols, apply, canonical map.

An operator acts as Tf(x) = (1/L)^d sum_k exp(2 pi i Phi(x, w_k))
sigma(x, w_k) fhat(w_k) over the centered frequency grid, i.e. the
trapezoid-free Riemann quadrature that is exact for grid-bandlimited
inputs. It is T of the input periodised with the grid's length, so
apply and gmatrix's quadrature (_quadrature_source) both take it on
the zero-padded input's Grid.doubled. Phases are real with quadratic
growth; all phase values are in cycles (the 2 pi lives in the
exponential, not in Phi).

Every shipped operator is a metaplectic operator of a symplectic
[[a, b], [c, d]], optionally followed by a multiplier exp(2 pi i phi(x))
(metaplectic.build_metaplectic): its phase is separable,
Phi(x, eta) = (c/a) x^2 / 2 + x eta / a - (b/a) eta^2 / 2 + phi(x), phi
0 without a multiplier, under a constant symbol. build_metaplectic
hands the operator the matrix and the multiplier it was given, and the
sum runs factored: a chirp on the spectrum, the DFT scaled by 1/a as a
Bluestein chirp-z transform (a plain inverse FFT at a = 1), then a chirp
times exp(2 pi i phi) and the symbol, at O(N log N) per function. An
operator without a matrix goes through the dense N x N kernel
exp(2 pi i Phi) sigma, evaluated and applied a block of output rows at a
time.

The canonical transformation chi(y, eta) = (x, xi) solves
d_eta Phi(x, eta) = y for x and sets xi = d_x Phi(x, eta). Operators whose
mixed phase Hessian degenerates somewhere in the working box can be
constructed and inspected, but apply and canonical_map refuse them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import numpy.fft  # noqa: F401  (loaded on first use, these took 0.9 MiB
import numpy.random  # noqa: F401  inside a run: see cli._memory_table)

from .errors import HypothesisError, SolverError
from .signals import Grid, SampledSignal

__all__ = [
    "Phase",
    "FioOperator",
    "apply",
    "canonical_map",
    "ensure_nondegenerate",
]

# Box, sampling density, and determinant floor for the nondegeneracy scan.
HYPOTHESIS_BOX = 8.0
HYPOTHESIS_POINTS = 33
HYPOTHESIS_DET_FLOOR = 1e-10

# Construction-time consistency check of user-supplied derivatives.
VALIDATION_POINTS = 20
VALIDATION_STEP = 1e-4
VALIDATION_RTOL = 1e-5

# canonical_map's Newton iteration stops once |d_eta Phi(x, eta) - y| is
# at most NEWTON_TOL at every point, and fails after this many steps.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITERATIONS = 50

# The dense kernel of an operator without a matrix is evaluated this
# many output rows at a time: 4 MiB of kernel per block on a 2048-point
# grid, where the whole kernel took 64 MiB (1 GiB at 8192).
KERNEL_BLOCK_ROWS = 128


def _validation_points():
    """Fixed pseudorandom (x, eta) in [-4, 4]^2 for construction checks."""
    pts = np.random.default_rng(0).uniform(-4.0, 4.0,
                                           size=(VALIDATION_POINTS, 2))
    return pts[:, 0], pts[:, 1]


@dataclass(frozen=True)
class Phase:
    """Real phase function with explicit first and second derivatives.

    value(x, eta) -> Phi, gradient(x, eta) -> (d_x Phi, d_eta Phi),
    hessian(x, eta) -> ((Phi_xx, Phi_xeta), (Phi_etax, Phi_etaeta)); all
    entries broadcast against the inputs. Construction cross-checks the
    derivatives against central differences at fixed pseudorandom points
    and rejects inconsistent or asymmetric input. A gradient miss no
    larger than the differences' rounding floor, eps |Phi| / h at that
    point, is blamed on the size of the phase, not on its gradient.
    """

    value: Callable
    gradient: Callable
    hessian: Callable
    name: str = ""

    def __post_init__(self):
        x, eta = _validation_points()
        h = VALIDATION_STEP
        fds = ((self.value(x + h, eta) - self.value(x - h, eta)) / (2 * h),
               (self.value(x, eta + h) - self.value(x, eta - h)) / (2 * h))
        for grad, fd in zip(self.gradient(x, eta), fds):
            grad = np.asarray(grad, dtype=float)
            miss = np.broadcast_to(np.abs(fd - grad), x.shape)
            rel = miss / np.maximum(1.0, np.abs(grad))
            worst = int(np.argmax(rel))
            if not rel[worst] > VALIDATION_RTOL:
                continue
            size = abs(float(self.value(x[worst], eta[worst])))
            if miss[worst] <= np.finfo(float).eps * size / h:
                raise ValueError(
                    f"phase {self.name!r} is too large to validate: |Phi| "
                    f"= {size:.3e} at ({x[worst]:.3g}, {eta[worst]:.3g}) "
                    "rounds central differences above the tolerance")
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
class FioOperator:
    """Phase plus symbol; a metaplectic operator also carries its matrix.

    symbol is the amplitude sigma(x, eta), a callable that broadcasts
    against its inputs. metaplectic.build_metaplectic builds every
    shipped operator and hands it, as given, its SymplecticMatrix
    (_matrix) and the (phi, phi', phi'') of the multiplier
    exp(2 pi i phi(x)) after it (multiplier, or None). From these come
    the factored quadrature, the exact canonical map closed_map and
    metaplectic.metaplectic_law. An operator built from a bare Phase
    carries neither and runs the dense kernel.
    """

    phase: Phase
    symbol: Callable
    name: str = ""
    multiplier: tuple | None = field(default=None, repr=False)
    _matrix: object = field(default=None, repr=False, compare=False)

    def closed_map(self, y, eta) -> tuple:
        """(x, xi) = (a y + b eta, c y + d eta + phi'(x)) from the matrix."""
        (a, b), (c, d) = self._matrix.entries
        y, eta = np.asarray(y, dtype=float), np.asarray(eta, dtype=float)
        x = a * y + b * eta
        dphi = self.multiplier[1](x) if self.multiplier is not None else 0.0
        return x, c * y + d * eta + dphi


def ensure_nondegenerate(op: FioOperator) -> float:
    """Scan the mixed phase Hessian over the box; raise if it degenerates.

    Returns the nondegeneracy margin, the minimum |d^2 Phi / dx deta| over
    a HYPOTHESIS_POINTS^2 scan of [-HYPOTHESIS_BOX, HYPOTHESIS_BOX]^2. The
    scan is a sampled surrogate for global nondegeneracy, adequate for the
    smooth phases this library targets.
    """
    axis = np.linspace(-HYPOTHESIS_BOX, HYPOTHESIS_BOX, HYPOTHESIS_POINTS)
    _, pxe, _, _ = _hessian_entries(
        op.phase, *np.meshgrid(axis, axis, indexing="ij"))
    min_det = float(np.min(np.abs(pxe)))
    if min_det < HYPOTHESIS_DET_FLOOR:
        raise HypothesisError(
            f"operator {op.name!r}: mixed phase Hessian degenerates "
            f"(min |det| {min_det:.3e} inside box {HYPOTHESIS_BOX})",
            min_det=min_det)
    return min_det


def _apply_columns(op: FioOperator, grid: Grid, values: np.ndarray
                   ) -> np.ndarray:
    """T applied to samples on grid: one function (1-D) or one per column.

    The same Riemann sum either way: factored when the operator carries
    its matrix (_chirp_z_columns), else through the dense kernel
    (_dense_columns). Callers check nondegeneracy.
    """
    if op._matrix is not None:
        return _chirp_z_columns(op, grid, values)
    return _dense_columns(op, grid, values)


def _dense_columns(op: FioOperator, grid: Grid, values: np.ndarray
                   ) -> np.ndarray:
    """The quadrature as the centered transform times the N x N kernel.

    The kernel exp(2 pi i Phi) sigma is built and applied
    KERNEL_BLOCK_ROWS output rows at a time, so no more of it is held.
    """
    t, om = grid.times()[:, None], grid.freqs()[None, :]
    spectra = grid.spacing * np.fft.fftshift(
        np.fft.fft(np.fft.ifftshift(values, axes=0), axis=0), axes=0)
    out = np.empty(spectra.shape, dtype=complex)
    for lo in range(0, len(t), KERNEL_BLOCK_ROWS):
        rows = t[lo:lo + KERNEL_BLOCK_ROWS]
        kern = np.exp(2j * np.pi * op.phase.value(rows, om)) * op.symbol(
            rows, om)
        np.matmul(kern, spectra, out=out[lo:lo + KERNEL_BLOCK_ROWS])
    out /= grid.length
    return out


def _chirp_z_columns(op: FioOperator, grid: Grid, values: np.ndarray
                     ) -> np.ndarray:
    """The quadrature of a separable phase, factored, in one 2N buffer.

    With u, v the centered sample and frequency indices on N points,
    t_u w_v = u v / N, so the sum over v is a DFT scaled by 1/a. It runs
    as a Bluestein chirp-z transform, u v / a = (u^2 + v^2 - (u - v)^2)
    / (2a), a circular convolution of length 2N with the chirp
    exp(-i pi (u - v)^2 / (a N)); at a = 1 it is an inverse FFT. The
    result is an N-row view into that buffer (2N x columns, complex).
    """
    mat = op._matrix
    ca, ia, ba = mat.c / mat.a, 1.0 / mat.a, mat.b / mat.a
    n, h = grid.points_per_axis, grid.points_per_axis // 2
    u = np.arange(n) - h
    v = np.fft.ifftshift(u)
    pre = grid.spacing * _chirp(-1j * np.pi * ba, v,
                                 lambda k: k / grid.length)
    post = complex(op.symbol(0.0, 0.0)) / grid.length * _chirp(
        1j * np.pi * ca, u, lambda k: k * grid.spacing)
    if op.multiplier is not None:
        post *= np.exp(2j * np.pi * op.multiplier[0](grid.times()))
    cols = values.reshape(n, -1)
    buf = np.empty((2 * n, cols.shape[1]), dtype=complex, order="F")
    # The spectrum in FFT order: row j of buf[:n] holds frequency index v_j.
    buf[:h], buf[h:n] = cols[h:], cols[:h]
    spec = buf[:n]
    np.fft.fft(spec, axis=0, out=spec)
    if ia == 1.0:
        # An inverse FFT of length N: about half the time per column of
        # the length-2N Bluestein path, at the same accuracy.
        spec *= pre[:, None]
        np.fft.ifft(spec, axis=0, out=spec)
        post *= n
    else:
        theta = ia / n
        spec *= (pre * _chirp(1j * np.pi * theta, v))[:, None]
        # Index v sits at row v mod 2N, zeros between.
        _move_rows(buf, slice(h, n), slice(n + h, None))
        buf[h:n + h] = 0.0
        s = np.fft.ifftshift(np.arange(2 * n) - n)
        chirp = np.fft.fft(_chirp(-1j * np.pi * theta, s))
        np.fft.fft(buf, axis=0, out=buf)
        buf *= chirp[:, None]
        np.fft.ifft(buf, axis=0, out=buf)
        post *= _chirp(1j * np.pi * theta, u)
        _move_rows(buf, slice(n + h, None), slice(h, n))
    # Output index u sits at row u mod 2N (u mod N at a = 1); gather the
    # centered result into rows h .. n + h - 1.
    _move_rows(buf, slice(None, h), slice(n, n + h))
    out = buf[h:n + h]
    out *= post[:, None]
    return out.reshape(values.shape)


def _chirp(rate: complex, k: np.ndarray, point=lambda k: k) -> np.ndarray:
    """exp(rate x^2) at x = point(k) for integer indices k, one exp per |k|.

    rate is i pi c for a chirp exp(i pi c x^2). point is k itself, k
    times a step or k over a length: each gives point(-k) = -point(k)
    exactly, so (rate x) x has the same imaginary part at -k as at k,
    and the chirps are bitwise equal. The one exception is rate 0: the
    chirp is 1, with imaginary zeros that are -0 at negative k when
    taken there, and +0 here; the spacing and the symbol it is scaled by
    make either +0. The exps run on 0 .. max |k| and are gathered by
    |k|, which halves them on a centred or FFT-ordered axis.
    """
    mags = np.abs(k)
    x = point(np.arange(mags.max() + 1))
    return np.exp(rate * x * x)[mags]


def _move_rows(buf: np.ndarray, src: slice, dst: slice) -> None:
    """buf[dst] = buf[src] in an F-ordered buffer, one column at a time.

    Within a column the two row ranges do not overlap; over the whole
    array their bounds do, and numpy would copy the source first.
    """
    for col in buf.T:
        col[dst] = col[src]


def apply(op: FioOperator, f: SampledSignal) -> SampledSignal:
    """gmatrix's quadrature sum, on f zero-padded to Grid.doubled.

    Read back on f's rows: content the operator moves less than a length
    past f's box does not wrap back in. O(N log N) for an operator that
    carries its matrix, O(N^2) through the dense kernel otherwise.
    """
    ensure_nondegenerate(op)
    h = f.grid.points_per_axis // 2
    out = _apply_columns(op, f.grid.doubled(), np.pad(f.values, h))
    return SampledSignal(f.grid, out[h:-h])


def canonical_map(op: FioOperator, points) -> np.ndarray:
    """chi(y, eta) at each input point via Newton on d_eta Phi = y.

    points is (n, 2); the initial guess is x0 = y. Non-convergence raises
    SolverError carrying the last iterate.
    """
    ensure_nondegenerate(op)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    y, eta = pts[:, 0].copy(), pts[:, 1].copy()
    x = y.copy()
    for step in range(NEWTON_MAX_ITERATIONS + 1):
        _, f_eta = op.phase.gradient(x, eta)
        resid = np.asarray(f_eta, dtype=float) - y
        if np.max(np.abs(resid)) <= NEWTON_TOL:
            break
        if step == NEWTON_MAX_ITERATIONS:
            raise SolverError(
                f"canonical map Newton iteration for {op.name!r} did not "
                f"reach {NEWTON_TOL:g} in {NEWTON_MAX_ITERATIONS} steps",
                residual=float(np.max(np.abs(resid))),
                last_iterate=x)
        _, pxe, _, _ = _hessian_entries(op.phase, x, eta)
        x = x - resid / pxe
    xi, _ = op.phase.gradient(x, eta)
    return np.column_stack([x, np.asarray(xi, dtype=float)])
