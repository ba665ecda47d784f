"""Quadratic-phase operators attached to 2x2 symplectic matrices.

For mat = [[a, b], [c, d]] with ad - bc = 1 and a != 0, the associated
operator has phase Phi(x, eta) = (c/a) x^2 / 2 + x eta / a
- (b/a) eta^2 / 2 (in cycles) and constant symbol |a|^(-1/2); its
canonical transformation is the linear map mat itself. Followed by a
multiplier exp(2 pi i phi(x)) it is a generalized metaplectic operator
(Cordero, Groechenig, Nicola and Rodino 2014). build_metaplectic builds
every shipped operator this way, the identity and multiplier:cos on the
identity matrix (multiplier:poly:<c> parses to the chirp). The unit-modulus
prefactor of the classical representation is fixed only up to sign; this
choice makes the symbol real positive, which is the branch all magnitude
and decay measurements are blind to.

The harmonic oscillator propagator at time t is the rotation case
mat = [[cos t, -sin t], [sin t, cos t]]; at odd multiples of pi/2 the
a-block vanishes and construction is refused with the distance to the
singular time.

For a Gaussian window the operator's Gabor matrix is a closed-form
Gaussian about the graph of mat (Cordero, Nicola and Rodino 2009), in
two independent forms: metaplectic_law, its modulus from the overlap of
two phase-space Gaussians, and _covariant_source, its complex entries
from the operator's covariance with time-frequency shifts, which
gmatrix.assemble fills the matrix with. _covariant_source keeps the
Gaussian's real exponent in mu - A lambda, where it neither cancels nor
overflows, and expands only the phase over the product lattice: one
unit factor per (lambda, lattice time), one per (lambda, frequency) and
a table of mu shared by every lambda, so an entry costs one real exp.

A multiplier m on the identity matrix, the pseudodifferential case, has
no such covariance, but its Gabor matrix on a Gaussian window factors
all the same: the product of two shifted Gaussians is a Gaussian at
their midpoint, so <m g_lambda, g_mu> is a Gaussian in x - x' times the
STFT of m under the half-width window at ((x + x') / 2, w' - w)
(Groechenig 2001, ch. 14). _multiplier_source takes that STFT as one
table of gabor._windowed_sums on the quadrature's doubled grid, the same
Riemann sum without an atom or an operator apply. It is not an
independent law: metaplectic_law stays None for multipliers, and the
quadrature is the test oracle.

Both are row sources, gmatrix.assemble's one interface to an entry
formula: built once per matrix with the tables every row shares (the
phase table of mu, the table of windowed sums), then called on the rows
of one run of whole lattice times at a time, which they fill in place
and flush (gabor._flush). _closed_form_source picks the source of an
operator and window, or None for the quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError, SingularTimeError
from .fio import FioOperator, Phase
from .gabor import (_FLUSHED_EXPONENT, _flush, _shifted, _waves,
                    _windowed_sums, gaussian)

__all__ = [
    "SymplecticMatrix",
    "chirp_matrix",
    "dilation_matrix",
    "rotation_matrix",
    "build_metaplectic",
    "chirp_operator",
    "dilation_operator",
    "harmonic_oscillator",
    "metaplectic_law",
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


# The identity and multiplier:cos are metaplectic operators of this.
IDENTITY = SymplecticMatrix(((1.0, 0.0), (0.0, 1.0)))


def chirp_matrix(c: float) -> SymplecticMatrix:
    return SymplecticMatrix(((1.0, 0.0), (float(c), 1.0)))


def dilation_matrix(a: float) -> SymplecticMatrix:
    if a == 0 or not math.isfinite(a):
        raise ValueError("dilation factor must be finite and nonzero")
    return SymplecticMatrix(((float(a), 0.0), (0.0, 1.0 / float(a))))


def rotation_matrix(t: float) -> SymplecticMatrix:
    return SymplecticMatrix(((math.cos(t), -math.sin(t)),
                             (math.sin(t), math.cos(t))))


def _zero(x):
    return 0.0


def build_metaplectic(mat: SymplecticMatrix, *, name: str = "",
                      multiplier: tuple | None = None) -> FioOperator:
    """Operator of the matrix, optionally followed by a multiplier.

    multiplier is (phi, phi', phi''), each a function of x, and adds the
    factor exp(2 pi i phi(x)) after the metaplectic operator: phi joins
    the phase, and the canonical map shears the frequency by phi'(x)
    after the linear map. The identity matrix with a multiplier is the
    multiplier alone.

    The operator carries mat and multiplier as given, so apply runs the
    factored quadrature, closed_map is exact, and on a Gaussian window
    gmatrix.assemble takes a closed form without a multiplier, or with
    one on the identity matrix.

    Requires |a| >= BLOCK_FLOOR: the generating-phase representation
    breaks down when the upper-left block degenerates.
    """
    a, b, c = mat.a, mat.b, mat.c
    if abs(a) < BLOCK_FLOOR:
        raise HypothesisError(
            f"upper-left block too small for a generating phase: |{a:.3e}|",
            min_det=abs(a))
    phi, dphi, ddphi = multiplier if multiplier is not None else (
        _zero, _zero, _zero)
    ca, ia, ba = c / a, 1.0 / a, b / a
    amp = abs(a) ** -0.5
    name = name or "metaplectic"
    phase = Phase(
        value=lambda x, eta: (0.5 * ca * np.asarray(x) ** 2
                              + ia * np.asarray(x) * np.asarray(eta)
                              - 0.5 * ba * np.asarray(eta) ** 2 + phi(x)),
        gradient=lambda x, eta: (
            ca * np.asarray(x, dtype=float)
            + ia * np.asarray(eta, dtype=float) + dphi(x),
            ia * np.asarray(x, dtype=float) - ba * np.asarray(eta,
                                                              dtype=float)),
        hessian=lambda x, eta: ((ca + ddphi(x), ia), (ia, -ba)),
        name=name)

    return FioOperator(
        phase=phase, name=name,
        symbol=lambda x, eta: np.full(
            np.broadcast(np.asarray(x), np.asarray(eta)).shape, amp,
            dtype=complex),
        multiplier=multiplier, _matrix=mat)


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


def metaplectic_law(op: FioOperator, lattice, window):
    """Closed-form |<T g_lambda, g_mu>|, a row per lambda, or None.

    For the gaussian(width) window, |V_g g|^2 is a phase-space Gaussian
    of covariance Sigma_g = diag(width, 1/width) / (4 pi). The operator
    of M moves lambda to M lambda and the window's covariance to
    M Sigma_g M^T, and the overlap of the two Gaussians is ||g||^2
    (2 pi)^(-1/2) det(Sigma)^(-1/4) exp(-z^T Sigma^-1 z / 4) with
    z = mu - M lambda and Sigma = Sigma_g + M Sigma_g M^T; 8 bytes per
    entry, 24 while evaluated. None unless op carries its matrix and no
    multiplier and window is a Gaussian.
    """
    if (op._matrix is None or op.multiplier is not None
            or window.kind != "gaussian"):
        return None
    mat, width, pts = op._matrix.as_array(), window.width, lattice.points
    sig_g = np.diag([width, 1.0 / width]) / (4.0 * np.pi)
    sig = sig_g + mat @ sig_g @ mat.T
    z = pts[None, :, :] - (pts @ mat.T)[:, None, :]
    law = np.einsum("lmi,ij,lmj->lm", z, np.linalg.inv(sig), z)
    law *= -0.25
    np.exp(law, out=law)
    law *= (math.sqrt(width / 2.0) * (2.0 * np.pi) ** -0.5
            * np.linalg.det(sig) ** -0.25)
    return law


def _closed_form_source(op: FioOperator, window, lattice, grid):
    """The row source of op's closed-form Gabor matrix, or None.

    On a gaussian window, the operator of a matrix without a multiplier
    takes _covariant_source, and a multiplier on the identity matrix
    takes _multiplier_source, with its windowed sums on grid's doubled
    grid. None for every other operator or window, which take the
    quadrature: a multiplier after any other matrix, a bare phase, a
    Hermite window. A source fills the rows of gmatrix.assemble's run of
    whole lattice times in place: fill(times, rows), with times a slice
    of lattice.times and rows the entries of the lambdas at those times.
    """
    if op._matrix is None or window.kind != "gaussian":
        return None
    if op.multiplier is None:
        return _covariant_source(op._matrix, window.width, lattice)
    if op._matrix == IDENTITY:
        return _multiplier_source(op.multiplier[0], window.width, lattice,
                                  grid.doubled())
    return None


def _multiplier_source(phi, width: float, lattice, grid):
    """Row source of <m g_lambda, g_mu> for m = exp(2 pi i phi).

    g is the gaussian(width) window, lambda = (x, w) and mu = (x', w')
    run over lattice.points, and the sum is the Riemann sum on grid. As
    g(t - x) g(t - x') = exp(-pi (x - x')^2 / (2 width)) h(t - c) with
    c = (x + x') / 2 and h = gaussian(width / 2) (Groechenig 2001,
    ch. 14),
    <m g_lambda, g_mu> = exp(-pi (x - x')^2 / (2 width)) S(c, w' - w),
    with S(c, v) = dx sum_t m(t) h(t - c) exp(-2 pi i v t), the STFT of
    m under h. S is one table of gabor._windowed_sums over the 2 n_x - 1
    half-lattice times c and the 2 n_w - 1 frequency differences: N
    (2 n_x - 1) (2 n_w - 1) work, where the quadrature pushes every atom
    through the operator. The row of lambda = (x_i, w_j) is then the
    time factors of x_i times the window S[i + i', n_w - 1 - j + j'] of
    the table, a strided view of it.

    The table and time factors are built with the source. Each entry is
    one product, so the rows do not depend on the run. The time factor's
    exponent is raised to a floor where exp stays normal, and real and
    imaginary parts below ENVELOPE_FLUSH times the table's peak, which
    bounds every entry, are set to 0 (gabor._flush).
    """
    xs, ws = lattice.times, lattice.freqs
    n_x, n_w = len(xs), len(ws)
    half_steps = np.arange(1 - n_x, n_x) * (0.5 * lattice.alpha)
    offsets = np.arange(1 - n_w, n_w) * lattice.beta
    table = _windowed_sums(np.exp(2j * np.pi * phi(grid.times())),
                           _shifted(gaussian(0.5 * width), grid, half_steps),
                           grid, _waves(offsets, grid))
    peak = np.max(np.abs(table))
    by_time = -np.pi / (2.0 * width) * (xs[:, None] - xs) ** 2
    np.maximum(by_time, _FLUSHED_EXPONENT, out=by_time)
    np.exp(by_time, out=by_time)
    # windows[i, j] = table[i:i + n_x, n_w - 1 - j:2 n_w - 1 - j].
    windows = np.lib.stride_tricks.sliding_window_view(
        table, (n_x, n_w))[:, ::-1]

    def fill(times: slice, rows: np.ndarray) -> None:
        np.multiply(windows[times], by_time[times, None, :, None],
                    out=rows.reshape(-1, n_w, n_x, n_w))
        _flush(rows, peak)

    return fill


def _covariant_source(mat: SymplecticMatrix, width: float, lattice):
    """Row source of the closed-form complex <T g_lambda, g_mu>.

    T is the operator of A = mat without a multiplier, g the
    gaussian(width) window and g_lambda(t) = g(t - x) exp(2 pi i w t) for
    lambda = (x, w); lambda and mu run over lattice.points, and each row
    is computed on its own, so the rows do not depend on the run. By the
    covariance T rho(lambda) = rho(A lambda) T, with
    rho(x, w) = exp(-pi i x w) M_w T_x (Folland 1989, ch. 4), and with
    (x', w') = A lambda,
    <T g_lambda, g_mu> = exp(pi i (x w - x' w')) exp(2 pi i (w' - w_mu) x')
    V_g(T g)(mu - A lambda).
    T g is a constant times exp(-pi beta t^2), beta = -i tau' for the
    window's tau = i / width moved by the Moebius map
    tau' = (c + d tau) / (a + b tau). With gamma = 1 / width and
    p = beta + gamma, V_g(T g)(z) is its value at z = 0 times exp Q(z),
    Q(z) = q_xx z_x^2 + q_xw z_x z_w + q_ww z_w^2
    = -pi (gamma beta z_x^2 + 2 i gamma z_x z_w + z_w^2) / p.

    Only the phase is expanded. The real part of Q, which alone sets the
    modulus, stays a quadratic in z = mu - A lambda: expanded in
    (lambda, mu), its terms reach hundreds of either sign and cancel, so
    their exps would overflow where the entry is merely small. The
    phase's factors all have modulus 1, and a rounding of the phase
    moves an entry relative to its own modulus. On the product lattice
    mu = (x_i, w_j) the phase is a term of (lambda, x_i), a term of
    (lambda, w_j) and kappa x_i w_j with kappa = Im q_xw, so an entry is
    one real exp times the unit factors of the two terms and of a table
    exp(i kappa x_i w_j) that every lambda shares, built with the
    source: complex exps per (lambda, x_i), per (lambda, w_j) and per
    mu, where the unexpanded form spent one, 20-30 real exps' worth, per
    entry. The expanded terms reach some 450 rad on the truncation-12
    lattice; they move the entries by at most 2e-13 of the peak, the
    modulus by 5e-16.

    Real and imaginary parts below gabor.ENVELOPE_FLUSH times the
    entries' peak are set to 0 (gabor._flush), as subnormal operands
    slow the BLAS products the matrix enters. Exponents of entries that
    are flushed whole are first raised to a floor where exp and the
    products stay normal floats, which is also exp's fast path. A fill
    holds a float exponent and the flush's masks of its run.
    """
    (a, b), (c, d) = mat.entries
    gam = 1.0 / width
    beta = complex(d * gam, -c) / complex(a, b * gam)
    p = beta + gam
    # The value at z = 0, |a|^(-1/2) sqrt(width / (width + i b / a))
    # p^(-1/2), whose modulus is the entries' peak. Principal branches:
    # |a| + i sgn(a) b / width and p have positive real parts.
    scale = (complex(abs(a), math.copysign(1.0, a) * b * gam) * p) ** -0.5
    q_xx = -np.pi * gam * beta / p
    q_xw = -2j * np.pi * gam / p
    q_ww = -np.pi / p
    kappa = q_xw.imag
    pts, xs, ws = lattice.points, lattice.times, lattice.freqs
    n_w = len(ws)
    table = np.exp(1j * kappa * xs[:, None] * ws)

    def fill(times: slice, rows: np.ndarray) -> None:
        lam = pts[times.start * n_w:times.stop * n_w]
        # Lattice lists every w for each x in turn: a row is (n_x, n_w).
        rows = rows.reshape(len(lam), len(xs), n_w)
        x, w = lam[:, 0, None], lam[:, 1, None]
        x_out, w_out = a * x + b * w, c * x + d * w
        zx, zw = xs - x_out, ws - w_out
        # Re Q(z) = (Re q_xx z_x + Re q_xw z_w) z_x + Re q_ww z_w^2.
        env = np.add((q_xx.real * zx)[:, :, None],
                     (q_xw.real * zw)[:, None, :])
        env *= zx[:, :, None]
        env += (q_ww.real * (zw * zw))[:, None, :]
        # exp of the floor is ENVELOPE_FLUSH / e: under the flush, and
        # some 30 decades above the subnormal range, so exp and the
        # products that follow stay off subnormal values.
        np.maximum(env, _FLUSHED_EXPONENT, out=env)
        np.exp(env, out=env)
        # The phase, pi (x w - x' w') - 2 pi z_w x' + Im Q(z), with
        # z_x z_w = x_i w_j - x_i w' - x' w_j + x' w' expanded.
        by_time = np.exp(1j * (q_xx.imag * (zx * zx) - kappa * w_out * xs
                               + (np.pi * x * w
                                  + (np.pi + kappa) * x_out * w_out)))
        by_time *= scale
        by_freq = np.exp(1j * (q_ww.imag * (zw * zw)
                               - (kappa + 2.0 * np.pi) * x_out * ws))
        np.multiply(by_time[:, :, None], table, out=rows)
        rows *= by_freq[:, None, :]
        rows *= env
        _flush(rows, abs(scale))

    return fill
