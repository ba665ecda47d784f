"""Windows, lattices, Gabor frames, STFT, and the decay classifier.

A frame is a window plus a truncated separable lattice alpha*Z x beta*Z on a
fixed grid. Frame bounds are Rayleigh-quotient extremes over the span of the
central atoms (|lambda_i| <= truncation/2): eigenvalues of the full frame
operator on the grid are polluted by lattice-edge effects, while on the
central span the truncation error is negligible.

Every frame computation comes from one factorization of the lattice's
time-frequency shifts, and no N x |L| atom matrix is built. The factors
are the shifts source(t - x), one column per distinct time x (_shifted:
a Window's closed form, or a spectral shift of samples), and the waves
exp(-2 pi i w t), one column per distinct frequency w (_waves). Each
wave's phase is reduced to a fraction of a cycle exactly
(_fractional_cycles), so large w t leave no phase noise. Two kernels
take every sum over the product grid of (x, w), N n_x n_w work and
O(N (n_x + n_w)) memory each:
- _windowed_sums, the analysis dx sum_t v(t) shift(t - x) exp(-2 pi i
  w t), one (n_x x N) @ (N x n_w) product. It serves stft,
  GaborFrame.analysis and dual_analysis, frame_bounds' Gram matrix,
  the inversion formula and metaplectic's multiplier source;
- _synthesis, the expansion sum_{x,w} c(x, w) shift(t - x) exp(2 pi i
  w t), one (N x n_w) @ (n_w x n_x) product and a weighted row sum. It
  serves GaborFrame.dual_synthesis (so sparse_apply) and the inversion
  formula.
gmatrix's quadrature source pushes products of the same factors through
an operator, a run of lattice times at a time, and pairs them with the
outputs over the rows each window reaches only (_atom_rows).

Both dual windows solve one real system, the Wexler-Raz identities at
every adjoint point the grid resolves (_wexler_raz_system). dual_window
returns the canonical dual gamma = S^-1 g, the solution of least L^2
norm (_canonical_dual), solved on a doubled grid and restricted to the
frame's grid. It is a combination of adjoint atoms (Janssen), found from
their Gram matrix with one LU solve: that matrix is well conditioned
exactly when the window spans a frame (Ron & Shen), 7.7 on the reference
frame. The Walnut check applies the full lattice's frame operator to
gamma (_walnut_frame_operator) and reports ||S gamma - g|| / ||g||.
gamma decays only exponentially in time (gamma(8) ~ 2.5e-5 on the
reference frame), so an expansion sum <f, gamma_lambda> g_lambda over
the truncated lattice drops coefficients that are not negligible. The
frame's expansions (dual_atoms, dual_analysis, dual_synthesis) therefore
use the solution of least ||exp(c t^2) h||, c = EXPANSION_DUAL_WEIGHT
(_wexler_raz_dual), which has Gaussian decay in time and the window's
localization in frequency. Its weighted system's condition number is
near 1e24, so it is solved by an SVD with a cut-off.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import hermite as _hermite

from .errors import NotAFrameError
from .fitting import ShellFit, shell_decay_fit
from .signals import _SPLIT, Grid, SampledSignal, inner_product

__all__ = [
    "Window",
    "gaussian",
    "hermite",
    "Lattice",
    "make_lattice",
    "GaborFrame",
    "stft",
    "frame_bounds",
    "dual_window",
    "gs_decay_classify",
    "moment_constant_conversion",
    "moment_epsilon_bound",
    "inversion_formula_reconstruct",
]

WINDOW_KINDS = ("gaussian", "hermite")

# Frame bounds need edge atoms to be represented accurately on the grid:
# a frame's grid must extend past the lattice truncation by this margin
# (time and frequency units).
GRID_MARGIN = 5.0

# Highest Hermite window order. hermite(k, a) is unnormalized, with
# ||g||^2 = sqrt(a/2) 2^k k!, and frame_bounds' Gram product grows like
# |L| ||g||^4: on the reference frame (|L| = 529, a = 2) that is 1e311,
# past the float range, at k = 85. At k = 64 it is 1e219, 89 decades
# short of it. Orders past 20 are no frame on that lattice.
MAX_HERMITE_ORDER = 64

# Lower frame bound below this is reported as "not a frame".
FRAME_FLOOR = 1e-8

# Expansion dual: the weight exp(c t^2) whose norm it minimizes. c = 1/4
# makes h = exp(-t^2/2) times a combination of adjoint atoms. On the
# reference frame dual analysis then reconstructs centred Gaussians of
# widths 1-3 to 2e-10; c = 1/8 leaves 5e-8, and c = 1/2 loses the
# frame with steps (0.8, 0.9) to 1e-5.
EXPANSION_DUAL_WEIGHT = 0.25

# Relative miss of dual_synthesis(analysis(g_0)) that marks no frame:
# frames in use miss by 1e-15 to 5e-7, odd windows at alpha*beta =
# (n-1)/n, which are no frames, by 0.75 and more.
RECONSTRUCTION_CEILING = 1e-3

# Phase-space grid of inversion_formula_reconstruct. Step 0.125 over a box
# of radius 10 reproduces centered Gaussians to machine precision; step
# 0.25 already misses the 1e-6 target.
INVERSION_STEP = 0.125
INVERSION_EXTENT = 10.0

# Window envelope values below this are flushed to 0. Subnormal operands
# slow every BLAS product they enter: 1.7% of the reference frame's atom
# parts were subnormal, and assemble's Gram product ran 8x slower for it
# (0.196 s against 0.023 s). The margin over the smallest normal float
# keeps the products with the atoms' unit-modulus waves normal too (their
# smallest nonzero part on the shipped grids is 7e-5). What is dropped
# lies some 260 decades below any entry that is read, so the Gram product
# stays bitwise equal. The closed-form Gabor matrices (metaplectic's
# covariant and multiplier sources) and dual analysis set the parts
# below this fraction of their peak to 0 (_flush) for the same reason:
# unflushed, the covariant form on the 1089-point lattice of N = 2048,
# truncation 12 held 20,728 to 33,256 subnormal parts (harmonic 1.0,
# chirp 0.7, dilation 1.5, identity), and sparse_apply's dense product
# took 0.85-1.52 ms instead of 0.53-0.58.
ENVELOPE_FLUSH = np.finfo(float).tiny / np.finfo(float).eps ** 2

# Window.evaluate raises exponents below this to it. Their envelopes are
# under ENVELOPE_FLUSH / e, so they are flushed to 0 either way, and
# np.exp takes a slow path on results that underflow: on the Walnut
# check's arguments, where 1 in 20 underflow, it took 7x longer.
_FLUSHED_EXPONENT = math.log(ENVELOPE_FLUSH) - 1.0

# gmatrix's quadrature pairs the atoms shifted to x with the operator's
# outputs only over the grid rows where |g(t - x)| is at least this
# fraction of the window's peak (_atom_rows). A dropped term of
# <T g_lambda, g_mu> is bounded by ATOM_SUPPORT * max|g| * |T g_lambda|,
# so all of them together lie some 30 decades under the peak entry, far
# below the last bit of any entry a fit or bound check reads. On the
# reference frame a product runs over at most 434 of the doubled grid's
# 2048 rows. The canonical dual's Gram solve (_canonical_dual) sets the
# parts of its system under this fraction of their peak to 0.
ATOM_SUPPORT = np.finfo(float).eps ** 2

# The Walnut check (_walnut_frame_operator) walks the grid this many rows
# at a time. At N 2048, L 20, steps 0.25 it traced 3.4 MiB in blocks and
# 39.5 MiB in one block over the doubled grid.
WALNUT_ROWS = 256


@dataclass(frozen=True)
class Window:
    """Closed-form window: gaussian(a) or hermite(k, a), unnormalized.

    gaussian(a) evaluates exp(-(pi/a) x^2); hermite(k, a) multiplies that
    by the degree-k Hermite polynomial in sqrt(2 pi / a) x. Both families
    have Gaussian decay in time and frequency.
    """

    kind: str
    width: float
    order: int = 0

    def __post_init__(self):
        if self.kind not in WINDOW_KINDS:
            raise ValueError(f"unknown window kind {self.kind!r}")
        if not (self.width > 0 and math.isfinite(self.width)):
            raise ValueError(f"window width must be positive, got {self.width}")
        if self.order < 0 or (self.kind == "gaussian" and self.order != 0):
            raise ValueError(f"bad window order {self.order}")
        if self.order > MAX_HERMITE_ORDER:
            raise ValueError(f"hermite order {self.order} exceeds the "
                             f"bound {MAX_HERMITE_ORDER}")

    def evaluate(self, x):
        """Window values at x; envelope values below ENVELOPE_FLUSH are 0."""
        x = np.asarray(x, dtype=float)
        exponent = -(np.pi / self.width) * x * x
        np.maximum(exponent, _FLUSHED_EXPONENT, out=exponent)
        envelope = np.exp(exponent)
        envelope = envelope * (envelope >= ENVELOPE_FLUSH)
        if self.kind == "gaussian":
            return envelope
        coef = np.zeros(self.order + 1)
        coef[self.order] = 1.0
        poly = _hermite.hermval(np.sqrt(2.0 * np.pi / self.width) * x, coef)
        return poly * envelope

    def sampled(self, grid: Grid) -> SampledSignal:
        return SampledSignal(grid, self.evaluate(grid.times()))


def gaussian(width: float) -> Window:
    return Window("gaussian", width)


def hermite(order: int, width: float) -> Window:
    if order < 1:
        raise ValueError("hermite order must be >= 1")
    return Window("hermite", width, order)


def _steps_within(radius: float, step: float) -> int:
    """Multiples of step in (0, radius], with slack for rounding."""
    return math.floor(radius / step + 1e-9)


@dataclass(frozen=True)
class Lattice:
    """Separable lattice alpha*Z x beta*Z truncated to a centered box.

    points is a read-only (|L|, 2) array of the points (i alpha, j beta),
    ordered lexicographically so every downstream artifact is
    deterministic: every frequency for each time in turn. times and freqs
    are the read-only axes, the i alpha and the j beta ascending.
    Equality and hashing read the four fields only.
    """

    alpha: float
    beta: float
    time_range: float
    freq_range: float
    times: np.ndarray = field(init=False, repr=False, compare=False)
    freqs: np.ndarray = field(init=False, repr=False, compare=False)
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("lattice steps must be positive")
        if not (self.time_range >= 0 and self.freq_range >= 0):
            raise ValueError("truncation radii must be nonnegative")
        k1 = _steps_within(self.time_range, self.alpha)
        k2 = _steps_within(self.freq_range, self.beta)
        xs = np.arange(-k1, k1 + 1) * self.alpha
        ws = np.arange(-k2, k2 + 1) * self.beta
        pts = np.column_stack([np.repeat(xs, ws.size), np.tile(ws, xs.size)])
        for name, arr in (("times", xs), ("freqs", ws), ("points", pts)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def redundancy(self) -> float:
        """Density parameter alpha*beta; frames need it <= 1."""
        return self.alpha * self.beta

    def __len__(self):
        return len(self.points)


def make_lattice(alpha: float, beta: float, truncation: float) -> Lattice:
    return Lattice(alpha, beta, truncation, truncation)


def _shifted(source, grid: Grid, xs) -> np.ndarray:
    """source(t - x) on grid's times, one column per x in xs.

    source is a Window, evaluated at the shifted times, or samples on
    grid, shifted by a periodic spectral shift (exact for grid functions
    whose boundary values vanish), which is complex.
    """
    t, xs = grid.times(), np.asarray(xs, dtype=float)
    if isinstance(source, Window):
        return source.evaluate(t[:, None] - xs)
    spec = np.fft.fft(np.fft.ifftshift(source))
    freqs = np.fft.fftfreq(grid.points_per_axis, d=grid.spacing)
    return np.fft.fftshift(np.fft.ifft(
        spec[:, None] * np.exp(-2j * np.pi * freqs[:, None] * xs), axis=0),
        axes=0)


def _distinct_axes(points) -> tuple:
    """(xs, column_x, ws, column_w): the distinct times and frequencies.

    Point i is (xs[column_x[i]], ws[column_w[i]]); ValueError unless
    every coordinate is finite.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if not np.all(np.isfinite(pts)):
        raise ValueError("shifts must be finite")
    xs, column_x = np.unique(pts[:, 0], return_inverse=True)
    ws, column_w = np.unique(pts[:, 1], return_inverse=True)
    return xs, column_x, ws, column_w


def _waves(ws, grid: Grid) -> np.ndarray:
    """exp(-2 pi i w t) on grid's times, one column per w.

    The phase w t is first reduced to a fraction of a cycle exactly
    (_fractional_cycles); cos and sin of it are the parts.
    """
    turns = _fractional_cycles(ws, grid.times()[:, None])
    turns *= -2.0 * np.pi
    waves = np.empty(turns.shape, dtype=complex)
    np.cos(turns, out=waves.real)
    np.sin(turns, out=waves.imag)
    return waves


def _windowed_sums(values, shifted, grid: Grid, waves) -> np.ndarray:
    """dx sum_t values(t) shifted(t, k) exp(-2 pi i w_j t), an (n_x, n_w)
    table over the columns k of shifted = _shifted(source, grid, xs) and
    the w_j of waves = _waves(ws, grid).

    For a real window this is the STFT of values on the product grid of
    (xs, ws); in Lattice's order, its ravel is the analysis of values on
    that lattice. One (n_x, N) @ (N, n_w) product of the shifts times the
    values and the waves: N n_x n_w work, O(N (n_x + n_w)) memory, and no
    atom per (x, w).
    """
    shifted = shifted * np.asarray(values)[:, None]
    return grid.spacing * (shifted.T @ waves)


def _synthesis(coeffs, shifted, waves) -> np.ndarray:
    """sum_{k,j} coeffs[k, j] shifted(t, k) exp(2 pi i w_j t) on the grid.

    The expansion over the atoms of _windowed_sums' factors, for real
    shifts (a window's, or GaborFrame.dual_atoms), with coeffs an
    (n_x, n_w) table or its ravel (Lattice's order). One (N, n_w) @
    (n_w, n_x) product and a weighted sum over x, taken conjugated so
    that the waves are not copied: N n_x n_w work, O(N n_x) memory.
    """
    table = np.reshape(coeffs, (shifted.shape[1], waves.shape[1]))
    out = waves @ table.conj().T
    out *= shifted
    return np.sum(out, axis=1).conj()


def _fractional_cycles(a, b) -> np.ndarray:
    """a b less its nearest integer, to the rounding of that difference.

    Dekker's product of Veltkamp halves gives a b as the rounded product
    p plus its exact error, and p less its nearest integer is exact. A
    rounded a b loses |a b| eps cycles instead: at the 512 cycles of
    frequency 16 at time 32 that is 3.6e-13 rad, and in a windowed sum
    that should cancel it left 1.4e-14 of the peak.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    c = a * _SPLIT
    a_h = c - (c - a)
    c = b * _SPLIT
    b_h = c - (c - b)
    a_l, b_l = a - a_h, b - b_h
    p = a * b
    err = a_h * b_h
    err -= p
    term = a_h * b_l
    err += term
    np.multiply(a_l, b_h, out=term)
    err += term
    np.multiply(a_l, b_l, out=term)
    err += term
    p -= np.rint(p, out=term)
    p += err
    return p


def _atom_rows(shifted: np.ndarray) -> np.ndarray:
    """Rows [lo, hi) where |shifted| >= ATOM_SUPPORT * its peak, by column.

    shifted is _shifted's window(t - x), one column per x; peak is
    its largest magnitude over all of them. A range runs from the first
    to the last row at or above the cutoff, so a Hermite window's zeros
    stay inside it.
    """
    mags = np.abs(shifted)
    inside = mags >= ATOM_SUPPORT * mags.max()
    lo = np.argmax(inside, axis=0)
    hi = len(inside) - np.argmax(inside[::-1], axis=0)
    return np.column_stack([lo, hi])


def _flush(values, peak, fraction=ENVELOPE_FLUSH) -> None:
    """Set the real and imaginary parts of values under fraction times
    peak to 0, in place: subnormal operands slow the BLAS products they
    enter. values is a real or complex array with contiguous rows."""
    parts = values.view(float)
    cutoff = fraction * peak
    parts[(parts < cutoff) & (parts > -cutoff)] = 0.0


def stft(f: SampledSignal, window: Window, eval_points) -> np.ndarray:
    """V f(x, w) = <f, window shifted to (x, w)> at each requested point.

    The table of _windowed_sums over the points' distinct times and
    frequencies, gathered at the points: N n_x n_w work, which is
    N |points| for a product grid of points or a single point. No atom
    per point is built.
    """
    xs, column_x, ws, column_w = _distinct_axes(eval_points)
    table = _windowed_sums(f.values, _shifted(window, f.grid, xs), f.grid,
                           _waves(ws, f.grid))
    return table[column_x, column_w]


@dataclass(eq=False)
class GaborFrame:
    """A window and truncated lattice on a grid, with their caches.

    The write-once caches are cached properties: the factors (_factors),
    the frame bounds (_bounds), the canonical dual with its residuals
    (_dual) and the expansion dual's atoms (_dual_atoms). One more,
    replaced by each new signal, holds the last signal dual_analysis
    analysed and its coefficients (_last_dual_analysis), so the
    thresholds applied to one signal share its analysis. Its expansions
    hold the factors of its atoms only: N x (n_x + n_w) values, not an
    N x |L| atom matrix.
    """

    window: Window
    lattice: Lattice
    grid: Grid

    def __post_init__(self):
        # Density theorem; frame_bounds can still find healthy bounds.
        if self.lattice.redundancy > 1.0 + 1e-9:
            raise NotAFrameError(f"no frame: alpha*beta = "
                                 f"{self.lattice.redundancy:g} > 1")
        grid, lat = self.grid, self.lattice
        if (grid.half_width < lat.time_range + GRID_MARGIN
                or grid.freq_half_width < lat.freq_range + GRID_MARGIN):
            raise ValueError(
                "grid too small for this lattice truncation: need margin "
                f"{GRID_MARGIN} beyond ({lat.time_range}, {lat.freq_range})")

    @functools.cached_property
    def _factors(self) -> tuple:
        """(window shifts, waves) at the lattice's times and frequencies."""
        return (_shifted(self.window, self.grid, self.lattice.times),
                _waves(self.lattice.freqs, self.grid))

    def analysis(self, f: SampledSignal) -> np.ndarray:
        """Coefficients <f, g_lambda> for all lattice points."""
        if f.grid != self.grid:
            raise ValueError("grid mismatch")
        shifts, waves = self._factors
        return _windowed_sums(f.values, shifts, self.grid, waves).ravel()

    def dual_atoms(self) -> np.ndarray:
        """The expansion dual h shifted to each lattice time, N x n_x.

        h is the time-localized dual (_wexler_raz_dual at weight
        EXPANSION_DUAL_WEIGHT), not the canonical dual_window. Column k is
        h(t - x_k), a spectral shift of its samples; h is real, so the
        shift's imaginary parts, rounding (2.6e-16 of the peak on the
        reference frame), are dropped. The column of time 0 is h itself.
        Built once, read-only, after the frame-bounds check.
        NotAFrameError unless dual_synthesis(analysis(g_0)) returns the
        central atom g_0: the Rayleigh quotients of frame_bounds miss
        some non-frames.
        """
        return self._dual_atoms

    @functools.cached_property
    def _dual_atoms(self) -> np.ndarray:
        frame_bounds(self)
        h, _ = _wexler_raz_dual(self.window, self.lattice, self.grid,
                                EXPANSION_DUAL_WEIGHT)
        shifts = np.ascontiguousarray(
            _shifted(h, self.grid, self.lattice.times).real)
        g0 = self.window.sampled(self.grid)
        rec = _synthesis(self.analysis(g0), shifts, self._factors[1])
        miss = np.linalg.norm(rec - g0.values) / np.linalg.norm(g0.values)
        if miss > RECONSTRUCTION_CEILING:
            raise NotAFrameError(
                f"no frame for this window: dual expansion misses the "
                f"central atom by {miss:.3e} (relative)")
        shifts.flags.writeable = False
        return shifts

    def dual_analysis(self, f: SampledSignal) -> np.ndarray:
        """Coefficients <f, h_lambda> on the expansion dual's atoms.

        Real and imaginary parts of f below ENVELOPE_FLUSH times its peak
        are set to 0 first, as Window.evaluate does for envelopes. The
        subnormal tails of a width-1 packet (25-50 parts on the reference
        grid) made this product about 3x slower. What is dropped lies
        some 276 decades under the peak, and the coefficients of the
        packets measured stayed bitwise equal. The cutoff is relative, so
        a small f keeps its values.

        The coefficients are read-only. The frame keeps the last f with
        them, and a call with that same object returns them without an
        analysis: sparse_apply at several thresholds analyses its signal
        once. A SampledSignal's values are a read-only copy, and the
        frame holds f, so no other signal can pass for it. Any other
        signal, equal values or not, is analysed afresh. The pair is one
        tuple, read and replaced whole, so threads sharing a frame at
        worst analyse a signal again.
        """
        last = vars(self).get("_last_dual_analysis")
        if last is not None and last[0] is f:
            return last[1]
        if f.grid != self.grid:
            raise ValueError("grid mismatch")
        values = f.values.copy()
        _flush(values, np.abs(values).max())
        coeffs = _windowed_sums(values, self.dual_atoms(), self.grid,
                                self._factors[1]).ravel()
        coeffs.flags.writeable = False
        self._last_dual_analysis = f, coeffs
        return coeffs

    def dual_synthesis(self, coeffs) -> SampledSignal:
        """sum_lambda coeffs[lambda] h_lambda, in Lattice's order."""
        return SampledSignal(self.grid, _synthesis(
            coeffs, self.dual_atoms(), self._factors[1]))

    @property
    def dual_residuals(self) -> tuple:
        """(Wexler-Raz relative residual, frame-equation relative residual).

        Available after dual_window has run, both on the doubled grid.
        The first is the relative miss of the Wexler-Raz identities whose
        Gram matrix gamma is solved from (_canonical_dual); the second,
        the Walnut check, is ||S gamma - g|| / ||g|| with S the frame
        operator of the full lattice alpha*Z x beta*Z in Walnut form
        (_walnut_frame_operator). On the reference frame they read
        3.9e-16 and 1.4e-15.
        """
        if "_dual" not in vars(self):
            raise ValueError("dual window has not been computed yet")
        return self._dual[1]

    @functools.cached_property
    def _bounds(self) -> tuple:
        y, central = _central_gram(self)
        ev, vec = np.linalg.eigh(y[central])
        keep = ev > 1e-10 * ev[-1]
        z = y @ (vec[:, keep] / np.sqrt(ev[keep]))  # Y over the whitened basis
        quot = np.linalg.eigvalsh(z.conj().T @ z)
        a, b = float(quot[0]), float(quot[-1])
        if a <= FRAME_FLOOR:
            raise NotAFrameError(
                f"not a frame at this truncation: lower bound {a:.3e}")
        return a, b

    @functools.cached_property
    def _dual(self) -> tuple:
        """(dual_window's gamma, dual_residuals' pair).

        gamma is _canonical_dual's on the doubled grid: one Gram matrix
        of the adjoint atoms and one LU solve, no SVD. The Walnut check
        then applies the full lattice's frame operator to it, a block of
        the grid's rows at a time. On the reference frame the two take
        about 14 and 15 ms warm.
        """
        frame_bounds(self)
        grid, lat, window = self.grid, self.lattice, self.window
        ext = grid.doubled()
        x, wr_residual = _canonical_dual(window, lat, ext)
        g_vals = window.evaluate(ext.times())
        s_x = _walnut_frame_operator(window, lat, ext, x)
        frame_residual = float(np.linalg.norm(s_x - g_vals)
                               / np.linalg.norm(g_vals))
        n = grid.points_per_axis
        dual = SampledSignal(grid, x[n // 2: n // 2 + n].astype(complex))
        return dual, (wr_residual, frame_residual)


def frame_bounds(frame: GaborFrame) -> tuple:
    """Extreme Rayleigh quotients of the frame operator on the central span.

    The test space is span{g_lambda : |lambda_i| <= truncation/2}; with
    C the central atoms and G all atoms, the quotient pencil is Y^H Y
    against Y's central rows, dx C^H C, for the Gram matrix
    Y = dx G^H C (_central_gram), reduced by an eigenvalue cutoff on the
    latter: the quotients are the eigenvalues of Z^H Z, with Z = Y B and
    B the kept eigenvectors of dx C^H C scaled to unit quotient. The
    cutoff amplifies rounding-level changes of the Gram matrix: merely
    rounding the atoms' waves differently moved A by up to 4.6e-8
    relative (1,089 points, N 512), so A and B carry about 7 digits.
    Computed once per frame (GaborFrame._bounds).
    """
    return frame._bounds


def _central_gram(frame: GaborFrame) -> tuple:
    """(Y, central): the Gram matrix Y = dx G^H C and C's rows of it.

    G holds the atoms g_lambda of every lattice point, C those of the
    central points (|x| <= time_range / 2, |w| <= freq_range / 2), both
    in Lattice's order. For the real window g, the central atom
    g(t - x_k) exp(2 pi i w_l t) pairs with g_lambda, lambda = (x_i, w_j),
    as dx sum_t g(t - x_k) g(t - x_i) exp(-2 pi i (w_j - w_l) t). So one
    _windowed_sums table per central time x_k, of g(t - x_k) over every
    lattice time and the 2 n_w - 1 frequency offsets (j - l) beta, holds
    the columns of its central atoms: column l is table[i, n_w - 1 - l + j]
    over (i, j). No atom is built.
    """
    grid, lat, shifts = frame.grid, frame.lattice, frame._factors[0]
    n_x, n_w = len(lat.times), len(lat.freqs)
    times = np.flatnonzero(np.abs(lat.times) <= lat.time_range / 2 + 1e-9)
    freqs = np.flatnonzero(np.abs(lat.freqs) <= lat.freq_range / 2 + 1e-9)
    offsets = _waves(np.arange(1 - n_w, n_w) * lat.beta, grid)
    # The offset of (j, l) is j - l, column n_w - 1 - l + j of a table.
    gather = np.arange(n_w)[:, None] + (n_w - 1 - freqs)
    y = np.empty((n_x, n_w, times.size, freqs.size), dtype=complex)
    for a, k in enumerate(times):
        y[:, :, a] = _windowed_sums(shifts[:, k], shifts, grid,
                                    offsets)[:, gather]
    central = (times[:, None] * n_w + freqs).ravel()
    return y.reshape(n_x * n_w, -1), central


def dual_window(frame: GaborFrame) -> SampledSignal:
    """Canonical dual window gamma = S^-1 g on the frame's grid.

    gamma is the Wexler-Raz dual of least L^2 norm, a combination of
    adjoint atoms solved from their Gram matrix (_canonical_dual) on the
    doubled grid and restricted, so that it is free of edge effects.
    Its residuals, the Wexler-Raz miss and the Walnut check, are
    frame.dual_residuals.
    """
    return frame._dual[0]


def _walnut_frame_operator(window: Window, lattice: Lattice, grid: Grid,
                           values) -> np.ndarray:
    """Frame operator of the full lattice alpha*Z x beta*Z applied to values.

    Walnut form, for a real window: S x(t) = (1/beta) sum_k G_k(t)
    x(t - k/beta) with G_k(t) = sum_n g(t - n alpha) g(t - n alpha - k/beta).
    x is shifted spectrally; n runs over every shift the grid holds, and
    k/beta over those within twice the window's reach: the last grid
    time |t| where |g| >= ATOM_SUPPORT times its peak (_atom_rows), plus
    a grid step, past which the tails of both window families decrease.
    One factor of each product a farther shift would add lies past the
    reach, so the product is under ATOM_SUPPORT peak^2.

    The grid is walked WALNUT_ROWS rows at a time, and each row's shifted
    windows are evaluated only where g(t - n alpha) is nonzero. Those
    products fill rows that are zero elsewhere and hold every n, so each
    sum over n adds what the sum over the whole table of n adds, bit for
    bit. A block holds O(WALNUT_ROWS n) values, not O(N n).
    """
    alpha, beta = lattice.alpha, lattice.beta
    t = grid.times()
    lo, hi = _atom_rows(window.evaluate(t)[:, None])[0]
    reach = max(-t[lo], t[hi - 1]) + grid.spacing
    k_n = _steps_within(grid.half_width, alpha)
    k_s = _steps_within(min(grid.half_width, 2.0 * reach), 1.0 / beta)
    offsets = alpha * np.arange(-k_n, k_n + 1)
    shifts = np.arange(-k_s, k_s + 1) / beta
    shifted = _shifted(values, grid, shifts)
    out = np.zeros(len(t), dtype=shifted.dtype)
    for start in range(0, len(t), WALNUT_ROWS):
        rows = slice(start, start + WALNUT_ROWS)
        window_times = t[rows, None] - offsets
        windows = window.evaluate(window_times)
        inside = windows != 0
        times, weights = window_times[inside], windows[inside]
        products = np.zeros(windows.shape)
        for shift, x_k in zip(shifts, shifted[rows].T):
            products[inside] = weights * window.evaluate(times - shift)
            out[rows] += np.sum(products, axis=1) * x_k
    return out / beta


def _wexler_raz_system(window: Window, lattice: Lattice, grid: Grid
                       ) -> tuple:
    """(A, b, t): the Wexler-Raz identities as a real system A h = b.

    Wexler-Raz: h is dual to g on alpha*Z x beta*Z when
    <h, M_{l/alpha} T_{k/beta} g> = alpha*beta delta_k delta_l. The
    identities are imposed at every adjoint point the grid resolves,
    |k/beta| <= L/2 and |l/alpha| <= N/(2L); past those they hold to the
    window's tails.

    Windows are real with parity (-1)^order, and so is every dual solved
    from this system. It therefore acts on h(t) at the grid's times
    t >= 0, with the real parts of the identities for k, l >= 0 and their
    imaginary parts for k, l > 0 (the others are conjugates or copies).
    At the grid's Nyquist frequency N/(2L) the modulation is real on the
    grid, so the imaginary parts of those identities vanish to rounding
    and are left out: kept, they made the canonical dual's Gram matrix
    singular (condition 3e28) at steps 0.5 on N 1024, L 32.
    """
    parity = -1.0 if window.order % 2 else 1.0
    n = grid.points_per_axis
    t = grid.times()[n // 2:]
    shift, mod = 1.0 / lattice.beta, 1.0 / lattice.alpha
    ks = np.arange(_steps_within(grid.half_width, shift) + 1)
    ls = np.arange(_steps_within(grid.freq_half_width, mod) + 1)
    below_nyquist = np.count_nonzero(ls < grid.freq_half_width / mod - 1e-9)
    # Row (k, l) applied to h(t >= 0): each t > 0 stands for t and -t.
    wave = np.exp(-2j * np.pi * mod * ls[:, None] * t)
    rows = grid.spacing * (
        window.evaluate(t - shift * ks[:, None, None]) * wave
        + parity * window.evaluate(-t - shift * ks[:, None, None])
        * wave.conj())
    rows[..., 0] *= 0.5
    mat = np.vstack([rows.real.reshape(-1, t.size),
                     rows.imag[1:, 1:below_nyquist].reshape(-1, t.size)])
    rhs = np.zeros(len(mat))
    rhs[0] = lattice.redundancy
    return mat, rhs, t


def _whole(half, window: Window) -> np.ndarray:
    """h on the whole grid from h(t), t >= 0, by the window's parity.

    The unpaired sample t = -L/2 is set to 0.
    """
    n = 2 * len(half)
    h = np.zeros(n)
    h[n // 2:] = half
    h[1: n // 2] = (-1.0 if window.order % 2 else 1.0) * half[:0:-1]
    return h


def _wexler_raz_dual(window: Window, lattice: Lattice, grid: Grid,
                     weight: float) -> tuple:
    """Dual window h of least ||exp(weight t^2) h||, and its residual.

    Of all solutions h of _wexler_raz_system this returns the samples of
    the one with the least ||exp(c t^2) h||, c = weight, so h is
    exp(-2c t^2) times a combination of adjoint atoms; c = 0 gives the
    canonical dual S^-1 g (Janssen). The residual is the identities'
    relative miss. The weighted system's condition number is near 1e24
    at c = EXPANSION_DUAL_WEIGHT, so it is solved by an SVD with its
    cut-off (np.linalg.lstsq).
    """
    mat, rhs, t = _wexler_raz_system(window, lattice, grid)
    # u = h / decay has the norm of exp(c t^2) h over the whole grid.
    decay = (np.exp(-weight * t * t)
             / np.sqrt(np.where(t > 0, 2.0, 1.0)))
    half = decay * np.linalg.lstsq(mat * decay, rhs, rcond=None)[0]
    residual = float(np.linalg.norm(mat @ half - rhs) / rhs[0])
    return _whole(half, window), residual


def _canonical_dual(window: Window, lattice: Lattice, grid: Grid) -> tuple:
    """The canonical dual S^-1 g on grid, and its Wexler-Raz residual.

    The least-norm solution of _wexler_raz_system's A h = b, through the
    Gram matrix of the adjoint atoms (Janssen): h = W A^T y with
    A W A^T y = b, where W weighs each sample t > 0 by 1/2 (it stands
    for t and -t) and t = 0 by 1. That Gram matrix is well conditioned
    exactly when the window spans a frame (Ron & Shen 1997): condition
    7.7 on the reference frame. It meets _wexler_raz_dual at weight 0
    to 2.2e-15 relative on the frames of the tests, without its SVD.
    scaled @ scaled.T is a symmetric product (BLAS syrk, half a general
    product's work). NotAFrameError when the Gram matrix cannot be
    factored.
    """
    mat, rhs, t = _wexler_raz_system(window, lattice, grid)
    root = 1.0 / np.sqrt(np.where(t > 0, 2.0, 1.0))
    scaled = mat * root
    # Products of the window's far tails underflow, and their subnormal
    # results made the Gram product and the solve about 3x slower (11 and
    # 8 ms on the reference frame, against 3 and 3). Parts under
    # ATOM_SUPPORT of the peak are set to 0: gamma stayed bitwise equal on
    # 9 of the tests' 10 frames, and moved by 5e-46 relative on the tenth.
    _flush(scaled, max(scaled.max(), -scaled.min()), ATOM_SUPPORT)
    try:
        y = np.linalg.solve(scaled @ scaled.T, rhs)
    except np.linalg.LinAlgError as exc:
        raise NotAFrameError(
            "no frame: the canonical dual's adjoint system (the Gram "
            "matrix of the Wexler-Raz identities) is singular") from exc
    half = root * (scaled.T @ y)
    residual = float(np.linalg.norm(mat @ half - rhs) / rhs[0])
    return _whole(half, window), residual


def gs_decay_classify(points, magnitudes, *, floor: float = 1e-14,
                      s_grid=None) -> ShellFit:
    """Classify phase-space decay exp(-eps |z|**(1/s)) from STFT samples.

    points is an (n, 2) array of phase-space locations, magnitudes the
    matching |V f(z)| values. Returns the shell fit over the s grid
    (default 0.40 to 2.00, step 0.05).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    dist = np.hypot(pts[:, 0], pts[:, 1])
    return shell_decay_fit(dist, magnitudes, floor=floor, s_grid=s_grid)


def moment_constant_conversion(epsilon: float, r: float, d: int) -> float:
    """Constant C = (r d / epsilon)**r matching the exponential rate."""
    if epsilon <= 0 or r <= 0 or d < 1:
        raise ValueError("epsilon and r must be positive, d >= 1")
    return (r * d / epsilon) ** r

def moment_epsilon_bound(c: float, r: float, d: int) -> float:
    """Supremum bound r (d C)**(-1/r) on rates admissible for constant C."""
    if c <= 0 or r <= 0 or d < 1:
        raise ValueError("C and r must be positive, d >= 1")
    return r * (d * c) ** (-1.0 / r)


def inversion_formula_reconstruct(f: SampledSignal, window: Window
                                  ) -> SampledSignal:
    """Riemann-sum STFT inversion over a fine phase-space grid.

    rec = step^2 / ||g||^2 * sum_{x,w} V_g f(x,w) g_{x,w}, with step
    INVERSION_STEP over the box of radius INVERSION_EXTENT.
    """
    step, extent = INVERSION_STEP, INVERSION_EXTENT
    xs = ws = np.arange(-extent, extent + 1e-9, step)
    wins, waves = _shifted(window, f.grid, xs), _waves(ws, f.grid)
    rec = _synthesis(_windowed_sums(f.values, wins, f.grid, waves), wins,
                     waves)
    g_sq = inner_product(window.sampled(f.grid), window.sampled(f.grid)).real
    return SampledSignal(f.grid, rec * step * step / g_sq)
