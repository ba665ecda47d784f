"""Windows, lattices, Gabor frames, STFT, and the decay classifier.

A frame is a window plus a truncated separable lattice alpha*Z x beta*Z on a
fixed grid. Frame bounds are Rayleigh-quotient extremes over the span of the
central atoms (|lambda_i| <= truncation/2): eigenvalues of the full frame
operator on the grid are polluted by lattice-edge effects, while on the
central span the truncation error is negligible.

Every time-frequency-shifted window in the package (frame atoms, dual
atoms, tf_shift, stft, and the atoms gmatrix.assemble pushes through an
operator) comes from _atom_matrix.

Both dual windows come from one solver, _wexler_raz_dual: the solution
of the Wexler-Raz identities with the least ||exp(c t^2) h||. dual_window
returns the canonical dual gamma = S^-1 g, which is the one of least L^2
norm (c = 0), solved on a doubled grid and restricted to the frame's
grid. gamma decays only exponentially in time (gamma(8) ~ 2.5e-5 on the
reference frame), so an expansion sum <f, gamma_lambda> g_lambda over
the truncated lattice drops coefficients that are not negligible. The
frame's expansions (dual_atoms, dual_analysis, dual_synthesis) therefore
use c = EXPANSION_DUAL_WEIGHT, which gives a dual with Gaussian decay in
time and the window's localization in frequency.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import hermite as _hermite

from .errors import NotAFrameError
from .fitting import ShellFit, shell_decay_fit
from .signals import Grid, SampledSignal, inner_product

__all__ = [
    "Window",
    "gaussian",
    "hermite",
    "Lattice",
    "make_lattice",
    "GaborFrame",
    "tf_shift",
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
# the grid must extend past the lattice truncation by this margin (time and
# frequency units).
GRID_MARGIN = 5.0

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

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        envelope = np.exp(-(np.pi / self.width) * x * x)
        if self.kind == "gaussian":
            return envelope
        coef = np.zeros(self.order + 1)
        coef[self.order] = 1.0
        poly = _hermite.hermval(np.sqrt(2.0 * np.pi / self.width) * x, coef)
        return poly * envelope

    def sampled(self, grid: Grid) -> SampledSignal:
        return _sampled_window(self, grid)


@functools.lru_cache(maxsize=64)
def _sampled_window(window: Window, grid: Grid) -> SampledSignal:
    grid.require_1d()
    return SampledSignal(grid, window.evaluate(grid.times()))


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

    Points are ordered lexicographically so every downstream artifact is
    deterministic.
    """

    alpha: float
    beta: float
    time_range: float
    freq_range: float
    points: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("lattice steps must be positive")
        if not (self.time_range >= 0 and self.freq_range >= 0):
            raise ValueError("truncation radii must be nonnegative")
        k1 = _steps_within(self.time_range, self.alpha)
        k2 = _steps_within(self.freq_range, self.beta)
        pts = tuple((i * self.alpha, j * self.beta)
                    for i in range(-k1, k1 + 1)
                    for j in range(-k2, k2 + 1))
        object.__setattr__(self, "points", pts)

    @property
    def redundancy(self) -> float:
        """Density parameter alpha*beta; frames need it <= 1."""
        return self.alpha * self.beta

    def __len__(self):
        return len(self.points)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)

    def center_index(self) -> int:
        """Index of the origin point (always on a centered lattice)."""
        arr = self.as_array()
        idx = int(np.argmin(np.abs(arr).sum(axis=1)))
        return idx


def make_lattice(alpha: float, beta: float, truncation: float) -> Lattice:
    return Lattice(alpha, beta, truncation, truncation)


def _atom_matrix(source, grid: Grid, points) -> np.ndarray:
    """Atoms source(t - x) exp(2 pi i w t) on grid, one column per (x, w).

    source is a Window, evaluated at the shifted times, or samples on
    grid, shifted in time by a periodic spectral shift (exact for grid
    functions whose boundary values vanish). Each distinct x is shifted,
    and each distinct w modulates, once.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if not np.all(np.isfinite(pts)):
        raise ValueError("shifts must be finite")
    grid.require_1d()
    t = grid.times()
    xs, column_x = np.unique(pts[:, 0], return_inverse=True)
    ws, column_w = np.unique(pts[:, 1], return_inverse=True)
    if isinstance(source, Window):
        shifted = source.evaluate(t[:, None] - xs)
    else:
        spec = np.fft.fft(np.fft.ifftshift(source))
        freqs = np.fft.fftfreq(grid.points_per_axis, d=grid.spacing)
        shifted = np.fft.fftshift(np.fft.ifft(
            spec[:, None] * np.exp(-2j * np.pi * freqs[:, None] * xs),
            axis=0), axes=0)
    waves = np.exp(2j * np.pi * ws * t[:, None])
    return shifted[:, column_x] * waves[:, column_w]


def tf_shift(g: SampledSignal, lam, *, window: Window | None = None
             ) -> SampledSignal:
    """Time-frequency shift to g(x - lam1) * exp(2 pi i lam2 x).

    With a window given, the shift is evaluated from its closed form;
    otherwise it is a periodic spectral shift of the samples.
    """
    source = window if window is not None else g.values
    return SampledSignal(g.grid, _atom_matrix(source, g.grid, [lam])[:, 0])


def stft(f: SampledSignal, window, eval_points) -> np.ndarray:
    """V f(x, w) = <f, window shifted to (x, w)> at each requested point.

    window is a Window (analytic atoms) or a SampledSignal on f's grid.
    """
    source = window
    if not isinstance(window, Window):
        if window.grid != f.grid:
            raise ValueError("grid mismatch between signal and window")
        source = window.values
    atoms = _atom_matrix(source, f.grid, eval_points)
    return f.grid.spacing * (f.values.conj() @ atoms).conj()


@dataclass(eq=False)
class GaborFrame:
    """A window and truncated lattice on a grid, with write-once caches."""

    window: Window
    lattice: Lattice
    grid: Grid

    _atoms: np.ndarray | None = field(default=None, repr=False)
    _bounds: tuple | None = field(default=None, repr=False)
    _dual: SampledSignal | None = field(default=None, repr=False)
    _dual_residuals: tuple | None = field(default=None, repr=False)
    _dual_atoms: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        # Density theorem; frame_bounds can still find healthy bounds.
        if self.lattice.redundancy > 1.0 + 1e-9:
            raise NotAFrameError(f"no frame: alpha*beta = "
                                 f"{self.lattice.redundancy:g} > 1")

    def atoms(self) -> np.ndarray:
        """Dense atom matrix, one analytic atom per lattice point column."""
        if self._atoms is None:
            mat = _atom_matrix(self.window, self.grid,
                               self.lattice.as_array())
            mat.flags.writeable = False
            self._atoms = mat
        return self._atoms

    def analysis(self, f: SampledSignal) -> np.ndarray:
        """Coefficients <f, g_lambda> for all lattice points."""
        if f.grid != self.grid:
            raise ValueError("grid mismatch")
        return self.grid.spacing * (self.atoms().conj().T @ f.values)

    def synthesis(self, coeffs) -> SampledSignal:
        return SampledSignal(self.grid, self.atoms() @ np.asarray(coeffs))

    def dual_atoms(self) -> np.ndarray:
        """Atom matrix of the expansion dual h (spectral shifts of its samples).

        h is the time-localized dual (_wexler_raz_dual at weight
        EXPANSION_DUAL_WEIGHT), not the canonical dual_window. Built once,
        after the frame-bounds check; the column of the lattice origin is
        h itself. NotAFrameError unless dual_synthesis(analysis(g_0))
        returns the central atom g_0: the Rayleigh quotients of
        frame_bounds miss some non-frames.
        """
        if self._dual_atoms is None:
            frame_bounds(self)
            h, _ = _wexler_raz_dual(self.window, self.lattice, self.grid,
                                    EXPANSION_DUAL_WEIGHT)
            mat = _atom_matrix(h, self.grid, self.lattice.as_array())
            g0 = self.window.sampled(self.grid)
            miss = (np.linalg.norm(mat @ self.analysis(g0) - g0.values)
                    / np.linalg.norm(g0.values))
            if miss > RECONSTRUCTION_CEILING:
                raise NotAFrameError(
                    f"no frame for this window: dual expansion misses the "
                    f"central atom by {miss:.3e} (relative)")
            mat.flags.writeable = False
            self._dual_atoms = mat
        return self._dual_atoms

    def dual_analysis(self, f: SampledSignal) -> np.ndarray:
        if f.grid != self.grid:
            raise ValueError("grid mismatch")
        return self.grid.spacing * (self.dual_atoms().conj().T @ f.values)

    def dual_synthesis(self, coeffs) -> SampledSignal:
        return SampledSignal(self.grid,
                             self.dual_atoms() @ np.asarray(coeffs))

    @property
    def dual_residuals(self) -> tuple:
        """(Wexler-Raz relative residual, frame-equation relative residual).

        Available after dual_window has run, both on the doubled grid.
        The first is the relative miss of the Wexler-Raz identities gamma
        is solved from; the second is ||S gamma - g|| / ||g|| with S the
        frame operator of the full lattice alpha*Z x beta*Z in Walnut form.
        """
        if self._dual_residuals is None:
            raise ValueError("dual window has not been computed yet")
        return self._dual_residuals


def frame_bounds(frame: GaborFrame) -> tuple:
    """Extreme Rayleigh quotients of the frame operator on the central span.

    The test space is span{g_lambda : |lambda_i| <= truncation/2}; with
    C the central atom matrix and G all atoms, the quotient pencil is
    (dx G^H C)^H (dx G^H C) against dx C^H C, reduced by an eigenvalue
    cutoff on the Gram matrix.
    """
    if frame._bounds is not None:
        return frame._bounds
    grid, lat = frame.grid, frame.lattice
    if (grid.half_width < lat.time_range + GRID_MARGIN
            or grid.freq_half_width < lat.freq_range + GRID_MARGIN):
        raise ValueError(
            "grid too small for this lattice truncation: need margin "
            f"{GRID_MARGIN} beyond ({lat.time_range}, {lat.freq_range})")
    pts = lat.as_array()
    central = ((np.abs(pts[:, 0]) <= lat.time_range / 2 + 1e-9)
               & (np.abs(pts[:, 1]) <= lat.freq_range / 2 + 1e-9))
    g_all = frame.atoms()
    c = g_all[:, central]
    y = grid.spacing * (g_all.conj().T @ c)
    t_mat = y.conj().T @ y
    p_mat = grid.spacing * (c.conj().T @ c)
    ev, vec = np.linalg.eigh(p_mat)
    keep = ev > 1e-10 * ev[-1]
    basis = vec[:, keep] / np.sqrt(ev[keep])
    quot = np.linalg.eigvalsh(basis.conj().T @ t_mat @ basis)
    a, b = float(quot[0]), float(quot[-1])
    if a <= FRAME_FLOOR:
        raise NotAFrameError(
            f"not a frame at this truncation: lower bound {a:.3e}")
    frame._bounds = (a, b)
    return frame._bounds


def dual_window(frame: GaborFrame) -> SampledSignal:
    """Canonical dual window gamma = S^-1 g on the frame's grid.

    gamma is the Wexler-Raz dual of least L^2 norm (weight 0), solved on
    the doubled grid and restricted, so that it is free of edge effects.
    """
    if frame._dual is not None:
        return frame._dual
    frame_bounds(frame)
    grid, lat, window = frame.grid, frame.lattice, frame.window
    ext = Grid(grid.dim, 2 * grid.points_per_axis, 2 * grid.length)
    x, wr_residual = _wexler_raz_dual(window, lat, ext, 0.0)
    g_vals = window.evaluate(ext.times())
    s_x = _walnut_frame_operator(window, lat, ext, x)
    frame_residual = float(np.linalg.norm(s_x - g_vals)
                           / np.linalg.norm(g_vals))
    n = grid.points_per_axis
    dual = SampledSignal(grid, x[n // 2: n // 2 + n].astype(complex))
    frame._dual = dual
    frame._dual_residuals = (wr_residual, frame_residual)
    return dual


def _walnut_frame_operator(window: Window, lattice: Lattice, grid: Grid,
                           values) -> np.ndarray:
    """Frame operator of the full lattice alpha*Z x beta*Z applied to values.

    Walnut form, for a real window: S x(t) = (1/beta) sum_k G_k(t)
    x(t - k/beta) with G_k(t) = sum_n g(t - n alpha) g(t - n alpha - k/beta).
    x is shifted spectrally; n and k run over every shift the grid holds.
    """
    alpha, beta = lattice.alpha, lattice.beta
    k_n = _steps_within(grid.half_width, alpha)
    k_s = _steps_within(grid.half_width, 1.0 / beta)
    window_times = grid.times()[:, None] - alpha * np.arange(-k_n, k_n + 1)
    windows = window.evaluate(window_times)
    shifts = np.arange(-k_s, k_s + 1) / beta
    shifted = _atom_matrix(values, grid, np.column_stack([shifts, 0 * shifts]))
    out = 0.0
    for shift, x_k in zip(shifts, shifted.T):
        out += np.sum(windows * window.evaluate(window_times - shift),
                      axis=1) * x_k
    return out / beta


def _wexler_raz_dual(window: Window, lattice: Lattice, grid: Grid,
                     weight: float) -> tuple:
    """Dual window h of least ||exp(weight t^2) h||, and its residual.

    Wexler-Raz: h is dual to g on alpha*Z x beta*Z when
    <h, M_{l/alpha} T_{k/beta} g> = alpha*beta delta_k delta_l. Of all
    such h this returns the samples of the one with the least
    ||exp(c t^2) h||, c = weight, so h is exp(-2c t^2) times a combination
    of adjoint atoms; c = 0 gives the canonical dual S^-1 g (Janssen).
    The identities are imposed at every adjoint point the grid resolves,
    |k/beta| <= L/2 and |l/alpha| <= N/(2L); past those they hold to the
    window's tails. The residual is the identities' relative miss.

    Windows are real with parity (-1)^order, and so is h. The solve
    therefore runs on h(t), t >= 0, with the real parts of the identities
    for k, l >= 0 and their imaginary parts for k, l > 0 (the others are
    conjugates or copies). The unpaired sample t = -L/2 is set to 0.
    """
    parity = -1.0 if window.order % 2 else 1.0
    n = grid.points_per_axis
    t = grid.times()[n // 2:]
    shift, mod = 1.0 / lattice.beta, 1.0 / lattice.alpha
    ks = np.arange(_steps_within(grid.half_width, shift) + 1)
    ls = np.arange(_steps_within(grid.freq_half_width, mod) + 1)
    # Row (k, l) applied to h(t >= 0): each t > 0 stands for t and -t.
    wave = np.exp(-2j * np.pi * mod * ls[:, None] * t)
    rows = grid.spacing * (
        window.evaluate(t - shift * ks[:, None, None]) * wave
        + parity * window.evaluate(-t - shift * ks[:, None, None])
        * wave.conj())
    rows[..., 0] *= 0.5
    mat = np.vstack([rows.real.reshape(-1, t.size),
                     rows.imag[1:, 1:].reshape(-1, t.size)])
    rhs = np.zeros(len(mat))
    rhs[0] = lattice.redundancy
    # u = h / decay has the norm of exp(c t^2) h over the whole grid.
    decay = (np.exp(-weight * t * t)
             / np.sqrt(np.where(t > 0, 2.0, 1.0)))
    half = decay * np.linalg.lstsq(mat * decay, rhs, rcond=None)[0]
    residual = float(np.linalg.norm(mat @ half - rhs) / rhs[0])
    h = np.zeros(n)
    h[n // 2:] = half
    h[1: n // 2] = parity * half[:0:-1]
    return h, residual


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


def inversion_formula_reconstruct(f: SampledSignal, window: Window,
                                  step: float = 0.125, extent: float = 10.0
                                  ) -> SampledSignal:
    """Riemann-sum STFT inversion over a fine phase-space grid.

    rec = step^2 / ||g||^2 * sum_{x,w} V_g f(x,w) g_{x,w}. Step 0.125 over
    a box of radius 10 reproduces centered Gaussians to machine precision;
    step 0.25 already misses the 1e-6 target.
    """
    xs = np.arange(-extent, extent + 1e-9, step)
    ws = np.arange(-extent, extent + 1e-9, step)
    wins = _atom_matrix(window, f.grid, np.column_stack(
        [xs, np.zeros_like(xs)])).real
    emod = np.exp(2j * np.pi * np.outer(ws, f.grid.times()))
    coeffs = f.grid.spacing * (emod.conj() @ (f.values[:, None] * wins))
    rec = np.sum(wins * (emod.T @ coeffs), axis=1)
    g_sq = inner_product(window.sampled(f.grid), window.sampled(f.grid)).real
    return SampledSignal(f.grid, rec * step * step / g_sq)
