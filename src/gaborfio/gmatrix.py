"""Gabor matrix of an operator: assembly, decay fits, sparse application.

The matrix entry at (mu, lambda) is <T g_lambda, g_mu>, computed by
quadrature on a doubled grid (twice the points, twice the length, same
spacing) so that operators translating content toward the edge of the
original box are still integrated accurately. Entries concentrate along
mu = chi(lambda); every fit is in the distance d(mu, chi(lambda)).

Lattice points whose image chi(lambda) leaves the reliable region of the
original grid (half extent minus a fixed margin) are flagged, kept in the
matrix, and excluded from fits.

fit_decay, restricted_decay_fit (its shell fit at one order) and
decay_bound_check read one cached sample set, GaborMatrix._fit_samples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError
from .fio import (FioOperator, _apply_columns, canonical_map,
                  ensure_nondegenerate)
from .fitting import shell_decay_fit, sorted_tail_fit
from .gabor import GaborFrame, _atom_matrix
from .signals import Grid, SampledSignal, _write_csv

__all__ = [
    "GaborMatrix",
    "DecayFit",
    "SparsityReport",
    "assemble",
    "fit_decay",
    "restricted_decay_fit",
    "decay_bound_check",
    "sparsity_curve",
    "sparse_apply",
]

# chi(lambda) must stay this far inside the original grid's half extents
# for the column to count as reliable.
RELIABLE_MARGIN = 3.0

# Quadrature noise in assembled entries sits near 1e-14 of the peak;
# bound checks ignore entries below this.
NOISE_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class GaborMatrix:
    """Coordinate-format Gabor matrix with per-column reliability flags.

    Flat arrays run lambda-major: entry l * n + m holds
    <T g_{lambda_l}, g_{mu_m}> and the phase-space distance from mu_m to
    chi(lambda_l). Entry count is always len(lattice)^2.
    """

    operator_name: str
    grid: Grid
    window: object
    lattice: object
    symbol_order: float
    entries: np.ndarray = field(repr=False)
    distances: np.ndarray = field(repr=False)
    chi: np.ndarray = field(repr=False)
    flags: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = len(self.lattice)
        if self.entries.shape != (n * n,) or self.distances.shape != (n * n,):
            raise ValueError("entry arrays must be flat with length |L|^2")
        for arr in (self.entries, self.distances, self.chi, self.flags):
            arr.flags.writeable = False

    def __len__(self):
        return self.entries.size

    @property
    def n_lattice(self) -> int:
        return len(self.lattice)

    def dense(self) -> np.ndarray:
        """Matrix with rows indexed by mu, columns by lambda."""
        n = self.n_lattice
        return self.entries.reshape(n, n).T

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.entries)

    def unflagged(self) -> np.ndarray:
        """Flat mask of entries in columns whose chi stayed reliable."""
        return ~np.repeat(self.flags, self.n_lattice)

    @functools.cached_property
    def _fit_samples(self) -> tuple:
        """Read-only (distances, |entries| / weight) of unflagged entries.

        The weight is (1 + mu1^2 + lam2^2)^(N/2), N the symbol order.
        """
        mags = self.magnitudes()
        if self.symbol_order != 0.0:
            pts = self.lattice.as_array()
            n = self.n_lattice
            lam2 = np.repeat(pts[:, 1], n)
            mu1 = np.tile(pts[:, 0], n)
            mags /= (1.0 + mu1 * mu1 + lam2 * lam2) ** (self.symbol_order
                                                        / 2.0)
        keep = self.unflagged()
        samples = (self.distances[keep], mags[keep])
        for arr in samples:
            arr.flags.writeable = False
        return samples

    def to_csv(self, path) -> None:
        pts = self.lattice.as_array()
        n = self.n_lattice
        lam = np.repeat(pts, n, axis=0)
        mu = np.tile(pts, (n, 1))
        # Scalar abs per entry: np.abs on the array can differ from it in
        # the last digit, and the file is kept bitwise stable.
        _write_csv(path, "lambda1,lambda2,mu1,mu2,re,im,abs,dist",
                   (lam[:, 0], lam[:, 1], mu[:, 0], mu[:, 1],
                    self.entries.real, self.entries.imag,
                    [abs(e) for e in self.entries], self.distances))


@dataclass(frozen=True)
class DecayFit:
    """Decay law fit |M| ~ C exp(-eps d^(1/s)) plus an envelope calibration.

    The fitted (s_hat, epsilon_hat, log_c) come from shell means; the
    envelope pair (envelope_log_c, envelope_epsilon) is calibrated so
    exp(envelope_log_c - envelope_epsilon d^(1/s_hat)) dominates every
    above-floor sample, for pointwise bound checks.
    """

    operator: str
    s_hat: float
    epsilon_hat: float
    log_c: float
    r_squared: float
    n_points: int
    n_shells: int
    weight_exponent: float
    envelope_log_c: float
    envelope_epsilon: float

    def to_dict(self) -> dict:
        return {
            "operator": self.operator,
            "s_hat": self.s_hat,
            "epsilon_hat": self.epsilon_hat,
            "logC": self.log_c,
            "r2": self.r_squared,
            "n_points": self.n_points,
        }


@dataclass(frozen=True)
class SparsityReport:
    """Per-row (or per-column) tail fits log a_n ~ log C - eps n^exponent."""

    operator: str
    axis: str
    exponent_used: float
    epsilons: np.ndarray = field(repr=False)
    log_cs: np.ndarray = field(repr=False)
    r_squareds: np.ndarray = field(repr=False)
    n_used: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)

    @property
    def worst_index(self) -> int:
        return int(self.indices[int(np.argmin(self.epsilons))])

    def to_dict(self) -> dict:
        k = int(np.argmin(self.epsilons))
        return {
            "row_worst": {
                "C": float(math.exp(self.log_cs[k])),
                "epsilon": float(self.epsilons[k]),
                "r2": float(self.r_squareds[k]),
            },
            "exponent_used": self.exponent_used,
        }


def assemble(op: FioOperator, frame: GaborFrame) -> GaborMatrix:
    """Assemble <T g_lambda, g_mu> for all lattice pairs.

    The frame's atoms, built on the doubled grid, go through the operator
    kernel in one product, then one Gram product pairs them with the
    atoms again.
    """
    ensure_nondegenerate(op)
    grid = frame.grid
    pad = Grid(grid.dim, 2 * grid.points_per_axis, 2 * grid.length)
    pts = frame.lattice.as_array()
    atoms = _atom_matrix(frame.window, pad, pts)
    # Two statements, so the N^2 kernel is freed before the conjugate
    # copy of the atoms is made.
    t_atoms = _apply_columns(op, pad, atoms)
    dense = pad.spacing * (atoms.conj().T @ t_atoms)

    chi = canonical_map(op, pts)
    flags = ((np.abs(chi[:, 0]) > grid.half_width - RELIABLE_MARGIN)
             | (np.abs(chi[:, 1]) > grid.freq_half_width - RELIABLE_MARGIN))
    dist = np.hypot(pts[None, :, 0] - chi[:, 0, None],
                    pts[None, :, 1] - chi[:, 1, None])

    return GaborMatrix(
        operator_name=op.name, grid=grid, window=frame.window,
        lattice=frame.lattice,
        symbol_order=float(op.symbol.weight_exponent),
        entries=dense.T.ravel().copy(), distances=dist.ravel().copy(),
        chi=chi, flags=flags)


def fit_decay(matrix: GaborMatrix, *, floor: float = 1e-14,
              exclusion_radius: float = 0.5, s_grid=None,
              min_samples: int = 200) -> DecayFit:
    """Fit the concentration law of a Gabor matrix.

    Same procedure as the STFT classifier (shell means over the s grid),
    applied to weight-normalized magnitudes of unflagged entries, with a
    near-diagonal exclusion: below exclusion_radius the discrete distance
    does not resolve the law. Requires min_samples entries above floor.

    The envelope pair is calibrated on the same samples: the constant is
    the peak magnitude and the rate is the largest one the peak-anchored
    envelope can afford while still dominating every sample.
    """
    dist, mags = matrix._fit_samples
    fit = shell_decay_fit(dist, mags, floor=floor,
                          exclusion_radius=exclusion_radius, s_grid=s_grid,
                          min_samples=min_samples)

    above = mags >= floor
    log_m = np.log(mags[above])
    env_log_c = float(np.max(log_m))
    spread = dist[above] > 1e-9
    if np.any(spread):
        # At small s_hat, d**(1/s_hat) overflows (ratio 0: no positive rate
        # keeps that sample under the envelope) or underflows (floored at
        # the smallest normal float: a huge ratio, since every rate does).
        with np.errstate(over="ignore"):
            scale = dist[above][spread] ** (1.0 / fit.s_hat)
            np.maximum(scale, np.finfo(float).tiny, out=scale)
            ratios = (env_log_c - log_m[spread]) / scale
        env_eps = float(max(0.0, np.min(ratios)))
    else:
        env_eps = 0.0

    return DecayFit(
        operator=matrix.operator_name, s_hat=fit.s_hat,
        epsilon_hat=fit.epsilon_hat, log_c=fit.log_c,
        r_squared=fit.r_squared, n_points=fit.n_samples,
        n_shells=fit.n_shells, weight_exponent=matrix.symbol_order,
        envelope_log_c=env_log_c, envelope_epsilon=env_eps)


def restricted_decay_fit(matrix: GaborMatrix, s: float, *,
                         floor: float = 1e-14,
                         exclusion_radius: float = 0.5):
    """Decay-rate fit with the order s imposed instead of grid-searched.

    fit_decay's shell fit over the one-element grid (s,), on the same
    samples and with any positive number of them. Returns
    (epsilon, log_c, r_squared) for comparing candidate orders directly.
    """
    fit = shell_decay_fit(*matrix._fit_samples, floor=floor,
                          exclusion_radius=exclusion_radius, s_grid=(s,),
                          min_samples=1)
    return fit.epsilon_hat, fit.log_c, fit.r_squared


def decay_bound_check(matrix: GaborMatrix, fit: DecayFit, *,
                      constant_slack: float = 1.05,
                      rate_slack: float = 0.95,
                      noise_floor: float = NOISE_FLOOR) -> dict:
    """Check every reliable entry against the slackened envelope bound.

    Entries below noise_floor are quadrature noise and are skipped.
    Returns checked and violation counts plus the worst entry/bound ratio.
    """
    dist, mags = matrix._fit_samples
    above = mags >= noise_floor
    bound = (constant_slack * np.exp(fit.envelope_log_c)
             * np.exp(-rate_slack * fit.envelope_epsilon
                      * dist[above] ** (1.0 / fit.s_hat)))
    ratio = mags[above] / bound
    return {
        "checked": int(above.sum()),
        "violations": int(np.sum(ratio > 1.0)),
        "max_ratio": float(ratio.max()) if ratio.size else 0.0,
    }


def sparsity_curve(matrix: GaborMatrix, s_hat: float, *, axis: str = "rows",
                   floor: float = 1e-14) -> SparsityReport:
    """Fit each row's (or column's) sorted magnitudes against n^(1/(2s)).

    Rows are output indices mu (restricted to unflagged columns); columns
    are input indices lambda (flagged columns skipped entirely). Vectors
    with fewer than three entries above floor are skipped.
    """
    if axis not in ("rows", "cols"):
        raise ValueError(f"axis must be 'rows' or 'cols', got {axis!r}")
    if s_hat <= 0:
        raise ValueError("s_hat must be positive")
    exponent = 1.0 / (2.0 * matrix.grid.dim * s_hat)
    dense = np.abs(matrix.dense())
    ok_cols = ~matrix.flags
    if axis == "rows":
        vectors = [(m, dense[m, ok_cols]) for m in range(dense.shape[0])]
    else:
        vectors = [(l, dense[:, l]) for l in range(dense.shape[1])
                   if ok_cols[l]]
    fitted = []
    for i, vec in vectors:
        try:
            fitted.append((*sorted_tail_fit(vec, exponent, floor=floor), i))
        except InsufficientDataError:
            continue
    if not fitted:
        raise InsufficientDataError(
            "no row had three entries above the floor")
    eps, logc, r2, used, idx = map(np.asarray, zip(*fitted))
    return SparsityReport(
        operator=matrix.operator_name, axis=axis, exponent_used=exponent,
        epsilons=eps, log_cs=logc, r_squareds=r2, n_used=used, indices=idx)


def sparse_apply(matrix: GaborMatrix, frame: GaborFrame, f: SampledSignal,
                 tau: float, *, analysis: str = "dual"):
    """Apply the operator through the thresholded Gabor matrix.

    Coefficients come from analysis with the frame's expansion dual
    (GaborFrame.dual_atoms), or plain frame analysis with
    analysis="frame"; entries with |M| < tau are dropped; the output is
    synthesized with the expansion dual. Returns (signal, kept_ratio)
    where kept_ratio counts surviving entries against len(lattice)^2.
    tau = 0 keeps everything; tau = inf yields the zero signal, ratio 0.
    """
    if math.isnan(tau) or tau < 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    if analysis not in ("dual", "frame"):
        raise ValueError(f"analysis must be 'dual' or 'frame', got "
                         f"{analysis!r}")
    if f.grid != frame.grid:
        raise ValueError("grid mismatch")
    coeffs = (frame.dual_analysis(f) if analysis == "dual"
              else frame.analysis(f))
    dense = matrix.dense().copy()
    drop = np.abs(dense) < tau
    dense[drop] = 0.0
    kept = dense.size - int(drop.sum())
    out_coeffs = dense @ coeffs
    out = SampledSignal(frame.grid, frame.dual_atoms() @ out_coeffs)
    return out, kept / float(dense.size)
