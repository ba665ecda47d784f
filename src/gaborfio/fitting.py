"""Log-linear decay-law fitting shared by the classifier and matrix fits.

The model is log m = logC - eps * r**(1/s) with s scanned over a fixed grid.
Raw point clouds of lattice data are anisotropic (a quadratic decay law seen
through a lattice has direction-dependent rates), so samples are first
grouped into radial shells of width 0.5 and each shell contributes its mean
log-magnitude against its mean r**(1/s). Shells touching the floor are
censored entirely: a shell mean taken over only the surviving samples would
be biased upward. Ties in the residual scan resolve toward the smallest s.
A fit at an imposed order is the same scan over a one-element s grid.
Shell sums are np.bincount over the shell index floor(r / 0.5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, NoSignalError

__all__ = [
    "DEFAULT_S_GRID",
    "SHELL_WIDTH",
    "ShellFit",
    "shell_decay_fit",
    "sorted_tail_fit",
]

DEFAULT_S_GRID = tuple(np.round(np.arange(0.40, 2.0001, 0.05), 2))
SHELL_WIDTH = 0.5


@dataclass(frozen=True)
class ShellFit:
    s_hat: float
    epsilon_hat: float
    log_c: float
    r_squared: float
    n_shells: int
    n_samples: int


def _censored_shells(dist, mags, floor):
    """Group samples into radial shells, dropping shells that hit the floor.

    Returns each sample's shell index, the mask of clean shells (occupied,
    no sample below floor), the per-shell sample counts, and the mean log
    magnitude of each clean shell.
    """
    idx = np.floor(dist / SHELL_WIDTH).astype(np.intp)
    ok = mags >= floor
    counts = np.bincount(idx)
    clean = (counts > 0) & (np.bincount(idx[~ok], minlength=counts.size)
                            == 0)
    log_sums = np.bincount(idx[ok], weights=np.log(mags[ok]),
                           minlength=counts.size)
    return idx, clean, counts, log_sums[clean] / counts[clean]


def _line_fit(xs, ys):
    """LS fit ys ~ logC - eps*xs. Returns (eps, logc, ssr, r_squared).

    Fits on xs centred and scaled to [-1, 1], so the intercept survives
    abscissae r**(1/s) that span many decades at small s. The centre
    sums xs / n, which stays finite for any finite xs.
    """
    centre = np.sum(xs / xs.size)
    scale = float(np.max(np.abs(xs - centre))) or 1.0
    a = np.column_stack([np.ones_like(xs), -(xs - centre) / scale])
    coef, *_ = np.linalg.lstsq(a, ys, rcond=None)
    resid = ys - a @ coef
    ssr = float(resid @ resid)
    sst = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ssr / sst if sst > 0 else 1.0
    eps = float(coef[1]) / scale
    return eps, float(coef[0]) + eps * centre, ssr, r2


def shell_decay_fit(dist, mags, *, floor, exclusion_radius=None,
                    s_grid=None, min_samples=50) -> ShellFit:
    """Scan the s grid, fit each candidate, keep the smallest residual.

    dist and mags are flat arrays of radial distances and magnitudes.
    Samples closer than exclusion_radius are dropped first (near-field
    plateau); samples below floor never enter a fit. Raises NoSignalError
    when nothing survives the floor, InsufficientDataError when fewer
    than min_samples do or fewer than three shells stay clean, and
    ValueError when an s in the grid is so small that r**(1/s) overflows.
    """
    dist = np.asarray(dist, dtype=float).ravel()
    mags = np.asarray(mags, dtype=float).ravel()
    if exclusion_radius is not None:
        keep = dist >= exclusion_radius
        dist, mags = dist[keep], mags[keep]
    n_above = int(np.count_nonzero(mags >= floor))
    if n_above == 0:
        raise NoSignalError("no signal: all samples below floor "
                            f"{floor:g}")
    if n_above < min_samples:
        raise InsufficientDataError(
            f"insufficient data: {n_above} samples above floor {floor:g}, "
            f"need {min_samples}")
    idx, clean, counts, ybars = _censored_shells(dist, mags, floor)
    if len(ybars) < 3:
        raise InsufficientDataError(
            f"insufficient data: only {len(ybars)} clean shells")
    in_clean = clean[idx]
    dist, idx, counts = dist[in_clean], idx[in_clean], counts[clean]
    best = None
    for s in (s_grid if s_grid is not None else DEFAULT_S_GRID):
        with np.errstate(over="ignore"):
            xs = np.bincount(idx, weights=dist ** (1.0 / s),
                             minlength=clean.size)[clean] / counts
        if not np.all(np.isfinite(xs)):
            raise ValueError(f"s_grid value {s:g} is too small: d**(1/s) "
                             "overflows")
        eps, logc, ssr, r2 = _line_fit(xs, ybars)
        if best is None or ssr < best[0] - 1e-15:
            best = (ssr, float(s), eps, logc, r2)
    _, s_hat, eps, logc, r2 = best
    return ShellFit(s_hat, eps, logc, r2, len(ybars), n_above)


def sorted_tail_fit(mags, exponent, *, floor):
    """Fit log of the descending-sorted magnitudes against n**exponent.

    n counts from 1. Returns (epsilon, logc, r_squared, n_used). Used for
    per-row sparsity profiles where the model is
    |a|_n <= C exp(-eps n**exponent).
    """
    v = np.sort(np.asarray(mags, dtype=float).ravel())[::-1]
    v = v[v >= floor]
    if v.size < 3:
        raise InsufficientDataError(
            f"insufficient data: {v.size} magnitudes above floor {floor:g}")
    xs = np.arange(1, v.size + 1, dtype=float) ** exponent
    eps, logc, _, r2 = _line_fit(xs, np.log(v))
    return eps, logc, r2, int(v.size)
