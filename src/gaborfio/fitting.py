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

A fit is two steps: censor_shells groups and censors the samples once,
keeping only the samples of clean shells, and scan_orders runs the s scan
on that result, so fits at several orders can share one censoring. The
scan builds each order's shell means and fits every order in one batch.
The censoring reads only the samples at or above the floor and each
shell's count of all its samples past the exclusion radius
(censor_counted_shells): censor_shells takes both from flat samples, and
a Gabor matrix's fits from two passes, one over its entries that keeps no
sample below the floor (gmatrix._above_floor) and one that counts the
shells from chi alone (gmatrix._shell_counts), so both fits censor on one
path.

Per-row sparsity profiles fit each row's descending-sorted magnitudes
against the rank n**exponent (sorted_tail_fits). The rows are read and
sorted a block at a time, and each row's line is fitted over its own
count of entries above the floor.

One closed-form kernel, _line_fits, fits every line: the s scan, the fits
at an imposed order and the sparsity rows. It fits many lines at once,
one per row of a mask, from sums masked to each row's entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, NoSignalError

__all__ = [
    "DEFAULT_S_GRID",
    "SHELL_WIDTH",
    "CensoredShells",
    "ShellFit",
    "censor_counted_shells",
    "censor_shells",
    "scan_orders",
    "shell_decay_fit",
    "sorted_tail_fits",
]

DEFAULT_S_GRID = tuple(np.round(np.arange(0.40, 2.0001, 0.05), 2))
SHELL_WIDTH = 0.5

# gmatrix.sparsity_curve hands sorted_tail_fits blocks of this many rows
# to sort, and gmatrix's fits' two passes (_above_floor, _shell_counts)
# read as many at a time: a block of rows each in cli._memory_table. At
# 128 rows the sort's temporaries left the heap of a CLI process running
# every subcommand in turn 4.7 MiB larger on two of six benchmark seeds
# (at 32 on none), and the one pass the fits then made ran 1.8x slower on
# 1089 points.
BLOCK_ROWS = 32


@dataclass(frozen=True)
class ShellFit:
    s_hat: float
    epsilon_hat: float
    log_c: float
    r_squared: float
    n_samples: int

    def to_dict(self, operator: str) -> dict:
        """The gs*.json and fit*.json payload of the fit of operator."""
        return {"operator": operator, "s_hat": self.s_hat,
                "epsilon_hat": self.epsilon_hat, "logC": self.log_c,
                "r2": self.r_squared, "n_points": self.n_samples}


@dataclass(frozen=True, eq=False)
class CensoredShells:
    """Samples grouped into radial shells, shells touching the floor dropped.

    n_samples counts the samples the fit reads: those at or above floor
    and at or past the exclusion radius (fit*.json's n_points). For the
    identity on the reference frame at floor 1e-12 that is 46,044 of the
    46,573 unflagged entries at or above the floor. clean masks the
    clean shells among all shell indices; counts and ybars hold each clean
    shell's sample count and mean log magnitude. dist and idx are the
    distances and shell indices of the samples in clean shells, in input
    order: the only samples the s scan reads.
    """

    floor: float
    n_samples: int
    clean: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    ybars: np.ndarray = field(repr=False)
    dist: np.ndarray = field(repr=False)
    idx: np.ndarray = field(repr=False)

    def __post_init__(self):
        for arr in (self.clean, self.counts, self.ybars, self.dist,
                    self.idx):
            arr.flags.writeable = False


def censor_shells(dist, mags, *, floor, exclusion_radius=None
                  ) -> CensoredShells:
    """The censoring step of shell_decay_fit, shared by fits at any order.

    dist and mags are flat arrays of radial distances and magnitudes.
    Their shells' sample counts past exclusion_radius and their samples
    at or above floor go to censor_counted_shells; see it for the errors
    raised.
    """
    dist = np.asarray(dist, dtype=float).ravel()
    mags = np.asarray(mags, dtype=float).ravel()
    past = dist if exclusion_radius is None else dist[
        dist >= exclusion_radius]
    counts = np.bincount(_shell_index(past))
    ok = mags >= floor
    return censor_counted_shells(dist[ok], mags[ok], counts, floor=floor,
                                 exclusion_radius=exclusion_radius,
                                 n_in=dist.size)


def censor_counted_shells(dist, mags, counts, *, floor, n_in,
                          exclusion_radius=None) -> CensoredShells:
    """Censor shells given only their samples at or above the floor.

    dist and mags are the flat distances and magnitudes of the samples at
    or above floor, in input order, whether past exclusion_radius or not;
    counts[i] counts every sample of shell i at or past exclusion_radius
    (every sample of it when that is None), above the floor or not; n_in
    counts the samples that came in. Samples closer than exclusion_radius
    are dropped first (near-field plateau; InsufficientDataError if none
    is left), and samples below floor never enter a fit (NoSignalError if
    none is above it). A shell is clean when its count is that of its
    samples at or above the floor.
    """
    if exclusion_radius is not None:
        if not np.any(counts):
            raise InsufficientDataError(
                f"insufficient data: exclusion radius {exclusion_radius:g} "
                f"dropped all {n_in} samples that came in")
        past = dist >= exclusion_radius
        dist, logs = dist[past], mags[past]
        del past
        np.log(logs, out=logs)
    else:
        logs = np.log(mags)
    if dist.size == 0:
        raise NoSignalError("no signal: all samples below floor "
                            f"{floor:g}")
    idx = _shell_index(dist)
    clean = (counts > 0) & (np.bincount(idx, minlength=counts.size)
                            == counts)
    log_sums = np.bincount(idx, weights=logs, minlength=counts.size)
    del logs  # before the clean-shell samples are gathered
    n_samples, in_clean = dist.size, clean[idx]
    dist = dist[in_clean]  # before idx's gather, releasing its source
    return CensoredShells(floor, n_samples, clean, counts[clean],
                          log_sums[clean] / counts[clean], dist, idx[in_clean])


def _shell_index(dist) -> np.ndarray:
    """floor(dist / SHELL_WIDTH), the shell of each distance, as intp."""
    idx = dist / SHELL_WIDTH
    np.floor(idx, out=idx)
    return idx.astype(np.intp)


def scan_orders(shells: CensoredShells, *, s_grid=None,
                min_samples=50) -> ShellFit:
    """Fit every order of the s grid over censored shells in one batch.

    Keeps the order with the smallest residual; a later order wins only
    by more than 1e-15. Raises ValueError when the grid is empty or holds
    an order that is not positive (NaN included) or so small that
    r**(1/s) overflows, and InsufficientDataError when fewer than
    min_samples samples are at or above the floor and past the exclusion
    radius (shells.n_samples), or fewer than three shells stay clean.
    """
    orders = np.asarray(DEFAULT_S_GRID if s_grid is None else s_grid,
                        dtype=float)
    if orders.ndim != 1 or orders.size == 0:
        raise ValueError("s_grid must be a non-empty sequence of orders, "
                         f"got {s_grid!r}")
    for s in orders:
        if not s > 0:
            raise ValueError(f"s_grid value {s:g} is not a positive order")
    if shells.n_samples < min_samples:
        raise InsufficientDataError(
            f"insufficient data: {shells.n_samples} samples above floor "
            f"{shells.floor:g}, need {min_samples}")
    if len(shells.ybars) < 3:
        raise InsufficientDataError(
            f"insufficient data: only {len(shells.ybars)} clean shells")
    # Each order's shell means of r**(1/s), one row per order.
    xs = np.empty((orders.size, shells.ybars.size))
    # bincount copies a read-only input on every call: one writable copy.
    idx = shells.idx.copy()
    for s, row in zip(orders, xs):
        with np.errstate(over="ignore"):
            sums = np.bincount(idx, weights=shells.dist ** (1.0 / s),
                               minlength=shells.clean.size)
        np.divide(sums[shells.clean], shells.counts, out=row)
        if not np.all(np.isfinite(row)):
            raise ValueError(f"s_grid value {s:g} is too small: d**(1/s) "
                             "overflows")
    eps, logc, ssr, r2 = _line_fits(xs, shells.ybars,
                                    np.ones(xs.shape, dtype=bool))
    best = 0
    for i in range(1, orders.size):
        if ssr[i] < ssr[best] - 1e-15:
            best = i
    return ShellFit(float(orders[best]), float(eps[best]),
                    float(logc[best]), float(r2[best]), shells.n_samples)


def shell_decay_fit(dist, mags, *, floor, exclusion_radius=None,
                    s_grid=None, min_samples=50) -> ShellFit:
    """Scan the s grid, fit each candidate, keep the smallest residual.

    censor_shells, then scan_orders; see both for the arguments and the
    errors raised.
    """
    return scan_orders(censor_shells(dist, mags, floor=floor,
                                     exclusion_radius=exclusion_radius),
                       s_grid=s_grid, min_samples=min_samples)


def sorted_tail_fits(blocks, exponent, *, floor):
    """Fit log of each row's descending-sorted magnitudes against n**exponent.

    blocks is an iterable of 2-D arrays, each one vector of magnitudes
    per row (sparsity_curve's computes each block of BLOCK_ROWS rows
    from a Gabor matrix's entries as it is read); n counts from 1 over a
    row's k entries at or above floor, and rows with k < 3 are skipped.
    The model is |a|_n <= C exp(-eps n**exponent). Each block is copied
    and sorted in turn, and keeps only its top max(k) columns, whose
    lines _line_fits fits at once, each row masked to its first k
    columns.

    Returns (epsilons, log_cs, r_squareds) of the fitted rows, in row
    order. Raises InsufficientDataError when no row is fitted and
    ValueError when n**exponent overflows.
    """
    fits = []
    for block in blocks:
        block = np.array(block, dtype=float, order="C")
        above = block >= floor
        k = np.count_nonzero(above, axis=1)
        fitted = k >= 3
        if not np.any(fitted):
            continue
        k = k[fitted]
        # The rest, NaN included, sorts before the entries above the floor.
        np.copyto(block, -np.inf, where=~above)
        block.sort(axis=1)
        top = block[fitted, -k.max():][:, ::-1]
        with np.errstate(over="ignore"):
            xs = np.arange(1, top.shape[1] + 1, dtype=float) ** exponent
        if not np.isfinite(xs[-1]):
            raise ValueError(f"rank exponent {exponent:g} is too large: "
                             f"{top.shape[1]}**{exponent:g} overflows (an "
                             "s_grid value is too small)")
        mask = np.arange(top.shape[1]) < k[:, None]
        ys = np.log(top, out=np.zeros_like(top), where=mask)
        eps, logc, _, r2 = _line_fits(xs, ys, mask)
        fits.append((eps, logc, r2))
    if not fits:
        raise InsufficientDataError(
            "no row had three entries above the floor")
    return tuple(np.concatenate(part) for part in zip(*fits))


def _line_fits(xs, ys, mask):
    """LS fit ys ~ logC - eps*xs in each row, over the entries mask selects.

    xs and ys broadcast against the 2-D mask, each of whose rows selects
    k >= 1 entries; entries outside the mask are finite and ignored.
    Returns (eps, logc, ssr, r2), one value per row.
    """
    k = np.count_nonzero(mask, axis=1)

    def row_sums(a):
        return np.sum(np.broadcast_to(a, mask.shape), axis=1, where=mask)

    # Fits on xs centred and scaled to [-1, 1], so the intercept survives
    # abscissae r**(1/s) that span many decades at small s. The centre
    # sums xs / k, which stays finite for any finite xs.
    centre = row_sums(xs / k[:, None])
    scale = np.max(np.abs(xs - centre[:, None]), axis=1, where=mask,
                   initial=0.0)
    scale[scale == 0] = 1.0
    u = (centre[:, None] - xs) / scale[:, None]
    u_bar, y_bar = row_sums(u) / k, row_sums(ys) / k
    du, dy = u - u_bar[:, None], ys - y_bar[:, None]
    suu, suy, sst = row_sums(du * du), row_sums(du * dy), row_sums(dy * dy)
    # All xs equal (1/s or the rank exponent near 0) leaves u = 0: the
    # least-squares minimum-norm solution then has no slope.
    slope = np.divide(suy, suu, out=np.zeros_like(suu), where=suu > 0)
    intercept = y_bar - slope * u_bar
    resid = ys - intercept[:, None] - slope[:, None] * u
    ssr = row_sums(resid * resid)
    r2 = 1.0 - np.divide(ssr, sst, out=np.zeros_like(sst), where=sst > 0)
    eps = slope / scale
    return eps, intercept + eps * centre, ssr, r2
