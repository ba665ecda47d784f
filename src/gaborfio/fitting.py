"""Log-linear decay-law fitting shared by the classifier and matrix fits.

The model is log m = logC - eps * r**(1/s) with s scanned over a fixed grid.
Raw point clouds of lattice data are anisotropic (a quadratic decay law seen
through a lattice has direction-dependent rates), so samples are first
grouped into radial shells of width 0.5 and each shell contributes its mean
log-magnitude against its mean r**(1/s). Shells touching the floor are
censored entirely: a shell mean taken over only the surviving samples would
be biased upward. Ties in the residual scan resolve toward the smallest s.
A fit at an imposed order is the same scan over a one-element s grid.
Shell sums are np.bincount over the shell index floor(r / 0.5), or
np.add.at, which adds in the same order.

A fit is two steps: censor_shells groups and censors the samples once,
keeping only the samples of clean shells, and scan_orders runs the s scan
on that result, so fits at several orders can share one censoring. The
scan takes one log per clean-shell sample for the whole grid, forms each
order's r**(1/s) as exp(log r / s), and fits every order in one batch.
The censoring reads only the samples at or above the floor and each
shell's count of all its samples past the exclusion radius
(censor_counted_shells): censor_shells takes both from flat samples, and
a Gabor matrix's fits from two passes, one over its entries that keeps no
sample below the floor (gmatrix._above_floor) and one that counts the
shells from chi alone (gmatrix._shell_counts), so both fits censor on one
path.

Per-row sparsity profiles fit each row's descending-sorted magnitudes
against the rank n**exponent (sorted_tail_fits). The rows are read and
sorted a block at a time. Each row keeps its count k of entries above
the floor, their mean log-magnitude and three sums over them, and every
row is fitted from these once the blocks run out.

One closed form fits every line, from its means and its sums of
products of deviations from them (_line, _r_squared). The s scan and
the fits at an imposed order reach it through _line_fits, which forms
those sums from centred arrays, many orders at once; the sparsity rows
through _sum_fits, from each row's sums and prefix sums over the ranks.
No reduction is masked: a block's sums are np.add.reduceat over the
segments of its sorted rows that hold their entries above the floor.
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
# to sort, log and sum, and gmatrix's fits' two passes (_above_floor,
# _shell_counts) read as many at a time: a block of rows each in
# cli._memory_table. No fit depends on it: the sparsity rows keep sums
# per row. At 128 rows the sparsity fits' temporaries (then masked
# passes over a padded copy of each block's top entries) left the heap
# of a CLI process running every subcommand in turn 4.7 MiB larger on
# two of six benchmark seeds (at 32 on none), and the one pass the fits
# then made ran 1.8x slower on 1089 points.
BLOCK_ROWS = 32
# scan_orders reads the clean-shell samples this many at a time, so its
# two temporaries (the chunk's logs and powers) stay in a core's cache
# and hold no array as long as the samples. On the 1089-point frame of
# the size guard's tests (435,874 samples at floor 1e-12), the grid's
# abscissae took 43 ms in chunks of 2**15 samples and 65 ms in one.
SCAN_SAMPLES = 2 ** 15


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
    Each order's shell means of r**(1/s) come from _abscissae, and
    _line_fits fits every order's line at once.
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
    xs = _abscissae(shells, orders)
    for s, row in zip(orders, xs):
        if not np.all(np.isfinite(row)):
            raise ValueError(f"s_grid value {s:g} is too small: d**(1/s) "
                             "overflows")
    eps, logc, ssr, r2 = _line_fits(xs, shells.ybars)
    best = 0
    for i in range(1, orders.size):
        if ssr[i] < ssr[best] - 1e-15:
            best = i
    return ShellFit(float(orders[best]), float(eps[best]),
                    float(logc[best]), float(r2[best]), shells.n_samples)


def _abscissae(shells: CensoredShells, orders) -> np.ndarray:
    """Each order's clean-shell means of r**(1/s), one row per order.

    r**(1/s) is exp(log r * (1/s)), so each sample takes one log for the
    whole grid and one exp per order. The samples are read SCAN_SAMPLES
    at a time; np.add.at adds each chunk's powers to the shell sums in
    sample order, so the sums are bitwise one np.bincount's over all the
    samples. An order whose powers overflow leaves inf in its row.
    """
    sums = np.zeros((len(orders), shells.clean.size))
    inverses = 1.0 / np.asarray(orders, dtype=float)
    for lo in range(0, shells.dist.size, SCAN_SAMPLES):
        idx = shells.idx[lo:lo + SCAN_SAMPLES]
        with np.errstate(divide="ignore"):  # log 0 = -inf: 0**(1/s) = 0
            logs = np.log(shells.dist[lo:lo + SCAN_SAMPLES])
        powers = np.empty_like(logs)
        for inverse, row in zip(inverses, sums):
            np.multiply(logs, inverse, out=powers)
            with np.errstate(over="ignore"):
                np.exp(powers, out=powers)
            np.add.at(row, idx, powers)
    return sums[:, shells.clean] / shells.counts


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
    and sorted in turn. Each of its fitted rows keeps k, the mean y_bar
    of the logs y of its k largest entries, and the sums over them of
    y - y_bar, (y - y_bar)**2 and x' (y - y_bar), where x' is
    n**exponent - 1. Once the blocks run out, _sum_fits fits every row
    from these at once, so no row's fit depends on the other rows of
    its block.

    Returns (epsilons, log_cs, r_squareds) of the fitted rows, in row
    order. Raises InsufficientDataError when no row is fitted and
    ValueError when n**exponent overflows.
    """
    parts, below = [], np.nextafter(floor, -np.inf)
    for block in blocks:
        # A copy in which every entry below the floor, NaN included, is
        # the largest float below it: those sort first, as equal keys,
        # and each row ends with its k entries at or above the floor.
        block = np.fmax(np.asarray(block, dtype=float), below, order="C")
        k = np.count_nonzero(block > below, axis=1)
        fitted = np.flatnonzero(k >= 3)
        if not fitted.size:
            continue
        block.sort(axis=1)
        k = k[fitted]
        # Only the last max(k) columns are read. A fitted row's entries
        # are the segment [end - k, end) of them, flattened, with its
        # end at the end of the row.
        width = k.max()
        ends = (fitted + 1) * width
        bounds = np.column_stack([ends - k, ends]).ravel()
        # x' / 2**p of the rank each of those columns holds: a power of
        # two at least width**exponent keeps x'**2 finite. A rank past
        # the float range is refused once every row is read (_sum_fits).
        with np.errstate(over="ignore"):
            ranks = np.arange(width, 0, -1, dtype=float) ** exponent - 1
        p = np.frexp(ranks[0])[1]
        np.ldexp(ranks, -p, out=ranks)
        # Entries below the floor, outside every segment, log to -inf or
        # NaN, and no sum reads them; ranks past the float range
        # overflow here before they are refused.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ys = np.log(block[:, -width:])
            del block
            means = np.zeros(len(ys))
            means[fitted] = _segment_sums(ys, bounds) / k
            ys -= means[:, None]
            sums = [_segment_sums(ys, bounds),
                    _segment_sums(np.square(ys), bounds)]
            ys *= ranks
            sums.append(_segment_sums(ys, bounds))
        parts.append((k, means[fitted], *sums, np.full(k.size, p)))
    if not parts:
        raise InsufficientDataError(
            "no row had three entries above the floor")
    return _sum_fits(*(np.concatenate(part) for part in zip(*parts)),
                     exponent)


def _segment_sums(values, bounds) -> np.ndarray:
    """Sums of the flat values over [bounds[0], bounds[1]), [bounds[2],
    bounds[3]), ...: one np.add.reduceat, which sums each segment on its
    own, whatever lies between them."""
    flat = values.reshape(-1)[:bounds[-1]]
    return np.add.reduceat(flat, bounds[:-1])[::2]


def _sum_fits(k, means, sy, syy, sxy, p, exponent):
    """Fit rows from sorted_tail_fits' sums: (eps, logc, r2) per row.

    k, means, sy, syy and sxy hold each row's count, mean log-magnitude
    y_bar, and sums of y - y_bar, of its square and of x' (y - y_bar) /
    2**p. The sums of x' and of its squared deviations come from prefix
    sums over the ranks 1..max(k), scaled by one power of two 2**q at
    least max(k)**exponent (every scaling by a power of two is exact).
    _line and _r_squared then fit every row.
    """
    n = k.max()
    with np.errstate(over="ignore"):
        ranks = np.arange(1, n + 1, dtype=float) ** exponent - 1
    if not np.isfinite(ranks[-1]):
        raise ValueError(f"rank exponent {exponent:g} is too large: "
                         f"{n}**{exponent:g} overflows (an s_grid value "
                         "is too small)")
    q = np.frexp(ranks[-1])[1]
    np.ldexp(ranks, -q, out=ranks)
    sums = _prefix_sums(ranks)
    x_bars = sums / np.arange(1, n + 1)
    # Welford's updates: rank n adds (x_n - mean_{n-1}) (x_n - mean_n)
    # to the sum of squared deviations of ranks 1..n.
    steps = (ranks[1:] - x_bars[:-1]) * (ranks[1:] - x_bars[1:])
    sxx = _prefix_sums(np.concatenate([[0.0], steps]))[k - 1]
    # The rows' y are centred already: sy / k is what rounding left.
    sx, x_bar, y_bar = sums[k - 1], x_bars[k - 1], sy / k
    sxy = np.ldexp(sxy, p - q) - sx * y_bar
    syy = syy - sy * y_bar
    slope, intercept = _line(x_bar, y_bar, sxx, sxy)
    r2 = _r_squared(np.maximum(syy - slope * sxy, 0.0), syy)
    # y = means + intercept + slope (x' / 2**q) with x' = n**exponent - 1.
    eps = -np.ldexp(slope, -q)
    return eps, means + intercept + eps, r2


def _prefix_sums(values) -> np.ndarray:
    """np.cumsum(values), each sum corrected by its additions' errors.

    Each addition's exact rounding error comes from TwoSum, and their
    running sum is added back. With np.cumsum alone the sparsity rows
    of the shipped families on the reference and 1089-point frames met
    the per-row lstsq oracle to 1.3e-14 in r2; corrected, to 1.6e-15.
    """
    sums = np.cumsum(values)
    before = np.concatenate([[0.0], sums[:-1]])
    added = sums - before
    errors = (before - (sums - added)) + (values - added)
    return sums + np.cumsum(errors)


def _line_fits(xs, ys):
    """LS fit ys ~ logC - eps*xs along each row of the 2-D xs.

    Every row of xs holds the abscissae of one line, whose ordinates are
    ys. Returns (eps, logc, ssr, r2), one value per row; ssr sums the
    squares of the explicit residuals.
    """
    k = xs.shape[1]
    # Fits on xs centred and scaled to [-1, 1], so the intercept survives
    # abscissae r**(1/s) that span many decades at small s. The centre
    # sums xs / k, which stays finite for any finite xs.
    centre = np.sum(xs / k, axis=1)
    scale = np.max(np.abs(xs - centre[:, None]), axis=1)
    scale[scale == 0] = 1.0
    u = (centre[:, None] - xs) / scale[:, None]
    u_bar, y_bar = np.sum(u, axis=1) / k, np.sum(ys) / k
    du, dy = u - u_bar[:, None], ys - y_bar
    slope, intercept = _line(u_bar, y_bar, np.sum(du * du, axis=1),
                             np.sum(du * dy, axis=1))
    resid = ys - intercept[:, None] - slope[:, None] * u
    ssr = np.sum(resid * resid, axis=1)
    eps = slope / scale
    return (eps, intercept + eps * centre, ssr,
            _r_squared(ssr, np.sum(dy * dy)))


def _line(x_bar, y_bar, sxx, sxy):
    """(slope, intercept) of the least-squares lines y ~ a + b x.

    x_bar and y_bar are each line's means, sxx and sxy its sums of
    products of deviations from them.
    """
    # All x equal (1/s or the rank exponent near 0) leaves sxx = 0: the
    # least-squares minimum-norm solution then has no slope.
    slope = np.divide(sxy, sxx, out=np.zeros_like(sxx), where=sxx > 0)
    return slope, y_bar - slope * x_bar


def _r_squared(ssr, syy):
    """1 - ssr / syy, each line's r2; 1 where y is constant (syy = 0)."""
    syy = np.broadcast_to(syy, ssr.shape)
    return 1.0 - np.divide(ssr, syy, out=np.zeros_like(ssr), where=syy > 0)
