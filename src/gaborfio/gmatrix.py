"""Gabor matrix of an operator: assembly, decay fits, sparse application.

The matrix entry at (mu, lambda) is <T g_lambda, g_mu>, and assemble
builds every matrix in one loop: it allocates the entries once and
walks the lattice in runs of whole lattice times, BLOCK_ATOMS lambdas at
most and one lattice time at least, handing each run's rows to a row
source to fill in place. A source is built once per matrix, with
whatever tables its formula shares across rows, and computes each row
on its own, so the matrix does not depend on the runs. There are three:

- For a metaplectic operator without a multiplier and a Gaussian
  window, the closed form (metaplectic._covariant_source): a complex
  Gaussian in mu - A lambda times two unit-modulus phases, one real exp
  and three products per entry, the phase's complex exps taken per
  (lambda, lattice time), per (lambda, frequency) and, in the source's
  table, per mu. That is O(|L|^2) elementwise work with no quadrature,
  so no grid truncation or aliasing, in any column and at any harmonic
  time the operator accepts.
- For a multiplier m = exp(2 pi i phi) on the identity matrix
  (multiplier:cos) on a Gaussian window, a closed form too
  (metaplectic._multiplier_source): each entry is a Gaussian in the
  time offset x - x' times one value of the source's table of windowed
  sums of m, gabor._windowed_sums over the half-lattice times and the
  frequency differences, on the doubled grid.
- Every other operator and window (a multiplier after any other matrix,
  a bare phase, a Hermite window) takes the quadrature,
  _quadrature_source, which is also the test oracle of both closed
  forms. It runs on a doubled grid (twice the points, twice the length,
  same spacing) so that operators translating content toward the edge
  of the original box are still integrated accurately. A fill pushes
  its run's atoms g_lambda through the operator, so it holds one run's
  atoms and apply buffer on the doubled grid, never the whole
  lattice's; the entries, |L|^2 of them, are the largest thing assemble
  keeps. Each analysis atom g_mu enters the sum only over the grid rows
  its window reaches (gabor._atom_rows): one product per run and
  lattice time, not one Gram product over the whole grid.

Both closed forms set real and imaginary parts below
gabor.ENVELOPE_FLUSH times their peak to 0 (gabor._flush); the
quadrature is left unflushed.

Entries concentrate along mu = chi(lambda); every fit is in the distance
d(mu, chi(lambda)). Lattice points whose image chi(lambda) leaves the
reliable region of the original grid (half extent minus a fixed margin)
are flagged, kept in the matrix, and excluded from fits. The matrix
stores chi, canonical_map's on every path, and computes the flags and
distances from it where they are read (GaborMatrix.flags, _distances).

The fits read a matrix in two passes, each cached on the matrix by what
it reads, and both read fitting.BLOCK_ROWS unflagged lambdas at a time:

- The samples pass, _above_floor, cached per floor
  (GaborMatrix._samples), keeps the np.hypot distance and the magnitude
  of the entries at or above the floor only, 16 bytes per kept entry; at
  floor 1e-12 the kept entries of the N = 2048, truncation 12 frame are
  9-13% of them.
- The counts pass, _shell_counts, cached per exclusion radius
  (GaborMatrix._counts), counts the entries of each shell past the
  radius, above the floor or not. It reads chi, the flags and the
  lattice, and no entry. It gives each entry its shell index from the
  separable squares of the lattice times and frequencies minus chi,
  with np.hypot where a shell boundary is within rounding: exactly
  floor(np.hypot(dx, dw) / SHELL_WIDTH).

The censoring (fitting.censor_counted_shells, GaborMatrix._shells)
reads the samples of a floor and the counts of a radius, and is cached
per (floor, radius) in the same cache. The s scans of fit_decay and
the restricted fits read only the shells, fit_decay's envelope and
decay_bound_check only the samples (the check those at NOISE_FLOOR), so
no array of every entry's distance or magnitude is held.
sparsity_curve takes the magnitudes of a block of rows (or columns) from
the entries as it fits them, with no cached copy.

sparse_apply reads a second cache, GaborMatrix._magnitude_order(tau):
the entries sorted by magnitude, with their (mu, lambda) indices, 40
bytes per held entry next to the matrix's 16. It holds only the entries
at or above the smallest positive threshold asked so far. A lower
threshold sorts only the entries it admits and puts them first, and
frees the held order before it gathers the longer one. Every sort is a
stable argsort, so a cutoff's entries come in the same order whichever
cache holds them, and no output depends on the thresholds asked before.
At 1e-6 it holds 9.3% of the entries on the reference frame and 4.8% on
1,089 points. assemble, the fits and tau = 0 never build it. A threshold
is then one binary search, and the product sums exactly the kept
entries, PRODUCT_BLOCK terms at a time. The frame keeps the dual
analysis of the last signal (GaborFrame.dual_analysis), so thresholds
applied to one signal analyse it once. A call therefore costs O(kept)
and one dual synthesis, plus the analysis for a signal the frame did not
analyse last; tau = 0 is one dense product. The worst case is a
threshold that keeps every entry: 40 bytes per entry and one block of
terms held, and a sum 4-8x a dense product's time (1.3 ms against 0.3 on
the reference frame, 6.8 against 0.9 on 1,089 points).

to_csv writes matrix.csv, one lambda's rows at a time, through the
signals module's "%.17g" formatter; the lattice points' text is
formatted once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .fio import FioOperator, _apply_columns, canonical_map
from .fitting import (BLOCK_ROWS, SHELL_WIDTH, CensoredShells, ShellFit,
                      _shell_index, censor_counted_shells, scan_orders,
                      sorted_tail_fits)
from .gabor import GaborFrame, _atom_rows, _shifted, _waves
from .metaplectic import _closed_form_source
from .signals import Grid, SampledSignal, _csv_rows

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

# Quadrature noise in entries filled by _quadrature_source sits near
# 1e-14 of the peak; bound checks ignore entries below this. The closed
# forms carry no such noise, only rounding.
NOISE_FLOOR = 1e-12

# decay_bound_check tests entries against the envelope with its constant
# raised and its rate lowered by these factors.
CONSTANT_SLACK = 1.05
RATE_SLACK = 0.95

# fit_decay needs this many entries above the floor.
MIN_FIT_SAMPLES = 200

# assemble fills the entries a run of whole lattice times at a time, as
# many as fit in this many lambdas (one time at least). The quadrature
# holds a run's atoms and apply buffer, cli._memory_table's block of
# atoms (the whole 1089-point lattice at N = 2048 took 204 MiB), and a
# closed form its run's temporaries.
BLOCK_ATOMS = 128

# sparse_apply sums the kept entries this many terms at a time
# (_partial_product), so a threshold that keeps every entry holds 1 MiB
# of terms, not 16 bytes per entry. The default thresholds keep at most
# 31,013 entries on the reference frame, one block.
PRODUCT_BLOCK = 2 ** 16

# The square root of the separable squares dx^2 + dw^2 lies within a few
# ulps of np.hypot(dx, dw). Where a shell boundary is within this much of
# it, relative to the block's largest distance (plus an absolute part for
# squares that underflow), np.hypot decides the shell.
CERTIFY_RTOL = 1e-12
CERTIFY_ATOL = 1e-150


@dataclass(frozen=True, eq=False)
class GaborMatrix:
    """Gabor matrix and the canonical map of its lattice.

    entries has one row per lambda: entries[l, m] holds <T g_{lambda_l},
    g_{mu_m}>, and row l of chi holds chi(lambda_l), for the points
    lattice.points. The flags and distances are computed from chi.
    """

    operator_name: str
    grid: Grid
    window: object
    lattice: object
    entries: np.ndarray = field(repr=False)
    chi: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = len(self.lattice)
        if self.entries.shape != (n, n) or self.chi.shape != (n, 2):
            raise ValueError("entries need shape (|L|, |L|), chi (|L|, 2)")
        for arr in (self.entries, self.chi):
            arr.flags.writeable = False

    def __len__(self):
        return self.entries.size

    @property
    def n_lattice(self) -> int:
        return len(self.lattice)

    @functools.cached_property
    def flags(self) -> np.ndarray:
        """Read-only mask of the columns whose chi(lambda) is unreliable."""
        reach = np.array([self.grid.half_width, self.grid.freq_half_width])
        flags = np.any(np.abs(self.chi) > reach - RELIABLE_MARGIN, axis=1)
        flags.flags.writeable = False
        return flags

    def dense(self) -> np.ndarray:
        """Matrix with rows indexed by mu, columns by lambda."""
        return self.entries.T

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.entries)

    def _distances(self, columns) -> np.ndarray:
        """|mu - chi(lambda)|, mu over the lattice, a row per column."""
        pts, chi = self.lattice.points, self.chi[columns]
        dist = pts[None, :, 0] - chi[:, 0, None]
        np.hypot(dist, pts[None, :, 1] - chi[:, 1, None], out=dist)
        return dist

    @functools.cached_property
    def _cache(self) -> dict:
        return {}

    def _cached(self, key, make):
        """make()'s result, made once per key and kept in _cache."""
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def _samples(self, floor) -> tuple:
        """_above_floor's (dist, mags), cached per floor."""
        return self._cached(("samples", floor),
                            lambda: _above_floor(self, floor))

    def _counts(self, exclusion_radius) -> np.ndarray:
        """_shell_counts' counts, cached per exclusion radius."""
        return self._cached(("counts", exclusion_radius),
                            lambda: _shell_counts(self, exclusion_radius))

    def _shells(self, floor, exclusion_radius) -> CensoredShells:
        """_samples(floor) censored by _counts(exclusion_radius).

        Cached per (floor, exclusion_radius); the counts pass runs while
        the samples are held.
        """
        def censor():
            n_in = int(np.count_nonzero(~self.flags)) * self.n_lattice
            return censor_counted_shells(
                *self._samples(floor), self._counts(exclusion_radius),
                floor=floor, exclusion_radius=exclusion_radius, n_in=n_in)
        return self._cached(("shells", floor, exclusion_radius), censor)

    def _magnitude_order(self, tau) -> tuple:
        """Read-only (|M|, M, mu, lambda) by ascending |M|, from |M| >= tau.

        Cached in _cache with its cutoff: the entries at or above the
        smallest tau asked so far, the cutoff. The sort is stable, so the
        order of the entries at or above any tau is the same in every
        cache that holds them. A lower tau sorts only the entries it
        admits, tau <= |M| < cutoff, and puts them before the held ones:
        each lies below every held entry, so no tie spans the two, and
        the result is the stable sort of all it keeps.
        """
        cutoff, held = self._cache.get("order", (None, None))
        if held is not None and tau >= cutoff:
            return held
        if held is not None:
            # The held entries by flat index. The held order is freed
            # first, so it is never held together with the longer one.
            del self._cache["order"]
            held = held[2:]  # (mu, lam): |M| and M are freed
            held = np.ravel_multi_index(held[::-1], self.entries.shape)
        mags = self.magnitudes().ravel()
        above = mags >= tau
        if held is not None:
            above &= mags < cutoff
        flat = np.flatnonzero(above)
        del above
        flat = flat[np.argsort(mags[flat], kind="stable")]
        if held is not None:  # the entries just admitted, then those held
            flat = np.concatenate((flat, held))
            del held
        mags, entries = mags[flat], self.entries.ravel()[flat]
        lam, mu = np.divmod(flat, self.n_lattice, out=(None, flat))
        order = (mags, entries, mu, lam)
        for arr in order:
            arr.flags.writeable = False
        self._cache["order"] = tau, order
        return order

    def to_csv(self, path) -> None:
        """One %.17g row per entry, lambda-major; each point formatted once.

        Each point's text "x,w," is formatted once, NUL-padded to one
        width. A lambda's rows are one signals._csv_rows call, led by its
        point and each mu, so no more than one lambda's values and text
        are held. abs is np.hypot of the parts, which is bitwise the
        scalar abs of each entry; np.abs on the array can differ from it
        in the last digit, and the file is kept bitwise stable.
        """
        lines = bytes(_csv_rows(self.lattice.points)).split(b"\n")[:-1]
        points = np.array([p + b"," for p in lines]).view(np.uint8)
        points = points.reshape(self.n_lattice, -1)
        width = points.shape[1]
        lead = np.empty((self.n_lattice, 2 * width), np.uint8)
        lead[:, width:] = points
        values = np.empty((self.n_lattice, 4))
        with open(path, "wb") as fh:
            fh.write(b"lambda1,lambda2,mu1,mu2,re,im,abs,dist\n")
            for k, (lam, column) in enumerate(zip(points, self.entries)):
                values[:, 0], values[:, 1] = column.real, column.imag
                np.hypot(column.real, column.imag, out=values[:, 2])
                values[:, 3] = self._distances(slice(k, k + 1))[0]
                lead[:, :width] = lam
                fh.write(_csv_rows(values, lead))


@dataclass(frozen=True)
class DecayFit(ShellFit):
    """Decay law fit |M| ~ C exp(-eps d^(1/s)) plus an envelope calibration.

    The ShellFit of the operator's matrix (shell means), whose to_dict
    writes fit*.json; the envelope pair is calibrated so
    exp(envelope_log_c - envelope_epsilon d^(1/s_hat)) dominates every
    above-floor sample, for pointwise bound checks.
    """

    operator: str
    envelope_log_c: float
    envelope_epsilon: float

    def to_dict(self) -> dict:
        return super().to_dict(self.operator)


@dataclass(frozen=True)
class SparsityReport:
    """Per-row (or per-column) tail fits log a_n ~ log C - eps n^exponent."""

    exponent_used: float
    epsilons: np.ndarray = field(repr=False)
    log_cs: np.ndarray = field(repr=False)
    r_squareds: np.ndarray = field(repr=False)

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

    On a Gaussian window, an operator that carries its matrix and no
    multiplier, or a multiplier on the identity matrix, takes its closed
    form (metaplectic._closed_form_source); its entries hold no
    subnormal part. Any other operator or window takes the quadrature
    (_quadrature_source), with its noise near 1e-14 of the peak. Either
    source fills the entries, allocated here once, a run of whole
    lattice times at a time: BLOCK_ATOMS lambdas at most, one lattice
    time at least. chi is canonical_map's on every path.
    """
    # First, so a degenerate operator or a Newton failure is refused
    # before any entry is computed.
    lattice = frame.lattice
    chi = canonical_map(op, lattice.points)
    fill = (_closed_form_source(op, frame.window, lattice, frame.grid)
            or _quadrature_source(op, frame))
    n, n_x, n_w = len(lattice), len(lattice.times), len(lattice.freqs)
    step = max(1, BLOCK_ATOMS // n_w)
    entries = np.empty((n, n), dtype=complex)
    for first in range(0, n_x, step):
        times = slice(first, min(first + step, n_x))
        fill(times, entries[times.start * n_w:times.stop * n_w])
    return GaborMatrix(
        operator_name=op.name, grid=frame.grid, window=frame.window,
        lattice=lattice, entries=entries, chi=chi)


def _quadrature_source(op: FioOperator, frame: GaborFrame):
    """Row source of <T g_lambda, g_mu> by quadrature.

    The frame's atoms are built on the doubled grid, and a fill pushes
    those of its run of lattice times through the operator. The
    outputs T g_lambda are paired with the atoms g_mu of each time x
    over only the rows their window reaches (gabor._atom_rows), one
    product per run and x, written straight into the run's rows. The
    conjugated analysis atoms are held over those rows only, and every
    shift and wave is computed once, with the source (gabor._shifted,
    and gabor._waves conjugated). The runs change only which products
    run together, not what each entry sums, so the rows do not depend
    on the run. Callers check nondegeneracy.
    """
    pad = frame.grid.doubled()
    shifted = _shifted(frame.window, pad, frame.lattice.times)
    waves = _waves(frame.lattice.freqs, pad).conj()  # exp(2 pi i w t)
    # A Lattice lists every w for each x in turn, so the atom at the k-th
    # x and j-th w is column k n_w + j, and a run of times is a run of
    # columns.
    n_w = waves.shape[1]
    rows = [slice(lo, hi) for lo, hi in _atom_rows(shifted)]
    analysis = [(shifted[r, k, None] * waves[r]).conj()
                for k, r in enumerate(rows)]
    # Every run's atoms go into one array, made at the first fill and
    # made anew only for a longer run: built fresh per run, the
    # multi-MiB arrays were mapped and page-faulted anew each time,
    # which made the reference frame's assemble 25% slower.
    block_atoms = np.empty((pad.points_per_axis, 0, n_w), dtype=complex)

    def fill(times: slice, out: np.ndarray) -> None:
        nonlocal block_atoms
        n_times = times.stop - times.start
        if block_atoms.shape[1] < n_times:
            block_atoms = np.empty((len(block_atoms), n_times, n_w),
                                   dtype=complex)
        atoms = block_atoms[:, :n_times]
        np.multiply(shifted[:, times, None], waves[:, None, :], out=atoms)
        t_atoms = _apply_columns(op, pad, atoms.reshape(len(atoms), -1))
        for k, (r, conj_atoms) in enumerate(zip(rows, analysis)):
            np.matmul(t_atoms[r].T, conj_atoms,
                      out=out[:, k * n_w:(k + 1) * n_w])
        out *= pad.spacing

    return fill


def _row_blocks(matrix: GaborMatrix):
    """The fits' passes' blocks: (rows, dx, dw) of BLOCK_ROWS lambdas.

    rows are unflagged lambdas, ascending; dx and dw hold the lattice
    times and frequencies minus their chi, a row per lambda.
    """
    unflagged = np.flatnonzero(~matrix.flags)
    times, freqs = matrix.lattice.times, matrix.lattice.freqs
    for lo in range(0, unflagged.size, BLOCK_ROWS):
        rows = unflagged[lo:lo + BLOCK_ROWS]
        yield rows, times - matrix.chi[rows, :1], freqs - matrix.chi[rows, 1:]


def _above_floor(matrix: GaborMatrix, floor) -> tuple:
    """The fits' samples pass over the entries: (dist, mags).

    dist and mags are the np.hypot distances and np.abs magnitudes of the
    entries of unflagged lambdas at or above floor, lambda-major. The
    pass reads BLOCK_ROWS lambdas at a time, and takes np.hypot of the
    kept entries only.
    """
    dists, mags = [], []
    for rows, dx, dw in _row_blocks(matrix):
        if rows[-1] - rows[0] == len(rows) - 1:  # a run: no copy
            block = np.abs(matrix.entries[rows[0]:rows[-1] + 1])
        else:
            block = np.abs(matrix.entries[rows])
        above = np.flatnonzero(block >= floor)
        mags.append(block.ravel()[above])
        dists.append(_exact_distances(dx, dw, above))
    # One at a time, so the blocks and the whole of both are never held
    # together.
    dists = np.concatenate([np.zeros(0)] + dists)
    mags = np.concatenate([np.zeros(0)] + mags)
    for arr in (dists, mags):
        arr.flags.writeable = False
    return dists, mags


def _shell_counts(matrix: GaborMatrix, exclusion_radius) -> np.ndarray:
    """The fits' counts pass: per shell, the entries past the radius.

    counts[i] holds how many entries of unflagged lambdas in shell i lie
    at or past exclusion_radius (all of them when it is None), whatever
    their magnitude: bitwise fitting.censor_shells' count of the flat
    samples, np.bincount of the shell indices floor(d / SHELL_WIDTH) of
    the np.hypot distances d >= exclusion_radius. The pass reads chi,
    the flags and the lattice, and no entry.

    It reads BLOCK_ROWS lambdas at a time. Their entries' shell indices
    come from the separable squares (_shell_indices); only the entries
    of the shell that holds exclusion_radius take np.hypot for the
    exclusion test, since SHELL_WIDTH is a power of two, so d /
    SHELL_WIDTH is exact and every other shell lies wholly on one side
    of the radius.
    """
    # Shells below edge lie wholly inside the exclusion radius, shells
    # above it wholly past it; n_edge counts the entries of shell edge
    # that lie at or past it.
    if exclusion_radius is None or exclusion_radius <= 0:
        edge = None  # every entry is past it
    elif exclusion_radius < 2.0 ** 62 * SHELL_WIDTH:
        edge = math.floor(exclusion_radius / SHELL_WIDTH)
    else:
        edge = 2 ** 62  # past every shell (NaN included)
    n_edge = 0
    counts = np.zeros(0, dtype=np.intp)
    for _, dx, dw in _row_blocks(matrix):
        idx = _shell_indices(dx, dw)
        block = np.bincount(idx.ravel(), minlength=counts.size)
        if edge is not None and edge < block.size:
            at_edge = np.flatnonzero(idx == edge)
            n_edge += int(np.count_nonzero(
                _exact_distances(dx, dw, at_edge) >= exclusion_radius))
        del idx
        block[:counts.size] += counts
        counts = block
    if edge is not None:
        counts[:edge] = 0
        if edge < counts.size:
            counts[edge] = n_edge
        counts = np.trim_zeros(counts, "b")
    counts.flags.writeable = False
    return counts


def _shell_indices(dx, dw) -> np.ndarray:
    """floor(np.hypot(dx, dw) / SHELL_WIDTH) of a pass's block.

    dx and dw hold the block's lattice times and frequencies minus chi,
    a row per lambda; the result has a row per lambda and a column per
    lattice point. Each index is first that of the square root of the
    separable squares, which lies within a few ulps of np.hypot. Where it
    lies within CERTIFY_RTOL of a shell boundary, relative to the block's
    largest distance, np.hypot decides.
    """
    q = (np.square(dx / SHELL_WIDTH)[:, :, None]
         + np.square(dw / SHELL_WIDTH)[:, None, :])
    np.sqrt(q, out=q)  # d / SHELL_WIDTH
    idx = q.astype(np.intp)  # floor, as q >= 0
    slack = CERTIFY_RTOL * float(np.max(q, initial=0.0)) + CERTIFY_ATOL
    # Each q's distance to the nearest integer.
    np.subtract(q, np.rint(q), out=q)
    np.abs(q, out=q)
    unsure = np.flatnonzero(q <= slack)
    if unsure.size:
        idx.ravel()[unsure] = _shell_index(_exact_distances(dx, dw, unsure))
    return idx.reshape(len(dx), -1)


def _exact_distances(dx, dw, flat) -> np.ndarray:
    """np.hypot(dx, dw) at flat positions of a pass's (b, n_x, n_w) block.

    dx and dw hold the block's lattice times and frequencies minus chi,
    a row per lambda; the point of time i and frequency j is the entry
    i n_w + j of a row, as Lattice lists them.
    """
    row, time, freq = np.unravel_index(flat, (len(dx), dx.shape[1],
                                              dw.shape[1]))
    return np.hypot(dx[row, time], dw[row, freq])


def fit_decay(matrix: GaborMatrix, *, floor: float = 1e-14,
              exclusion_radius: float = 0.5, s_grid=None) -> DecayFit:
    """Fit the concentration law of a Gabor matrix.

    Same procedure as the STFT classifier (shell means over the s grid),
    applied to the magnitudes of unflagged entries, with a near-diagonal
    exclusion: below exclusion_radius the discrete distance does not
    resolve the law. Requires MIN_FIT_SAMPLES entries at or above floor
    and at or past exclusion_radius, the fit's n_samples.

    The envelope pair is calibrated on the same samples: the constant is
    the peak magnitude and the rate is the largest one the peak-anchored
    envelope can afford while still dominating every sample.
    """
    fit = scan_orders(matrix._shells(floor, exclusion_radius),
                      s_grid=s_grid, min_samples=MIN_FIT_SAMPLES)
    # Every sample at or above the floor, past the radius or not.
    dist, mags = matrix._samples(floor)

    env_log_c = float(np.max(np.log(mags)))
    if np.any(dist > 1e-9):
        # The fits' two temporaries (cli._memory_table). At small s_hat,
        # d**(1/s_hat) overflows (ratio 0: no positive rate keeps that
        # sample under the envelope) or underflows (floored at the
        # smallest normal float: a huge ratio, since every rate does).
        with np.errstate(over="ignore"):
            scale = dist ** (1.0 / fit.s_hat)
            np.maximum(scale, np.finfo(float).tiny, out=scale)
            ratios = np.log(mags)
            np.subtract(env_log_c, ratios, out=ratios)
            ratios /= scale
        del scale
        ratios[dist <= 1e-9] = np.inf  # no distance: no bound on the rate
        env_eps = float(max(0.0, np.min(ratios)))
    else:
        env_eps = 0.0

    return DecayFit(**vars(fit), operator=matrix.operator_name,
                    envelope_log_c=env_log_c, envelope_epsilon=env_eps)


def restricted_decay_fit(matrix: GaborMatrix, s: float, *,
                         floor: float = 1e-14,
                         exclusion_radius: float = 0.5):
    """Decay-rate fit with the order s imposed instead of grid-searched.

    fit_decay's shell fit over the one-element grid (s,), on the same
    censored shells and with any positive number of samples. Returns
    (epsilon, log_c, r_squared) for comparing candidate orders directly.
    """
    fit = scan_orders(matrix._shells(floor, exclusion_radius), s_grid=(s,),
                      min_samples=1)
    return fit.epsilon_hat, fit.log_c, fit.r_squared


def decay_bound_check(matrix: GaborMatrix, fit: DecayFit) -> dict:
    """Check every reliable entry against the slackened envelope bound.

    Entries below NOISE_FLOOR are quadrature noise and are skipped. As the
    envelope dominates every sample at or above fit's floor, the check can
    fail only at a floor above NOISE_FLOOR (at or below it, max_ratio is
    1 / CONSTANT_SLACK = 0.952 to within an ulp). Returns checked and violation
    counts plus the worst entry/bound ratio. The entries are the samples
    at NOISE_FLOOR (GaborMatrix._samples), which a fit at that floor has
    already taken.
    """
    dist, mags = matrix._samples(NOISE_FLOOR)
    # At small s_hat, d**(1/s_hat) overflows. Capped at the largest float,
    # a zero rate still gives a flat envelope (not 0 * inf = nan), and a
    # positive one a zero bound, so any sample there is a violation
    # (ratio inf).
    with np.errstate(over="ignore", divide="ignore"):
        scale = dist ** (1.0 / fit.s_hat)
        np.minimum(scale, np.finfo(float).max, out=scale)
        bound = (CONSTANT_SLACK * np.exp(fit.envelope_log_c)
                 * np.exp(-RATE_SLACK * fit.envelope_epsilon * scale))
        ratio = mags / bound
    return {
        "checked": int(mags.size),
        "violations": int(np.sum(ratio > 1.0)),
        "max_ratio": float(ratio.max()) if ratio.size else 0.0,
    }


def sparsity_curve(matrix: GaborMatrix, s_hat: float, *, axis: str = "rows",
                   floor: float = 1e-14) -> SparsityReport:
    """Fit each row's (or column's) sorted magnitudes against n^(1/(2s)).

    Rows are output indices mu (restricted to unflagged columns); columns
    are input indices lambda (flagged columns skipped entirely). Vectors
    with fewer than three entries above floor are skipped. All vectors
    are fitted in one call of fitting.sorted_tail_fits, which reads them
    one block of BLOCK_ROWS vectors at a time; each block's magnitudes
    are taken from the entries as it is read, so no copy of all the
    magnitudes is held.
    """
    if axis not in ("rows", "cols"):
        raise ValueError(f"axis must be 'rows' or 'cols', got {axis!r}")
    if not s_hat > 0:
        raise ValueError(f"s_hat must be positive, got {s_hat:g}")
    exponent = 1.0 / (2.0 * s_hat)
    entries, unflagged = matrix.entries, np.flatnonzero(~matrix.flags)
    # np.abs reads a contiguous copy, as it read the whole matrix.
    if axis == "rows":
        blocks = (np.abs(entries[unflagged, lo:lo + BLOCK_ROWS]).T
                  for lo in range(0, matrix.n_lattice, BLOCK_ROWS))
    else:
        blocks = (np.abs(entries[unflagged[lo:lo + BLOCK_ROWS]])
                  for lo in range(0, unflagged.size, BLOCK_ROWS))
    eps, logc, r2 = sorted_tail_fits(blocks, exponent, floor=floor)
    return SparsityReport(exponent_used=exponent, epsilons=eps, log_cs=logc,
                          r_squareds=r2)


def _partial_product(order: tuple, coeffs, part: slice, n: int):
    """Sum of M[mu, lambda] coeffs[lambda] by mu over part of the order.

    PRODUCT_BLOCK terms at a time. np.add.at sums in order, so the sums
    are bitwise np.bincount's over the blocks' terms, without its copies
    of inputs. A block's terms may not be bitwise one product's: from
    16,384 terms numpy reuses the gathered coefficients as the output
    and multiplies with the operands swapped, and complex products are
    not bitwise commutative.
    """
    _, entries, mu, lam = order
    out = np.zeros(n, dtype=complex)
    for lo in range(part.start, part.stop, PRODUCT_BLOCK):
        b = slice(lo, min(lo + PRODUCT_BLOCK, part.stop))
        np.add.at(out, mu[b], entries[b] * coeffs[lam[b]])
    return out


def sparse_apply(matrix: GaborMatrix, frame: GaborFrame, f: SampledSignal,
                 tau: float):
    """Apply the operator through the thresholded Gabor matrix.

    Coefficients come from analysis with the frame's expansion dual
    (GaborFrame.dual_analysis); entries with |M| < tau are dropped; the
    output is synthesized with the expansion dual. Returns (signal,
    kept_ratio) where kept_ratio counts surviving entries against
    len(lattice)^2.
    tau = 0 keeps everything; tau = inf yields the zero signal, ratio 0.
    frame and f must be on the frame the matrix was assembled on.

    tau = 0 is one dense product. Any other threshold is a binary search
    in the matrix's magnitude order (GaborMatrix._magnitude_order),
    cached on the matrix and holding only the entries the thresholds
    asked so far keep, and the product sums exactly the kept entries
    (_partial_product): O(kept) past the order. Its worst case is a
    threshold that keeps every entry, which holds 40 bytes per entry and
    one block of terms, and sums every entry term by term, 4-8x a dense
    product's time. The dual analysis and synthesis cost N |L|
    flops each, but hold only the frame's factors, O(N (n_x + n_w))
    values (gabor._windowed_sums, gabor._synthesis), not an N x |L|
    matrix. The frame keeps the coefficients of the last signal it
    analysed, so a threshold after the first on one f costs its product
    and one synthesis.
    """
    if math.isnan(tau) or tau < 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    if (frame.window, frame.lattice, frame.grid, f.grid) != (
            matrix.window, matrix.lattice, matrix.grid, matrix.grid):
        raise ValueError("frame or signal is not on the frame the matrix "
                         "was assembled on")
    coeffs = frame.dual_analysis(f)
    if tau == 0:
        return frame.dual_synthesis(matrix.dense() @ coeffs), 1.0
    order = matrix._magnitude_order(tau)
    # The order's entries from the first |M| >= tau on are those kept.
    kept = slice(int(np.searchsorted(order[0], tau)), order[0].size)
    ratio = (kept.stop - kept.start) / float(len(matrix))
    out_coeffs = _partial_product(order, coeffs, kept, matrix.n_lattice)
    return frame.dual_synthesis(out_coeffs), ratio
