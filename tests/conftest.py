"""Shared fixtures: one production-scale frame and the matrices built on it.

Scale matches the documented reference setup: dimension 1, 1024 samples on a
window of length 32, gaussian(2) analysis window, lattice steps 1/sqrt(2),
truncation 8.  Everything heavy is session-scoped so the suite builds each
object exactly once.
"""

import numpy as np
import pytest

import gaborfio as gf
from gaborfio import gabor as gab
from gaborfio import gmatrix

PROD_N = 1024
PROD_L = 32.0
LATTICE_STEP = 2.0 ** -0.5
TRUNCATION = 8.0

# Assembled-matrix fits run with the floor lifted to 1e-12, as README
# advises for matrices assembled by quadrature: their noise sits around
# 1e-14 and poisons shells at the default floor.  STFT-sample fits keep
# the 1e-14 default.
MATRIX_FLOOR = 1e-12


def rel_error(candidate, reference):
    """L2 error of candidate against reference, relative to the reference."""
    return float(np.linalg.norm(candidate.values - reference.values)
                 / np.linalg.norm(reference.values))


def lstsq_line_fit(xs, ys):
    """ys ~ logC - eps*xs by np.linalg.lstsq: the closed-form fits' oracle.

    The design is the fits': xs centred on sum(xs / n) and scaled to
    [-1, 1]. Returns (eps, logc, ssr, r2); r2 is 1 when ys is constant.
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


def atom_matrix(source, grid, points):
    """Atoms source(t - x) exp(2 pi i w t) on grid, one column per (x, w).

    The product of the library's factors, gabor._shifted and the
    conjugated gabor._waves, taken whole: N x |points| complex values.
    The library builds no such matrix; this is the oracle of its factored
    sums (analysis, synthesis, Gram matrix, quadrature).
    """
    xs, column_x, ws, column_w = gab._distinct_axes(points)
    return (gab._shifted(source, grid, xs)[:, column_x]
            * gab._waves(ws, grid).conj()[:, column_w])


def source_entries(fill, lattice, times_per_run=None):
    """The entries a row source fills, times_per_run lattice times a run.

    By default in assemble's runs: gmatrix.BLOCK_ATOMS lambdas at most,
    one lattice time at least.
    """
    n_x, n_w = len(lattice.times), len(lattice.freqs)
    step = times_per_run or max(1, gmatrix.BLOCK_ATOMS // n_w)
    entries = np.empty((len(lattice), len(lattice)), dtype=complex)
    for first in range(0, n_x, step):
        stop = min(first + step, n_x)
        fill(slice(first, stop), entries[first * n_w:stop * n_w])
    return entries


def quadrature_entries(op, frame):
    """<T g_lambda, g_mu> by the quadrature (gmatrix._quadrature_source),
    a row per lambda: the oracle of both closed forms."""
    return source_entries(gmatrix._quadrature_source(op, frame),
                          frame.lattice)


def chi_distances(m):
    """|mu - chi(lambda)| of every entry of m, a row per lambda.

    One np.hypot of the lattice minus m.chi, independent of the matrix's
    own distance helper: the oracle for the distances its fits and
    matrix.csv read.
    """
    pts = m.lattice.points
    return np.hypot(pts[None, :, 0] - m.chi[:, 0, None],
                    pts[None, :, 1] - m.chi[:, 1, None])


def zero_matrix(chi, truncation):
    """A matrix on the reference lattice steps, every entry 0.

    Every lambda has the same chi, so every row holds the distances of
    the lattice to that one point. The fits' counts pass
    (gmatrix._shell_counts) reads no entry, only chi and the lattice; no
    entry reaches a positive floor in the samples pass.
    """
    lattice = gf.make_lattice(LATTICE_STEP, LATTICE_STEP, truncation)
    n = len(lattice)
    return gf.GaborMatrix(
        operator_name="zero", grid=gf.Grid(1, PROD_N, PROD_L),
        window=gf.gaussian(2.0), lattice=lattice,
        entries=np.zeros((n, n), dtype=complex),
        chi=np.broadcast_to(np.asarray(chi, dtype=float), (n, 2)).copy())


def centered_gaussian(grid, width):
    return gf.gaussian(width).sampled(grid)


@pytest.fixture(scope="session")
def grid():
    return gf.Grid(1, PROD_N, PROD_L)


@pytest.fixture(scope="session")
def g2_frame(grid):
    lattice = gf.make_lattice(LATTICE_STEP, LATTICE_STEP, TRUNCATION)
    return gf.GaborFrame(gf.gaussian(2.0), lattice, grid)


@pytest.fixture(scope="session")
def g1_frame(grid):
    lattice = gf.make_lattice(LATTICE_STEP, LATTICE_STEP, TRUNCATION)
    return gf.GaborFrame(gf.gaussian(1.0), lattice, grid)


@pytest.fixture(scope="session")
def dual_frame(g2_frame):
    """The production frame with bounds and dual window already solved."""
    gf.dual_window(g2_frame)
    return g2_frame


@pytest.fixture(scope="session")
def matrices(g2_frame):
    """Gabor matrices of every shipped operator on the production frame."""
    return {
        name: gf.assemble(gf.parse_operator(name), g2_frame)
        for name in gf.shipped_operator_names()
    }


@pytest.fixture(scope="session")
def harmonic_matrix(matrices):
    return matrices["harmonic:0.7853981633974483"]


@pytest.fixture(scope="session")
def harmonic_g1_matrix(g1_frame):
    """Quarter-period rotation against the width-1 window.

    The closed-form concentration law 2^{-1/2} exp(-(pi/2) dist^2) is exact
    for this window; the width-2 window exceeds it already on the diagonal.
    """
    op = gf.parse_operator("harmonic:0.7853981633974483")
    return gf.assemble(op, g1_frame)


@pytest.fixture(scope="session")
def fits(matrices):
    return {
        name: gf.fit_decay(m, floor=MATRIX_FLOOR)
        for name, m in matrices.items()
    }
