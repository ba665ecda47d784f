"""Assembled Gabor matrices: concentration, decay fits, sparse application."""

import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest

import gaborfio as gf
from gaborfio.fio import _apply_columns, _dense_columns
from gaborfio.fitting import shell_decay_fit
from gaborfio.gabor import ENVELOPE_FLUSH, _atom_rows
from gaborfio.gmatrix import _quadrature_source
from gaborfio.metaplectic import _closed_form_source
from conftest import (MATRIX_FLOOR, LATTICE_STEP, TRUNCATION, atom_matrix,
                      centered_gaussian, chi_distances, lstsq_line_fit,
                      quadrature_entries, rel_error, source_entries)


# phi = 0.3 sin 2x with phi' and phi'': a second multiplier phase.
SIN_MULTIPLIER = (lambda x: 0.3 * np.sin(2 * x),
                  lambda x: 0.6 * np.cos(2 * x),
                  lambda x: -1.2 * np.sin(2 * x))
MULTIPLIERS = {"sin": SIN_MULTIPLIER,
               "cos": gf.parse_operator("multiplier:cos").multiplier}


def _operator(name):
    """A parse_operator spec, or <spec>+<sin|cos>: the matrix of that
    operator followed by the multiplier exp(2 pi i phi) of the phase."""
    spec, _, phase = name.partition("+")
    op = gf.parse_operator(spec)
    if not phase:
        return op
    return gf.build_metaplectic(op._matrix, name=name,
                                multiplier=MULTIPLIERS[phase])


def _synthetic_matrix(truncation=4.0, rate=3.0):
    """Hand-built matrix with |entries| = exp(-rate * dist), chi = identity.

    Built from its entries and chi only; no column is flagged.
    """
    grid = gf.Grid(1, 1024, 32.0)
    lat = gf.make_lattice(LATTICE_STEP, LATTICE_STEP, truncation)
    pts = lat.points
    dist = np.hypot(pts[None, :, 0] - pts[:, None, 0],
                    pts[None, :, 1] - pts[:, None, 1])
    return gf.GaborMatrix(
        operator_name="synthetic", grid=grid, window=gf.gaussian(2.0),
        lattice=lat, entries=np.exp(-rate * dist).astype(complex),
        chi=pts.copy())


# ------------------------------------------------------------- assembly

def test_identity_matrix_closed_form(matrices):
    # For the width-2 window, |<g_mu, g_lambda>| factors into a width-4
    # Gaussian in the time offset and a width-1 Gaussian in frequency.
    m = matrices["identity"]
    pts = m.lattice.points
    w1 = pts[None, :, 0] - pts[:, None, 0]
    w2 = pts[None, :, 1] - pts[:, None, 1]
    law = np.exp(-np.pi * w1 ** 2 / 4.0 - np.pi * w2 ** 2)
    assert np.max(np.abs(m.magnitudes() - law)) <= 1e-12


def test_harmonic_matrix_closed_form(harmonic_matrix):
    # The width-2 window's rotation matrix follows the closed-form law;
    # measured agreement is 1.4e-14.
    law = gf.metaplectic_law(
        gf.build_metaplectic(gf.rotation_matrix(math.pi / 4)),
        harmonic_matrix.lattice, harmonic_matrix.window)
    assert np.max(np.abs(harmonic_matrix.magnitudes() - law)) <= 1e-12


@pytest.mark.parametrize("spec, mat", [
    pytest.param("metaplectic:dilation:2.0", gf.dilation_matrix(2.0),
                 id="dilation:2.0"),
    pytest.param("metaplectic:dilation:0.6", gf.dilation_matrix(0.6),
                 id="dilation:0.6"),
    pytest.param("metaplectic:dilation:0.5", gf.dilation_matrix(0.5),
                 id="dilation:0.5"),
    pytest.param("metaplectic:dilation:0.4", gf.dilation_matrix(0.4),
                 id="dilation:0.4"),
    pytest.param("metaplectic:chirp:1.0", gf.chirp_matrix(1.0),
                 id="chirp:1.0"),
    pytest.param("metaplectic:chirp:1.5", gf.chirp_matrix(1.5),
                 id="chirp:1.5"),
] + [pytest.param(f"harmonic:{t}", gf.rotation_matrix(t), id=f"harmonic:{t}")
     for t in (1.25, 1.3, 1.4, 1.5, 1.55)])
def test_metaplectic_matrix_closed_form(matrices, g2_frame, spec, mat):
    # The law of the rotation case above, for the other metaplectic
    # matrices, on their unflagged columns; measured agreement is 1.5e-15
    # at worst. The harmonic times from 1.25 on are past what the doubled
    # grid's quadrature resolves: it missed the law there by 1.5e-4 to
    # 1.0 of the peak, with no column flagged.
    m = (matrices[spec] if spec in matrices
         else gf.assemble(gf.parse_operator(spec), g2_frame))
    law = gf.metaplectic_law(gf.build_metaplectic(mat), m.lattice, m.window)
    keep = ~m.flags
    assert np.max(np.abs(m.magnitudes()[keep] - law[keep])) <= 1e-12


def _cos_multiplier_law(m):
    """multiplier:cos's entries on m's frame by Jacobi-Anger.

    exp(2 pi i cos x) = sum_n i^n J_n(2 pi) exp(i n x), so each entry is
    a sum of Gaussian overlaps <M_{n/2pi} g_lambda, g_mu> in closed form;
    J_n(2 pi) ~ pi^n / n! is below 1e-17 past |n| = 30. J_n is
    (1/pi) int_0^pi cos(n s - x sin s) ds by the midpoint rule, exact to
    rounding for a periodic integrand.
    """
    width = m.window.width
    pts = m.lattice.points
    x, w = pts[:, None, 0], pts[:, None, 1]
    y, v = pts[None, :, 0], pts[None, :, 1]
    ns = np.arange(-30, 31)
    nodes = np.pi * (np.arange(64) + 0.5) / 64
    bessel = np.mean(np.cos(np.outer(ns, nodes)
                            - 2 * np.pi * np.sin(nodes)), axis=1)
    law = np.zeros((len(pts), len(pts)), dtype=complex)
    for n, j_n in zip(ns, bessel):
        freq = n / (2 * np.pi) + w - v
        law += (1j ** n * j_n * np.exp(1j * np.pi * freq * (x + y)
                                       - np.pi * width * freq ** 2 / 2))
    law *= np.sqrt(width / 2) * np.exp(-np.pi * (x - y) ** 2 / (2 * width))
    return law


def test_cos_multiplier_matrix_closed_form(matrices):
    # Measured agreement is 3.7e-14 (1.8e-14 for the quadrature).
    m = matrices["multiplier:cos"]
    assert np.max(np.abs(m.entries - _cos_multiplier_law(m))) <= 1e-12


def test_cos_multiplier_matrix_carries_no_quadrature_noise(matrices,
                                                           g2_frame):
    """Where the law is under 1e-20, the closed form's entries stay under
    1e-15 (measured 1.5e-16), and so do the quadrature's (measured
    4.6e-16): both take their waves from gabor._waves, which reduces each
    wave's phase to a fraction of a cycle. The quadrature's own waves of
    a rounded w t left 8.6e-15 there."""
    m = matrices["multiplier:cos"]
    tiny = np.abs(_cos_multiplier_law(m)) < 1e-20
    assert tiny.sum() > m.n_lattice ** 2 / 2
    assert np.max(np.abs(m.entries[tiny])) <= 1e-15
    quad = quadrature_entries(gf.parse_operator("multiplier:cos"), g2_frame)
    assert np.max(np.abs(quad[tiny])) <= 1e-15


COVARIANT = ("identity", "metaplectic:chirp:1.0", "multiplier:poly:0.3",
             "metaplectic:dilation:2.0", "harmonic:0.7853981633974483",
             "metaplectic:dilation:-0.5", "harmonic:1.2")


@pytest.mark.parametrize("width", [1.0, 2.0])
@pytest.mark.parametrize("name", COVARIANT)
def test_covariant_assembly_matches_quadrature(grid, width, name):
    """The closed form against the quadrature it replaces in assemble.

    Complex entries, phases included, agree to 1e-12 of the peak on
    unflagged columns (measured <= 1.7e-13, at harmonic 1.2); flagged
    columns differ where the quadrature's grid truncates them. No real
    or imaginary part of the closed form is subnormal: parts under
    ENVELOPE_FLUSH times the peak are 0.
    """
    frame = gf.GaborFrame(gf.gaussian(width), gf.make_lattice(
        LATTICE_STEP, LATTICE_STEP, TRUNCATION), grid)
    op = gf.parse_operator(name)
    m = gf.assemble(op, frame)
    quad = quadrature_entries(op, frame)
    keep = ~m.flags
    peak = np.max(np.abs(quad))
    assert np.max(np.abs(m.entries - quad)[keep]) <= 1e-12 * peak
    parts = np.abs(m.entries.view(float))
    assert not np.any((parts > 0) & (parts < ENVELOPE_FLUSH * peak))
    assert not np.any((parts > 0) & (parts < np.finfo(float).tiny))


def _assert_runs_do_not_matter(op, frame, kind):
    """assemble's entries against fills of the operator's row source.

    assemble allocates the entries and fills them from the source, a run
    of whole lattice times at a time: 5, 5, 5, 5 and 3 of the reference
    lattice's 23 times (BLOCK_ATOMS lambdas at most). Every row is
    computed on its own, so the entries are bitwise those of one fill of
    every lattice time, and of fills of one lattice time each.
    """
    m = gf.assemble(op, frame)
    fill = (_closed_form_source(op, frame.window, frame.lattice, frame.grid)
            or _quadrature_source(op, frame))
    assert fill.__qualname__ == f"_{kind}_source.<locals>.fill"
    n_x = len(frame.lattice.times)
    assert 1 < gf.gmatrix.BLOCK_ATOMS // len(frame.lattice.freqs) < n_x
    for times_per_run in (n_x, 1):
        assert np.array_equal(m.entries, source_entries(
            fill, frame.lattice, times_per_run))


@pytest.mark.parametrize("kind, window, name", [
    ("covariant", "gaussian:1", "harmonic:0.8"),
    ("multiplier", "gaussian:1", "multiplier:cos"),
    ("quadrature", "hermite:1:2", "harmonic:0.8")])
def test_assemble_fills_runs_of_lattice_times(grid, kind, window, name):
    # One loop for every source: the two closed forms, here on the
    # width-1 window, and the quadrature.
    frame = gf.GaborFrame(gf.parse_window(window), gf.make_lattice(
        LATTICE_STEP, LATTICE_STEP, TRUNCATION), grid)
    _assert_runs_do_not_matter(gf.parse_operator(name), frame, kind)


@pytest.mark.parametrize("name", COVARIANT)
def test_covariant_assembly_is_one_whole_lattice_call(g2_frame, name):
    # The covariant case above, for every covariant operator.
    _assert_runs_do_not_matter(gf.parse_operator(name), g2_frame,
                               "covariant")


@pytest.mark.parametrize("name", ["multiplier:cos", "identity+sin"])
def test_multiplier_assembly_does_not_depend_on_the_block(g2_frame, name):
    # The multiplier case above, for both multipliers on the width-2
    # window.
    _assert_runs_do_not_matter(_operator(name), g2_frame, "multiplier")


@pytest.fixture(scope="module")
def large_frame():
    """The N = 2048, L = 44, truncation 12 frame: 1089 lattice points."""
    return gf.GaborFrame(gf.gaussian(2.0), gf.make_lattice(
        LATTICE_STEP, LATTICE_STEP, 12.0), gf.Grid(1, 2048, 44.0))


@pytest.mark.parametrize("name", ["harmonic:1.2", "metaplectic:chirp:-1.5"])
def test_covariant_assembly_matches_quadrature_on_the_large_frame(
        large_frame, name):
    """The closed form, its phase expanded over lattice coordinates up to
    12, against the quadrature on unflagged columns: measured 2.8e-13
    and 1.5e-13 of the peak. From harmonic t of about 1.25 the
    quadrature's periodised sum aliases on this frame (7e-9 at 1.25,
    0.97 of the peak at 1.3), so the law checks t = 1.3 below.
    """
    op = gf.parse_operator(name)
    m = gf.assemble(op, large_frame)
    quad = quadrature_entries(op, large_frame)
    keep = ~m.flags
    assert keep.sum() > 900
    peak = np.max(np.abs(quad))
    assert np.max(np.abs(m.entries - quad)[keep]) <= 1e-12 * peak


@pytest.mark.parametrize("name", ["harmonic:1.3", "harmonic:1.55",
                                  "metaplectic:dilation:-0.5"])
def test_covariant_assembly_matches_law_on_the_large_frame(large_frame,
                                                           name):
    # The modulus against the overlap law on every column; measured
    # <= 1.9e-15 of the peak.
    op = gf.parse_operator(name)
    m = gf.assemble(op, large_frame)
    law = gf.metaplectic_law(op, m.lattice, m.window)
    assert np.max(np.abs(m.magnitudes() - law)) <= 1e-14 * np.max(law)


@pytest.mark.parametrize("window, name", [
    ("hermite:1:2", "harmonic:0.8"),
    ("gaussian:2", "metaplectic:chirp:0.5+sin"),
    ("gaussian:2", "metaplectic:chirp:0.5+cos")])
def test_assembly_outside_the_closed_form_is_the_quadrature(grid, window,
                                                            name):
    # A Hermite window, and a multiplier after any matrix but the
    # identity, have no closed form: assemble returns the quadrature's
    # entries bitwise.
    frame = gf.GaborFrame(gf.parse_window(window),
                          gf.make_lattice(0.5, 0.5, 6.0), grid)
    op = _operator(name)
    assert np.array_equal(gf.assemble(op, frame).entries,
                          quadrature_entries(op, frame))


@pytest.mark.parametrize("width", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("name", ["multiplier:cos", "identity+sin"])
def test_multiplier_assembly_matches_quadrature(grid, width, name):
    """A multiplier on the identity matrix, on a Gaussian window, takes
    the closed form of its windowed sums (metaplectic._multiplier_source)
    in assemble. Against the quadrature it replaces, complex entries on
    every column agree to 1e-13 of the peak (measured <= 3.3e-14). No
    real or imaginary part of the closed form is subnormal: parts under
    ENVELOPE_FLUSH times the peak are 0.
    """
    frame = gf.GaborFrame(gf.gaussian(width), gf.make_lattice(
        LATTICE_STEP, LATTICE_STEP, TRUNCATION), grid)
    op = _operator(name)
    m = gf.assemble(op, frame)
    quad = quadrature_entries(op, frame)
    peak = np.max(np.abs(quad))
    assert np.max(np.abs(m.entries - quad)) <= 1e-13 * peak
    parts = np.abs(m.entries.view(float))
    assert not np.any((parts > 0) & (parts < ENVELOPE_FLUSH * peak))
    assert not np.any((parts > 0) & (parts < np.finfo(float).tiny))


def test_multiplier_assembly_matches_quadrature_on_the_large_frame(
        large_frame):
    # Lattice times up to 12 on a 4096-point doubled grid: measured
    # 1.2e-13 of the peak on every column.
    op = gf.parse_operator("multiplier:cos")
    m = gf.assemble(op, large_frame)
    quad = quadrature_entries(op, large_frame)
    assert (np.max(np.abs(m.entries - quad))
            <= 5e-13 * np.max(np.abs(quad)))


@pytest.mark.parametrize("t", [0.3, 0.7853981633974483, 1.2, 1.4,
                               math.pi / 2 - 0.01])
def test_covariant_assembly_matches_law_on_every_column(g2_frame, t):
    # Two independent closed forms, the covariance and the overlap of
    # phase-space Gaussians, on flagged columns too and up to 0.01 from
    # the caustic; measured <= 1.6e-15 of the peak.
    op = gf.harmonic_oscillator(t)
    m = gf.assemble(op, g2_frame)
    law = gf.metaplectic_law(op, m.lattice, m.window)
    assert np.max(np.abs(m.magnitudes() - law)) <= 1e-14 * np.max(law)


@pytest.mark.parametrize("name", list(gf.shipped_operator_names()) + [
    "harmonic:1.2", "harmonic:1.3", "metaplectic:dilation:0.6",
    "metaplectic:dilation:-0.5"])
def test_factored_quadrature_matches_dense(g2_frame, name):
    """The chirp-z path against the dense kernel on the same sum.

    The dense side is the Gram product of the atoms with the dense
    kernel's output; the fast side is the quadrature assemble takes for
    operators outside the closed form. Matrices agree to 1e-12 of their
    peak (measured <= 1.0e-13). fio.apply of an f on the frame's grid is
    the same sum on the doubled grid, read on f's rows: it agrees with
    the dense kernel there to 1e-12 relative (measured <= 2.0e-13).
    """
    op = gf.parse_operator(name)
    assert op._matrix is not None
    grid = g2_frame.grid
    pad = grid.doubled()
    atoms = atom_matrix(g2_frame.window, pad, g2_frame.lattice.points)
    fast = quadrature_entries(op, g2_frame)
    slow = (pad.spacing * atoms.conj().T
            @ _dense_columns(op, pad, atoms)).T
    assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))

    f = gf.SampledSignal(grid, atom_matrix(gf.gaussian(2.0), grid,
                                           [(2.0, -1.5)])[:, 0])
    h = grid.points_per_axis // 2
    padded = np.zeros(pad.points_per_axis, dtype=complex)
    padded[h:3 * h] = f.values
    dense_f = gf.SampledSignal(grid, _dense_columns(op, pad, padded)[h:3 * h])
    assert rel_error(gf.apply(op, f), dense_f) <= 1e-12


@pytest.mark.parametrize("spec", ["gaussian:1", "gaussian:2", "hermite:2:2",
                                  "hermite:8:2"])
def test_atom_local_product_matches_full_gram(grid, spec):
    """The quadrature pairs each atom only over the rows its window
    reaches.

    The oracle is the full Gram product conj(A^T conj(T A)) of the same
    atoms over every row of the doubled grid. They agree to 1e-14 of the
    peak (measured <= 1.2e-15), while no atom's row range spans even half
    the grid.
    """
    window = gf.parse_window(spec)
    frame = gf.GaborFrame(
        window, gf.make_lattice(LATTICE_STEP, LATTICE_STEP, TRUNCATION), grid)
    op = gf.parse_operator("harmonic:0.9")
    pad = gf.Grid(1, 2 * grid.points_per_axis, 2 * grid.length)
    pts = frame.lattice.points
    atoms = atom_matrix(window, pad, pts)
    full = pad.spacing * (atoms.T @ _apply_columns(op, pad, atoms).conj()
                          ).conj()
    local = quadrature_entries(op, frame).T
    assert np.max(np.abs(local - full)) <= 1e-14 * np.max(np.abs(full))
    rows = _atom_rows(window.evaluate(pad.times()[:, None]
                                      - np.unique(pts[:, 0])))
    assert np.max(rows[:, 1] - rows[:, 0]) < pad.points_per_axis / 2


def _unblocked_entries(op, frame):
    """The quadrature's sum with every atom built and applied at once.

    The whole atom matrix on the doubled grid goes through one
    _apply_columns; each lattice time's atoms are then paired with every
    output over the rows their window reaches, one product per time.
    """
    pad = frame.grid.doubled()
    pts = frame.lattice.points
    n = len(pts)
    atoms = atom_matrix(frame.window, pad, pts)
    t_atoms = _apply_columns(op, pad, atoms)
    xs, starts = np.unique(pts[:, 0], return_index=True)
    stops = np.append(starts[1:], n)
    rows = _atom_rows(frame.window.evaluate(pad.times()[:, None] - xs))
    entries = np.empty((n, n), dtype=complex)
    for (lo, hi), a, b in zip(rows, starts, stops):
        np.matmul(t_atoms[lo:hi].T, atoms[lo:hi, a:b].conj(),
                  out=entries[:, a:b])
    entries *= pad.spacing
    return entries


@pytest.mark.parametrize("spec, alpha, beta, truncation, name", [
    # 23 lattice times of 23 atoms: blocks of 5, 5, 5, 5 and 3 times.
    ("gaussian:2", LATTICE_STEP, LATTICE_STEP, TRUNCATION, "harmonic:0.8"),
    ("gaussian:2", LATTICE_STEP, LATTICE_STEP, TRUNCATION,
     "metaplectic:chirp:1.0"),
    ("hermite:1:2", 0.5, 0.5, 6.0, "metaplectic:dilation:-0.6"),
    # 21 times of 27 atoms: blocks of 4 times and a last one of 1.
    ("gaussian:1", 0.8, 0.6, TRUNCATION, "harmonic:1.2"),
    # 5 times of 5 atoms: one block.
    ("gaussian:2", LATTICE_STEP, LATTICE_STEP, 2.0, "harmonic:0.8"),
])
def test_blocked_assembly_is_bitwise_unblocked(grid, spec, alpha, beta,
                                               truncation, name):
    """The quadrature, a block of lattice times at a time, sums exactly
    as the whole lattice at once: each column's apply and each entry's
    product run the same operations in the same order."""
    frame = gf.GaborFrame(gf.parse_window(spec),
                          gf.Lattice(alpha, beta, truncation, truncation),
                          grid)
    op = gf.parse_operator(name)
    assert np.array_equal(quadrature_entries(op, frame),
                          _unblocked_entries(op, frame))


def test_assembly_transient_memory_is_bounded_by_the_block(g2_frame):
    """assemble's traced peak, less the arrays it returns, on the
    reference frame (2N = 2048, 23 x 23 lattice), for an operator that
    takes the quadrature: cos's multiplier after a chirp.

    What it holds besides its output: one block's atoms and the apply's
    buffer of twice their rows, whose row moves go a column at a time
    and copy nothing, 48 (2N) BLOCK_ATOMS bytes (12 MiB); the
    conjugated analysis atoms over their rows, 16 |L| rows bytes at most
    (3.5 MiB); and the shifts and waves, 24 (2N) bytes per lattice time
    (1.1 MiB). That sums to 16.6 MiB; measured 16.0 MiB. Moving the
    buffer's rows whole took a temporary of half of it, 17.4 MiB; atoms
    and buffer for the whole lattice at once left 53.9 MiB.
    """
    op = _operator("metaplectic:chirp:1.0+cos")
    pad = g2_frame.grid.doubled()
    pts = g2_frame.lattice.points
    n, xs = len(pts), np.unique(pts[:, 0])
    rows = _atom_rows(g2_frame.window.evaluate(pad.times()[:, None] - xs))
    bound = (48 * pad.points_per_axis * gf.gmatrix.BLOCK_ATOMS
             + 16 * n * int(np.max(rows[:, 1] - rows[:, 0]))
             + 24 * pad.points_per_axis * len(xs))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        m = gf.assemble(op, g2_frame)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for a in (m.entries, m.chi))
    assert peak - returned <= bound, (peak - returned) / 2 ** 20


def _closed_form_transient(name):
    """assemble's traced peak, less the arrays it returns, in bytes, on
    1089 lattice points (a 33 x 33 lattice), with the closed form's
    bound of 32 BLOCK_ATOMS |L| bytes (4.3 MiB)."""
    frame = gf.GaborFrame(gf.gaussian(2.0), gf.make_lattice(
        LATTICE_STEP, LATTICE_STEP, 12.0), gf.Grid(1, 1156, 34.0))
    op = gf.parse_operator(name)
    n = len(frame.lattice)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        m = gf.assemble(op, frame)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert n == 1089
    return (peak - sum(a.nbytes for a in (m.entries, m.chi)),
            32 * gf.gmatrix.BLOCK_ATOMS * n)


def test_covariant_assembly_transient_memory_is_one_block():
    """What the covariant closed form holds besides its output: its
    temporaries for BLOCK_ATOMS lambdas, a float exponent and the
    flush's masks, 32 BLOCK_ATOMS |L| bytes at most; measured 2.5 MiB.
    Complex temporaries per entry, as the unfactored phase held, left
    6.5 MiB. One more |L|^2 float array would add 9.0 MiB.
    """
    transient, bound = _closed_form_transient("harmonic:0.8")
    assert transient <= bound, transient / 2 ** 20


def test_multiplier_assembly_transient_memory_is_one_block():
    """What the multiplier's closed form holds besides its output. The
    windowed sums' factors, O(2N (n_x + n_w)) (6.0 MiB here), are
    released before the entries are allocated. Then it holds the flush's
    masks of one block of whole lattice times, at most BLOCK_ATOMS
    lambdas; measured 0.7 MiB.
    """
    transient, bound = _closed_form_transient("multiplier:cos")
    assert transient <= bound, transient / 2 ** 20


def test_dense_kernel_assembly_matches_factored():
    """assemble of an operator built from a bare Phase runs the dense
    kernel, a block of output rows at a time, for each block of atoms.
    On a 13 x 13 lattice (blocks of 9 and 4 lattice times) it agrees
    with the factored quadrature of the shipped operator to 1e-12 of
    the peak (measured 7.4e-15)."""
    small = gf.Grid(1, 256, 16.0)
    frame = gf.GaborFrame(gf.gaussian(2.0), gf.make_lattice(0.5, 0.5, 3.0),
                          small)
    shipped = gf.parse_operator("harmonic:0.7853981633974483")
    bare = gf.FioOperator(phase=shipped.phase, symbol=shipped.symbol)
    assert bare._matrix is None
    fast = gf.assemble(shipped, frame).entries
    slow = gf.assemble(bare, frame).entries
    assert np.max(np.abs(slow - fast)) <= 1e-12 * np.max(np.abs(fast))


def test_matrix_diagonal_is_unit(matrices):
    diag = np.abs(np.diag(matrices["identity"].dense()))
    assert np.max(np.abs(diag - 1.0)) <= 1e-12


def test_harmonic_concentration_bound(harmonic_g1_matrix):
    # Entries above the quadrature noise ceiling obey the rotated-Gaussian
    # law with 2 percent slack; the law is exact for the width-1 window.
    m = harmonic_g1_matrix
    keep = ~m.flags[:, None] & (m.magnitudes() >= 1e-12)
    bound = 2.0 ** -0.5 * np.exp(-0.5 * np.pi * chi_distances(m)[keep] ** 2)
    ratios = m.magnitudes()[keep] / (bound * 1.02)
    assert int(np.sum(ratios > 1.0)) == 0
    assert np.max(ratios) <= 1.0


def test_flag_counts_are_stable(matrices):
    # chi positions are exact lattice geometry, so the per-operator flag
    # counts are deterministic integers.
    expected = {
        "identity": 0,
        "multiplier:cos": 0,
        "metaplectic:chirp:1.0": 20,
        "metaplectic:dilation:2.0": 92,
        "harmonic:0.7853981633974483": 0,
    }
    counts = {name: int(m.flags.sum()) for name, m in matrices.items()}
    assert counts == expected


def test_dense_orientation(matrices):
    m = matrices["identity"]
    n = m.n_lattice
    assert m.dense()[3, 5] == m.entries[5, 3]
    assert len(m) == n * n
    assert np.all(m._samples(MATRIX_FLOOR)[0] >= 0)
    assert np.all(np.isfinite(m.entries))


def test_matrix_validation_and_immutability():
    m = _synthetic_matrix()
    with pytest.raises(ValueError):
        m.entries[0] = 0.0
    with pytest.raises(ValueError):
        gf.GaborMatrix(
            operator_name="bad", grid=m.grid, window=m.window,
            lattice=m.lattice, entries=m.entries[:-1], chi=m.chi)


@pytest.mark.parametrize("field, rows, cols", [
    ("chi", 1, 0), ("chi", -1, 0), ("chi", 0, 1), ("chi", 0, -1),
    ("entries", 0, 0)], ids=["1-0", "-1-0", "0-1", "0--1", "flat-entries"])
def test_matrix_refuses_chi_of_the_wrong_shape(field, rows, cols):
    # chi holds one (x, xi) row per lattice point: the flags and every
    # distance are computed from it. The entries hold one row per
    # lambda; a flat (|L|^2,) array is refused.
    m = _synthetic_matrix(truncation=2.0)
    n = m.n_lattice
    bad = {"chi": np.zeros((n + rows, 2 + cols)),
           "entries": m.entries.ravel()}[field]
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(m, **{field: bad})
    with pytest.raises(ValueError):
        m.flags[0] = True


def test_flags_and_distances_come_from_chi(tmp_path):
    """The fits' distances and matrix.csv's dist column are bitwise one
    np.hypot of the lattice minus chi (conftest.chi_distances), on a
    matrix with flagged columns; the flags are the RELIABLE_MARGIN rule
    on chi. At floor 0 the samples pass keeps every unflagged entry.
    """
    frame = gf.GaborFrame(gf.gaussian(2.0), gf.make_lattice(0.5, 0.5, 3.0),
                          gf.Grid(1, 256, 16.0))
    m = gf.assemble(gf.parse_operator("metaplectic:dilation:2.0"), frame)
    margin = gf.gmatrix.RELIABLE_MARGIN
    assert np.array_equal(m.flags, (np.abs(m.chi[:, 0]) > 8.0 - margin)
                          | (np.abs(m.chi[:, 1]) > 8.0 - margin))
    assert 0 < m.flags.sum() < m.n_lattice
    expected = chi_distances(m)
    dist, _ = m._samples(0.0)
    assert np.array_equal(dist, expected[~m.flags].ravel())
    path = tmp_path / "matrix.csv"
    m.to_csv(path)
    column = np.loadtxt(path, delimiter=",", skiprows=1, usecols=7)
    assert np.array_equal(column, expected.ravel())


def test_matrix_csv_schema(tmp_path):
    m = _synthetic_matrix(truncation=2.0)
    path = tmp_path / "matrix.csv"
    m.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "lambda1,lambda2,mu1,mu2,re,im,abs,dist"
    assert len(lines) == len(m) + 1
    assert len(lines[1].split(",")) == 8


def test_matrix_csv_matches_a_row_by_row_formatter(tmp_path):
    # One % per lambda's rows writes what one % per entry wrote, with
    # abs the scalar abs of each entry, on complex entries with flagged
    # columns.
    frame = gf.GaborFrame(gf.gaussian(2.0), gf.make_lattice(0.5, 0.5, 3.0),
                          gf.Grid(1, 256, 16.0))
    m = gf.assemble(gf.parse_operator("metaplectic:dilation:2.0"), frame)
    assert 0 < m.flags.sum() and np.any(m.entries.imag != 0)
    path = tmp_path / "matrix.csv"
    m.to_csv(path)
    dists = chi_distances(m)
    row = ",".join(["%.17g"] * 8) + "\n"
    expected = ["lambda1,lambda2,mu1,mu2,re,im,abs,dist\n"]
    for lam, column, dist in zip(m.lattice.points, m.entries, dists):
        for mu, e, d in zip(m.lattice.points, column, dist):
            expected.append(row % (*lam, *mu, e.real, e.imag,
                                   abs(complex(e)), d))
    assert path.read_text() == "".join(expected)


def test_matrix_csv_formats_one_column_at_a_time():
    # 625 lattice points, 390,625 rows. A list of one scalar abs per
    # entry took 12.8 MB (32.7 bytes per entry) on top of the matrix;
    # one lambda's rows at a time, laid out in 32-byte slots per value,
    # peak at 0.50 MB (0.60 MB on the call that builds the formatter's
    # tables).
    m = _synthetic_matrix(truncation=8.5)
    assert m.n_lattice == 625
    tracemalloc.start()
    try:
        m.to_csv(os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


# ------------------------------------------------------------ decay fits

def test_fit_harmonic_is_gaussian_class(fits):
    fit = fits["harmonic:0.7853981633974483"]
    assert 0.4 <= fit.s_hat <= 0.6
    assert fit.r_squared > 0.99


def test_fit_cos_multiplier_exponential_class(matrices, fits):
    """The finite-type multiplier decays at least exponentially.

    exp(2 pi i cos x) is analytic, so the paper's s = 1 bound holds; by
    Jacobi-Anger (coefficients J_n(2 pi) ~ pi^n / n!) the true decay is
    faster still (test_cos_multiplier_matrix_closed_form checks the
    matrix against that expansion). Asserted: the searched order is at
    most 1.3 with r2 > 0.95, and the fit with the order fixed at 1 has a
    positive rate with r2 > 0.95. Measured: s_hat = 0.5 (r2 0.996);
    order 1 epsilon 5.53 (r2 0.969).
    """
    fit = fits["multiplier:cos"]
    assert fit.s_hat <= 1.3
    assert fit.r_squared > 0.95
    eps_one, _, r2_one = gf.restricted_decay_fit(
        matrices["multiplier:cos"], 1.0, floor=MATRIX_FLOOR)
    assert eps_one > 0
    assert r2_one > 0.95


def test_fit_synthetic_rate_recovered_exactly():
    fit = gf.fit_decay(_synthetic_matrix(rate=3.0))
    assert fit.s_hat == 1.0
    assert abs(fit.epsilon_hat - 3.0) <= 1e-9
    assert fit.r_squared > 0.999999


def test_fit_rejects_empty_and_thin_data():
    m = _synthetic_matrix(truncation=2.0)
    with pytest.raises(gf.NoSignalError):
        gf.fit_decay(m, floor=2.0)
    with pytest.raises(gf.InsufficientDataError):
        gf.fit_decay(m, floor=0.1)


def test_fit_with_every_column_flagged_is_insufficient_data():
    # chi far off the grid flags every column, so no sample reaches the
    # fits; that once read "no signal: all samples below floor".
    m = _synthetic_matrix(truncation=2.0)
    off = dataclasses.replace(m, chi=m.chi + 100.0)
    assert off.flags.all()
    with pytest.raises(gf.InsufficientDataError, match="dropped all 0 "):
        gf.fit_decay(off)


def test_fit_metadata(fits):
    for name, fit in fits.items():
        assert fit.operator == name
        assert fit.s_hat in gf.DEFAULT_S_GRID
        if fit.r_squared > 0.9:
            assert fit.epsilon_hat > 0
        assert fit.n_samples >= 200
        keys = set(fit.to_dict())
        assert keys == {"operator", "s_hat", "epsilon_hat", "logC", "r2",
                        "n_points"}


def test_restricted_fit_never_beats_searched_order(matrices, fits):
    m = matrices["harmonic:0.7853981633974483"]
    best = fits["harmonic:0.7853981633974483"]
    eps_half, _, r2_half = gf.restricted_decay_fit(m, 0.5, floor=MATRIX_FLOOR)
    _, _, r2_one = gf.restricted_decay_fit(m, 1.0, floor=MATRIX_FLOOR)
    assert abs(eps_half - best.epsilon_hat) <= 1e-12
    assert r2_half >= r2_one


def test_restricted_fit_is_shell_fit_at_one_order(matrices):
    """restricted_decay_fit(m, s) is shell_decay_fit over the grid (s,).

    The samples are rebuilt here: entries of unflagged columns.
    """
    m = matrices["metaplectic:dilation:2.0"]
    assert m.flags.any()
    keep = ~m.flags
    dist, mags = chi_distances(m)[keep], m.magnitudes()[keep]
    for s in (0.5, 1.0):
        fit = shell_decay_fit(dist, mags, floor=MATRIX_FLOOR,
                              exclusion_radius=0.5, s_grid=(s,),
                              min_samples=1)
        assert gf.restricted_decay_fit(m, s, floor=MATRIX_FLOOR) == (
            fit.epsilon_hat, fit.log_c, fit.r_squared)


def test_fits_censor_the_shells_once_per_floor(monkeypatch):
    # fit_decay and the restricted fits after it share one censoring of
    # one samples pass (per floor) and one counts pass (per exclusion
    # radius). Another floor runs a samples pass, another radius a counts
    # pass, and each (floor, radius) its own censoring; a second radius at
    # one floor reads that floor's distances and magnitudes, not a copy.
    m = _synthetic_matrix()
    dist, mags = chi_distances(m), m.magnitudes()
    cases = [(MATRIX_FLOOR, 0.5), (1e-3, 0.5), (MATRIX_FLOOR, 1.0)]
    refs = {case: [shell_decay_fit(dist, mags, floor=case[0],
                                   exclusion_radius=case[1], s_grid=grid,
                                   min_samples=1)
                   for grid in (None, (0.5,), (1.0,))] for case in cases}
    calls, read, samples_passes, counts_passes = [], [], [], []
    real = gf.gmatrix.censor_counted_shells
    real_samples = gf.gmatrix._above_floor
    real_counts = gf.gmatrix._shell_counts

    def counted(dist, mags, counts, **kwargs):
        calls.append(kwargs["floor"])
        read.append((dist, mags))
        return real(dist, mags, counts, **kwargs)

    def counted_samples(matrix, floor):
        samples_passes.append(floor)
        return real_samples(matrix, floor)

    def counted_counts(matrix, exclusion_radius):
        counts_passes.append(exclusion_radius)
        return real_counts(matrix, exclusion_radius)

    monkeypatch.setattr(gf.gmatrix, "censor_counted_shells", counted)
    monkeypatch.setattr(gf.gmatrix, "_above_floor", counted_samples)
    monkeypatch.setattr(gf.gmatrix, "_shell_counts", counted_counts)
    for floor, radius in cases:
        fit = gf.fit_decay(m, floor=floor, exclusion_radius=radius)
        restricted = [gf.restricted_decay_fit(m, s, floor=floor,
                                              exclusion_radius=radius)
                      for s in (0.5, 1.0)]
        searched, half, one = refs[floor, radius]
        assert dataclasses.astuple(searched) == (
            fit.s_hat, fit.epsilon_hat, fit.log_c, fit.r_squared,
            fit.n_samples)
        assert restricted == [(r.epsilon_hat, r.log_c, r.r_squared)
                              for r in (half, one)]
    assert calls == [MATRIX_FLOOR, 1e-3, MATRIX_FLOOR]
    assert samples_passes == [MATRIX_FLOOR, 1e-3]
    assert counts_passes == [0.5, 1.0]
    # Both radii at one floor censor the same arrays, that floor's pass.
    first, other, again = read
    assert all(a is b for a, b in zip(first, again))
    assert all(a is b for a, b in zip(first, m._samples(MATRIX_FLOOR)))
    assert not np.shares_memory(other[0], first[0])
    assert refs[cases[0]][0].n_samples > refs[cases[1]][0].n_samples


BAD_ORDERS = [(0.0, "0"), (-1.0, "-1"), (float("nan"), "nan")]


@pytest.mark.parametrize("s_grid, named", [((), "()"), ([], "[]")] + [
    ([0.5, s], named) for s, named in BAD_ORDERS])
def test_fit_decay_rejects_bad_orders(s_grid, named):
    with pytest.raises(ValueError, match="s_grid") as err:
        gf.fit_decay(_synthetic_matrix(), s_grid=s_grid)
    assert named in str(err.value)


@pytest.mark.parametrize("s, named", BAD_ORDERS)
def test_restricted_fit_rejects_bad_orders(s, named):
    with pytest.raises(ValueError, match="positive") as err:
        gf.restricted_decay_fit(_synthetic_matrix(), s)
    assert named in str(err.value)


def test_decay_bound_envelope_holds(matrices, fits):
    for name, m in matrices.items():
        report = gf.decay_bound_check(m, fits[name])
        assert report["violations"] == 0, name
        assert report["max_ratio"] <= 1.0
        assert report["checked"] > 0


@pytest.mark.parametrize("floor", [1e-12, 1e-14])
def test_decay_bound_check_cannot_fail_at_or_below_the_noise_floor(
        matrices, floor):
    # The envelope dominates every sample at or above the fit's floor, so
    # at a floor at or below NOISE_FLOOR the check finds no violation and
    # its worst ratio is 1 / CONSTANT_SLACK, the peak's, to within an ulp
    # (metaplectic:dilation:2.0 reads one ulp above it at both floors).
    expected = 1.0 / gf.gmatrix.CONSTANT_SLACK
    for name, m in matrices.items():
        fresh = dataclasses.replace(m)  # its caches stay off the fixture
        report = gf.decay_bound_check(fresh, gf.fit_decay(fresh,
                                                          floor=floor))
        assert report["violations"] == 0, name
        assert abs(report["max_ratio"] - expected) <= np.spacing(expected), (
            name, report["max_ratio"])


def test_decay_bound_check_at_tiny_order(harmonic_matrix):
    # d**(1/s_hat) overflows at s_hat = 0.002; the check once returned
    # max_ratio nan (0 * inf) with 0 violations, so it checked nothing.
    fit = gf.fit_decay(harmonic_matrix, floor=MATRIX_FLOOR, s_grid=[0.002])
    report = gf.decay_bound_check(harmonic_matrix, fit)
    assert report["checked"] > 0
    assert math.isfinite(report["max_ratio"])
    assert report["violations"] == 0


# --------------------------------------------------------------- sparsity

def test_sparsity_identity_rows(matrices):
    m = matrices["identity"]
    report = gf.sparsity_curve(m, 0.5)
    assert report.exponent_used == 1.0
    assert np.all(report.epsilons > 0)
    center = len(m.lattice) // 2
    row = np.sort(np.abs(m.dense()[center]))[::-1]
    assert abs(row[0] - 1.0) <= 1e-12
    assert row[1] < row[0] - 0.3
    assert np.all(np.diff(row) <= 1e-15)


def test_sparsity_harmonic_rows_and_columns(harmonic_matrix):
    for axis in ("rows", "cols"):
        report = gf.sparsity_curve(harmonic_matrix, 0.5, axis=axis)
        assert np.all(report.epsilons > 0), axis
        assert float(report.r_squareds.min()) > 0.95
        keys = set(report.to_dict())
        assert keys == {"row_worst", "exponent_used"}
        assert set(report.to_dict()["row_worst"]) == {"C", "epsilon", "r2"}


def _per_row_tail_fits(vectors, exponent, floor):
    """sparsity_curve's former loop: a sort, the floor, lstsq_line_fit."""
    fits = []
    for vec in vectors:
        v = np.sort(vec)[::-1]
        v = v[v >= floor]
        if v.size >= 3:
            xs = np.arange(1, v.size + 1, dtype=float) ** exponent
            eps, logc, _, r2 = lstsq_line_fit(xs, np.log(v))
            fits.append((eps, logc, r2))
    return np.array(fits).T


@pytest.mark.parametrize("axis", ["rows", "cols"])
def test_sparsity_matches_per_row_fits(matrices, fits, axis):
    # The batched closed form against a sort and lstsq per vector, on
    # every family. Measured: 8.4e-15 relative in epsilon, 1.7e-14 in
    # log C (relative to 1 + |log C|) and 1.2e-15 in r2.
    for name, m in matrices.items():
        report = gf.sparsity_curve(m, fits[name].s_hat, axis=axis)
        mags = np.abs(m.dense())[:, ~m.flags]
        eps, logc, r2 = _per_row_tail_fits(
            mags if axis == "rows" else mags.T, report.exponent_used, 1e-14)
        assert report.epsilons.shape == eps.shape, name
        np.testing.assert_allclose(report.epsilons, eps, rtol=1.3e-14,
                                   atol=0, err_msg=name)
        assert np.all(np.abs(report.log_cs - logc)
                      <= 1e-13 * (1 + np.abs(logc))), name
        np.testing.assert_allclose(report.r_squareds, r2, rtol=0, atol=1e-14,
                                   err_msg=name)


def test_sparsity_curve_validation(harmonic_matrix):
    with pytest.raises(ValueError):
        gf.sparsity_curve(harmonic_matrix, 0.5, axis="diagonal")
    with pytest.raises(ValueError):
        gf.sparsity_curve(harmonic_matrix, 0.0)


@pytest.mark.parametrize("s_hat, named", BAD_ORDERS)
def test_sparsity_curve_rejects_bad_orders(s_hat, named):
    with pytest.raises(ValueError, match="s_hat") as err:
        gf.sparsity_curve(_synthetic_matrix(), s_hat)
    assert named in str(err.value)


# ------------------------------------------------------------ application

def test_sparse_apply_dense_matches_direct(harmonic_matrix, dual_frame):
    """Unthresholded frame-side application against direct quadrature.

    The coefficient path expands f through coefficients on the
    time-localized expansion dual; measured agreement is 3.5e-11.
    """
    f = centered_gaussian(dual_frame.grid, 2.0)
    out, ratio = gf.sparse_apply(harmonic_matrix, dual_frame, f, 0.0)
    direct = gf.apply(gf.parse_operator("harmonic:0.7853981633974483"), f)
    assert ratio == 1.0
    assert rel_error(out, direct) <= 1e-6


def test_sparse_apply_threshold_semantics(harmonic_matrix, dual_frame):
    f = centered_gaussian(dual_frame.grid, 2.0)
    out, ratio = gf.sparse_apply(harmonic_matrix, dual_frame, f, np.inf)
    assert ratio == 0.0
    assert np.max(np.abs(out.values)) == 0.0
    with pytest.raises(ValueError):
        gf.sparse_apply(harmonic_matrix, dual_frame, f, -1.0)
    with pytest.raises(ValueError):
        gf.sparse_apply(harmonic_matrix, dual_frame, f, np.nan)
    other = centered_gaussian(gf.Grid(1, 512, 20.0), 2.0)
    with pytest.raises(ValueError):
        gf.sparse_apply(harmonic_matrix, dual_frame, other, 0.0)


def test_sparse_apply_refuses_another_frame(harmonic_matrix, dual_frame,
                                            g1_frame):
    # The matrix's coefficients mean nothing in another frame's dual: a
    # gaussian(1) frame on the same lattice and grid once gave an output
    # 0.38 (relative) away from fio.apply, with no error.
    f = centered_gaussian(dual_frame.grid, 2.0)
    smaller = gf.make_lattice(LATTICE_STEP, LATTICE_STEP, TRUNCATION - 1.0)
    for frame in (g1_frame,
                  gf.GaborFrame(dual_frame.window, smaller, dual_frame.grid),
                  gf.GaborFrame(dual_frame.window, dual_frame.lattice,
                                gf.Grid(1, 1024, 36.0))):
        with pytest.raises(ValueError, match="frame or signal"):
            gf.sparse_apply(harmonic_matrix, frame, f, 0.0)


def test_sparse_apply_error_is_monotone_in_threshold(harmonic_matrix,
                                                     dual_frame):
    f = centered_gaussian(dual_frame.grid, 2.0)
    reference, _ = gf.sparse_apply(harmonic_matrix, dual_frame, f, 0.0)
    errors = []
    for tau in (1e-2, 1e-4, 1e-6, 0.0):
        out, _ = gf.sparse_apply(harmonic_matrix, dual_frame, f, tau)
        errors.append(rel_error(out, reference))
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= coarse + 1e-12
    assert errors[-1] == 0.0


def _packet(grid, x0, xi0, width):
    t = grid.times()
    return gf.SampledSignal(grid, np.exp(-np.pi * (t - x0) ** 2 / width)
                            * np.exp(2j * np.pi * xi0 * t))


@pytest.mark.parametrize("kind", ["harmonic", "random"])
def test_sparse_apply_matches_thresholded_product(harmonic_matrix,
                                                  dual_frame, kind):
    """Against the explicit product with the thresholded dense matrix.

    The median keeps more entries than it drops, and more than
    gmatrix.PRODUCT_BLOCK, so its kept sum runs over several blocks; the
    next magnitude above it keeps fewer. One entry's exact magnitude
    must keep that entry. The harmonic matrix's lower half lies under
    5e-17, so only the random one's dropped entries weigh at the median.
    """
    matrix = harmonic_matrix
    if kind == "random":
        rng = np.random.default_rng(7)
        shape = matrix.entries.shape
        matrix = dataclasses.replace(
            matrix, operator_name="random",
            entries=rng.standard_normal(shape) * np.exp(
                2j * np.pi * rng.random(shape)))
    f = _packet(dual_frame.grid, 1.0, -0.5, 1.5)
    dense = matrix.dense()
    mags = matrix.magnitudes().T
    ordered = np.unique(mags)
    median = float(np.median(mags))
    one = float(mags[3, 7])
    taus = [0.0, float(ordered[ordered > 0][0]), one, median,
            float(ordered[ordered > median][0]), float(ordered[-1]),
            float(np.nextafter(ordered[-1], np.inf)), np.inf]
    coeffs = dual_frame.dual_analysis(f)
    lat = dual_frame.lattice
    duals = atom_matrix(dual_frame.dual_atoms()[:, len(lat.times) // 2],
                        dual_frame.grid, lat.points)
    for tau in taus:
        out, ratio = gf.sparse_apply(matrix, dual_frame, f, tau)
        kept = mags >= tau
        expected = duals @ (np.where(kept, dense, 0) @ coeffs)
        assert (np.linalg.norm(out.values - expected)
                <= 1e-13 * np.linalg.norm(expected)), tau
        assert ratio == np.mean(kept), tau
        if tau == one:
            assert kept[3, 7]
    assert np.mean(mags >= median) > 0.5 > np.mean(mags >= taus[4])


def _order_cache(matrix):
    """(cutoff, order) of matrix's magnitude order, or None before one."""
    return matrix._cache.get("order")


def test_magnitude_order_is_built_by_sparse_apply_only(dual_frame):
    # The fits never pay the sort (11 ms at 529 points), nor does tau = 0,
    # one dense product; the first positive tau builds it, and later
    # calls at or above that tau reuse it.
    matrix = gf.assemble(gf.parse_operator("harmonic:0.5"), dual_frame)
    fit = gf.fit_decay(matrix, floor=MATRIX_FLOOR)
    for s in (0.5, 1.0):
        gf.restricted_decay_fit(matrix, s, floor=MATRIX_FLOOR)
    gf.decay_bound_check(matrix, fit)
    gf.sparsity_curve(matrix, fit.s_hat, floor=MATRIX_FLOOR)
    f = centered_gaussian(dual_frame.grid, 2.0)
    gf.sparse_apply(matrix, dual_frame, f, 0.0)
    assert _order_cache(matrix) is None
    gf.sparse_apply(matrix, dual_frame, f, 1e-6)
    cache = _order_cache(matrix)
    for tau in (0.0, 1e-6, 1e-2, np.inf):
        gf.sparse_apply(matrix, dual_frame, f, tau)
        assert _order_cache(matrix) is cache


def test_magnitude_order_is_rebuilt_only_for_a_lower_threshold(
        harmonic_matrix, dual_frame):
    matrix = dataclasses.replace(harmonic_matrix)
    f = centered_gaussian(dual_frame.grid, 2.0)
    cutoffs, cache = [], None
    for tau in (1e-2, 1e-6, 1e-4, 1e-6, 1e-2, 0.0, np.inf, 1e-6):
        gf.sparse_apply(matrix, dual_frame, f, tau)
        if _order_cache(matrix) is not cache:
            cache = _order_cache(matrix)
            cutoffs.append(cache[0])
    assert cutoffs == [1e-2, 1e-6]


def test_magnitude_order_holds_what_its_thresholds_keep(harmonic_matrix,
                                                        dual_frame):
    # The order holds exactly the entries at or above the smallest tau
    # asked so far, whatever share of them that is: a higher tau reuses
    # it, a lower one extends it. On this matrix 1e-6 keeps 9.3% of the
    # entries, the median magnitude (under 5e-17) half of them, and
    # 1e-300 every entry but the flushed zeros.
    matrix = dataclasses.replace(harmonic_matrix)
    mags = np.sort(matrix.magnitudes().ravel())
    size = mags.size
    half = float(mags[size // 2])  # keeps at least half of the entries
    f = centered_gaussian(dual_frame.grid, 2.0)
    lowest = np.inf
    for tau in (np.inf, 1e-2, 1e-6, half, 1e-6, 1e-300):
        out, ratio = gf.sparse_apply(matrix, dual_frame, f, tau)
        lowest = min(lowest, tau)
        assert ratio == np.count_nonzero(mags >= tau) / size, tau
        cutoff, order = _order_cache(matrix)
        assert cutoff == lowest, tau
        assert order[0].size == np.count_nonzero(mags >= lowest), tau
        if tau == np.inf:
            assert ratio == 0.0 and not np.any(out.values)
    assert np.count_nonzero(mags >= 1e-6) < size / 2
    assert np.count_nonzero(mags >= half) >= size / 2


def test_partial_products_are_bitwise_the_bincount_sums(harmonic_matrix,
                                                        dual_frame):
    # The reference order is the stable argsort of the flat magnitudes,
    # restricted to those at or above the cutoff, with (lambda, mu) its
    # divmod by |L|; the reference sums are np.bincount of the terms'
    # real and imaginary parts, each mu's terms in the order's sequence,
    # the terms taken with the library's expression a PRODUCT_BLOCK at a
    # time from the part's start. numpy computes a product of 16,384
    # terms or more with its operands swapped, so the parts lie on both
    # sides of that, and at 1e-300 the order spans five blocks.
    n = harmonic_matrix.n_lattice
    block = gf.gmatrix.PRODUCT_BLOCK
    flat = harmonic_matrix.entries.ravel()
    ref = np.argsort(np.abs(flat), kind="stable")
    coeffs = dual_frame.dual_analysis(_packet(dual_frame.grid, 1.0, -0.5,
                                              1.5))
    for tau in (1e-6, 1e-300):
        matrix = dataclasses.replace(harmonic_matrix)
        order = matrix._magnitude_order(tau)
        cutoff, _ = _order_cache(matrix)
        mags, entries, mu, lam = order
        restricted = ref[np.abs(flat)[ref] >= cutoff]
        assert cutoff == tau
        ref_lam, ref_mu = np.divmod(restricted, n)
        assert np.array_equal(lam, ref_lam) and np.array_equal(mu, ref_mu)
        assert np.array_equal(entries, flat[restricted])
        assert np.array_equal(mags, np.abs(flat)[restricted])
        held = mags.size
        parts = [slice(0, held // 3), slice(held // 3, held),
                 slice(0, 16383), slice(held - 16384, held)]
        if held > block:
            parts += [slice(0, held), slice(7, block + 16390)]
        else:
            assert 16384 < held
        for part in parts:
            terms = np.concatenate([
                entries[b] * coeffs[lam[b]] for b in (
                    slice(lo, min(lo + block, part.stop))
                    for lo in range(part.start, part.stop, block))])
            expected = np.empty(n, dtype=complex)
            expected.real = np.bincount(mu[part], terms.real, minlength=n)
            expected.imag = np.bincount(mu[part], terms.imag, minlength=n)
            got = gf.gmatrix._partial_product(order, coeffs, part, n)
            assert got.tobytes() == expected.tobytes(), (tau, part)
    assert held > 4 * block


@pytest.mark.parametrize("name", ["metaplectic:dilation:2.0", "identity",
                                  "harmonic:1.2"])
def test_sparse_apply_does_not_depend_on_earlier_thresholds(dual_frame,
                                                            name):
    # Each tau's output on a fresh matrix and a fresh frame, bitwise
    # against the same tau after a lower one built the order, on a frame
    # that analysed the packet before and keeps its coefficients. The
    # median magnitude keeps half of the entries and 1e-300 nearly all.
    # Dilation 2.0 holds many exactly equal magnitudes, whose relative
    # order only a stable sort keeps.
    matrix = gf.assemble(gf.parse_operator(name), dual_frame)
    f = _packet(dual_frame.grid, 0.5, -1.0, 1.5)
    median = float(np.median(matrix.magnitudes()))
    taus = (1e-2, 1e-4, 1e-6, 1e-10, median, 1e-300)
    assert 1e-10 > median > 1e-300
    fresh = [gf.sparse_apply(dataclasses.replace(matrix), gf.GaborFrame(
        dual_frame.window, dual_frame.lattice, dual_frame.grid), f, tau)
             for tau in taus]
    coeffs = dual_frame.dual_analysis(f)
    for lower in range(1, len(taus)):
        warm = dataclasses.replace(matrix)
        gf.sparse_apply(warm, dual_frame, f, taus[lower])
        for tau, (out, ratio) in zip(taus[:lower], fresh):
            got, got_ratio = gf.sparse_apply(warm, dual_frame, f, tau)
            assert got_ratio == ratio
            assert got.values.tobytes() == out.values.tobytes(), (lower, tau)
    assert dual_frame.dual_analysis(f) is coeffs


@pytest.mark.parametrize("name", ["metaplectic:dilation:2.0", "harmonic:1.2"])
def test_lower_thresholds_extend_the_magnitude_order(dual_frame, name):
    # A lower threshold sorts only the entries it admits and puts them
    # before the held ones: after each of 1e-2, 1e-4, 1e-6 and 1e-300
    # (nearly every entry) the four arrays are bitwise a fresh matrix's
    # order at that threshold.
    matrix = gf.assemble(gf.parse_operator(name), dual_frame)
    warm = dataclasses.replace(matrix)
    for tau in (1e-2, 1e-4, 1e-6, 1e-300):
        held = warm._magnitude_order(tau)
        assert _order_cache(warm)[0] == tau
        ref = dataclasses.replace(matrix)._magnitude_order(tau)
        for got, expected in zip(held, ref):
            assert got.dtype == expected.dtype and not got.flags.writeable
            assert got.tobytes() == expected.tobytes(), tau
    assert 2 * held[0].size > len(matrix)


@pytest.mark.parametrize("scale", [1e-290, 1e280])
def test_sparse_apply_is_scale_invariant(harmonic_matrix, dual_frame, scale):
    # dual_analysis flushes parts relative to the signal's peak; an
    # absolute cutoff would zero the 1e-290 packet. Measured 4-5e-16.
    unit = _packet(dual_frame.grid, 0.0, 1.7, 1.0)
    scaled = gf.SampledSignal(unit.grid, scale * unit.values)
    for tau in (0.0, 1e-6):
        ref, _ = gf.sparse_apply(harmonic_matrix, dual_frame, unit, tau)
        out, _ = gf.sparse_apply(harmonic_matrix, dual_frame, scaled, tau)
        assert (np.linalg.norm(out.values / scale - ref.values)
                <= 1e-12 * np.linalg.norm(ref.values))
