"""Windows, lattices, STFT, frame bounds, dual windows, decay classification.

Two dual windows are checked: the canonical dual of dual_window and the
time-localized expansion dual behind dual_atoms, dual_analysis and
dual_synthesis.
"""

import tracemalloc

import numpy as np
import pytest

import gaborfio as gf
from gaborfio import cli
from gaborfio import gabor as gab
from conftest import (LATTICE_STEP, TRUNCATION, atom_matrix,
                      centered_gaussian, rel_error)


# ---------------------------------------------------------------- windows

def test_window_validation():
    with pytest.raises(ValueError):
        gf.Window("sinc", 1.0)
    with pytest.raises(ValueError):
        gf.gaussian(0.0)
    with pytest.raises(ValueError):
        gf.gaussian(-2.0)
    with pytest.raises(ValueError):
        gf.Window("gaussian", 2.0, order=3)
    with pytest.raises(ValueError):
        gf.hermite(0, 2.0)


def test_gaussian_evaluate():
    g = gf.gaussian(2.0)
    x = np.array([-1.5, 0.0, 0.7])
    np.testing.assert_allclose(g.evaluate(x), np.exp(-np.pi * x * x / 2.0),
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("window", [gf.gaussian(2.0), gf.gaussian(0.3),
                                    gf.hermite(3, 2.0)],
                         ids=["g2", "g0.3", "hermite-3-2"])
def test_evaluate_is_the_flushed_closed_form_bitwise(window):
    # Window.evaluate raises exponents far below the flush cutoff before
    # np.exp, which is slow on results that underflow. Those envelopes are
    # flushed to 0 either way, so every value, non-finite ones included,
    # is bitwise the unclamped closed form's.
    x = np.concatenate([np.linspace(-60.0, 60.0, 200_001),
                        [np.inf, -np.inf, np.nan]])
    with np.errstate(invalid="ignore"):
        envelope = np.exp(-(np.pi / window.width) * x * x)
        expected = envelope * (envelope >= gab.ENVELOPE_FLUSH)
        if window.order:
            coef = np.zeros(window.order + 1)
            coef[-1] = 1.0
            expected = np.polynomial.hermite.hermval(
                np.sqrt(2.0 * np.pi / window.width) * x, coef) * expected
        got = window.evaluate(x)
    assert got.tobytes() == expected.tobytes()


def test_hermite_is_odd_polynomial_times_envelope():
    # First Hermite window: linear factor times the Gaussian envelope,
    # hence odd; second is even.
    x = np.linspace(-3, 3, 61)
    h1 = gf.hermite(1, 2.0)
    np.testing.assert_allclose(h1.evaluate(x), -h1.evaluate(-x), atol=1e-12)
    h2 = gf.hermite(2, 2.0)
    np.testing.assert_allclose(h2.evaluate(x), h2.evaluate(-x), atol=1e-12)


# ---------------------------------------------------------------- lattices

def test_lattice_layout():
    lat = gf.make_lattice(LATTICE_STEP, LATTICE_STEP, TRUNCATION)
    assert len(lat) == 529
    pts = lat.points
    assert pts.shape == (529, 2)
    assert pts.tolist() == sorted(pts.tolist())
    assert pts[len(lat) // 2].tolist() == [0.0, 0.0]
    assert np.max(np.abs(pts)) <= TRUNCATION + 1e-9
    # Unequal steps and ranges: 27 x 35 points, origin at 13 * 35 + 17.
    uneven = gf.Lattice(0.75, 0.9, 10.0, 16.0)
    assert len(uneven) == 945
    assert uneven.points[472].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("steps, ranges, k1, k2", [
    ((LATTICE_STEP, LATTICE_STEP), (TRUNCATION, TRUNCATION), 11, 11),
    ((0.75, 0.9), (10.0, 16.0), 13, 17),
    ((0.5, 0.5), (0.0, 0.0), 0, 0),
    ((0.75, 0.9), (0.0, 3.0), 0, 3)],
    ids=["even", "uneven", "truncation-0", "time-truncation-0"])
def test_lattice_points_are_the_enumeration(steps, ranges, k1, k2):
    # One read-only (|L|, 2) array, bitwise the points (i alpha, j beta)
    # in lexicographic order, and read-only axes, the i alpha and the
    # j beta; equality and hashing ignore them.
    alpha, beta = steps
    lat = gf.Lattice(alpha, beta, *ranges)
    expected = np.array([(i * alpha, j * beta)
                         for i in range(-k1, k1 + 1)
                         for j in range(-k2, k2 + 1)])
    assert lat.points.shape == expected.shape
    assert lat.points.dtype == np.float64
    assert lat.points.tobytes() == expected.tobytes()
    assert lat.times.tobytes() == expected[::2 * k2 + 1, 0].tobytes()
    assert lat.freqs.tobytes() == expected[:2 * k2 + 1, 1].tobytes()
    for arr in (lat.points, lat.times, lat.freqs):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    twin = gf.Lattice(alpha, beta, *ranges)
    object.__setattr__(twin, "points", np.zeros((1, 2)))
    assert twin == lat and hash(twin) == hash(lat)
    assert lat != gf.Lattice(alpha, beta, ranges[0] + 1.0, ranges[1])


def test_lattice_validation():
    with pytest.raises(ValueError):
        gf.Lattice(0.0, 0.5, 4.0, 4.0)
    with pytest.raises(ValueError):
        gf.Lattice(0.5, -0.5, 4.0, 4.0)
    with pytest.raises(ValueError):
        gf.Lattice(0.5, 0.5, -1.0, 4.0)
    assert gf.make_lattice(0.5, 0.5, 4.0).redundancy == 0.25


# ---------------------------------------------------------------- shifts

def _shift(source, grid, lam):
    """The atom at lam: a Window's closed form or a spectral shift of samples."""
    return gf.SampledSignal(grid, atom_matrix(source, grid, [lam])[:, 0])


def test_tf_shift_at_origin_is_identity(grid):
    f = centered_gaussian(grid, 2.0)
    shifted = _shift(f.values, grid, (0.0, 0.0))
    assert rel_error(shifted, f) <= 1e-12


def test_tf_shift_preserves_norm(grid):
    f = centered_gaussian(grid, 2.0)
    for lam in [(1.3, -0.7), (-2.0, 2.5)]:
        spectral = _shift(f.values, grid, lam)
        analytic = _shift(gf.gaussian(2.0), grid, lam)
        assert abs(spectral.norm() - f.norm()) <= 1e-12 * f.norm()
        assert abs(analytic.norm() - f.norm()) <= 1e-12 * f.norm()


def test_tf_shift_translation_closed_form(grid):
    shifted = _shift(gf.gaussian(2.0), grid, (1.0, 0.0))
    t = grid.times()
    expected = np.exp(-np.pi * (t - 1.0) ** 2 / 2.0)
    assert np.max(np.abs(shifted.values - expected)) <= 1e-14


def test_tf_shift_paths_agree(grid):
    f = centered_gaussian(grid, 2.0)
    lam = (1.5, -2.25)
    spectral = _shift(f.values, grid, lam)
    analytic = _shift(gf.gaussian(2.0), grid, lam)
    assert rel_error(spectral, analytic) <= 1e-12


def test_tf_shift_rejects_non_finite(grid):
    f = centered_gaussian(grid, 2.0)
    with pytest.raises(ValueError):
        _shift(f.values, grid, (np.nan, 0.0))


def test_atoms_match_per_column_formulas(dual_frame):
    """The factors of the frame's atoms equal their per-column formulas.

    The window's shifts are window(t - x), bitwise. The waves are
    exp(-2 pi i w t) with w t reduced to a fraction of a cycle by exact
    rationals, to 1e-15 (a rounded w t of up to 124 cycles on this grid
    leaves up to 1e-13). The dual atoms are the expansion dual h, shifted
    spectrally to each lattice time, to 1e-15 of h's peak.
    """
    from fractions import Fraction

    grid, lat = dual_frame.grid, dual_frame.lattice
    t = grid.times()
    shifts, waves = dual_frame._factors
    for k, x in enumerate(lat.times):
        assert np.array_equal(shifts[:, k], dual_frame.window.evaluate(t - x))
    for j in range(0, len(lat.freqs), 4):
        w = lat.freqs[j]
        for i in range(0, len(t), 37):
            turns = Fraction(w) * Fraction(t[i])
            angle = -2.0 * np.pi * float(turns - round(turns))
            assert abs(waves[i, j] - complex(np.cos(angle), np.sin(angle))
                       ) <= 1e-15
    h, _ = gab._wexler_raz_dual(dual_frame.window, lat, grid,
                                gab.EXPANSION_DUAL_WEIGHT)
    duals = dual_frame.dual_atoms()
    assert duals.shape == (len(t), len(lat.times))
    spec = np.fft.fft(np.fft.ifftshift(h))
    freqs = np.fft.fftfreq(grid.points_per_axis, d=grid.spacing)
    for k, x in enumerate(lat.times):
        shifted = np.fft.fftshift(np.fft.ifft(
            spec * np.exp(-2j * np.pi * freqs * x)))
        assert (np.max(np.abs(duals[:, k] - shifted))
                <= 1e-15 * np.max(np.abs(h)))


@pytest.mark.parametrize("window", [gf.gaussian(2.0), gf.gaussian(1.0),
                                    gf.hermite(1, 2.0)])
def test_atoms_hold_no_subnormal(grid, window):
    # On the doubled grid assemble uses; subnormal parts slow the Gram
    # product severalfold.
    pad = gf.Grid(1, 2 * grid.points_per_axis, 2 * grid.length)
    lat = gf.make_lattice(LATTICE_STEP, LATTICE_STEP, TRUNCATION)
    atoms = atom_matrix(window, pad, lat.points)
    for part in (atoms.real, atoms.imag):
        assert not np.any((part != 0) & (np.abs(part) < np.finfo(float).tiny))


# ---------------------------------------------------------------- STFT

def test_stft_center_value(grid):
    # <g, g> = integral exp(-pi t^2) = 1 for the width-2 window.
    f = centered_gaussian(grid, 2.0)
    val = gf.stft(f, gf.gaussian(2.0), [(0.0, 0.0)])[0]
    assert abs(val - 1.0) <= 1e-12


def test_stft_gaussian_closed_form(grid):
    f = centered_gaussian(grid, 2.0)
    pts = [(x, w) for x in (-2.0, -0.5, 0.0, 1.0, 2.5)
           for w in (-1.5, 0.0, 0.75)]
    vals = gf.stft(f, gf.gaussian(2.0), pts)
    for (x, w), v in zip(pts, vals):
        expected = np.exp(-np.pi * x * x / 4.0 - np.pi * w * w)
        assert abs(abs(v) - expected) <= 1e-12


def test_stft_odd_signal_vanishes_at_origin(grid):
    t = grid.times()
    f = gf.SampledSignal(grid, t * np.exp(-np.pi * t * t / 2.0))
    val = gf.stft(f, gf.gaussian(2.0), [(0.0, 0.0)])[0]
    assert abs(val) <= 1e-12


def _stft_by_atoms(f, window, pts):
    """<f, g_{x,w}> through the N x |points| atom matrix: stft's oracle."""
    atoms = atom_matrix(window, f.grid, pts)
    return f.grid.spacing * (f.values.conj() @ atoms).conj()


def _cli_stft_signal(grid):
    """A chirped, shifted packet, as the stft subcommand transforms."""
    t = grid.times()
    return gf.SampledSignal(grid, np.exp(-np.pi * (t - 1.5) ** 2 / 2.0
                                         + 1j * np.pi * 0.7 * t * t))


@pytest.mark.parametrize("window", [gf.gaussian(2.0), gf.hermite(3, 2.0)],
                         ids=["gaussian:2", "hermite:3:2"])
@pytest.mark.parametrize("points", ["cli-grid", "scattered"])
def test_stft_matches_the_atom_product(grid, window, points):
    """stft sums over its points' distinct times and frequencies; the
    oracle pairs f with one atom per point. They agree to 1e-14 of the
    peak (measured <= 4.7e-15) on the CLI's 41 x 41 grid of samples and
    on a scattered list with repeats, unsorted and out of the box."""
    f = _cli_stft_signal(grid)
    if points == "cli-grid":
        pts = cli._phase_space_points(grid)
        assert len(pts) == 41 * 41
    else:
        rng = np.random.default_rng(5)
        pts = rng.uniform(-6.0, 6.0, size=(60, 2))
        pts = np.vstack([pts, pts[:7], [(0.0, 0.0), (20.0, -3.0)]])
    got = gf.stft(f, window, pts)
    want = _stft_by_atoms(f, window, pts)
    assert got.shape == (len(pts),)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_fractional_cycles_are_exact_to_rounding():
    # Against exact rationals: a b less its nearest integer, within
    # eps / 2, twice the rounding of a result of at most 1/2.
    from fractions import Fraction

    rng = np.random.default_rng(11)
    a = rng.uniform(-40.0, 40.0, 400) * np.sqrt(0.5)
    b = rng.uniform(-64.0, 64.0, 400)
    got = gab._fractional_cycles(a, b)
    for x, y, r in zip(a, b, got):
        exact = Fraction(x) * Fraction(y)
        exact -= round(exact)
        assert abs(r) <= 0.5 + 1e-15
        assert abs(float(Fraction(r) - exact)) <= np.finfo(float).eps / 2


def test_stft_holds_no_atom_matrix(grid):
    """On the CLI's 41 x 41 grid stft holds the window's shifts and the
    waves, O(N (n_x + n_w)): traced 1.9 MiB against a 4 MiB bound. An
    atom per sample, N x 1681 complex values, took 66.8 MiB."""
    f = _cli_stft_signal(grid)
    pts = cli._phase_space_points(grid)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gf.stft(f, gf.gaussian(2.0), pts)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20, peak / 2 ** 20


def test_stft_rejects_non_finite_points(grid):
    with pytest.raises(ValueError, match="finite"):
        gf.stft(centered_gaussian(grid, 2.0), gf.gaussian(2.0),
                [(0.0, np.nan)])


# ---------------------------------------------------------------- bounds

def test_frame_bounds_half_density(g2_frame):
    a, b = gf.frame_bounds(g2_frame)
    assert a > 0.1
    assert b < 10.0
    assert b >= a
    # Measured on this setup: A = 1.2206, B = 2.8031.
    assert 1.0 < a < 1.5
    assert 2.5 < b < 3.1


def test_frame_bounds_critical_density_degrades(grid):
    # At step product 1 the lower bound decays toward zero as the
    # truncation grows; the finite-lattice values are 0.177, 0.117, 0.083.
    lower = []
    for trunc in (6.0, 8.0, 10.0):
        frame = gf.GaborFrame(gf.gaussian(2.0),
                              gf.make_lattice(1.0, 1.0, trunc), grid)
        a, b = gf.frame_bounds(frame)
        assert b >= a > 0
        lower.append(a)
    assert lower[0] > lower[1] > lower[2]
    assert lower[2] < 0.1


def test_frame_bounds_margin_precheck():
    # The grid must reach GRID_MARGIN past the truncation; a frame whose
    # grid does not is refused when it is built.
    grid = gf.Grid(1, 512, 20.0)
    with pytest.raises(ValueError, match="grid too small"):
        gf.GaborFrame(gf.gaussian(2.0),
                      gf.make_lattice(LATTICE_STEP, LATTICE_STEP, 8.0), grid)


def test_frame_inequality_on_central_span(g2_frame):
    a, b = gf.frame_bounds(g2_frame)
    pts = g2_frame.lattice.points
    atoms = atom_matrix(g2_frame.window, g2_frame.grid, pts)
    central = ((np.abs(pts[:, 0]) <= TRUNCATION / 2 + 1e-9)
               & (np.abs(pts[:, 1]) <= TRUNCATION / 2 + 1e-9))
    rng = np.random.default_rng(7)
    for _ in range(20):
        coeffs = (rng.standard_normal(int(central.sum()))
                  + 1j * rng.standard_normal(int(central.sum())))
        f = gf.SampledSignal(g2_frame.grid, atoms[:, central] @ coeffs)
        quotient = np.sum(np.abs(g2_frame.analysis(f)) ** 2) / f.norm() ** 2
        assert a * (1 - 1e-3) <= quotient <= b * (1 + 1e-3)


# The frames of the factored-path oracles: the reference frame, a Hermite
# window, unequal steps, and 1089 points at N 512.
ORACLE_FRAMES = {
    "reference": (gf.gaussian(2.0), LATTICE_STEP, LATTICE_STEP, TRUNCATION,
                  None),
    "hermite:1:2": (gf.hermite(1, 2.0), 0.5, 0.5, 6.0, None),
    "steps-0.8-0.6": (gf.gaussian(1.0), 0.8, 0.6, TRUNCATION, None),
    "1089-points": (gf.gaussian(2.0), 0.25, 0.25, 4.0, (512, 20.0)),
}


def _oracle_frame(grid, case):
    window, alpha, beta, truncation, size = ORACLE_FRAMES[case]
    if size is not None:
        grid = gf.Grid(1, *size)
    return gf.GaborFrame(window, gf.make_lattice(alpha, beta, truncation),
                         grid)


def _atom_gram(frame):
    """(dx G^H C, central mask) from the whole atom matrix G."""
    pts = frame.lattice.points
    atoms = atom_matrix(frame.window, frame.grid, pts)
    central = ((np.abs(pts[:, 0]) <= frame.lattice.time_range / 2 + 1e-9)
               & (np.abs(pts[:, 1]) <= frame.lattice.freq_range / 2 + 1e-9))
    return frame.grid.spacing * (atoms.conj().T @ atoms[:, central]), central


@pytest.mark.parametrize("case", ORACLE_FRAMES)
def test_separable_gram_matches_the_atom_gram(grid, case):
    """frame_bounds' Gram matrix, one windowed-sums table per central
    time, against the product of the whole atom matrix with its central
    columns: to 1e-14 of the peak (measured 6.7e-16 to 8.1e-15), with
    the same central rows. The largest gap (steps 0.8 x 0.6) is the
    lattice's: the tables take the offsets (j - l) beta exactly, the
    atoms the difference of the rounded frequencies j beta and l beta."""
    frame = _oracle_frame(grid, case)
    got, rows = gab._central_gram(frame)
    want, central = _atom_gram(frame)
    assert got.shape == want.shape
    assert np.array_equal(rows, np.flatnonzero(central))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("case", ORACLE_FRAMES)
def test_frame_bounds_match_the_atom_pencil(grid, case):
    """A and B against the Rayleigh pencil of the atom path, (dx G^H C)^H
    (dx G^H C) against dx C^H C with the same eigenvalue cutoff: to 1e-7
    relative (measured 2.3e-13 to 1.2e-8). The cutoff amplifies
    rounding-level changes of the Gram matrix, so the bounds carry about
    7 digits, not 15."""
    frame = _oracle_frame(grid, case)
    y, central = _atom_gram(frame)
    ev, vec = np.linalg.eigh(y[central])
    keep = ev > 1e-10 * ev[-1]
    basis = vec[:, keep] / np.sqrt(ev[keep])
    quot = np.linalg.eigvalsh(basis.conj().T @ (y.conj().T @ y) @ basis)
    a, b = gf.frame_bounds(frame)
    assert abs(a - quot[0]) <= 1e-7 * quot[0]
    assert abs(b - quot[-1]) <= 1e-7 * quot[-1]


@pytest.mark.parametrize("case", ["reference", "hermite:1:2"])
def test_frame_expansions_match_the_atom_products(grid, case):
    """analysis, dual_analysis and dual_synthesis take their sums from
    the factors of the atoms; the oracle is the product with the whole
    N x |L| atom matrix of the window and of the expansion dual h. They
    agree to 1e-14 of the peak (measured 4.6e-16 to 1.0e-15)."""
    frame = _oracle_frame(grid, case)
    lat = frame.lattice
    atoms = atom_matrix(frame.window, frame.grid, lat.points)
    duals = atom_matrix(frame.dual_atoms()[:, len(lat.times) // 2],
                        frame.grid, lat.points)
    t = grid.times()
    f = gf.SampledSignal(grid, np.exp(-np.pi * (t - 1.3) ** 2
                                      + 2j * np.pi * 1.7 * t))
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(len(lat)) + 1j * rng.standard_normal(len(lat))
    for got, want in [
            (frame.analysis(f), grid.spacing * (f.values.conj() @ atoms).conj()),
            (frame.dual_analysis(f),
             grid.spacing * (f.values.conj() @ duals).conj()),
            (frame.dual_synthesis(coeffs).values, duals @ coeffs)]:
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


# ---------------------------------------------------------------- duals

def test_dual_residuals_unset_before_solve(grid):
    frame = gf.GaborFrame(gf.gaussian(2.0),
                          gf.make_lattice(LATTICE_STEP, LATTICE_STEP, 6.0),
                          grid)
    with pytest.raises(ValueError):
        frame.dual_residuals


def test_dual_solver_residual(dual_frame):
    solver_residual, _ = dual_frame.dual_residuals
    assert solver_residual <= 1e-10


@pytest.mark.parametrize("width, alpha, beta", [
    (1.0, LATTICE_STEP, LATTICE_STEP),
    (2.0, LATTICE_STEP, LATTICE_STEP),
    (3.0, LATTICE_STEP, LATTICE_STEP),
    (2.0, 0.8, 0.9),
], ids=["g1", "g2", "g3", "g2-steps-0.8-0.9"])
def test_dual_defining_equation_on_original_lattice(grid, dual_frame, width,
                                                    alpha, beta):
    """Residual of S gamma = g for the frame's lattice alpha*Z x beta*Z.

    S is the frame operator of the full lattice in Walnut form, applied on
    the doubled grid gamma is solved on. Measured: 1.1e-15 (g1), 2.0e-15
    (g2), 3.5e-11 (g3) and 1.0e-12 (g2 at steps 0.8, 0.9); hermite(2, 2)
    reads 1.3e-9 and is not among the cases. The truncated lattice's
    operator S_L is not checked: it has no usable solution (conjugate
    gradients on S_L stall at 2e-8 after 5000 iterations, with ||gamma||
    87 times the canonical norm), and the canonical dual misses it by
    5e-5.
    """
    frame = dual_frame
    if (width, alpha, beta) != (2.0, LATTICE_STEP, LATTICE_STEP):
        frame = gf.GaborFrame(gf.gaussian(width),
                              gf.make_lattice(alpha, beta, TRUNCATION), grid)
        gf.dual_window(frame)
    _, frame_residual = frame.dual_residuals
    assert frame_residual <= 1e-10


def test_walnut_frame_operator_matches_atom_sums():
    """The Walnut form of S equals the sum over a lattice's atoms.

    On a grid whose whole time-frequency box the lattice covers, S f is
    A (dx A^H f) with A the atom matrix. Measured 1.6e-15 (gaussian) and
    3.3e-14 (hermite); with alpha and beta swapped the helper misses by
    0.42 and 0.84.
    """
    grid = gf.Grid(1, 256, 16.0)
    lat = gf.Lattice(0.75, 0.9, grid.half_width, grid.freq_half_width)
    f = (atom_matrix(gf.gaussian(1.5), grid, [(0.7, 0.9)])[:, 0]
         + 0.5 * atom_matrix(gf.gaussian(3.0), grid, [(-1.3, -0.4)])[:, 0])
    for window in (gf.gaussian(2.0), gf.hermite(2, 2.0)):
        atoms = atom_matrix(window, grid, lat.points)
        expected = atoms @ (grid.spacing * (atoms.conj().T @ f))
        got = gab._walnut_frame_operator(window, lat, grid, f)
        assert (np.linalg.norm(got - expected)
                <= 1e-13 * np.linalg.norm(expected))


def _walnut_over_every_shift(window, lattice, grid, values):
    """The Walnut sum with k/beta over every shift the grid holds."""
    alpha, beta = lattice.alpha, lattice.beta
    k_n = gab._steps_within(grid.half_width, alpha)
    k_s = gab._steps_within(grid.half_width, 1.0 / beta)
    window_times = grid.times()[:, None] - alpha * np.arange(-k_n, k_n + 1)
    windows = window.evaluate(window_times)
    shifts = np.arange(-k_s, k_s + 1) / beta
    shifted = gab._shifted(values, grid, shifts)
    out = 0.0
    for shift, x_k in zip(shifts, shifted.T):
        out += np.sum(windows * window.evaluate(window_times - shift),
                      axis=1) * x_k
    return out / beta


@pytest.mark.parametrize("window, alpha, beta", [
    (gf.gaussian(1.0), LATTICE_STEP, LATTICE_STEP),
    (gf.gaussian(2.0), LATTICE_STEP, LATTICE_STEP),
    (gf.gaussian(3.0), LATTICE_STEP, LATTICE_STEP),
    (gf.gaussian(2.0), 0.8, 0.9),
    (gf.hermite(2, 2.0), LATTICE_STEP, LATTICE_STEP)])
def test_walnut_sum_skips_only_shifts_past_the_window(grid, window, alpha,
                                                      beta):
    # The shifts past twice the window's reach add products under
    # ATOM_SUPPORT peak^2: applied to the canonical dual on the doubled
    # grid, as dual_window does, the trimmed sum is bitwise the full one.
    lat = gf.make_lattice(alpha, beta, TRUNCATION)
    ext = grid.doubled()
    x, _ = gab._wexler_raz_dual(window, lat, ext, 0.0)
    assert np.array_equal(gab._walnut_frame_operator(window, lat, ext, x),
                          _walnut_over_every_shift(window, lat, ext, x))


# (window, N, L, alpha, beta, truncation). The last frame's doubled grid,
# 2000 rows, is no whole number of the Walnut check's row blocks; steps
# 0.5 on N 1024, L 32 put the modulation l / alpha = 16 at the grid's
# Nyquist frequency.
CANONICAL_FRAMES = {
    "g1": (gf.gaussian(1.0), 1024, 32.0, LATTICE_STEP, LATTICE_STEP, 8.0),
    "g2": (gf.gaussian(2.0), 1024, 32.0, LATTICE_STEP, LATTICE_STEP, 8.0),
    "g3": (gf.gaussian(3.0), 1024, 32.0, LATTICE_STEP, LATTICE_STEP, 8.0),
    "g2-steps-0.8-0.9": (gf.gaussian(2.0), 1024, 32.0, 0.8, 0.9, 8.0),
    "hermite-2-2": (gf.hermite(2, 2.0), 1024, 32.0, LATTICE_STEP,
                    LATTICE_STEP, 8.0),
    "N2048-L44-t12": (gf.gaussian(2.0), 2048, 44.0, LATTICE_STEP,
                      LATTICE_STEP, 12.0),
    "N2048-L20-steps-0.25": (gf.gaussian(2.0), 2048, 20.0, 0.25, 0.25, 4.0),
    "nyquist-hermite-1-2": (gf.hermite(1, 2.0), 1024, 32.0, 0.5, 0.5, 8.0),
    "nyquist-g2": (gf.gaussian(2.0), 1024, 32.0, 0.5, 0.5, 8.0),
    "N1000-g2": (gf.gaussian(2.0), 1000, 32.0, LATTICE_STEP, LATTICE_STEP,
                 8.0),
}


@pytest.mark.parametrize("name", sorted(CANONICAL_FRAMES))
def test_canonical_dual_and_walnut_check_meet_their_oracles(name):
    """The Gram solve against the SVD, the row blocks against one table.

    On the doubled grid, _canonical_dual's Gram solve meets the least-norm
    solution by SVD (_wexler_raz_dual at weight 0) to 1e-13 relative
    (measured at most 2.2e-15), and the Walnut check walked in row blocks
    is bitwise the sum over every shift in one table.
    """
    window, n, length, alpha, beta, truncation = CANONICAL_FRAMES[name]
    ext = gf.Grid(1, n, length).doubled()
    lat = gf.Lattice(alpha, beta, truncation, truncation)
    gamma, residual = gab._canonical_dual(window, lat, ext)
    oracle, _ = gab._wexler_raz_dual(window, lat, ext, 0.0)
    assert (np.linalg.norm(gamma - oracle)
            <= 1e-13 * np.linalg.norm(oracle))
    assert residual <= 1e-14
    assert np.array_equal(gab._walnut_frame_operator(window, lat, ext, gamma),
                          _walnut_over_every_shift(window, lat, ext, gamma))


@pytest.mark.parametrize("window", [gf.hermite(1, 2.0), gf.gaussian(2.0)],
                         ids=["hermite-1-2", "g2"])
def test_canonical_dual_at_the_nyquist_frequency(grid, window):
    """Steps 0.5 put l / alpha = 16 at the Nyquist frequency of N 1024, L 32.

    There the modulation is real on the grid, and the imaginary parts of
    its identities vanish to rounding. Kept, they made the Gram matrix
    singular (condition 3e28), and gamma missed the SVD's by 5.2e-2
    (hermite) and 6.6e-3 (gaussian), with frame-equation residuals of
    5.4e-2 and 6.6e-3. Left out, every row of the system is a live
    identity, and the residual reads 6.7e-11 and 8.0e-16.
    """
    lat = gf.make_lattice(0.5, 0.5, TRUNCATION)
    for on in (grid, grid.doubled()):
        mat, _, _ = gab._wexler_raz_system(window, lat, on)
        norms = np.linalg.norm(mat, axis=1)
        assert norms.min() >= 1e-3 * norms.max()
    frame = gf.GaborFrame(window, lat, grid)
    gf.dual_window(frame)
    solver_residual, frame_residual = frame.dual_residuals
    assert solver_residual <= 1e-14
    assert frame_residual <= 1e-9


def test_dual_synthesis_reconstruction(dual_frame):
    # Analysis with the window, synthesis with the dual atoms.
    for width in (1.0, 2.0, 3.0):
        f = centered_gaussian(dual_frame.grid, width)
        rec = dual_frame.dual_synthesis(dual_frame.analysis(f))
        assert rel_error(rec, f) <= 1e-8


def test_dual_analysis_reconstruction(dual_frame):
    """Expansion f = sum <f, h_lambda> g_lambda for a centered Gaussian.

    The coefficients come from the time-localized expansion dual h;
    measured error 3.5e-11. Coefficients on the canonical dual, which
    decays only exponentially in time, leave 5e-5: their values past the
    lattice truncation are not negligible.
    """
    f = centered_gaussian(dual_frame.grid, 2.0)
    atoms = atom_matrix(dual_frame.window, dual_frame.grid,
                        dual_frame.lattice.points)
    rec = gf.SampledSignal(dual_frame.grid,
                           atoms @ dual_frame.dual_analysis(f))
    assert rel_error(rec, f) <= 1e-8


def test_dual_analysis_flush_keeps_coefficients_bitwise(dual_frame):
    # A width-1 packet's tails past |t| = 15 are subnormal. dual_analysis
    # flushes them, which made its product about 3x faster, and must return
    # the unflushed product's coefficients bit for bit.
    grid = dual_frame.grid
    t = grid.times()
    f = gf.SampledSignal(grid, np.exp(-np.pi * t * t)
                         * np.exp(2j * np.pi * 1.7 * t))
    parts = f.values.view(float)
    assert np.any((parts != 0) & (np.abs(parts) < np.finfo(float).tiny))
    unflushed = gab._windowed_sums(f.values, dual_frame.dual_atoms(), grid,
                                   dual_frame._factors[1]).ravel()
    assert dual_frame.dual_analysis(f).tobytes() == unflushed.tobytes()


def test_dual_analysis_of_the_last_signal_is_kept(dual_frame, monkeypatch):
    # The frame keeps the last signal it analysed and its coefficients,
    # read-only: a second call with that signal runs no analysis. Any
    # other signal, a new one with the same values included, is analysed
    # afresh, bitwise as a frame that never saw a signal analyses it.
    grid = dual_frame.grid
    fresh = gf.GaborFrame(dual_frame.window, dual_frame.lattice, grid)
    fresh.dual_atoms()
    f = gf.SampledSignal(grid, atom_matrix(
        centered_gaussian(grid, 1.0).values, grid, [(0.5, -1.0)])[:, 0])
    same = gf.SampledSignal(grid, f.values)
    other = centered_gaussian(grid, 2.0)
    calls = []
    windowed_sums = gab._windowed_sums
    monkeypatch.setattr(gab, "_windowed_sums",
                        lambda *args: calls.append(1) or windowed_sums(*args))

    def analysed(frame, signal, runs):
        before = len(calls)
        coeffs = frame.dual_analysis(signal)
        assert len(calls) - before == runs
        assert not coeffs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            coeffs[0] = 0.0
        return coeffs.tobytes()

    first = analysed(dual_frame, f, 1)
    assert first == analysed(fresh, f, 1)
    assert analysed(dual_frame, f, 0) == first
    assert analysed(dual_frame, same, 1) == first
    assert analysed(dual_frame, other, 1) == analysed(fresh, other, 1)
    assert analysed(dual_frame, f, 1) == first
    assert analysed(dual_frame, f, 0) == first


def test_dual_expansion_symmetry(dual_frame):
    """Both expansion orders agree; measured gap 3.5e-11."""
    f = centered_gaussian(dual_frame.grid, 2.0)
    atoms = atom_matrix(dual_frame.window, dual_frame.grid,
                        dual_frame.lattice.points)
    left = gf.SampledSignal(dual_frame.grid,
                            atoms @ dual_frame.dual_analysis(f))
    right = dual_frame.dual_synthesis(dual_frame.analysis(f))
    assert rel_error(left, right) <= 1e-8


def test_expansion_dual_is_time_localized(dual_frame):
    # The dual atoms' column of time 0 is the expansion dual h. It and
    # the canonical dual gamma satisfy the Wexler-Raz identities
    # <h, M_{l/alpha} T_{k/beta} g> = alpha*beta delta_k delta_l; h is
    # below 1e-10 past |t| = 8, where gamma is still 2.5e-5.
    grid, lat = dual_frame.grid, dual_frame.lattice
    h = gf.SampledSignal(grid,
                         dual_frame.dual_atoms()[:, len(lat.times) // 2])
    gamma = gf.dual_window(dual_frame)
    adjoint = [(k / lat.beta, l / lat.alpha)
               for k in range(-4, 5) for l in range(-4, 5)]
    expected = np.array([lat.redundancy if p == (0.0, 0.0) else 0.0
                         for p in adjoint])
    for dual in (h, gamma):
        pairings = gf.stft(dual, gf.gaussian(2.0), adjoint)
        assert np.max(np.abs(pairings - expected)) <= 1e-12
    far = np.abs(grid.times()) >= 8.0
    assert np.max(np.abs(h.values[far])) <= 1e-10
    assert np.max(np.abs(gamma.values[far])) > 1e-6


def test_dual_of_snug_frame_is_nearly_scaled_window(grid):
    # At step product 1/8 the frame is nearly tight, so A gamma is close
    # to g with mismatch controlled by B/A - 1.
    frame = gf.GaborFrame(gf.gaussian(2.0),
                          gf.make_lattice(LATTICE_STEP / 2, LATTICE_STEP / 2,
                                          TRUNCATION),
                          grid)
    a, b = gf.frame_bounds(frame)
    gamma = gf.dual_window(frame)
    g = gf.gaussian(2.0).sampled(grid)
    mismatch = (np.linalg.norm(a * gamma.values - g.values)
                / np.linalg.norm(g.values))
    assert b / a - 1 < 0.02
    assert mismatch <= (b / a - 1) * 1.01


@pytest.mark.parametrize("order", [1, 3])
def test_odd_window_at_half_density_is_no_frame(grid, order):
    """An odd window at alpha*beta = 1/2 spans no Gabor frame.

    Lyubarskii and Nes (2013): odd windows at alpha*beta = (n-1)/n give no
    frame. frame_bounds cannot see it (its Rayleigh quotients stay
    positive), so dual_atoms checks that the expansion reconstructs the
    central atom: it misses by 0.75 (order 1) and 19 (order 3), where
    usable frames miss by at most 5e-7.
    """
    frame = gf.GaborFrame(gf.hermite(order, 2.0),
                          gf.make_lattice(LATTICE_STEP, LATTICE_STEP,
                                          TRUNCATION), grid)
    assert gf.frame_bounds(frame)[0] > 0
    with pytest.raises(gf.NotAFrameError):
        frame.dual_atoms()


# ------------------------------------------------------- reconstruction

def test_inversion_formula(grid):
    f = centered_gaussian(grid, 2.0)
    rec = gf.inversion_formula_reconstruct(f, gf.gaussian(2.0))
    assert rel_error(rec, f) <= 1e-6


# ------------------------------------------------------- classification

def _phase_space_points(extent=10.0, step=0.5):
    axis = np.arange(-extent, extent + step / 2, step)
    return [(x, w) for x in axis for w in axis]


def test_classify_window_self_transform(grid):
    f = centered_gaussian(grid, 2.0)
    pts = _phase_space_points()
    vals = gf.stft(f, gf.gaussian(2.0), pts)
    fit = gf.gs_decay_classify(pts, np.abs(vals))
    assert 0.4 <= fit.s_hat <= 0.6
    assert fit.r_squared > 0.99


def test_classify_hermite_windows(grid):
    pts = _phase_space_points()
    for order in (1, 2, 3):
        f = gf.hermite(order, 2.0).sampled(grid)
        vals = gf.stft(f, gf.gaussian(2.0), pts)
        fit = gf.gs_decay_classify(pts, np.abs(vals))
        assert 0.4 <= fit.s_hat <= 0.6, f"order {order}: s={fit.s_hat}"
        assert fit.r_squared > 0.99


def test_classify_rejects_silence():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(gf.NoSignalError):
        gf.gs_decay_classify(pts, np.zeros(3))


@pytest.mark.parametrize("s_grid, named", [
    ([], "[]"), ([0.0], "0"), ([0.5, -1.0], "-1"), ([float("nan")], "nan")])
def test_classify_rejects_bad_orders(s_grid, named):
    pts = np.array(_phase_space_points())
    mags = np.exp(-np.hypot(pts[:, 0], pts[:, 1]))
    with pytest.raises(ValueError, match="s_grid") as err:
        gf.gs_decay_classify(pts, mags, s_grid=s_grid)
    assert named in str(err.value)


# ------------------------------------------------------------- moments

def test_moment_constant_conversion_examples():
    assert gf.moment_constant_conversion(1.0, 1.0, 1) == 1.0
    assert gf.moment_constant_conversion(2.0, 1.0, 2) == 1.0
    assert gf.moment_epsilon_bound(1.0, 1.0, 1) == 1.0


def test_moment_conversion_roundtrip():
    c = gf.moment_constant_conversion(0.7, 1.3, 1)
    assert abs(gf.moment_epsilon_bound(c, 1.3, 1) - 0.7) <= 1e-12


def test_moment_conversion_validation():
    with pytest.raises(ValueError):
        gf.moment_constant_conversion(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        gf.moment_constant_conversion(1.0, -1.0, 1)
    with pytest.raises(ValueError):
        gf.moment_epsilon_bound(-1.0, 1.0, 1)
    with pytest.raises(ValueError):
        gf.moment_epsilon_bound(1.0, 1.0, 0)
