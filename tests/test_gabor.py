"""Windows, lattices, STFT, frame bounds, dual windows, decay classification.

Two dual windows are checked: the canonical dual of dual_window and the
time-localized expansion dual behind dual_atoms, dual_analysis and
dual_synthesis.
"""

import numpy as np
import pytest

import gaborfio as gf
from gaborfio import gabor as gab
from conftest import LATTICE_STEP, TRUNCATION, centered_gaussian, rel_error


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
    assert list(pts) == sorted(pts)
    assert pts[lat.center_index()] == (0.0, 0.0)
    arr = lat.as_array()
    assert arr.shape == (529, 2)
    assert np.max(np.abs(arr)) <= TRUNCATION + 1e-9


def test_lattice_validation():
    with pytest.raises(ValueError):
        gf.Lattice(0.0, 0.5, 4.0, 4.0)
    with pytest.raises(ValueError):
        gf.Lattice(0.5, -0.5, 4.0, 4.0)
    with pytest.raises(ValueError):
        gf.Lattice(0.5, 0.5, -1.0, 4.0)
    assert gf.make_lattice(0.5, 0.5, 4.0).redundancy == 0.25


# ---------------------------------------------------------------- shifts

def test_tf_shift_at_origin_is_identity(grid):
    f = centered_gaussian(grid, 2.0)
    shifted = gf.tf_shift(f, (0.0, 0.0))
    assert rel_error(shifted, f) <= 1e-12


def test_tf_shift_preserves_norm(grid):
    f = centered_gaussian(grid, 2.0)
    for lam in [(1.3, -0.7), (-2.0, 2.5)]:
        spectral = gf.tf_shift(f, lam)
        analytic = gf.tf_shift(f, lam, window=gf.gaussian(2.0))
        assert abs(spectral.norm() - f.norm()) <= 1e-12 * f.norm()
        assert abs(analytic.norm() - f.norm()) <= 1e-12 * f.norm()


def test_tf_shift_translation_closed_form(grid):
    f = centered_gaussian(grid, 2.0)
    shifted = gf.tf_shift(f, (1.0, 0.0), window=gf.gaussian(2.0))
    t = grid.times()
    expected = np.exp(-np.pi * (t - 1.0) ** 2 / 2.0)
    assert np.max(np.abs(shifted.values - expected)) <= 1e-14


def test_tf_shift_paths_agree(grid):
    f = centered_gaussian(grid, 2.0)
    lam = (1.5, -2.25)
    spectral = gf.tf_shift(f, lam)
    analytic = gf.tf_shift(f, lam, window=gf.gaussian(2.0))
    assert rel_error(spectral, analytic) <= 1e-12


def test_tf_shift_rejects_non_finite(grid):
    f = centered_gaussian(grid, 2.0)
    with pytest.raises(ValueError):
        gf.tf_shift(f, (np.nan, 0.0))


def test_atoms_match_per_column_formulas(dual_frame):
    """Frame and dual atoms equal the per-column formulas they replace.

    Window atoms are window(t - x) exp(2 pi i w t), bitwise. Dual atoms
    are the origin column h, shifted spectrally to x, then modulated.
    """
    grid, lat = dual_frame.grid, dual_frame.lattice
    t = grid.times()
    atoms, duals = dual_frame.atoms(), dual_frame.dual_atoms()
    h = duals[:, lat.center_index()]
    spec = np.fft.fft(np.fft.ifftshift(h))
    freqs = np.fft.fftfreq(grid.points_per_axis, d=grid.spacing)
    for j in range(0, len(lat), 37):
        x, w = lat.points[j]
        wave = np.exp(2j * np.pi * w * t)
        assert np.array_equal(atoms[:, j],
                              dual_frame.window.evaluate(t - x) * wave)
        shifted = np.fft.fftshift(np.fft.ifft(
            spec * np.exp(-2j * np.pi * freqs * x)))
        assert (np.max(np.abs(duals[:, j] - shifted * wave))
                <= 1e-15 * np.max(np.abs(h)))


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


def test_stft_grid_mismatch_rejected(grid):
    f = centered_gaussian(grid, 2.0)
    other = gf.gaussian(2.0).sampled(gf.Grid(1, 512, 20.0))
    with pytest.raises(ValueError):
        gf.stft(f, other, [(0.0, 0.0)])


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
    grid = gf.Grid(1, 512, 20.0)
    frame = gf.GaborFrame(gf.gaussian(2.0),
                          gf.make_lattice(LATTICE_STEP, LATTICE_STEP, 8.0),
                          grid)
    with pytest.raises(ValueError):
        gf.frame_bounds(frame)


def test_frame_inequality_on_central_span(g2_frame):
    a, b = gf.frame_bounds(g2_frame)
    atoms = g2_frame.atoms()
    pts = g2_frame.lattice.as_array()
    central = ((np.abs(pts[:, 0]) <= TRUNCATION / 2 + 1e-9)
               & (np.abs(pts[:, 1]) <= TRUNCATION / 2 + 1e-9))
    rng = np.random.default_rng(7)
    for _ in range(20):
        coeffs = (rng.standard_normal(int(central.sum()))
                  + 1j * rng.standard_normal(int(central.sum())))
        f = gf.SampledSignal(g2_frame.grid, atoms[:, central] @ coeffs)
        quotient = np.sum(np.abs(g2_frame.analysis(f)) ** 2) / f.norm() ** 2
        assert a * (1 - 1e-3) <= quotient <= b * (1 + 1e-3)


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
    f = (gab._atom_matrix(gf.gaussian(1.5), grid, [(0.7, 0.9)])[:, 0]
         + 0.5 * gab._atom_matrix(gf.gaussian(3.0), grid,
                                  [(-1.3, -0.4)])[:, 0])
    for window in (gf.gaussian(2.0), gf.hermite(2, 2.0)):
        atoms = gab._atom_matrix(window, grid, lat.as_array())
        expected = atoms @ (grid.spacing * (atoms.conj().T @ f))
        got = gab._walnut_frame_operator(window, lat, grid, f)
        assert (np.linalg.norm(got - expected)
                <= 1e-13 * np.linalg.norm(expected))


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
    rec = dual_frame.synthesis(dual_frame.dual_analysis(f))
    assert rel_error(rec, f) <= 1e-8


def test_dual_expansion_symmetry(dual_frame):
    """Both expansion orders agree; measured gap 3.5e-11."""
    f = centered_gaussian(dual_frame.grid, 2.0)
    left = dual_frame.synthesis(dual_frame.dual_analysis(f))
    right = dual_frame.dual_synthesis(dual_frame.analysis(f))
    assert rel_error(left, right) <= 1e-8


def test_expansion_dual_is_time_localized(dual_frame):
    # The origin column of the dual atoms is the expansion dual h. It and
    # the canonical dual gamma satisfy the Wexler-Raz identities
    # <h, M_{l/alpha} T_{k/beta} g> = alpha*beta delta_k delta_l; h is
    # below 1e-10 past |t| = 8, where gamma is still 2.5e-5.
    grid, lat = dual_frame.grid, dual_frame.lattice
    h = gf.SampledSignal(grid, dual_frame.dual_atoms()[:, lat.center_index()])
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
