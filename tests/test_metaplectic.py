"""Linear canonical transformations and their quadratic-phase operators."""

import numpy as np
import pytest

import gaborfio as gf
from gaborfio.fio import _dense_columns
from conftest import centered_gaussian, rel_error


def test_symplectic_matrix_validation():
    gf.SymplecticMatrix(((1.0, 2.0), (0.0, 1.0)))
    with pytest.raises(ValueError):
        gf.SymplecticMatrix(((1.0, 0.0), (0.0, 2.0)))
    with pytest.raises(ValueError):
        gf.SymplecticMatrix(((np.nan, 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError):
        gf.SymplecticMatrix(np.eye(3))


def test_matrix_blocks_compose_and_transform():
    m = gf.SymplecticMatrix(gf.chirp_matrix(0.5).as_array()
                            @ gf.dilation_matrix(2.0).as_array())
    expected = np.array([[1.0, 0.0], [0.5, 1.0]]) @ np.array([[2.0, 0.0],
                                                              [0.0, 0.5]])
    np.testing.assert_allclose(m.as_array(), expected, atol=1e-15)
    assert (m.a, m.b, m.c, m.d) == (2.0, 0.0, 1.0, 0.5)


def test_rotation_composition():
    t = np.pi / 8
    rot = gf.rotation_matrix(t).as_array()
    np.testing.assert_allclose(rot @ rot,
                               gf.rotation_matrix(2 * t).as_array(),
                               atol=1e-12)


def test_dilation_matrix_rejects_zero():
    with pytest.raises(ValueError):
        gf.dilation_matrix(0.0)


def test_build_rejects_vanishing_upper_left_block():
    with pytest.raises(gf.HypothesisError):
        gf.build_metaplectic(gf.rotation_matrix(np.pi / 2))


def test_identity_matrix_builds_identity_operator(grid):
    op = gf.build_metaplectic(gf.SymplecticMatrix(np.eye(2)), name="eye")
    x = np.array([-1.0, 0.5, 2.0])
    eta = np.array([0.25, -3.0, 1.0])
    np.testing.assert_allclose(op.phase.value(x, eta), x * eta, atol=1e-15)
    f = centered_gaussian(grid, 2.0)
    assert rel_error(gf.apply(op, f), f) <= 1e-10


def test_multiplier_after_rotation_uses_the_one_closed_map(grid):
    # A rotation followed by exp(2 pi i cos x): x = a y + b eta and
    # xi = c y + d eta - sin(x), against Newton; the factored apply
    # against the dense kernel.
    op = gf.build_metaplectic(
        gf.rotation_matrix(0.6), name="rotation+cos",
        multiplier=(np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x)))
    assert op._matrix == gf.rotation_matrix(0.6)
    pts = np.random.default_rng(6).uniform(-5.0, 5.0, size=(100, 2))
    x, xi = op.closed_map(pts[:, 0], pts[:, 1])
    gap = np.max(np.abs(gf.canonical_map(op, pts)
                        - np.column_stack([x, xi])))
    assert gap <= 1e-9
    f = centered_gaussian(grid, 2.0)
    dense = gf.SampledSignal(grid, _dense_columns(op, grid, f.values))
    assert rel_error(gf.apply(op, f), dense) <= 1e-12


def test_metaplectic_law_covers_gaussian_windows_of_bare_matrices():
    # At the identity the law factors into a width-2w Gaussian in the
    # time offset and a width-2/w one in frequency (|<g_lambda, g_mu>|
    # of the gaussian(w) window, ||g||^2 = sqrt(w / 2) at its peak).
    lat = gf.make_lattice(0.5, 0.5, 2.0)
    pts = lat.points
    dx = pts[None, :, 0] - pts[:, None, 0]
    dw = pts[None, :, 1] - pts[:, None, 1]
    identity = gf.parse_operator("identity")
    for w in (1.0, 2.0, 3.0):
        law = gf.metaplectic_law(identity, lat, gf.gaussian(w))
        exact = np.sqrt(w / 2) * np.exp(-np.pi * dx ** 2 / (2 * w)
                                        - np.pi * w * dw ** 2 / 2)
        np.testing.assert_allclose(law, exact, rtol=1e-12, atol=1e-300)
    # None for a multiplier, a Hermite window, and a hand-built operator.
    h = gf.harmonic_oscillator(0.5)
    for op, window in ((gf.parse_operator("multiplier:cos"), gf.gaussian(2)),
                       (h, gf.hermite(1, 2.0)),
                       (gf.FioOperator(phase=h.phase, symbol=h.symbol),
                        gf.gaussian(2.0))):
        assert gf.metaplectic_law(op, lat, window) is None


def test_chirp_phase_and_closed_form(grid):
    c = 0.7
    op = gf.chirp_operator(c)
    x = np.array([-1.5, 0.0, 2.0])
    eta = np.array([1.0, -0.5, 0.25])
    np.testing.assert_allclose(op.phase.value(x, eta),
                               0.5 * c * x * x + x * eta, atol=1e-14)
    f = centered_gaussian(grid, 2.0)
    t = grid.times()
    closed = gf.SampledSignal(grid, np.exp(1j * np.pi * c * t * t) * f.values)
    assert rel_error(gf.apply(op, f), closed) <= 1e-8


def test_dilation_quadrature_matches_rescaled_window(grid):
    # For f(x) = exp(-pi x^2 / 2), (Tf)(x) = 2^{-1/2} f(x/2) has width 8.
    op = gf.dilation_operator(2.0)
    f = centered_gaussian(grid, 2.0)
    out = gf.apply(op, f)
    expected = 2.0 ** -0.5 * gf.gaussian(8.0).evaluate(grid.times())
    assert (np.linalg.norm(out.values - expected)
            <= 1e-8 * np.linalg.norm(expected))


def test_metaplectic_canonical_map_is_the_linear_map():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-4, 4, size=(50, 2))
    for op, mat in ((gf.chirp_operator(1.0), gf.chirp_matrix(1.0)),
                    (gf.dilation_operator(2.0), gf.dilation_matrix(2.0)),
                    (gf.harmonic_oscillator(np.pi / 4),
                     gf.rotation_matrix(np.pi / 4))):
        gap = np.max(np.abs(gf.canonical_map(op, pts)
                            - pts @ mat.as_array().T))
        assert gap <= 1e-9, op.name


def test_harmonic_time_zero_is_identity(grid):
    np.testing.assert_allclose(gf.rotation_matrix(0.0).as_array(), np.eye(2),
                               atol=1e-15)
    f = centered_gaussian(grid, 2.0)
    assert rel_error(gf.apply(gf.harmonic_oscillator(0.0), f), f) <= 1e-8


def test_harmonic_quarter_period_rotates_phase_space():
    out = np.array([[1.0, 0.0]]) @ gf.rotation_matrix(np.pi / 4).as_array().T
    np.testing.assert_allclose(out, [[2 ** 0.5 / 2, 2 ** 0.5 / 2]],
                               atol=1e-12)
    op = gf.harmonic_oscillator(np.pi / 4)
    sym = op.symbol(np.array([0.0]), np.array([0.0]))
    assert abs(sym[0] - 2.0 ** 0.25) <= 1e-12


def _packet(t, x0, xi0, width):
    return (np.exp(-np.pi * (t - x0) ** 2 / width)
            * np.exp(2j * np.pi * xi0 * t))


# Packets whose images under small dilations and late rotations reach
# past the grid's half length, where a sum over the input's own grid
# folds aliased copies back in (misses of 0.1-1.4 there).
PACKETS = ((5.0, 4.0, 1.0), (2.5, -2.8, 1.5))


@pytest.mark.parametrize("a", [0.6, 0.5, -0.5, 0.4])
def test_dilation_apply_matches_closed_form_off_centre(grid, a):
    # |a|^(-1/2) f(x / a); measured <= 6.6e-14.
    t = grid.times()
    for x0, xi0, width in PACKETS:
        f = gf.SampledSignal(grid, _packet(t, x0, xi0, width))
        closed = gf.SampledSignal(
            grid, abs(a) ** -0.5 * _packet(t / a, x0, xi0, width))
        assert rel_error(gf.apply(gf.dilation_operator(a), f), closed) \
            <= 1e-12, (x0, xi0)


@pytest.mark.parametrize("time", [1.0, 1.1, 1.2])
def test_harmonic_apply_moves_packet_to_rotated_centre(grid, time):
    # A width-1 packet keeps its shape under the rotation; only its
    # magnitude is compared (the phase depends on the propagator's sign
    # branch). Measured <= 8.2e-14. From t ~ 1.25 the doubled grid
    # aliases too.
    t = grid.times()
    for x0, xi0, _ in PACKETS:
        out = gf.apply(gf.harmonic_oscillator(time),
                       gf.SampledSignal(grid, _packet(t, x0, xi0, 1.0)))
        x1 = np.cos(time) * x0 - np.sin(time) * xi0
        expected = np.exp(-np.pi * (t - x1) ** 2)
        assert (np.linalg.norm(np.abs(out.values) - expected)
                <= 1e-12 * np.linalg.norm(expected)), (x0, xi0)


def test_harmonic_singular_times_rejected():
    with pytest.raises(gf.SingularTimeError) as err:
        gf.harmonic_oscillator(np.pi / 2)
    assert err.value.distance <= 1e-12
    with pytest.raises(gf.SingularTimeError) as err:
        gf.harmonic_oscillator(-np.pi / 2 + 1e-8)
    assert abs(err.value.distance - 1e-8) <= 1e-12
    assert abs(gf.singular_time_distance(np.pi / 4) - np.pi / 4) <= 1e-12


def test_group_action_magnitudes(grid):
    # Two eighth-period steps versus one quarter-period step; the grid
    # keeps all mass far from the fold so magnitudes agree to rounding.
    t = np.pi / 8
    f = centered_gaussian(grid, 2.0)
    one = gf.apply(gf.harmonic_oscillator(t), f)
    two = gf.apply(gf.harmonic_oscillator(t), one)
    direct = gf.apply(gf.harmonic_oscillator(2 * t), f)
    assert np.max(np.abs(np.abs(two.values) - np.abs(direct.values))) <= 1e-6


def test_quadrature_is_unitary(grid):
    f = centered_gaussian(grid, 2.0)
    for op in (gf.chirp_operator(1.0), gf.dilation_operator(2.0),
               gf.harmonic_oscillator(np.pi / 4)):
        out = gf.apply(op, f)
        assert abs(out.norm() - f.norm()) <= 1e-8 * f.norm(), op.name


def test_rotation_canonical_maps_are_additive():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-4, 4, size=(40, 2))
    op_s = gf.harmonic_oscillator(np.pi / 8)
    op_t = gf.harmonic_oscillator(np.pi / 8)
    op_sum = gf.harmonic_oscillator(np.pi / 4)
    chained = gf.canonical_map(op_t, gf.canonical_map(op_s, pts))
    direct = gf.canonical_map(op_sum, pts)
    assert np.max(np.abs(chained - direct)) <= 1e-9
