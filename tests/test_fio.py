"""Phases, symbols, quadrature application, and the canonical map."""

import numpy as np
import pytest

import gaborfio as gf
from gaborfio import fio
from gaborfio.fio import HYPOTHESIS_BOX, HYPOTHESIS_POINTS
from conftest import atom_matrix, centered_gaussian, rel_error


def _random_points(n=100, box=5.0, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-box, box, size=(n, 2))


# ------------------------------------------------------------ validation

def test_phase_rejects_inconsistent_gradient():
    with pytest.raises(ValueError, match="gradient disagrees"):
        gf.Phase(value=lambda x, eta: x * eta,
                 gradient=lambda x, eta: (1.1 * np.asarray(eta, dtype=float),
                                          np.asarray(x, dtype=float)),
                 hessian=lambda x, eta: ((0.0, 1.0), (1.0, 0.0)))


def test_phase_rejects_asymmetric_hessian():
    with pytest.raises(ValueError):
        gf.Phase(value=lambda x, eta: x * eta,
                 gradient=lambda x, eta: (np.asarray(eta, dtype=float),
                                          np.asarray(x, dtype=float)),
                 hessian=lambda x, eta: ((0.0, 1.0), (0.5, 0.0)))


def test_phase_refusal_blames_a_too_large_phase():
    # Past ~1e7 cycles central differences round above the gradient
    # tolerance: the refusal names the phase's size, and the phases
    # accepted on either side of that line are the same as before.
    for spec in ("metaplectic:chirp:1e7", "multiplier:poly:5e6",
                 "multiplier:poly:1e300"):
        with pytest.raises(ValueError, match="too large to validate"):
            gf.parse_operator(spec)
    for spec in ("metaplectic:chirp:9e6", "multiplier:poly:4e6"):
        gf.parse_operator(spec)


def test_separable_form_comes_from_the_constructor(grid):
    # build_metaplectic hands over the matrix and the multiplier it was
    # given, as given.
    for op, mat in (
            (gf.harmonic_oscillator(0.7853981633974483),
             gf.rotation_matrix(0.7853981633974483)),
            (gf.harmonic_oscillator(1.2), gf.rotation_matrix(1.2)),
            (gf.dilation_operator(-0.5), gf.dilation_matrix(-0.5)),
            (gf.chirp_operator(1.0), gf.chirp_matrix(1.0))):
        assert op._matrix == mat and op.multiplier is None, op.name
    identity_matrix = gf.SymplecticMatrix(((1.0, 0.0), (0.0, 1.0)))
    for name in ("identity", "multiplier:cos"):
        assert gf.parse_operator(name)._matrix == identity_matrix
    assert gf.parse_operator("multiplier:poly:0.5")._matrix \
        == gf.chirp_matrix(1.0)
    assert gf.parse_operator("multiplier:cos").multiplier[0] is np.cos

    # An operator built by hand from a bare Phase carries no matrix and
    # takes the dense kernel, even when its phase is a metaplectic one.
    h = gf.harmonic_oscillator(0.7853981633974483)
    bare_h = gf.FioOperator(phase=h.phase, symbol=h.symbol)
    assert bare_h._matrix is None
    small = gf.Grid(1, 256, 16.0)
    g = centered_gaussian(small, 2.0)
    assert rel_error(gf.apply(bare_h, g), gf.apply(h, g)) <= 1e-12

    # So do hand-built operators with a cubic eta term, with a
    # non-constant symbol, and with a multiplier's phase but no matrix or
    # multiplier; the last still matches the shipped operator.
    cubic = gf.Phase(
        value=lambda x, eta: (np.asarray(x) * np.asarray(eta)
                              + 0.1 * np.asarray(eta) ** 3),
        gradient=lambda x, eta: (np.asarray(eta, dtype=float),
                                 np.asarray(x, dtype=float)
                                 + 0.3 * np.asarray(eta, dtype=float) ** 2),
        hessian=lambda x, eta: ((0.0, 1.0),
                                (1.0, 0.6 * np.asarray(eta, dtype=float))))
    identity = gf.parse_operator("identity")
    assert gf.FioOperator(phase=cubic, symbol=identity.symbol)._matrix \
        is None

    def varying(x, eta):
        return 1.0 + 0.1 * np.asarray(eta, dtype=complex)

    assert gf.FioOperator(phase=identity.phase, symbol=varying)._matrix \
        is None
    cos = gf.parse_operator("multiplier:cos")
    bare = gf.FioOperator(phase=cos.phase, symbol=cos.symbol)
    assert bare._matrix is None and bare.multiplier is None
    f = centered_gaussian(grid, 2.0)
    assert rel_error(gf.apply(bare, f), gf.apply(cos, f)) <= 1e-12


def test_nondegeneracy_guard():
    flat = gf.FioOperator(
        phase=gf.Phase(
            value=lambda x, eta: 0.5 * np.asarray(x, dtype=float) ** 2
            + 0.0 * np.asarray(eta, dtype=float),
            gradient=lambda x, eta: (np.asarray(x, dtype=float),
                                     np.zeros_like(np.asarray(eta, dtype=float))),
            hessian=lambda x, eta: ((1.0, 0.0), (0.0, 0.0))),
        symbol=gf.parse_operator("identity").symbol, name="flat")
    with pytest.raises(gf.HypothesisError) as err:
        gf.ensure_nondegenerate(flat)
    assert err.value.min_det == 0.0


# --------------------------------------------------------------- apply

def test_identity_apply(grid):
    f = centered_gaussian(grid, 2.0)
    out = gf.apply(gf.parse_operator("identity"), f)
    assert rel_error(out, f) <= 1e-10


def test_multiplier_preserves_magnitude_and_norm(grid):
    f = centered_gaussian(grid, 2.0)
    out = gf.apply(gf.parse_operator("multiplier:cos"), f)
    assert np.max(np.abs(np.abs(out.values) - np.abs(f.values))) <= 1e-14
    assert abs(out.norm() - f.norm()) <= 1e-12 * f.norm()


def test_multiplier_quadrature_matches_shortcut(grid):
    # The shortcut is the closed form exp(2 pi i phi(t)) f(t).
    f = centered_gaussian(grid, 2.0)
    t = grid.times()
    for name, phi in (("multiplier:cos", np.cos(t)),
                      ("multiplier:poly:0.5", 0.5 * t * t)):
        quad = gf.apply(gf.parse_operator(name), f)
        exact = gf.SampledSignal(grid, f.values * np.exp(2j * np.pi * phi))
        assert rel_error(quad, exact) <= 1e-8, name


def test_apply_is_linear(grid):
    op = gf.parse_operator("harmonic:0.7853981633974483")
    f = centered_gaussian(grid, 2.0)
    g = gf.SampledSignal(grid, atom_matrix(
        centered_gaussian(grid, 1.0).values, grid, [(0.5, -1.0)])[:, 0])
    combo = gf.SampledSignal(grid, 2.0 * f.values - 1.5j * g.values)
    left = gf.apply(op, combo)
    right = 2.0 * gf.apply(op, f).values - 1.5j * gf.apply(op, g).values
    assert (np.linalg.norm(left.values - right)
            <= 1e-10 * np.linalg.norm(right))


@pytest.mark.parametrize("name", ["multiplier:cos",
                                  "metaplectic:dilation:2.0"])
def test_row_moves_column_by_column_match_whole_moves(name, monkeypatch):
    # The factored apply moves rows within its F-ordered buffer one column
    # at a time; the same moves on whole slices, which numpy copies through
    # a temporary, give bitwise the same columns, at a = 1 (inverse FFT)
    # and on the Bluestein path.
    grid = gf.Grid(1, 256, 16.0)
    op = gf.parse_operator(name)
    rng = np.random.default_rng(7)
    cols = rng.standard_normal((256, 9)) + 1j * rng.standard_normal((256, 9))
    out = fio._apply_columns(op, grid, cols).copy()
    monkeypatch.setattr(fio, "_move_rows",
                        lambda buf, src, dst: buf.__setitem__(dst, buf[src]))
    assert np.array_equal(fio._apply_columns(op, grid, cols), out)


def _direct_chirp(rate, k, point=lambda k: k):
    """exp(rate x^2) evaluated at every signed point x = point(k)."""
    x = point(k)
    return np.exp(rate * x * x)


@pytest.mark.parametrize("name", [
    "metaplectic:chirp:1.0", "metaplectic:dilation:2.0",
    "harmonic:1.5607963267948966", "multiplier:cos"])
def test_mirrored_chirps_are_bitwise_the_direct_ones(grid, name, monkeypatch):
    # The factored apply takes each chirp once per |k| and gathers it by
    # |k|. The chirps must be bitwise those evaluated at every signed
    # point, except that a zero rate's chirp, 1, may carry imaginary
    # zeros of the other sign; the applied packets, on the inverse FFT
    # path (a = 1) and the Bluestein path, must be bitwise equal.
    op = gf.parse_operator(name)
    mat = op._matrix
    n, h = grid.points_per_axis, grid.points_per_axis // 2
    u = np.arange(n) - h
    ca, theta, ba = mat.c / mat.a, 1.0 / mat.a / n, mat.b / mat.a
    s = np.fft.ifftshift(np.arange(2 * n) - n)
    for rate in (-1j * np.pi * ba, 1j * np.pi * ca, 1j * np.pi * theta,
                 -1j * np.pi * theta):
        for k, point in ((u, lambda k: k * grid.spacing),
                         (np.fft.ifftshift(u), lambda k: k / grid.length),
                         (s, lambda k: k)):
            got, direct = fio._chirp(rate, k, point), _direct_chirp(
                rate, k, point)
            assert (got.tobytes() == direct.tobytes() if rate
                    else np.array_equal(got, direct) and np.all(got == 1))
    t = grid.times()
    packets = [gf.SampledSignal(grid, np.exp(-np.pi * (t - x0) ** 2 / width
                                             + 2j * np.pi * xi0 * t))
               for x0, xi0, width in ((0.0, 0.0, 1.0), (-2.5, 1.7, 0.6),
                                      (4.1, -3.2, 2.0))]
    outs = [gf.apply(op, f).values.tobytes() for f in packets]
    monkeypatch.setattr(fio, "_chirp", _direct_chirp)
    assert [gf.apply(op, f).values.tobytes() for f in packets] == outs


APPLY_OPERATORS = ["harmonic:0.7", "harmonic:1.5607963267948966",
                   "metaplectic:dilation:1.4", "metaplectic:chirp:1.1",
                   "multiplier:cos"]


@pytest.mark.parametrize("name", APPLY_OPERATORS)
def test_chirp_of_the_negated_rate_is_the_conjugate(grid, name):
    # The Bluestein kernel is the chirp of rate -i pi theta; the factored
    # apply takes it as the conjugate of the chirp of i pi theta, which
    # must be bitwise the chirp it replaced over |k| = 1 .. N, on the
    # grid and on the doubled grid that apply pads to. At k = 0 both are
    # 1, and the conjugate's imaginary zero is -0 where the chirp's is +0.
    mat = gf.parse_operator(name)._matrix
    for n in (grid.points_per_axis, 2 * grid.points_per_axis):
        rate = 1j * np.pi * (1.0 / mat.a / n)
        k = np.arange(-n, n + 1)
        direct, conj = fio._chirp(-rate, k), fio._chirp(rate, k).conj()
        assert direct[k != 0].tobytes() == conj[k != 0].tobytes()
        assert direct[n] == conj[n] == 1.0


def _three_chirp_columns(op, grid, values):
    """fio._chirp_z_columns as it took its chirps before they shared one
    table: at v, at u and, of the negated rate, at the kernel's s."""
    mat = op._matrix
    ca, ia, ba = mat.c / mat.a, 1.0 / mat.a, mat.b / mat.a
    n, h = grid.points_per_axis, grid.points_per_axis // 2
    u = np.arange(n) - h
    v = np.fft.ifftshift(u)
    pre = grid.spacing * fio._chirp(-1j * np.pi * ba, v,
                                    lambda k: k / grid.length)
    post = complex(op.symbol(0.0, 0.0)) / grid.length * fio._chirp(
        1j * np.pi * ca, u, lambda k: k * grid.spacing)
    if op.multiplier is not None:
        post *= np.exp(2j * np.pi * op.multiplier[0](grid.times()))
    cols = values.reshape(n, -1)
    buf = np.empty((2 * n, cols.shape[1]), dtype=complex, order="F")
    buf[:h], buf[h:n] = cols[h:], cols[:h]
    spec = buf[:n]
    np.fft.fft(spec, axis=0, out=spec)
    if ia == 1.0:
        spec *= pre[:, None]
        np.fft.ifft(spec, axis=0, out=spec)
        post *= n
    else:
        theta = ia / n
        spec *= (pre * fio._chirp(1j * np.pi * theta, v))[:, None]
        fio._move_rows(buf, slice(h, n), slice(n + h, None))
        buf[h:n + h] = 0.0
        s = np.fft.ifftshift(np.arange(2 * n) - n)
        chirp = np.fft.fft(fio._chirp(-1j * np.pi * theta, s))
        np.fft.fft(buf, axis=0, out=buf)
        buf *= chirp[:, None]
        np.fft.ifft(buf, axis=0, out=buf)
        post *= fio._chirp(1j * np.pi * theta, u)
        fio._move_rows(buf, slice(n + h, None), slice(h, n))
    fio._move_rows(buf, slice(None, h), slice(n, n + h))
    out = buf[h:n + h]
    out *= post[:, None]
    return out.reshape(values.shape)


@pytest.mark.parametrize("name", APPLY_OPERATORS)
def test_apply_is_bitwise_the_three_chirp_route(grid, name, monkeypatch):
    # One chirp table, gathered at v and u and conjugated for the kernel,
    # gives apply's packets bit for bit as the three chirps did.
    op = gf.parse_operator(name)
    t = grid.times()
    packets = [gf.SampledSignal(grid, np.exp(-np.pi * (t - x0) ** 2 / width
                                             + 2j * np.pi * xi0 * t))
               for x0, xi0, width in ((0.0, 0.0, 1.0), (-2.5, 1.7, 0.6),
                                      (4.1, -3.2, 2.0))]
    outs = [gf.apply(op, f).values.tobytes() for f in packets]
    monkeypatch.setattr(fio, "_chirp_z_columns", _three_chirp_columns)
    assert [gf.apply(op, f).values.tobytes() for f in packets] == outs


# --------------------------------------------------------- canonical map

def test_canonical_map_identity():
    pts = _random_points()
    out = gf.canonical_map(gf.parse_operator("identity"), pts)
    np.testing.assert_allclose(out, pts, atol=1e-12)


def test_canonical_map_shears_frequency_for_multipliers():
    op = gf.parse_operator("multiplier:poly:0.5")
    pts = _random_points()
    out = gf.canonical_map(op, pts)
    np.testing.assert_allclose(out[:, 0], pts[:, 0], atol=1e-12)
    # phi(x) = 0.5 x^2 shears eta by phi'(y) = y.
    np.testing.assert_allclose(out[:, 1], pts[:, 1] + pts[:, 0], atol=1e-9)


def test_canonical_map_newton_matches_closed_forms():
    pts = _random_points()
    for name in gf.shipped_operator_names():
        op = gf.parse_operator(name)
        x, xi = op.closed_map(pts[:, 0], pts[:, 1])
        gap = np.max(np.abs(gf.canonical_map(op, pts)
                            - np.column_stack([x, xi])))
        assert gap <= 1e-9, f"{name}: {gap:.3e}"


def test_canonical_map_is_symplectic():
    # Finite-difference Jacobian of chi has unit symplectic form.
    h = 1e-5
    j_form = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for name in ("multiplier:cos", "harmonic:0.7853981633974483"):
        op = gf.parse_operator(name)
        for y, eta in [(0.3, -1.2), (-2.0, 0.4), (1.1, 2.2)]:
            px = gf.canonical_map(op, [(y + h, eta), (y - h, eta)])
            pe = gf.canonical_map(op, [(y, eta + h), (y, eta - h)])
            jac = np.column_stack([(px[0] - px[1]) / (2 * h),
                                   (pe[0] - pe[1]) / (2 * h)])
            defect = jac.T @ j_form @ jac - j_form
            assert np.max(np.abs(defect)) <= 1e-6, name


def test_canonical_map_budget_exhaustion_reports_iterate(monkeypatch):
    op = gf.parse_operator("metaplectic:dilation:2.0")
    monkeypatch.setattr("gaborfio.fio.NEWTON_MAX_ITERATIONS", 0)
    with pytest.raises(gf.SolverError) as err:
        gf.canonical_map(op, [(2.0, 1.0)])
    assert err.value.residual is not None and err.value.residual > 0
    assert err.value.last_iterate is not None


# ----------------------------------------------------------- hypotheses
# The hypotheses the sparsity bounds rest on: ensure_nondegenerate's
# margin, min |d^2 Phi / dx deta| over the hypothesis box, and the bound
# sup |sigma| of the symbol over the same box.

def _symbol_sup(op):
    axis = np.linspace(-HYPOTHESIS_BOX, HYPOTHESIS_BOX, HYPOTHESIS_POINTS)
    xg, eg = np.meshgrid(axis, axis, indexing="ij")
    return float(np.max(np.abs(np.asarray(op.symbol(xg, eg),
                                          dtype=complex))))


def test_validate_hypotheses_identity():
    op = gf.parse_operator("identity")
    assert op.name == "identity"
    assert gf.ensure_nondegenerate(op) == 1.0
    assert abs(_symbol_sup(op) - 1.0) <= 1e-12


def test_validate_hypotheses_cos_multiplier():
    assert gf.ensure_nondegenerate(gf.parse_operator("multiplier:cos")) == 1.0


def test_validate_hypotheses_metaplectic_blocks():
    # The mixed phase Hessian of a linear-map operator is 1/a, its symbol
    # the constant 1/sqrt(|a|).
    cases = {
        "metaplectic:chirp:1.0": (1.0, 1.0),
        "metaplectic:dilation:2.0": (0.5, 2.0 ** -0.5),
        "harmonic:0.7853981633974483": (2.0 ** 0.5, 2.0 ** 0.25),
    }
    for name, (mixed, constant) in cases.items():
        op = gf.parse_operator(name)
        assert abs(gf.ensure_nondegenerate(op) - mixed) <= 1e-9, name
        assert abs(_symbol_sup(op) - constant) <= 1e-9, name
