"""Phases, symbols, quadrature application, and the canonical map."""

import sys
import threading

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
    # A warm plan would skip the patched chirps and compare the cache
    # with itself.
    fio._plans.clear()
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
    fio._plans.clear()
    assert [gf.apply(op, f).values.tobytes() for f in packets] == outs


PLAN_OPERATORS = ["metaplectic:chirp:1.0", "multiplier:cos",
                  "metaplectic:dilation:-0.7", "harmonic:1.5607963267948966"]
PLAN_GRIDS = [(512, 20.0), (1024, 32.0), (2048, 44.0)]


def _packet(grid, x0=-1.3, xi0=0.8, width=0.7):
    t = grid.times()
    return gf.SampledSignal(grid, np.exp(-np.pi * (t - x0) ** 2 / width
                                         + 2j * np.pi * xi0 * t))


def _three_chirp_apply(op, f):
    """apply's readout of _three_chirp_columns on f's doubled grid."""
    h = f.grid.points_per_axis // 2
    return _three_chirp_columns(op, f.grid.doubled(),
                                np.pad(f.values, h))[h:-h]


@pytest.mark.parametrize("n, length", PLAN_GRIDS)
@pytest.mark.parametrize("name", PLAN_OPERATORS)
def test_cold_warm_and_reparsed_applies_are_the_three_chirp_route(
        name, n, length):
    # The plan's chirps and kernel are the expressions the apply
    # evaluated per call, evaluated once: applied from a cold plan, from
    # the plan it left, and by an equal operator parsed again, the
    # outputs are bitwise the three-chirp route's, at a = 1 (inverse FFT,
    # with and without a multiplier) and on the Bluestein path.
    grid = gf.Grid(1, n, length)
    f, op = _packet(grid), gf.parse_operator(name)
    expected = _three_chirp_apply(op, f).tobytes()
    fio._plans.clear()
    outs = [gf.apply(op, f), gf.apply(op, f),
            gf.apply(gf.parse_operator(name), f)]
    assert len(fio._plans) == 1
    assert [out.values.tobytes() for out in outs] == [expected] * 3


def test_quadrature_assemble_is_bitwise_the_three_chirp_route(monkeypatch):
    # A Hermite window takes the quadrature, whose runs of lattice times
    # share one plan per operator; its entries are bitwise those of the
    # route that took every chirp per call.
    frame = gf.GaborFrame(gf.parse_window("hermite:2:2"),
                          gf.make_lattice(2 ** -0.5, 2 ** -0.5, 3.0),
                          gf.Grid(1, 512, 20.0))
    names = ("harmonic:0.7", "multiplier:cos", "metaplectic:dilation:-0.7")
    fio._plans.clear()
    got = [gf.assemble(gf.parse_operator(name), frame).entries.tobytes()
           for name in names]
    assert len(fio._plans) == len(names)
    monkeypatch.setattr(fio, "_chirp_z_columns", _three_chirp_columns)
    assert [gf.assemble(gf.parse_operator(name), frame).entries.tobytes()
            for name in names] == got


def _retained():
    return sum(plan.nbytes for plan in fio._plans.values())


def test_plan_cache_stays_within_its_bound(monkeypatch):
    # Bounded in bytes, not plans: on 2048 points a Bluestein plan takes
    # 80 bytes per point and an a = 1 plan 32, so a bound of four
    # Bluestein plans holds more a = 1 plans. After more distinct
    # operators than it holds, the cache keeps the most recent that fit,
    # never more bytes than the bound.
    grid = gf.Grid(1, 2048, 64.0)
    monkeypatch.setattr(fio, "PLAN_CACHE_BYTES", 4 * 80 * 2048)
    fio._plans.clear()
    cols = _packet(grid).values
    specs = ([f"harmonic:{0.1 * k!r}" for k in range(1, 8)]
             + [f"metaplectic:chirp:{0.25 * k!r}" for k in range(1, 12)])
    for spec in specs:
        fio._apply_columns(gf.parse_operator(spec), grid, cols)
        assert _retained() <= fio.PLAN_CACHE_BYTES, spec
    assert len(fio._plans) == 10 and _retained() == 10 * 32 * 2048
    # A plan used again moves to the back of the queue.
    first = next(iter(fio._plans))
    fio._apply_columns(gf.parse_operator(specs[-10]), grid, cols)
    assert next(reversed(fio._plans)) == first


def test_plan_larger_than_the_bound_is_used_not_kept(monkeypatch):
    grid = gf.Grid(1, 1024, 32.0)
    op, f = gf.parse_operator("harmonic:0.9"), _packet(grid)
    expected = _three_chirp_apply(op, f).tobytes()
    # apply runs on the doubled grid: 80 bytes per each of its 2048 points.
    monkeypatch.setattr(fio, "PLAN_CACHE_BYTES", 80 * 2048 - 1)
    fio._plans.clear()
    assert gf.apply(op, f).values.tobytes() == expected
    assert not fio._plans
    monkeypatch.setattr(fio, "PLAN_CACHE_BYTES", 80 * 2048)
    assert gf.apply(op, f).values.tobytes() == expected
    assert _retained() == 80 * 2048


def test_grids_matrices_and_symbols_never_share_a_plan():
    # Equal values share a plan; any difference in the matrix (a signed
    # zero included: the rotation by 0 has b = -0.0, the identity 0.0),
    # the symbol or the grid's points or length makes another. The
    # multiplier is applied per call, so the identity and multiplier:cos
    # share the identity matrix's plan.
    identity = gf.parse_operator("identity")
    bare_scaled = gf.FioOperator(
        phase=identity.phase, symbol=lambda x, eta: 2.0 * identity.symbol(
            x, eta), _matrix=identity._matrix)
    ops = [identity, gf.parse_operator("harmonic:0.0"),
           gf.parse_operator("metaplectic:dilation:2.0"),
           gf.parse_operator("metaplectic:dilation:-2.0"), bare_scaled]
    grids = [gf.Grid(1, 256, 16.0), gf.Grid(1, 512, 16.0),
             gf.Grid(1, 256, 32.0)]
    fio._plans.clear()
    for grid in grids:
        for op in ops + [gf.parse_operator("multiplier:cos")]:
            f = _packet(grid, x0=0.5, xi0=-0.4)
            assert (gf.apply(op, f).values.tobytes()
                    == _three_chirp_apply(op, f).tobytes()), op.name
    assert len(fio._plans) == len(ops) * len(grids)


def test_threads_sharing_the_plan_cache(monkeypatch):
    # More threads than cores apply more operators than the bound holds,
    # switching often: every output is bitwise its operator's own, and
    # the cache never holds more than its bound.
    grid = gf.Grid(1, 512, 16.0)
    f = _packet(grid)
    ops = [gf.parse_operator(f"harmonic:{0.2 * k!r}") for k in range(1, 6)]
    expected = [_three_chirp_apply(op, f).tobytes() for op in ops]
    monkeypatch.setattr(fio, "PLAN_CACHE_BYTES", 3 * 80 * 1024)
    fio._plans.clear()
    errors, bytes_seen = [], []

    def work(seed):
        order = np.random.default_rng(seed).integers(0, len(ops), 40)
        for i in order:
            if gf.apply(ops[i], f).values.tobytes() != expected[i]:
                errors.append(ops[i].name)
            with fio._plans_lock:
                bytes_seen.append(_retained())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors and len(bytes_seen) == 6 * 40
    assert max(bytes_seen) <= fio.PLAN_CACHE_BYTES


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


def _scanned(op):
    """ensure_nondegenerate's scan: op's phase and symbol without the
    matrix."""
    return gf.ensure_nondegenerate(gf.FioOperator(phase=op.phase,
                                                  symbol=op.symbol,
                                                  name=op.name))


@pytest.mark.parametrize("name", list(gf.shipped_operator_names()) + [
    f"harmonic:{float(t)!r}" for t in np.linspace(-3.0, 3.0, 25)] + [
    f"metaplectic:dilation:{a!r}" for a in (-3.7, -1.0, -0.3, 0.3, 1e-3,
                                            1.0, 2.5, 1e9)] + [
    f"metaplectic:chirp:{c!r}" for c in (-2.0, 0.0, 0.7, 1e6)] + [
    "multiplier:poly:0.3"])
def test_closed_form_margin_is_bitwise_the_scan(name):
    # The mixed Hessian build_metaplectic gives its phase is the constant
    # 1/a, so |1/a| is bitwise the minimum the scan finds.
    op = gf.parse_operator(name)
    margin = gf.ensure_nondegenerate(op)
    assert margin == abs(1.0 / op._matrix.a)
    assert np.float64(margin).tobytes() == np.float64(_scanned(op)).tobytes()


def test_closed_form_margin_refuses_as_the_scan_does():
    # |1/a| = 1e-11 lies under HYPOTHESIS_DET_FLOOR: the same refusal,
    # min_det and message as the scan's.
    op = gf.parse_operator("metaplectic:dilation:1e11")
    errors = []
    for check in (gf.ensure_nondegenerate, _scanned):
        with pytest.raises(gf.HypothesisError) as err:
            check(op)
        errors.append((err.value.min_det, str(err.value)))
    assert errors[0] == errors[1]
    assert errors[0][0] == 1e-11 < fio.HYPOTHESIS_DET_FLOOR


def test_phase_validation_calls_each_callable_once():
    # The check evaluates value, gradient and hessian once each, on its
    # stacked shifted points, and accepts the phase.
    calls = {"value": 0, "gradient": 0, "hessian": 0}

    def counted(name, fn):
        def wrapped(x, eta):
            calls[name] += 1
            return fn(x, eta)
        return wrapped

    cos = gf.parse_operator("multiplier:cos").phase
    gf.Phase(value=counted("value", cos.value),
             gradient=counted("gradient", cos.gradient),
             hessian=counted("hessian", cos.hessian), name="counted")
    assert calls == {"value": 1, "gradient": 1, "hessian": 1}
