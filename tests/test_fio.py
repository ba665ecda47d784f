"""Phases, symbols, quadrature application, and the canonical map."""

import numpy as np
import pytest

import gaborfio as gf
from gaborfio.fio import HYPOTHESIS_BOX, HYPOTHESIS_POINTS, linear_phase
from gaborfio.gabor import _atom_matrix
from conftest import centered_gaussian, rel_error


def _random_points(n=100, box=5.0, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-box, box, size=(n, 2))


# ------------------------------------------------------------ validation

def test_phase_rejects_inconsistent_gradient():
    with pytest.raises(ValueError):
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


def test_phase_rejects_bad_smoothness_metadata():
    kwargs = dict(value=lambda x, eta: x * eta,
                  gradient=lambda x, eta: (np.asarray(eta, dtype=float),
                                           np.asarray(x, dtype=float)),
                  hessian=lambda x, eta: ((0.0, 1.0), (1.0, 0.0)))
    with pytest.raises(ValueError):
        gf.Phase(smoothness_order=0.3, **kwargs)


def test_separable_form_is_read_from_the_phase(grid):
    t = 0.7853981633974483
    mat = gf.rotation_matrix(t)
    a, b, c = mat.a, mat.b, mat.c
    assert gf.harmonic_oscillator(t)._separable == (c / a, 1.0 / a, b / a)
    for name in ("identity", "multiplier:cos", "multiplier:poly:0.5"):
        assert gf.parse_operator(name)._separable == (0.0, 1.0, 0.0)

    # A cubic eta term, a non-constant symbol, and a multiplier's phase
    # without its multiplier_fn have no separable form: they take the
    # dense kernel.
    cubic = gf.Phase(
        value=lambda x, eta: (np.asarray(x) * np.asarray(eta)
                              + 0.1 * np.asarray(eta) ** 3),
        gradient=lambda x, eta: (np.asarray(eta, dtype=float),
                                 np.asarray(x, dtype=float)
                                 + 0.3 * np.asarray(eta, dtype=float) ** 2),
        hessian=lambda x, eta: ((0.0, 1.0),
                                (1.0, 0.6 * np.asarray(eta, dtype=float))))
    assert gf.FioOperator(phase=cubic, symbol=gf.unit_symbol())._separable \
        is None
    varying = gf.Symbol(
        lambda x, eta: 1.0 + 0.1 * np.asarray(eta, dtype=complex))
    assert gf.FioOperator(phase=linear_phase(), symbol=varying)._separable \
        is None
    cos = gf.parse_operator("multiplier:cos")
    bare = gf.FioOperator(phase=cos.phase, symbol=cos.symbol)
    assert bare._separable is None
    f = centered_gaussian(grid, 2.0)
    assert rel_error(gf.apply(bare, f), gf.apply(cos, f)) <= 1e-12


def test_multiplier_apply_guards_kind(grid):
    f = centered_gaussian(grid, 2.0)
    with pytest.raises(ValueError):
        gf.multiplier_apply(gf.identity_operator(), f)


def test_nondegeneracy_guard():
    flat = gf.FioOperator(
        phase=gf.Phase(
            value=lambda x, eta: 0.5 * np.asarray(x, dtype=float) ** 2
            + 0.0 * np.asarray(eta, dtype=float),
            gradient=lambda x, eta: (np.asarray(x, dtype=float),
                                     np.zeros_like(np.asarray(eta, dtype=float))),
            hessian=lambda x, eta: ((1.0, 0.0), (0.0, 0.0))),
        symbol=gf.unit_symbol(), name="flat")
    with pytest.raises(gf.HypothesisError) as err:
        gf.ensure_nondegenerate(flat)
    assert err.value.min_det == 0.0


# --------------------------------------------------------------- apply

def test_identity_apply(grid):
    f = centered_gaussian(grid, 2.0)
    out = gf.apply(gf.identity_operator(), f)
    assert rel_error(out, f) <= 1e-10


def test_multiplier_preserves_magnitude_and_norm(grid):
    f = centered_gaussian(grid, 2.0)
    op = gf.parse_operator("multiplier:cos")
    exact = gf.multiplier_apply(op, f)
    assert np.max(np.abs(np.abs(exact.values) - np.abs(f.values))) <= 1e-14
    assert abs(exact.norm() - f.norm()) <= 1e-12 * f.norm()


def test_multiplier_quadrature_matches_shortcut(grid):
    f = centered_gaussian(grid, 2.0)
    for name in ("multiplier:cos", "multiplier:poly:0.5"):
        op = gf.parse_operator(name)
        quad = gf.apply(op, f)
        exact = gf.multiplier_apply(op, f)
        assert rel_error(quad, exact) <= 1e-8, name


def test_apply_is_linear(grid):
    op = gf.parse_operator("harmonic:0.7853981633974483")
    f = centered_gaussian(grid, 2.0)
    g = gf.SampledSignal(grid, _atom_matrix(
        centered_gaussian(grid, 1.0).values, grid, [(0.5, -1.0)])[:, 0])
    combo = gf.SampledSignal(grid, 2.0 * f.values - 1.5j * g.values)
    left = gf.apply(op, combo)
    right = 2.0 * gf.apply(op, f).values - 1.5j * gf.apply(op, g).values
    assert (np.linalg.norm(left.values - right)
            <= 1e-10 * np.linalg.norm(right))


# --------------------------------------------------------- canonical map

def test_canonical_map_identity():
    pts = _random_points()
    out = gf.canonical_map(gf.identity_operator(), pts)
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


def test_canonical_map_budget_exhaustion_reports_iterate():
    op = gf.parse_operator("metaplectic:dilation:2.0")
    with pytest.raises(gf.SolverError) as err:
        gf.canonical_map(op, [(2.0, 1.0)], max_iterations=0)
    assert err.value.residual is not None and err.value.residual > 0
    assert err.value.last_iterate is not None


# ----------------------------------------------------------- hypotheses
# The hypotheses the sparsity bounds rest on: ensure_nondegenerate's
# margin, min |d^2 Phi / dx deta| over the hypothesis box, and the bound
# sup |sigma| of the symbol over the same box.

def _symbol_sup(op):
    axis = np.linspace(-HYPOTHESIS_BOX, HYPOTHESIS_BOX, HYPOTHESIS_POINTS)
    xg, eg = np.meshgrid(axis, axis, indexing="ij")
    return float(np.max(np.abs(np.asarray(op.symbol.value(xg, eg),
                                          dtype=complex))))


def test_validate_hypotheses_identity():
    op = gf.identity_operator()
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
