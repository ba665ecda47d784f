"""Assembled Gabor matrices: concentration, decay fits, sparse application."""

import dataclasses
import math

import numpy as np
import pytest

import gaborfio as gf
from gaborfio.fitting import shell_decay_fit
from conftest import (MATRIX_FLOOR, LATTICE_STEP, centered_gaussian,
                      rel_error, rotation_law)


def _synthetic_matrix(truncation=4.0, rate=3.0):
    """Hand-built matrix with |entries| = exp(-rate * dist), chi = identity."""
    grid = gf.Grid(1, 1024, 32.0)
    lat = gf.make_lattice(LATTICE_STEP, LATTICE_STEP, truncation)
    pts = lat.as_array()
    n = len(lat)
    dist = np.hypot(pts[None, :, 0] - pts[:, None, 0],
                    pts[None, :, 1] - pts[:, None, 1]).ravel()
    return gf.GaborMatrix(
        operator_name="synthetic", grid=grid, window=gf.gaussian(2.0),
        lattice=lat, symbol_order=0.0,
        entries=np.exp(-rate * dist).astype(complex),
        distances=dist, chi=pts.copy(), flags=np.zeros(n, dtype=bool))


# ------------------------------------------------------------- assembly

def test_identity_matrix_closed_form(matrices):
    # For the width-2 window, |<g_mu, g_lambda>| factors into a width-4
    # Gaussian in the time offset and a width-1 Gaussian in frequency.
    m = matrices["identity"]
    pts = m.lattice.as_array()
    w1 = (pts[None, :, 0] - pts[:, None, 0]).ravel()
    w2 = (pts[None, :, 1] - pts[:, None, 1]).ravel()
    law = np.exp(-np.pi * w1 ** 2 / 4.0 - np.pi * w2 ** 2)
    assert np.max(np.abs(m.magnitudes() - law)) <= 1e-12


def test_harmonic_matrix_closed_form(harmonic_matrix):
    # The width-2 window's rotation matrix follows the rotation law of
    # conftest; measured agreement is 1.4e-14.
    law = rotation_law(harmonic_matrix.lattice, math.pi / 4, 2.0)
    assert np.max(np.abs(harmonic_matrix.magnitudes() - law)) <= 1e-12


def test_cos_multiplier_matrix_closed_form(matrices):
    # Jacobi-Anger: exp(2 pi i cos x) = sum_n i^n J_n(2 pi) exp(i n x), so
    # each entry is a sum of Gaussian overlaps <M_{n/2pi} g_lambda, g_mu>
    # in closed form; J_n(2 pi) ~ pi^n / n! is below 1e-17 past |n| = 30.
    # J_n is (1/pi) int_0^pi cos(n s - x sin s) ds by the midpoint rule,
    # exact to rounding for a periodic integrand. Measured agreement is
    # 2.9e-14.
    m = matrices["multiplier:cos"]
    width = m.window.width
    pts = m.lattice.as_array()
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
    assert np.max(np.abs(m.entries - law.ravel())) <= 1e-12


def test_matrix_diagonal_is_unit(matrices):
    diag = np.abs(np.diag(matrices["identity"].dense()))
    assert np.max(np.abs(diag - 1.0)) <= 1e-12


def test_harmonic_concentration_bound(harmonic_g1_matrix):
    # Entries above the quadrature noise ceiling obey the rotated-Gaussian
    # law with 2 percent slack; the law is exact for the width-1 window.
    m = harmonic_g1_matrix
    keep = m.unflagged() & (m.magnitudes() >= 1e-12)
    bound = 2.0 ** -0.5 * np.exp(-0.5 * np.pi * m.distances[keep] ** 2)
    ratios = m.magnitudes()[keep] / (bound * 1.02)
    assert int(np.sum(ratios > 1.0)) == 0
    assert np.max(ratios) <= 1.0


def test_flag_counts_are_stable(matrices):
    # chi positions are exact lattice geometry, so the per-operator flag
    # counts are deterministic integers.
    expected = {
        "identity": 0,
        "multiplier:cos": 0,
        "multiplier:poly:0.5": 20,
        "metaplectic:chirp:1.0": 20,
        "metaplectic:dilation:2.0": 92,
        "harmonic:0.7853981633974483": 0,
    }
    counts = {name: int(m.flags.sum()) for name, m in matrices.items()}
    assert counts == expected


def test_dense_orientation(matrices):
    m = matrices["identity"]
    n = m.n_lattice
    assert m.dense()[3, 5] == m.entries[5 * n + 3]
    assert len(m) == n * n
    assert np.all(m.distances >= 0)
    assert np.all(np.isfinite(m.entries))


def test_matrix_validation_and_immutability():
    m = _synthetic_matrix()
    with pytest.raises(ValueError):
        m.entries[0] = 0.0
    with pytest.raises(ValueError):
        gf.GaborMatrix(
            operator_name="bad", grid=m.grid, window=m.window,
            lattice=m.lattice, symbol_order=0.0,
            entries=m.entries[:-1], distances=m.distances,
            chi=m.chi, flags=m.flags)


def test_matrix_csv_schema(tmp_path):
    m = _synthetic_matrix(truncation=2.0)
    path = tmp_path / "matrix.csv"
    m.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "lambda1,lambda2,mu1,mu2,re,im,abs,dist"
    assert len(lines) == len(m) + 1
    assert len(lines[1].split(",")) == 8


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


def test_fit_metadata(fits):
    for name, fit in fits.items():
        assert fit.operator == name
        assert fit.s_hat in gf.DEFAULT_S_GRID
        if fit.r_squared > 0.9:
            assert fit.epsilon_hat > 0
        assert fit.weight_exponent == 0.0
        assert fit.n_points >= 200
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


@pytest.mark.parametrize("symbol_order", [0.0, 1.0])
def test_restricted_fit_is_shell_fit_at_one_order(matrices, symbol_order):
    """restricted_decay_fit(m, s) is shell_decay_fit over the grid (s,).

    The samples are rebuilt here: entries of unflagged columns, with
    magnitudes divided by the symbol weight (1 + mu1^2 + lam2^2)^(N/2).
    """
    m = dataclasses.replace(matrices["metaplectic:dilation:2.0"],
                            symbol_order=symbol_order)
    assert m.flags.any()
    pts = m.lattice.as_array()
    n = m.n_lattice
    weight = (1.0 + np.tile(pts[:, 0], n) ** 2
              + np.repeat(pts[:, 1], n) ** 2) ** (symbol_order / 2.0)
    keep = m.unflagged()
    dist, mags = m.distances[keep], (m.magnitudes() / weight)[keep]
    for s in (0.5, 1.0):
        fit = shell_decay_fit(dist, mags, floor=MATRIX_FLOOR,
                              exclusion_radius=0.5, s_grid=(s,),
                              min_samples=1)
        assert gf.restricted_decay_fit(m, s, floor=MATRIX_FLOOR) == (
            fit.epsilon_hat, fit.log_c, fit.r_squared)


def test_decay_bound_envelope_holds(matrices, fits):
    for name, m in matrices.items():
        report = gf.decay_bound_check(m, fits[name])
        assert report["violations"] == 0, name
        assert report["max_ratio"] <= 1.0
        assert report["checked"] > 0


# --------------------------------------------------------------- sparsity

def test_sparsity_identity_rows(matrices):
    m = matrices["identity"]
    report = gf.sparsity_curve(m, 0.5)
    assert report.exponent_used == 1.0
    assert np.all(report.epsilons > 0)
    center = m.lattice.center_index()
    row = np.sort(np.abs(m.dense()[center]))[::-1]
    assert abs(row[0] - 1.0) <= 1e-12
    assert row[1] < row[0] - 0.3
    assert np.all(np.diff(row) <= 1e-15)


def test_sparsity_harmonic_rows_and_columns(harmonic_matrix):
    for axis in ("rows", "cols"):
        report = gf.sparsity_curve(harmonic_matrix, 0.5, axis=axis)
        assert report.axis == axis
        assert np.all(report.epsilons > 0), axis
        assert float(report.r_squareds.min()) > 0.95
        assert report.worst_index in report.indices
        keys = set(report.to_dict())
        assert keys == {"row_worst", "exponent_used"}
        assert set(report.to_dict()["row_worst"]) == {"C", "epsilon", "r2"}


def test_sparsity_curve_validation(harmonic_matrix):
    with pytest.raises(ValueError):
        gf.sparsity_curve(harmonic_matrix, 0.5, axis="diagonal")
    with pytest.raises(ValueError):
        gf.sparsity_curve(harmonic_matrix, 0.0)


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
    with pytest.raises(ValueError):
        gf.sparse_apply(harmonic_matrix, dual_frame, f, 0.0,
                        analysis="windowed")
    other = centered_gaussian(gf.Grid(1, 512, 20.0), 2.0)
    with pytest.raises(ValueError):
        gf.sparse_apply(harmonic_matrix, dual_frame, other, 0.0)


def test_sparse_apply_frame_analysis_option(harmonic_matrix, dual_frame):
    f = centered_gaussian(dual_frame.grid, 2.0)
    tau = 1e-6
    dual_out, dual_ratio = gf.sparse_apply(harmonic_matrix, dual_frame, f,
                                           tau)
    frame_out, frame_ratio = gf.sparse_apply(harmonic_matrix, dual_frame, f,
                                             tau, analysis="frame")
    # The kept set depends only on the matrix magnitudes.
    assert frame_ratio == dual_ratio
    assert np.all(np.isfinite(frame_out.values))


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
