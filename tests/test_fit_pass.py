"""The fits' two passes over a Gabor matrix against the full-array route.

The fits read two passes: the entries at or above the floor, with their
distances (gmatrix._above_floor), and per-shell counts of all entries
past the exclusion radius (gmatrix._shell_counts). The oracle is the
route that held every sample: censor_shells over the distances and
magnitudes of every entry of an unflagged lambda, and the envelope,
bound check and sparsity rows computed from those full arrays.
"""

import dataclasses
import math

import numpy as np
import pytest

import gaborfio as gf
from gaborfio import gmatrix
from gaborfio.fitting import (SHELL_WIDTH, censor_shells, scan_orders,
                              sorted_tail_fits)
from conftest import LATTICE_STEP, chi_distances, zero_matrix

FLOORS = (1e-14, 1e-12, 1e-300)
# 0.5 and None as the CLI and the benchmark use them; 0.7 and 1.3 lie
# inside a shell, so the exclusion test splits that shell's entries.
RADII = (0.5, 0.7, 1.3, None)
SHELL_FIELDS = ("clean", "counts", "ybars", "dist", "idx")
# fit_decay's s scan is the same function of the same shells on both
# routes; a short grid keeps the full-array route's scan quick.
S_GRID = (0.5, 0.7, 1.0, 1.4)


def _frame(name):
    if name == "reference":
        return gf.GaborFrame(gf.gaussian(2.0),
                             gf.make_lattice(2 ** -0.5, 2 ** -0.5, 8.0),
                             gf.Grid(1, 1024, 32.0))
    # The 1089-point frame of the CLI's size-guard tests.
    return gf.GaborFrame(gf.gaussian(2.0), gf.make_lattice(0.25, 0.25, 4.0),
                         gf.Grid(1, 512, 20.0))


def _full_samples(matrix):
    keep = ~matrix.flags
    return matrix._distances(keep), np.abs(matrix.entries[keep])


def _oracle_fit(dist, mags, shells, floor):
    """fit_decay over the full arrays: the s scan and the envelope."""
    fit = scan_orders(shells, s_grid=S_GRID,
                      min_samples=gmatrix.MIN_FIT_SAMPLES)
    above = mags >= floor
    env_log_c = float(np.max(np.log(mags[above])))
    spread = above & (dist > 1e-9)
    env_eps = 0.0
    if np.any(spread):
        with np.errstate(over="ignore"):
            scale = np.maximum(dist[spread] ** (1.0 / fit.s_hat),
                               np.finfo(float).tiny)
            ratios = (env_log_c - np.log(mags[spread])) / scale
        env_eps = float(max(0.0, np.min(ratios)))
    return (fit.s_hat, fit.epsilon_hat, fit.log_c, fit.r_squared,
            fit.n_samples, env_log_c, env_eps)


def _oracle_bound_check(dist, mags, fit):
    above = mags >= gmatrix.NOISE_FLOOR
    with np.errstate(over="ignore", divide="ignore"):
        scale = np.minimum(dist[above] ** (1.0 / fit.s_hat),
                           np.finfo(float).max)
        bound = (gmatrix.CONSTANT_SLACK * np.exp(fit.envelope_log_c)
                 * np.exp(-gmatrix.RATE_SLACK * fit.envelope_epsilon
                          * scale))
        ratio = mags[above] / bound
    return {"checked": int(above.sum()),
            "violations": int(np.sum(ratio > 1.0)),
            "max_ratio": float(ratio.max()) if ratio.size else 0.0}


def _outcome(call):
    """call()'s result, or the type and message of what it raised."""
    try:
        return call()
    except (gf.InsufficientDataError, gf.NoSignalError) as err:
        return type(err), str(err)


def _shell_fields(shells):
    return [shells.floor, shells.n_samples] + [
        (getattr(shells, f).dtype, getattr(shells, f).tobytes())
        for f in SHELL_FIELDS]


@pytest.mark.parametrize("name", gf.shipped_operator_names())
@pytest.mark.parametrize("frame", ["reference", "1089"])
def test_one_pass_fits_are_bitwise_the_full_array_route(frame, name):
    matrix = gf.assemble(gf.parse_operator(name), _frame(frame))
    dist, mags = _full_samples(matrix)
    for floor in FLOORS:
        for radius in RADII:
            case = (floor, radius)
            # A fresh matrix: nothing cached by an earlier case.
            fresh = dataclasses.replace(matrix)
            expected = _outcome(lambda: censor_shells(
                dist, mags, floor=floor, exclusion_radius=radius))
            got = _outcome(lambda: fresh._shells(floor, radius))
            if isinstance(expected, tuple):
                assert got == expected, case
                continue
            assert _shell_fields(got) == _shell_fields(expected), case

            ref_fit = _outcome(lambda: _oracle_fit(dist, mags, expected,
                                                   floor))
            fit = _outcome(lambda: gf.fit_decay(
                fresh, floor=floor, exclusion_radius=radius, s_grid=S_GRID))
            if isinstance(fit, gf.DecayFit):
                assert (*dataclasses.astuple(fit)[:5], fit.envelope_log_c,
                        fit.envelope_epsilon) == ref_fit, case
                assert gf.decay_bound_check(fresh, fit) == (
                    _oracle_bound_check(dist, mags, fit)), case
            else:
                assert fit == ref_fit, case
            for s in (0.5, 1.0):
                ref = _outcome(lambda: scan_orders(expected, s_grid=(s,),
                                                   min_samples=1))
                if isinstance(ref, gf.ShellFit):
                    ref = ref.epsilon_hat, ref.log_c, ref.r_squared
                assert _outcome(lambda: gf.restricted_decay_fit(
                    fresh, s, floor=floor, exclusion_radius=radius)) == ref, (
                        case, s)


@pytest.mark.parametrize("name", gf.shipped_operator_names())
@pytest.mark.parametrize("frame", ["reference", "1089"])
def test_sparsity_rows_are_bitwise_the_full_array_route(frame, name):
    matrix = gf.assemble(gf.parse_operator(name), _frame(frame))
    _, mags = _full_samples(matrix)
    for floor in FLOORS:
        for axis, vectors in (("rows", mags.T), ("cols", mags)):
            report = gf.sparsity_curve(matrix, 0.5, axis=axis, floor=floor)
            expected = sorted_tail_fits([vectors], 1.0, floor=floor)
            got = (report.epsilons, report.log_cs, report.r_squareds)
            for g, e in zip(got, expected):
                assert g.tobytes() == e.tobytes(), (floor, axis)


def test_bound_check_reads_the_highest_pass_at_or_below_its_floor(
        monkeypatch):
    # The check reads the samples at NOISE_FLOOR. After a fit at that
    # floor it runs no pass of its own; after a fit at any other floor it
    # runs one samples pass at NOISE_FLOOR, and no counts pass.
    matrix = gf.assemble(gf.parse_operator("harmonic:0.9"),
                         _frame("reference"))
    dist, mags = _full_samples(matrix)
    passes = []
    real_samples, real_counts = gmatrix._above_floor, gmatrix._shell_counts
    monkeypatch.setattr(gmatrix, "_above_floor", lambda m, floor: (
        passes.append(("samples", floor)) or real_samples(m, floor)))
    monkeypatch.setattr(gmatrix, "_shell_counts", lambda m, radius: (
        passes.append(("counts", radius)) or real_counts(m, radius)))
    for floor in (1e-14, gmatrix.NOISE_FLOOR, 1e-6):
        fresh = dataclasses.replace(matrix)
        fit = gf.fit_decay(fresh, floor=floor)
        assert passes == [("samples", floor), ("counts", 0.5)]
        passes.clear()
        assert gf.decay_bound_check(fresh, fit) == _oracle_bound_check(
            dist, mags, fit)
        assert passes == ([] if floor == gmatrix.NOISE_FLOOR
                          else [("samples", gmatrix.NOISE_FLOOR)])
        passes.clear()


def test_certified_shells_where_the_squares_round_across_a_boundary():
    # chi on half-steps of the lattice: several distances then lie on or
    # within rounding of a shell boundary (d = m for the entries i = j of
    # a chi on a lattice point), and the square root of the separable
    # squares alone puts some entries in the next shell. The certified
    # index and the counts past each radius are those of np.hypot.
    half = LATTICE_STEP / 2
    rounded_across = 0
    for chi in ((-15 * half, -7 * half), (0.0, 0.0), (5 * half, 3 * half)):
        matrix = zero_matrix(chi, truncation=8.0)
        dx = matrix.lattice.times - matrix.chi[:, :1]
        dw = matrix.lattice.freqs - matrix.chi[:, 1:]
        exact = chi_distances(matrix)
        reference = np.floor(exact / SHELL_WIDTH).astype(np.intp)
        squares = np.sqrt(np.square(dx / SHELL_WIDTH)[:, :, None]
                          + np.square(dw / SHELL_WIDTH)[:, None, :])
        rounded_across += np.count_nonzero(
            np.floor(squares).reshape(reference.shape) != reference)
        assert np.array_equal(gmatrix._shell_indices(dx, dw), reference)
        for radius in (None, -1.0, 0.0, 0.5, 1.0, math.sqrt(2.0), 3.0,
                       1e300, math.inf, math.nan):
            counts = gmatrix._shell_counts(matrix, radius)
            past = reference if radius is None else reference[
                exact >= radius]
            assert np.array_equal(counts, np.bincount(past.ravel())), (
                chi, radius)
    assert rounded_across > 0
