"""Command-line driver: config, subcommands, artifacts, manifest.

Every run reads one JSON config (all keys optional, unknown keys
rejected), merges it over the documented defaults, executes one
subcommand, writes its artifacts plus a manifest.json into the output
directory, and exits 0. Config and usage problems exit 2; numerical
failures (solver stalls, refused operators, insufficient signal) exit 3.
A config whose dense Gabor matrix, atoms or dual-window system would not
fit in physical memory is refused (exit 2) before anything large is
built.

Artifacts are bitwise deterministic for a fixed config; the manifest is
exempt (it records wall-clock time). gabor-matrix also prints the matrix
against metaplectic.metaplectic_law wherever that law covers the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .fio import apply as fio_apply
from .fio import canonical_map
from .fitting import DEFAULT_S_GRID
from .gabor import (GaborFrame, Window, _steps_within, dual_window,
                    frame_bounds, gs_decay_classify, make_lattice,
                    inversion_formula_reconstruct,
                    moment_constant_conversion, moment_epsilon_bound, stft)
from .gmatrix import (BLOCK_ATOMS, NOISE_FLOOR, assemble, fit_decay,
                      restricted_decay_fit, sparse_apply, sparsity_curve)
from .metaplectic import metaplectic_law
from .registry import parse_operator, parse_window, shipped_operator_names
from .signals import Grid, SampledSignal, _write_csv

__all__ = ["main", "load_config", "Experiment"]

STFT_STEP = 0.5
STFT_EXTENT = 10.0

# Entries where the closed-form law is below this part of its peak: noise.
LAW_QUIET = 1e-20

DEFAULTS = {
    "grid": {"N": 1024, "L": 32.0, "d": 1},
    "frame": {
        "window": "gaussian:2",
        "alpha": 2.0 ** -0.5,
        "beta": 2.0 ** -0.5,
        "truncation": 8.0,
    },
    "operator": "harmonic:0.7853981633974483",
    "fit": {
        "floor": 1e-14,
        "exclusion_radius": 0.5,
        "s_grid": [float(s) for s in DEFAULT_S_GRID],
    },
    "thresholds": [1e-2, 1e-4, 1e-6, 0.0],
    "out": "gaborfio_out",
}


def _merge(user, defaults, path):
    if not isinstance(user, dict):
        raise ConfigError(f"config section {path or 'top level'} must be "
                          "an object")
    merged = {}
    for key, default in defaults.items():
        here = f"{path}.{key}" if path else key
        if key in user:
            value = user[key]
            if isinstance(default, dict):
                merged[key] = _merge(value, default, here)
            else:
                merged[key] = value
        else:
            merged[key] = default
    for key in user:
        if key not in defaults:
            here = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown config key {here!r}")
    return merged


def load_config(path: str | None):
    """Merged effective config plus the raw file text (empty if none)."""
    if path is None:
        return _merge({}, DEFAULTS, ""), ""
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        user = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}"
                          ) from exc
    return _merge(user, DEFAULTS, ""), raw


def _is_finite_number(value) -> bool:
    """A JSON number (not a bool) that converts to a finite float."""
    try:
        return (isinstance(value, (int, float))
                and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:  # an int beyond the float range
        return False


def _number(cfg, *keys, positive=True):
    value = cfg
    for key in keys:
        value = value[key]
    if not _is_finite_number(value):
        raise ConfigError(f"config key {'.'.join(keys)!r} must be a finite "
                          "number")
    if positive and not value > 0:
        raise ConfigError(f"config key {'.'.join(keys)!r} must be positive")
    return float(value)


@dataclass(frozen=True)
class Experiment:
    """Parsed, validated configuration ready to run."""

    grid: Grid
    window: Window
    alpha: float
    beta: float
    truncation: float
    operator_spec: str
    fit_floor: float
    exclusion_radius: float
    s_grid: tuple
    thresholds: tuple
    out: str

    @classmethod
    def from_dict(cls, cfg: dict) -> "Experiment":
        d = cfg["grid"]["d"]
        if not isinstance(d, int) or isinstance(d, bool) or d != 1:
            raise ConfigError("config key 'grid.d' must be the integer 1: "
                              "only d = 1 grids are implemented")
        n = cfg["grid"]["N"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise ConfigError("config key 'grid.N' must be an integer")
        try:
            grid = Grid(1, n, _number(cfg, "grid", "L"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        window_spec = cfg["frame"]["window"]
        if not isinstance(window_spec, str):
            raise ConfigError("config key 'frame.window' must be a string")
        s_grid = cfg["fit"]["s_grid"]
        if (not isinstance(s_grid, list) or not s_grid
                or any(not _is_finite_number(s) or s <= 0 for s in s_grid)):
            raise ConfigError("config key 'fit.s_grid' must be a list of "
                              "positive finite numbers")
        thresholds = cfg["thresholds"]
        if (not isinstance(thresholds, list)
                or any(not _is_finite_number(t) or t < 0
                       for t in thresholds)):
            raise ConfigError("config key 'thresholds' must be a list of "
                              "nonnegative finite numbers")
        operator_spec = cfg["operator"]
        if not isinstance(operator_spec, str):
            raise ConfigError("config key 'operator' must be a string")
        out = cfg["out"]
        if not isinstance(out, str) or not out:
            raise ConfigError("config key 'out' must be a nonempty string")
        return cls(
            grid=grid,
            window=parse_window(window_spec),
            alpha=_number(cfg, "frame", "alpha"),
            beta=_number(cfg, "frame", "beta"),
            truncation=_number(cfg, "frame", "truncation", positive=False),
            operator_spec=operator_spec,
            fit_floor=_number(cfg, "fit", "floor"),
            exclusion_radius=_number(cfg, "fit", "exclusion_radius",
                                     positive=False),
            s_grid=tuple(float(s) for s in s_grid),
            thresholds=tuple(float(t) for t in thresholds),
            out=out)

    def frame(self) -> GaborFrame:
        lattice = make_lattice(self.alpha, self.beta, self.truncation)
        return GaborFrame(self.window, lattice, self.grid)

    def operator(self, override: str | None):
        return parse_operator(override if override else self.operator_spec)

    def operators(self, override: str | None) -> list:
        """Operators for one run: a name, a comma list, or 'all'."""
        spec = override if override else self.operator_spec
        if spec == "all":
            names = shipped_operator_names()
        else:
            names = tuple(p.strip() for p in spec.split(",") if p.strip())
            if not names:
                raise ConfigError("empty operator list")
        return [parse_operator(name) for name in names]

    def test_signal(self) -> SampledSignal:
        return self.window.sampled(self.grid)


def _check_sizes(exp: Experiment, command: str) -> None:
    """Refuse a run whose largest arrays cannot fit in physical memory.

    The lattice is counted as Lattice would enumerate it, without
    enumerating it. The dense Gabor matrix holds |L|^2 complex entries,
    16 bytes each; every command is charged for it, which also keeps
    Lattice from enumerating a huge truncation. frame-check builds no
    matrix; its 16 bytes per entry pay for frame_bounds' Gram matrix of
    the |L| atoms against the |C| central ones (16 |L| |C|, with |C|
    about |L| / 4) and the pencil's |C| x |C| arrays next to it: traced
    on 1089 points, frame_bounds peaks at 7.3-8.8 bytes per entry at N
    512 to 2048. Only propagate pays for sparse_apply's
    magnitude-ordered copy of the entries, 40 bytes more (magnitude,
    entry and two int64 indices), and for the terms of a partial product
    over at most half of them (8): 64 in all. The frame's expansions hold
    the factors of its atoms only, O(N (n_x + n_w)), and frame_bounds'
    Gram matrix is released before the matrix is assembled: traced on
    1089 points at N 512, propagate peaks at 62.4 bytes per entry. Only
    gabor-matrix pays for its law report, 26 bytes more:
    the law, the magnitudes and the ratio's output (8 each) and a mask
    (1), after the law's evaluation took 24 (metaplectic_law), and 1 for
    what grows slower than |L|^2 (the lattice, chi, one-time
    allocations): traced on 1089 points, gabor-matrix peaks at 41.1-41.8
    bytes per entry. GaborMatrix.to_csv holds a transient per lambda,
    O(|L|): the lambda's values, their laid-out text and its compacted
    copy; it is not charged. stft and gs-check hold the factors of their
    windowed sums (gabor._windowed_sums), O(N (n_x + n_w)) for the
    n_x = n_w = 41 distinct times and frequencies of their samples, and
    no atom per sample; they are not charged either, nor is frame-check's
    inversion formula, the same over 161 times and frequencies. Nor is the
    multiplier's closed form (metaplectic._multiplier_entries): the same
    factors on the doubled grid over 2 n_x - 1 times and 2 n_w - 1
    frequencies, released before the entries are allocated, then the
    flush's masks of one block, under the quadrature's block charged
    below.
    decay-fit and sparsity pay for the fits, 49 bytes more at most. The
    fits' one pass over the entries keeps the distance and magnitude of
    each entry at or above the floor (16; none of the others), and the
    censoring of their shells keeps the distances and shell indices of
    the samples of clean shells (16). At its peak, fit_decay's envelope
    calibration holds a mask (1) and two temporaries (16) of the samples
    next to those; the censoring's transients are no larger. All of it is
    per entry at or above the floor, so the 49 are paid in full only with
    every entry above the floor and in a clean shell: traced on 1089
    points, multiplier:cos at floor 1e-300 peaks at 64.9 bytes per entry,
    all allocations counted, and decay-fit at the default floor 1e-14
    (46-67% of the entries above it) at 44.7, sparsity at 44.0.
    decay-fit over several operators releases each matrix before it
    assembles the next. The commands that
    assemble hold one block of at most max(BLOCK_ATOMS, frequencies per
    lattice time) atoms on the doubled grid at a time, with the factored
    apply's buffer of twice as many rows: 48 (2N) bytes per atom. They
    also hold the conjugated analysis atoms of the whole lattice over the
    rows their window reaches, at most all 2N. The canonical dual's
    Wexler-Raz system on the doubled grid (gabor._wexler_raz_dual) holds
    one complex row per adjoint point (k/beta, l/alpha), 0 <= k <= beta L
    and 0 <= l <= alpha N / (2L), over the N samples of t >= 0; with its
    real form, that form's weighted copy and lstsq's copy of it, 64 bytes
    per (k, l, t). Sizes are exact integers (inf for a count past the
    float range), so none overflows.
    """
    try:
        n_times, n_freqs = (2 * _steps_within(exp.truncation, step) + 1
                            for step in (exp.alpha, exp.beta))
        n_lattice = n_times * n_freqs
    except OverflowError:
        n_lattice = n_freqs = math.inf
    try:
        limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # the platform cannot say
        limit = math.inf
    n, length = exp.grid.points_per_axis, exp.grid.length
    n_adjoint = ((_steps_within(length, 1.0 / exp.beta) + 1)
                 * (_steps_within(n / (2.0 * length), 1.0 / exp.alpha) + 1))
    matrix, per_entry = "the dense Gabor matrix of its lattice", 16
    if command == "frame-check":
        matrix = "the Gram matrix of its lattice and central points"
    elif command == "propagate":
        matrix, per_entry = f"{matrix} and its magnitude-ordered copy", 64
    elif command == "gabor-matrix":
        matrix, per_entry = f"{matrix} and its law report", 43
    elif command in ("decay-fit", "sparsity"):
        matrix, per_entry = f"{matrix} and its fits' samples and shells", 65
    sizes = [(f"frame.truncation {exp.truncation:g} with steps {exp.alpha:g} "
              f"x {exp.beta:g}: {matrix}", per_entry * n_lattice ** 2)]
    if command in ("gabor-matrix", "decay-fit", "sparsity", "propagate"):
        block = min(n_lattice, max(BLOCK_ATOMS, n_freqs))
        sizes += [
            (f"grid.N {n}: a block of {block} atoms and their "
             "operator-apply buffer on the doubled grid",
             48 * (2 * n) * block),
            (f"grid.N {n}: the analysis atoms of {n_lattice} lattice "
             "points on the doubled grid", 16 * (2 * n) * n_lattice)]
    sizes.append((f"grid.N {n} with steps {exp.alpha:g} x {exp.beta:g}: the "
                  f"dual-window system of {n_adjoint} adjoint points on the "
                  "doubled grid", 64 * n_adjoint * n))
    for what, size in sizes:
        if size > limit:
            raise ConfigError(f"{what} would exceed the "
                              f"{limit / 2 ** 30:.3g} GiB of physical memory")


def _phase_space_points(grid: Grid):
    """stft's and gs-check's (x, omega) samples, out to STFT_EXTENT.

    Past the frequency half-width N / (2L) the STFT would repeat.
    """
    if grid.freq_half_width < STFT_EXTENT:
        raise ConfigError(
            f"grid.N {grid.points_per_axis} on grid.L {grid.length:g} "
            f"reaches frequency {grid.freq_half_width:g}, short of the "
            f"STFT samples' extent {STFT_EXTENT:g}")
    axis = np.arange(-STFT_EXTENT, STFT_EXTENT + 1e-9, STFT_STEP)
    return [(x, w) for x in axis for w in axis]


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _artifact_path(out: str, base: str, op_name: str, multi: bool) -> str:
    name = (f"{base}_{op_name.replace(':', '-')}.json" if multi
            else f"{base}.json")
    return os.path.join(out, name)


def _rel_error(candidate: SampledSignal, reference: SampledSignal) -> float:
    delta = SampledSignal(reference.grid,
                          candidate.values - reference.values)
    return delta.norm() / reference.norm()


def _run_frame_check(exp: Experiment, args) -> None:
    frame = exp.frame()
    a, b = frame_bounds(frame)
    dual_window(frame)
    solver_res, frame_res = frame.dual_residuals
    payload = {
        "alpha": exp.alpha,
        "beta": exp.beta,
        "A": a,
        "B": b,
        "dual_residual": solver_res,
    }
    _write_json(os.path.join(exp.out, "frame.json"), payload)
    f = exp.test_signal()
    inv_err = _rel_error(inversion_formula_reconstruct(f, exp.window), f)
    dual_err = _rel_error(frame.dual_synthesis(frame.analysis(f)), f)
    print(f"frame bounds: A={a:.6f} B={b:.6f} B/A={b / a:.6f}")
    print(f"dual window: solver residual {solver_res:.3e}, frame-equation "
          f"residual {frame_res:.3e}")
    print(f"reconstruction: inversion formula {inv_err:.3e}, "
          f"dual-window expansion {dual_err:.3e}")


def _run_stft(exp: Experiment, args) -> None:
    pts = _phase_space_points(exp.grid)
    op = exp.operator(args.operator)
    signal = fio_apply(op, exp.test_signal())
    values = stft(signal, exp.window, pts)
    path = os.path.join(exp.out, "stft.csv")
    xs, ws = zip(*pts)
    _write_csv(path, "x,omega,re,im,abs",
               (xs, ws, values.real, values.imag, [abs(v) for v in values]))
    print(f"stft: {len(pts)} samples of the transformed window for "
          f"{op.name} -> {path}")


def _run_gs_check(exp: Experiment, args) -> None:
    pts = _phase_space_points(exp.grid)
    ops = exp.operators(args.operator)
    for op in ops:
        signal = fio_apply(op, exp.test_signal())
        values = stft(signal, exp.window, pts)
        fit = gs_decay_classify(pts, np.abs(values), floor=exp.fit_floor,
                                s_grid=exp.s_grid)
        _write_json(_artifact_path(exp.out, "gs", op.name, len(ops) > 1),
                    fit.to_dict(op.name))
        print(f"gs check: {op.name} s_hat={fit.s_hat:.2f} "
              f"epsilon_hat={fit.epsilon_hat:.4f} r2={fit.r_squared:.5f}")


def _run_gabor_matrix(exp: Experiment, args) -> None:
    op = exp.operator(args.operator)
    matrix = assemble(op, exp.frame())
    path = os.path.join(exp.out, "matrix.csv")
    matrix.to_csv(path)
    print(f"gabor matrix: {op.name} {len(matrix)} entries, "
          f"{int(matrix.flags.sum())} flagged columns -> {path}")
    law = metaplectic_law(op, matrix.lattice, exp.window)
    if law is None:
        return
    # Unflagged columns only; criterion 1's ratio skips entries below 1e-12.
    mags, keep, peak = matrix.magnitudes(), ~matrix.flags[:, None], np.max(law)
    above = keep & (mags >= NOISE_FLOOR)
    with np.errstate(divide="ignore"):  # inf where the law underflows
        ratio = np.max(np.divide(mags, law, out=np.zeros_like(mags),
                                 where=above))
    noise = np.max(mags, where=keep & (law < LAW_QUIET * peak), initial=0.0)
    np.subtract(mags, law, out=law)  # the law is not read again
    gap = np.max(np.abs(law, out=law), where=keep, initial=0.0) / peak
    print(f"metaplectic law: peak {np.max(mags, where=keep, initial=0.0):.6f}"
          f" vs {peak:.6f}; max |entry|/law {ratio:.6g} over "
          f"{int(above.sum())} entries above {NOISE_FLOOR:g}; "
          f"max |entry - law|/peak {gap:.3e}; noise floor {noise:.3e} "
          f"where law < {LAW_QUIET:g} peak")


def _run_decay_fit(exp: Experiment, args) -> None:
    ops = exp.operators(args.operator)
    frame = exp.frame()
    for op in ops:
        matrix = assemble(op, frame)
        fit = fit_decay(matrix, floor=exp.fit_floor,
                        exclusion_radius=exp.exclusion_radius,
                        s_grid=exp.s_grid)
        _write_json(_artifact_path(exp.out, "fit", op.name, len(ops) > 1),
                    fit.to_dict())
        print(f"decay fit: {op.name} s_hat={fit.s_hat:.2f} "
              f"epsilon_hat={fit.epsilon_hat:.4f} r2={fit.r_squared:.5f} "
              f"n={fit.n_samples}")
        for s_fixed in (0.5, 1.0):
            eps, _, r2 = restricted_decay_fit(
                matrix, s_fixed, floor=exp.fit_floor,
                exclusion_radius=exp.exclusion_radius)
            print(f"  restricted s={s_fixed:.1f}: epsilon={eps:.4f} "
                  f"r2={r2:.5f}")
        # Before the next assemble: with its fits' caches, up to 65 bytes
        # per entry (_check_sizes).
        del matrix


def _run_sparsity(exp: Experiment, args) -> None:
    op = exp.operator(args.operator)
    matrix = assemble(op, exp.frame())
    fit = fit_decay(matrix, floor=exp.fit_floor,
                    exclusion_radius=exp.exclusion_radius,
                    s_grid=exp.s_grid)
    report = sparsity_curve(matrix, fit.s_hat, axis=args.axis,
                            floor=exp.fit_floor)
    _write_json(os.path.join(exp.out, "sparsity.json"), report.to_dict())
    worst = report.to_dict()["row_worst"]
    print(f"sparsity: {op.name} axis={args.axis} worst epsilon="
          f"{worst['epsilon']:.4f} worst r2={worst['r2']:.5f} "
          f"exponent={report.exponent_used:.4f}")
    print(f"  over {len(report.epsilons)} fitted {args.axis}: "
          f"min epsilon={float(np.min(report.epsilons)):.4f} "
          f"min r2={float(np.min(report.r_squareds)):.5f}")


def _run_propagate(exp: Experiment, args) -> None:
    op = exp.operator(args.operator)
    frame = exp.frame()
    matrix = assemble(op, frame)
    f = exp.test_signal()
    reference, _ = sparse_apply(matrix, frame, f, 0.0)
    direct = fio_apply(op, f)
    rows = []
    for tau in exp.thresholds:
        out, ratio = sparse_apply(matrix, frame, f, tau)
        err = _rel_error(out, reference)
        err_direct = _rel_error(out, direct)
        rows.append((tau, ratio, err, err_direct))
        print(f"propagate: tau={tau:g} kept={ratio:.4f} "
              f"rel_error={err:.3e} vs_direct={err_direct:.3e}")
    path = os.path.join(exp.out, "propagate.csv")
    _write_csv(path, "tau,compression_ratio,rel_error_vs_dense,"
               "rel_error_vs_direct", tuple(zip(*rows)))
    print(f"propagate: {op.name} -> {path}")


def _run_oracle_check(exp: Experiment, args) -> None:
    """Quadrature vs closed forms, Newton vs closed maps, conversions."""
    f = exp.test_signal()
    t = exp.grid.times()

    closed_errors = {}
    ident = parse_operator("identity")
    closed_errors[ident.name] = _rel_error(fio_apply(ident, f), f)
    mult = parse_operator("multiplier:cos")
    multiplied = f.values * np.exp(2j * np.pi * np.cos(t))
    closed_errors[mult.name] = _rel_error(fio_apply(mult, f),
                                          SampledSignal(exp.grid, multiplied))
    chirp = parse_operator("metaplectic:chirp:1.0")
    chirped = f.values * np.exp(1j * np.pi * t * t)
    closed_errors[chirp.name] = _rel_error(fio_apply(chirp, f),
                                           SampledSignal(exp.grid, chirped))
    dilation = parse_operator("metaplectic:dilation:2.0")
    dilated = np.asarray(
        2.0 ** -0.5 * exp.window.evaluate(exp.grid.times() / 2.0),
        dtype=complex)
    closed_errors[dilation.name] = _rel_error(
        fio_apply(dilation, f), SampledSignal(exp.grid, dilated))

    rng = np.random.default_rng(0)
    pts = rng.uniform(-5.0, 5.0, size=(100, 2))
    newton_errors = {}
    for name in shipped_operator_names():
        op = parse_operator(name)
        x, xi = op.closed_map(pts[:, 0], pts[:, 1])
        gap = np.abs(canonical_map(op, pts) - np.column_stack([x, xi]))
        newton_errors[name] = float(np.max(gap))

    conversion_gaps = (
        moment_constant_conversion(1.0, 1.0, 1) - 1.0,
        moment_constant_conversion(2.0, 1.0, 2) - 1.0,
        moment_epsilon_bound(1.0, 1.0, 1) - 1.0,
        moment_epsilon_bound(moment_constant_conversion(0.7, 1.3, 1),
                             1.3, 1) - 0.7,
    )
    moment_err = max(abs(v) for v in conversion_gaps)

    payload = {
        "closed_form_rel_errors": closed_errors,
        "newton_vs_closed_max_abs": newton_errors,
        "moment_conversion_max_abs_error": moment_err,
    }
    _write_json(os.path.join(exp.out, "oracle.json"), payload)
    for name, err in closed_errors.items():
        print(f"oracle: quadrature vs closed form {name}: {err:.3e}")
    worst_newton = max(newton_errors, key=newton_errors.get)
    print(f"oracle: Newton vs closed canonical maps, worst "
          f"{worst_newton}: {newton_errors[worst_newton]:.3e}")
    print(f"oracle: moment-constant conversions max error "
          f"{moment_err:.3e}")


RUNNERS = {
    "frame-check": _run_frame_check,
    "stft": _run_stft,
    "gs-check": _run_gs_check,
    "gabor-matrix": _run_gabor_matrix,
    "decay-fit": _run_decay_fit,
    "sparsity": _run_sparsity,
    "propagate": _run_propagate,
    "oracle-check": _run_oracle_check,
}

OPERATOR_COMMANDS = ("stft", "gs-check", "gabor-matrix", "decay-fit",
                     "sparsity", "propagate")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaborfio",
        description="Gabor-frame concentration measurements and sparse "
                    "application for oscillatory-integral operators.",
        epilog="Artifacts are bitwise deterministic for a fixed config.")
    parser.add_argument("--config", default=None,
                        help="JSON config file; unknown keys are rejected")
    parser.add_argument("--grid-n", type=int, default=None,
                        help="override grid.N")
    parser.add_argument("--out", default=None,
                        help="override the output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "frame-check": "frame bounds, dual-window residuals, and "
                       "reconstruction errors",
        "stft": "dump the STFT of the transformed test signal",
        "gs-check": "classify the phase-space decay of the transformed "
                    "test signal",
        "gabor-matrix": "assemble the Gabor matrix and dump it as CSV",
        "decay-fit": "assemble and fit the concentration law",
        "sparsity": "per-row sparsity fits of the Gabor matrix",
        "propagate": "thresholded application at each configured "
                     "threshold",
        "oracle-check": "quadrature vs closed forms, Newton vs closed "
                        "canonical maps, moment conversions",
    }
    multi_ok = ("gs-check", "decay-fit")
    for name, text in helps.items():
        sp = sub.add_parser(name, help=text)
        if name in OPERATOR_COMMANDS:
            extra = (" ('all' or a comma list fits each operator in turn)"
                     if name in multi_ok else "")
            sp.add_argument("operator", nargs="?", default=None,
                            help="operator spec (default: config operator)"
                                 + extra)
        if name == "sparsity":
            sp.add_argument("--axis", choices=("rows", "cols"),
                            default="rows")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        effective, raw = load_config(args.config)
        if args.grid_n is not None:
            effective["grid"]["N"] = args.grid_n
        if args.out is not None:
            effective["out"] = args.out
        exp = Experiment.from_dict(effective)
        _check_sizes(exp, args.command)
        os.makedirs(exp.out, exist_ok=True)
        RUNNERS[args.command](exp, args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    from . import __version__
    manifest = {
        "command": args.command,
        "operator": getattr(args, "operator", None),
        "config_file": args.config,
        "config_text": raw,
        "effective_config": effective,
        "overrides": {"grid_n": args.grid_n, "out": args.out},
        "versions": {
            "gaborfio": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "wall_clock_seconds": time.perf_counter() - start,
    }
    _write_json(os.path.join(exp.out, "manifest.json"), manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
