"""Command-line driver: config, subcommands, artifacts, manifest.

Every run reads one JSON config (all keys optional, unknown keys
rejected), merges it over the documented defaults, executes one
subcommand, writes its artifacts plus a manifest.json into the output
directory, and exits 0. Config and usage problems exit 2; numerical
failures (solver stalls, refused operators, insufficient signal) exit 3.
A config whose largest stage would not fit in physical memory
(_memory_table) is refused (exit 2) before anything large is built.

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
from .fitting import BLOCK_ROWS, DEFAULT_S_GRID
from .gabor import (ENVELOPE_FLUSH, INVERSION_EXTENT, INVERSION_STEP,
                    WALNUT_ROWS, GaborFrame, Window, _steps_within,
                    dual_window, frame_bounds, gs_decay_classify,
                    inversion_formula_reconstruct,
                    make_lattice, moment_constant_conversion,
                    moment_epsilon_bound, stft)
from .gmatrix import (BLOCK_ATOMS, NOISE_FLOOR, PRODUCT_BLOCK, assemble,
                      fit_decay, restricted_decay_fit, sparse_apply,
                      sparsity_curve)
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


# Number keys that may be 0; every other number must be positive.
NONNEGATIVE = ("frame.truncation", "fit.exclusion_radius", "thresholds")


def _is_number(value, key: str) -> bool:
    """A JSON number (not a bool), finite as a float, of key's sign."""
    try:
        return (isinstance(value, (int, float))
                and not isinstance(value, bool) and math.isfinite(value)
                and (value >= 0 if key in NONNEGATIVE else value > 0))
    except OverflowError:  # an int beyond the float range
        return False


def _check_leaves(cfg: dict, defaults: dict, path: str = "") -> None:
    """ConfigError naming the first leaf not of its default's kind."""
    for key, default in defaults.items():
        here, value = path + key, cfg[key]
        if isinstance(default, dict):
            _check_leaves(value, default, here + ".")
            continue
        sign = "nonnegative" if here in NONNEGATIVE else "positive"
        if isinstance(default, str):
            ok, kind = isinstance(value, str) and value, "a nonempty string"
        elif isinstance(default, list):
            ok = isinstance(value, list) and value and all(
                _is_number(v, here) for v in value)
            kind = f"a nonempty list of {sign} finite numbers"
        else:  # a number, and an integer where the default is one
            whole = isinstance(default, int)
            ok = _is_number(value, here) and (isinstance(value, int)
                                              or not whole)
            kind = f"a {sign} finite {'integer' if whole else 'number'}"
        if not ok:
            raise ConfigError(f"config key {here!r} must be {kind}")


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
        _check_leaves(cfg, DEFAULTS)
        frame, fit = cfg["frame"], cfg["fit"]
        if cfg["grid"]["d"] != 1:
            raise ConfigError("config key 'grid.d' must be the integer 1: "
                              "only d = 1 grids are implemented")
        try:
            grid = Grid(1, cfg["grid"]["N"], float(cfg["grid"]["L"]))
        except ValueError as exc:
            raise ConfigError(f"config key 'grid.N': {exc}") from exc
        return cls(
            grid=grid,
            window=parse_window(frame["window"]),
            alpha=float(frame["alpha"]),
            beta=float(frame["beta"]),
            truncation=float(frame["truncation"]),
            operator_spec=cfg["operator"],
            fit_floor=float(fit["floor"]),
            exclusion_radius=float(fit["exclusion_radius"]),
            s_grid=tuple(float(s) for s in fit["s_grid"]),
            thresholds=tuple(float(t) for t in cfg["thresholds"]),
            out=cfg["out"])

    def frame(self) -> GaborFrame:
        lattice = make_lattice(self.alpha, self.beta, self.truncation)
        return GaborFrame(self.window, lattice, self.grid)

    def operators(self, override: str | None, many: bool) -> list:
        """Operators for one run: a name or, if many, a comma list or 'all'."""
        spec = override if override else self.operator_spec
        if not many and (spec == "all" or "," in spec):
            raise ConfigError(f"operator {spec!r} is a list; this command "
                              "takes one operator")
        if spec == "all":
            names = shipped_operator_names()
        else:
            names = tuple(p.strip() for p in spec.split(",") if p.strip())
            if not names:
                raise ConfigError("empty operator list")
        return [parse_operator(name) for name in names]

    def test_signal(self) -> SampledSignal:
        return self.window.sampled(self.grid)


def _memory_table(exp: Experiment) -> dict:
    """The size guard's table: command -> its stages -> their rows.

    A stage's rows are what it holds together at its peak: an array, or
    arrays made and freed together, with their bytes, as exact integers
    (inf past the float range), and the config keys they grow with.
    Complex values take 16 bytes, floats and indices 8, masks 1.
    """
    n, length, t = exp.grid.points_per_axis, exp.grid.length, exp.truncation
    # The Walnut check shifts the dual within twice the window's reach
    # (gabor._walnut_frame_operator), at most a grid step past the radius
    # r where Window.evaluate flushes the envelope to 0.
    r = math.sqrt(exp.window.width * math.log(1 / ENVELOPE_FLUSH) / math.pi)
    radii = ((t, exp.alpha), (t, exp.beta), (t / 2, exp.alpha),
             (t / 2, exp.beta), (length, exp.alpha),
             (min(length, 2 * (r + exp.grid.spacing)), 1 / exp.beta),
             (INVERSION_EXTENT, INVERSION_STEP), (STFT_EXTENT, STFT_STEP),
             (length, 1 / exp.beta), (length / 2, 1 / exp.beta),
             (n / length / 2, 1 / exp.alpha))
    try:
        counts = [2 * _steps_within(r, step) + 1 for r, step in radii]
    except OverflowError:
        counts = [math.inf] * len(radii)
    # Axes of the lattice and of its centre, the Walnut check's window
    # shifts and dual shifts, axes of the inversion formula and of the
    # STFT, the adjoint points' shifts k / beta on 2N and on N, and their
    # l / alpha.
    n_x, n_w, c_x, c_w, n_walnut, n_dual, n_inv, n_stft, k_2, k_1, m = counts
    # assemble's run of whole lattice times: BLOCK_ATOMS lambdas at most.
    lat, block = n_x * n_w, n_w * min(n_x, max(1, BLOCK_ATOMS // n_w))
    lk = ("frame.truncation", "frame.alpha", "frame.beta")
    nk, wk, ak = ("grid.N",), ("grid.N",) + lk, ("grid.N", "grid.L") + lk[1:]

    def sq(name, size):  # size bytes per entry of the matrix
        return name, size * lat * lat, lk

    frame = [("the lattice", 16 * lat + 8 * (n_x + n_w), lk),
             ("the frame's shifts and waves", 8 * n * (n_x + 2 * n_w), wk)]
    held = frame[:1] + [("chi", 16 * lat, lk), sq("the Gabor matrix", 16)]
    signal, dual = ("the test signal", 16 * n, nk), ("the dual", 16 * n, nk)
    # Every command that assembles, whichever path its operator takes.
    assembly = held + [
        ("the quadrature's shifts and waves", 16 * n * (n_x + 2 * n_w), wk),
        ("a block of atoms and its apply buffer", 96 * n * block, wk),
        ("the analysis atoms", 32 * n * lat, wk)]
    # A fit holds a value per entry at or above the floor, |L|^2 at most.
    flags = ("the column flags", lat, lk)
    samples = held + [flags, sq("the fits' samples (distance, magnitude)", 16)]
    shells = samples + [sq("the censored shells (distance, index)", 16)]
    # Each pass's block of rows, traced on one block of the 625- and
    # 1089-point frames with every entry above the floor: the samples
    # pass 56.5-56.8 bytes per block entry past its kept samples, the
    # counts pass 24.5-24.7 (both with their O(|L|) dx and dw).
    fits = {"assembly": assembly, "samples pass": samples + [
        sq("the samples' concatenated copy", 8),
        ("the samples pass's block of rows", 56 * BLOCK_ROWS * lat, lk)],
        "counts pass": samples + [
            ("the counts pass's block of rows", 25 * BLOCK_ROWS * lat, lk)],
        "fits": shells + [sq("the fits' two temporaries", 16)]}
    bounds = [("the frame bounds' offset waves", 16 * n * (2 * n_w - 1), wk),
              ("the frame bounds' Gram matrices", 48 * lat * c_x * c_w, lk)]
    # 64 bytes per adjoint point (k, l >= 0) and sample t >= 0: its row,
    # the real form, that form's weighted copy and lstsq's copy.
    system = ("the expansion dual's system",
              16 * (k_1 + 1) * (m + 1) * (n - n // 2), ak)
    expansion = [("the expansion's shifts and products", 24 * n * n_x, wk),
                 ("the coefficients", 48 * lat, lk)]
    stft = {"STFT": [signal, ("the transformed signal", 16 * n, nk),
                     ("the STFT's sums", 40 * n * n_stft, nk)]}
    # The canonical dual (gabor._canonical_dual) on 2N: its system has at
    # most 2P rows over the N samples t >= 0, for the P = adjoint / 4
    # adjoint points (k, l >= 0). Built, it is held with its complex rows
    # and a copy of their imaginary parts; solved, with its weighted copy
    # (and, before the Gram matrix is made, that copy's masks, 6 P N),
    # then the Gram matrix and LAPACK's copy of it, which tracemalloc
    # does not see. Traced 36-39 bytes per (point, sample) on frames of
    # N 1024-4096, the Gram matrix included.
    adjoint = (k_2 + 1) * (m + 1)
    canonical = ("the dual-window system", 4 * adjoint * n, ak)
    table = {
        "frame-check": {
            "frame bounds": frame + bounds,
            "Wexler-Raz system": frame + [canonical, (
                "the system's complex rows and imaginary parts",
                6 * adjoint * n, ak)],
            "canonical dual": frame + [canonical, (
                "the system's weighted copy", 4 * adjoint * n, ak),
                ("the Gram matrix and its LU copy", 4 * adjoint ** 2, ak)],
            # A block of WALNUT_ROWS doubled-grid times by every window
            # shift: traced 73.9 (a Gaussian) and 112.8 (a Hermite window
            # of any order) bytes per value where every value lies in
            # the window's support.
            "Walnut check": frame + [("the dual and window on 2N", 32 * n, nk),
                ("the Walnut check's block of window products",
                 min(2 * n, WALNUT_ROWS) * n_walnut * (
                     74 if exp.window.kind == "gaussian" else 113), ak[:3]),
                ("the Walnut check's shifted duals", 96 * n * n_dual, ak)],
            # The sums' table of coefficients, and the conjugated copy
            # gabor._synthesis takes of it.
            "inversion formula": frame + [signal, dual, (
                "the inversion formula's sums", 40 * n * n_inv, nk), (
                "the inversion formula's coefficients", 32 * n_inv ** 2,
                ())],
            "dual expansion": frame + [signal, dual, system] + expansion},
        "stft": stft,
        "gs-check": stft,
        "gabor-matrix": {"assembly": assembly, "law report": held + [flags,
            sq("the law report's law, magnitudes and ratios", 24),
            # The above-floor mask, and a comparison's while it is made.
            sq("the law report's masks", 2)]},
        "decay-fit": fits,
        # A block's magnitudes, their sorted copy and its logs: traced
        # 27.6-31.0 bytes per block entry on 625 and 1089 points with
        # every entry above the floor (69.5-76.0 while each block's fits
        # ran masked passes over a padded copy of its top entries).
        "sparsity": dict(fits, **{"sparsity fits": shells + [
            ("the sparsity fits' block of rows", 40 * BLOCK_ROWS * lat, lk)]}),
        "propagate": {
            "assembly": assembly,
            "expansion dual": held + frame[1:] + [signal] + bounds + [system],
            # A threshold that keeps every entry orders them all
            # (GaborMatrix._magnitude_order), and the product sums them a
            # block of terms at a time (gmatrix._partial_product): traced
            # 56.0 bytes per entry between 625 and 1089 points, and the
            # block's 1 MiB.
            "thresholded apply": held + frame[1:] + [
                signal, sq("the magnitude-ordered copy", 40),
                ("a block of the product's terms", 16 * PRODUCT_BLOCK, ()),
                ("the reference and direct outputs", 32 * n, nk)] + expansion},
        # fio._chirp_z_columns' padding, 4N-point buffer, chirps: traced 389.
        "oracle-check": {"operator applies": [
            signal, ("the outputs and closed forms", 64 * n, nk),
            ("the operator apply's buffers", 400 * n, nk)]},
    }
    interpreter = ("the interpreter's objects (parser, config, STFT points)",
                   3 * 2 ** 18, ())
    return {command: {stage: rows + [interpreter] for stage, rows
                      in stages.items()} for command, stages in table.items()}


def _check_sizes(exp: Experiment, command: str) -> None:
    """Refuse a run whose largest stage cannot fit in physical memory."""
    try:
        limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # the platform cannot say
        return
    stage, rows = max(_memory_table(exp)[command].items(),
                      key=lambda item: sum(row[1] for row in item[1]))
    total = sum(row[1] for row in rows)
    rows = sorted((r for r in rows if r[1] >= total / 100),
                  key=lambda row: -row[1])
    if total > limit:
        raise ConfigError(
            f"{command}'s {stage} would take {total / 2 ** 30:.3g} GiB, past "
            f"the {limit / 2 ** 30:.3g} GiB of physical memory (set by "
            + ", ".join(dict.fromkeys(key for row in rows for key in row[2]))
            + "): " + ", ".join(f"{name} {size / 2 ** 30:.3g} GiB"
                                for name, size, _ in rows))


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


def _run_frame_check(exp: Experiment, ops, args) -> None:
    frame = exp.frame()
    a, b = frame_bounds(frame)
    dual_window(frame)
    solver_res, frame_res = frame.dual_residuals
    f = exp.test_signal()
    inv_err = _rel_error(inversion_formula_reconstruct(f, exp.window), f)
    # A lattice that is no frame for the window fails here, before the
    # report is written.
    dual_err = _rel_error(frame.dual_synthesis(frame.analysis(f)), f)
    _write_json(os.path.join(exp.out, "frame.json"), {
        "alpha": exp.alpha, "beta": exp.beta, "A": a, "B": b,
        "dual_residual": solver_res})
    print(f"frame bounds: A={a:.6f} B={b:.6f} B/A={b / a:.6f}")
    print(f"dual window: solver residual {solver_res:.3e}, frame-equation "
          f"residual {frame_res:.3e}")
    print(f"reconstruction: inversion formula {inv_err:.3e}, "
          f"dual-window expansion {dual_err:.3e}")


def _run_stft(exp: Experiment, ops, args) -> None:
    pts, op = _phase_space_points(exp.grid), ops[0]
    signal = fio_apply(op, exp.test_signal())
    values = stft(signal, exp.window, pts)
    path = os.path.join(exp.out, "stft.csv")
    xs, ws = zip(*pts)
    _write_csv(path, "x,omega,re,im,abs",
               (xs, ws, values.real, values.imag, [abs(v) for v in values]))
    print(f"stft: {len(pts)} samples of the transformed window for "
          f"{op.name} -> {path}")


def _run_gs_check(exp: Experiment, ops, args) -> None:
    pts = _phase_space_points(exp.grid)
    for op in ops:
        signal = fio_apply(op, exp.test_signal())
        values = stft(signal, exp.window, pts)
        fit = gs_decay_classify(pts, np.abs(values), floor=exp.fit_floor,
                                s_grid=exp.s_grid)
        _write_json(_artifact_path(exp.out, "gs", op.name, len(ops) > 1),
                    fit.to_dict(op.name))
        print(f"gs check: {op.name} s_hat={fit.s_hat:.2f} "
              f"epsilon_hat={fit.epsilon_hat:.4f} r2={fit.r_squared:.5f}")


def _run_gabor_matrix(exp: Experiment, ops, args) -> None:
    op = ops[0]
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


def _run_decay_fit(exp: Experiment, ops, args) -> None:
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
        del matrix  # and its fits' caches, before the next assemble


def _run_sparsity(exp: Experiment, ops, args) -> None:
    op = ops[0]
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


def _run_propagate(exp: Experiment, ops, args) -> None:
    op = ops[0]
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


def _run_oracle_check(exp: Experiment, ops, args) -> None:
    """Quadrature vs closed forms, Newton vs closed maps, conversions."""
    f = exp.test_signal()
    t = exp.grid.times()

    # Each operator's closed-form output on the test signal.
    closed_forms = {
        "identity": f.values,
        "multiplier:cos": f.values * np.exp(2j * np.pi * np.cos(t)),
        "metaplectic:chirp:1.0": f.values * np.exp(1j * np.pi * t * t),
        "metaplectic:dilation:2.0": np.asarray(
            2.0 ** -0.5 * exp.window.evaluate(t / 2.0), dtype=complex)}
    closed_errors = {}
    for spec, values in closed_forms.items():
        op = parse_operator(spec)
        closed_errors[op.name] = _rel_error(fio_apply(op, f),
                                            SampledSignal(exp.grid, values))

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


# Each subcommand's runner, help and operand: None (no operator), "one"
# (an operator spec) or "many" (a spec, a comma list or 'all').
COMMANDS = {
    "frame-check": (_run_frame_check, "frame bounds, dual-window residuals, "
                    "and reconstruction errors", None),
    "stft": (_run_stft, "dump the STFT of the transformed test signal",
             "one"),
    "gs-check": (_run_gs_check, "classify the phase-space decay of the "
                 "transformed test signal", "many"),
    "gabor-matrix": (_run_gabor_matrix, "assemble the Gabor matrix and dump "
                     "it as CSV", "one"),
    "decay-fit": (_run_decay_fit, "assemble and fit the concentration law",
                  "many"),
    "sparsity": (_run_sparsity, "per-row sparsity fits of the Gabor matrix",
                 "one"),
    "propagate": (_run_propagate, "thresholded application at each "
                  "configured threshold", "one"),
    "oracle-check": (_run_oracle_check, "quadrature vs closed forms, Newton "
                     "vs closed canonical maps, moment conversions", None),
}


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
    for name, (_, text, operand) in COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        if operand:
            extra = (" ('all' or a comma list fits each operator in turn)"
                     if operand == "many" else "")
            sp.add_argument("operator", nargs="?", default=None,
                            help="operator spec (default: config operator)"
                                 + extra)
        if name == "sparsity":
            sp.add_argument("--axis", choices=("rows", "cols"),
                            default="rows")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    runner, _, operand = COMMANDS[args.command]
    start = time.perf_counter()
    try:
        effective, raw = load_config(args.config)
        if args.grid_n is not None:
            effective["grid"]["N"] = args.grid_n
        if args.out is not None:
            effective["out"] = args.out
        exp = Experiment.from_dict(effective)
        ops = (exp.operators(args.operator, operand == "many") if operand
               else [])
        _check_sizes(exp, args.command)
        os.makedirs(exp.out, exist_ok=True)
        runner(exp, ops, args)
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
