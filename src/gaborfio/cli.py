"""Command-line driver: config, subcommands, artifacts, manifest.

Every run reads one JSON config (all keys optional, unknown keys
rejected), merges it over the documented defaults, executes one
subcommand, writes its artifacts plus a manifest.json into the output
directory, and exits 0. Config and usage problems exit 2; numerical
failures (solver stalls, refused operators, insufficient signal) exit 3.
A config whose dense Gabor matrix or padded operator kernel would not fit
in physical memory is refused (exit 2) before anything large is built.

Artifacts are bitwise deterministic for a fixed config; the manifest is
exempt (it records wall-clock time).
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
from .fio import canonical_map, multiplier_apply
from .fitting import DEFAULT_S_GRID
from .gabor import (GaborFrame, Lattice, Window, _steps_within, dual_window,
                    frame_bounds, gs_decay_classify,
                    inversion_formula_reconstruct,
                    moment_constant_conversion, moment_epsilon_bound, stft)
from .gmatrix import (NOISE_FLOOR, assemble, fit_decay, restricted_decay_fit,
                      sparse_apply, sparsity_curve)
from .registry import parse_operator, parse_window, shipped_operator_names
from .signals import Grid, SampledSignal, _write_csv

__all__ = ["main", "load_config", "Experiment"]

STFT_STEP = 0.5
STFT_EXTENT = 10.0

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
    window_spec: str
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
        if d != 1:
            raise ConfigError("only d = 1 grids are implemented")
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
        exp = cls(
            grid=grid,
            window=parse_window(window_spec),
            window_spec=window_spec,
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
        _check_sizes(exp)
        return exp

    def frame(self) -> GaborFrame:
        lattice = Lattice(self.alpha, self.beta, self.truncation,
                          self.truncation)
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


def _check_sizes(exp: Experiment) -> None:
    """Refuse a run whose largest arrays cannot fit in physical memory.

    The lattice is counted as Lattice would enumerate it, without
    enumerating it. The dense Gabor matrix holds |L|^2 complex entries,
    the operator kernel on the doubled grid (2N)^2. Sizes are exact
    integers (inf for a count past the float range), so none overflows.
    """
    try:
        n_lattice = math.prod(2 * _steps_within(exp.truncation, step) + 1
                              for step in (exp.alpha, exp.beta))
    except OverflowError:
        n_lattice = math.inf
    try:
        limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # the platform cannot say
        limit = math.inf
    n = exp.grid.points_per_axis
    for what, size in (
            (f"frame.truncation {exp.truncation:g} with steps {exp.alpha:g} "
             f"x {exp.beta:g}: the dense Gabor matrix of its lattice",
             16 * n_lattice ** 2),
            (f"grid.N {n}: the operator kernel on the doubled grid",
             16 * (2 * n) ** 2)):
        if size > limit:
            raise ConfigError(f"{what} would exceed the "
                              f"{limit / 2 ** 30:.3g} GiB of physical memory")


def _phase_space_points():
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


def _transformed_signal(exp: Experiment, args) -> tuple:
    op = exp.operator(args.operator)
    out = fio_apply(op, exp.test_signal())
    return op, out


def _run_stft(exp: Experiment, args) -> None:
    op, signal = _transformed_signal(exp, args)
    pts = _phase_space_points()
    values = stft(signal, exp.window, pts)
    path = os.path.join(exp.out, "stft.csv")
    xs, ws = zip(*pts)
    _write_csv(path, "x,omega,re,im,abs",
               (xs, ws, values.real, values.imag, [abs(v) for v in values]))
    print(f"stft: {len(pts)} samples of the transformed window for "
          f"{op.name} -> {path}")


def _run_gs_check(exp: Experiment, args) -> None:
    ops = exp.operators(args.operator)
    pts = _phase_space_points()
    for op in ops:
        signal = fio_apply(op, exp.test_signal())
        values = stft(signal, exp.window, pts)
        fit = gs_decay_classify(pts, np.abs(values), floor=exp.fit_floor,
                                s_grid=exp.s_grid)
        payload = {
            "operator": op.name,
            "s_hat": fit.s_hat,
            "epsilon_hat": fit.epsilon_hat,
            "logC": fit.log_c,
            "r2": fit.r_squared,
            "n_points": fit.n_samples,
        }
        _write_json(_artifact_path(exp.out, "gs", op.name, len(ops) > 1),
                    payload)
        print(f"gs check: {op.name} s_hat={fit.s_hat:.2f} "
              f"epsilon_hat={fit.epsilon_hat:.4f} r2={fit.r_squared:.5f}")


def _run_gabor_matrix(exp: Experiment, args) -> None:
    op = exp.operator(args.operator)
    matrix = assemble(op, exp.frame())
    path = os.path.join(exp.out, "matrix.csv")
    matrix.to_csv(path)
    print(f"gabor matrix: {op.name} {len(matrix)} entries, "
          f"{int(matrix.flags.sum())} flagged columns -> {path}")
    if (op.name.startswith("harmonic:") and exp.window.kind == "gaussian"
            and exp.window.width == 1.0):
        # The rotated-Gaussian law 2^{-1/2} exp(-(pi/2) dist^2) is exact
        # for this window; report the worst entry against it, skipping
        # quadrature noise below the double-precision ceiling.
        keep = matrix.unflagged() & (matrix.magnitudes() >= NOISE_FLOOR)
        law = 2.0 ** -0.5 * np.exp(-0.5 * np.pi * matrix.distances[keep] ** 2)
        ratio = float(np.max(matrix.magnitudes()[keep] / law))
        center = matrix.lattice.center_index()
        peak = abs(matrix.dense()[center, center])
        print(f"rotation law: peak {peak:.6f} vs 2^-1/2 "
              f"{2.0 ** -0.5:.6f}; max |entry|/law {ratio:.6f} over "
              f"{int(keep.sum())} entries above {NOISE_FLOOR:g}")


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
              f"n={fit.n_points}")
        for s_fixed in (0.5, 1.0):
            eps, _, r2 = restricted_decay_fit(
                matrix, s_fixed, floor=exp.fit_floor,
                exclusion_radius=exp.exclusion_radius)
            print(f"  restricted s={s_fixed:.1f}: epsilon={eps:.4f} "
                  f"r2={r2:.5f}")


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

    closed_errors = {}
    ident = parse_operator("identity")
    closed_errors[ident.name] = _rel_error(fio_apply(ident, f), f)
    mult = parse_operator("multiplier:cos")
    closed_errors[mult.name] = _rel_error(fio_apply(mult, f),
                                          multiplier_apply(mult, f))
    chirp = parse_operator("metaplectic:chirp:1.0")
    closed_errors[chirp.name] = _rel_error(fio_apply(chirp, f),
                                           chirp.closed_apply(f))
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
