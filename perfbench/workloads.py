"""The four benchmark workloads, their seeded inputs and their oracles.

Each workload is closed-loop: one caller in one process, the next call
only after the last one returns. A workload builds what it needs in
setup(), draws a fixed list of distinct inputs from the seed in
start_loop(), then step() runs the list in turn until the time is up. The
first call on an input is checked against its oracle and recorded into a
Run; a later call on the same input must reproduce the first call's
outputs. So attempted and failed depend on the seed only, never on how
many calls fit in the time. The library receives only operator specs and
sampled signals drawn from the seed.

Checks come in two grades. An oracle miss (an output outside its stated
tolerance) fails the operation and counts in failed / fail_frac. A hard
failure (an exception, a non-zero CLI exit, a non-finite output, an
artifact or output that changes between repeats) does the same and also
makes the run incorrect, so the benchmark exits non-zero.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
import sys
import time
import traceback
from collections import Counter

import numpy as np

import gaborfio as gf
from gaborfio import cli as gcli
from gaborfio import gmatrix as gmod

from tracing import Tracer

# Reference frame of the acceptance suite, and the large frame on which the
# N^2 kernel (256 MiB padded) and the |L|^2 entry count dominate.
REFERENCE = {"N": 1024, "L": 32.0, "truncation": 8.0}
LARGE = {"N": 2048, "L": 44.0, "truncation": 12.0}
LATTICE_STEP = 2.0 ** -0.5
WINDOW_WIDTH = 2.0
FIT_FLOOR = 1e-12
TAUS = (1e-2, 1e-4, 1e-6, 0.0)

# Harmonic times are drawn from the whole range the library accepts,
# (0, pi/2), minus this guard band at each end.
HARMONIC_GUARD = 0.01
HARMONIC_RANGE = (HARMONIC_GUARD, math.pi / 2 - HARMONIC_GUARD)

# Oracle tolerances (relative L2 error). Quadrature fio.apply matches the
# closed forms to 1e-8 or better where it works. The coefficient path of
# sparse_apply carries the dual-window restriction floor (5e-5 at the
# lattice centre, about 1e-3 for packets three units out); its wrap-around
# failures read 0.09 and above.
DIRECT_TOL = 1e-6
SPARSE_TOL = 1e-2
THRESHOLD_TOL = 1e-4        # criterion 6: tau = 1e-6 against tau = 0
FIT_MIN_R2 = 0.95
PACKET_RANGE = 3.0
# A repeated call on the same input must match the first call this
# closely; it differs at all only through summation order.
REPEAT_RTOL = 1e-9

FAMILIES = ("identity", "cos", "poly", "chirp", "dilation", "harmonic")

CLI_COMMANDS = ("gabor-matrix", "frame-check", "propagate", "stft",
                "gs-check", "sparsity", "decay-fit", "oracle-check")
# Operator family of each subcommand that takes one; the seed draws its
# parameter. A fixed family keeps each run's work mix the same.
CLI_FAMILIES = {"gabor-matrix": "harmonic", "propagate": "harmonic",
                "stft": "chirp", "sparsity": "dilation", "decay-fit": "poly"}

LAYER_SPANS = (
    "bench.step", "gabor.frame_bounds", "gabor.dual_window",
    "gabor.dual_atoms", "gabor.stft", "gabor.inversion_formula",
    "fio.apply", "fio.canonical_map", "gmatrix.assemble",
    "gmatrix.fit_decay", "gmatrix.restricted_fit", "gmatrix.bound_check",
    "gmatrix.sparsity", "gmatrix.sparse_apply", "gmatrix.to_csv",
) + tuple(f"cli.{c}" for c in CLI_COMMANDS)

LAYERS = ("gabor", "fio", "gmatrix", "cli")


def draw_operator(rng, family: str, times=HARMONIC_RANGE) -> tuple:
    """(spec, parameter) of one operator of the family, drawn from rng.

    A harmonic time is drawn uniformly from times, by default the whole
    guarded range.
    """
    if family == "identity":
        return "identity", None
    if family == "cos":
        return "multiplier:cos", None
    if family == "poly":
        c = float(rng.uniform(0.1, 1.0))
        return f"multiplier:poly:{c!r}", c
    if family == "chirp":
        c = float(rng.uniform(-2.0, 2.0))
        return f"metaplectic:chirp:{c!r}", c
    if family == "dilation":
        a = float(rng.choice((-1.0, 1.0))
                  * math.exp(rng.uniform(math.log(0.5), math.log(2.0))))
        return f"metaplectic:dilation:{a!r}", a
    if family == "harmonic":
        t = float(rng.uniform(*times))
        return f"harmonic:{t!r}", t
    raise ValueError(f"unknown family {family!r}")


def make_frame(size: dict) -> gf.GaborFrame:
    grid = gf.Grid(1, size["N"], size["L"])
    lattice = gf.make_lattice(LATTICE_STEP, LATTICE_STEP, size["truncation"])
    return gf.GaborFrame(gf.gaussian(WINDOW_WIDTH), lattice, grid)


def assemble_cost(n: int, n_lattice: int) -> tuple:
    """Computed (padded kernel MiB, GFLOP) of one assemble call.

    The padded grid has p = 2N points. Flops count the p x p kernel times
    the p x |L| atom spectra, the |L| x p by p x |L| Gram product (8 real
    flops per complex multiply-add) and 5 p log2 p per atom FFT.
    """
    p = 2 * n
    kernel_mib = p * p * 16 / 2 ** 20
    flops = (8 * p * p * n_lattice + 8 * n_lattice * n_lattice * p
             + 5 * p * math.log2(p) * n_lattice)
    return kernel_mib, flops / 1e9


def rel_error(candidate, reference) -> float:
    return float(np.linalg.norm(candidate - reference)
                 / np.linalg.norm(reference))


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v))) for v in values)


def reproduces(values, first) -> bool:
    """True when each array of values matches the one in first."""
    if len(values) != len(first):
        return False
    for new, old in zip(values, first):
        new, old = np.asarray(new), np.asarray(old)
        if new.shape != old.shape:
            return False
        scale = float(np.nanmax(np.abs(old), initial=0.0))
        if not np.allclose(new, old, rtol=REPEAT_RTOL,
                           atol=REPEAT_RTOL * scale, equal_nan=True):
            return False
    return True


class Run:
    """Operation outcomes, latencies and per-layer counts of one run."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.hard = []
        self.misses = []
        self.errors = Counter()
        self.matrices = []
        self.apply_errors = []
        self.dual_residuals = []
        self.artifact_bytes = 0
        self.digests = {}

    def record(self, layer: str, what: str, misses=(), hard=()) -> None:
        """One attempted operation; it fails on any miss or hard failure."""
        self.attempted += 1
        if misses or hard:
            self.failed += 1
            self.errors[layer] += 1
        for msg in hard:
            self.hard.append(f"{what}: {msg}")
        for msg in misses:
            self.misses.append(f"{what}: {msg}")

    def note_matrix(self, matrix) -> None:
        mags = np.abs(matrix.entries)
        self.matrices.append({
            "entries": mags.size,
            "flagged": int(matrix.flags.sum()),
            "kept": {tau: float(np.mean(mags >= tau)) for tau in TAUS[:-1]},
        })

    def layer_metrics(self, size: dict) -> dict:
        """Per-layer metrics; layers this workload never reached read 0."""
        med = self.tracer.median_self_times()
        out = {f"{name}_s": med.get(name, 0.0) for name in LAYER_SPANS}
        n_lat = len(make_frame(size).lattice)
        kernel_mib, gflop = assemble_cost(size["N"], n_lat)
        mats = self.matrices
        out["gmatrix.kernel_mib"] = kernel_mib
        out["gmatrix.assemble_gflop"] = gflop
        out["gmatrix.entries"] = float(np.mean([m["entries"] for m in mats])
                                       if mats else 0.0)
        out["gmatrix.flagged_cols"] = float(
            np.mean([m["flagged"] for m in mats]) if mats else 0.0)
        for tau in TAUS[:-1]:
            out[f"gmatrix.kept_frac.{tau:.0e}"] = float(
                np.mean([m["kept"][tau] for m in mats]) if mats else 0.0)
        solver, restricted = (self.dual_residuals[-1] if self.dual_residuals
                              else (0.0, 0.0))
        out["gabor.dual_solver_residual"] = solver
        out["gabor.dual_restricted_residual"] = restricted
        out["cli.artifact_mib"] = self.artifact_bytes / 2 ** 20
        for layer in LAYERS:
            out[f"{layer}.errors"] = float(self.errors[layer])
        out["fail_frac"] = self.failed / max(1, self.attempted)
        out["apply_err"] = (float(np.median(self.apply_errors))
                            if self.apply_errors else 0.0)
        return out

    def fault(self, layer: str, what: str) -> None:
        """Record an operation that raised, with its traceback on stderr."""
        traceback.print_exc(file=sys.stderr)
        self.record(layer, what, hard=[traceback.format_exc(limit=1)])


class Workload:
    """Set-up plus a closed loop over seeded inputs; subclasses define both.

    A subclass draws per_slice inputs for each slice in draw(), runs one
    input's timed calls in call() and returns its outputs (None when a
    call raised), checks first outputs in check(), and reduces outputs to
    arrays in fingerprint() for the repeat comparison.
    """

    size = REFERENCE
    layer = "gmatrix"
    per_slice = 1

    def __init__(self, seed: int, run: Run, scratch: str):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.run = run
        self.scratch = scratch
        self.steps = 0
        self.items = []
        self.first = {}

    def setup(self) -> None:
        self.frame = make_frame(self.size)

    def start_loop(self, slice_indices, slices: int) -> None:
        """Draw the inputs of the given slices; set-up draws are shared.

        Each slice draws from its own generator, so a slice run in its own
        process and the same slice in a traced run get the same inputs.
        """
        self.items = []
        for i in slice_indices:
            self.rng = np.random.default_rng([self.seed, i])
            self.items += self.draw(i, slices)

    def draw(self, slice_index: int, slices: int) -> list:
        raise NotImplementedError

    def call(self, item):
        raise NotImplementedError

    def check(self, item, outputs) -> None:
        raise NotImplementedError

    def fingerprint(self, outputs) -> list:
        raise NotImplementedError

    def describe(self, item) -> str:
        return str(item)

    def step(self) -> None:
        index = self.steps % len(self.items)
        item = self.items[index]
        self.steps += 1
        outputs = self.call(item)
        if outputs is None:
            return
        values = self.fingerprint(outputs)
        if index not in self.first:
            self.first[index] = values
            self.check(item, outputs)
        elif not reproduces(values, self.first[index]):
            self.run.record(self.layer, self.describe(item), hard=[
                "output differs from the first call on the same input"])

    def done(self, elapsed: float, seconds: float) -> bool:
        """Time is up and every input has had its checked first call."""
        return elapsed >= seconds and self.steps >= len(self.items)

    def finish(self) -> None:
        """Checks that need the whole run; runs after the timed loop."""

    def patches(self) -> list:
        """Library names the traced run wraps, as (owner, attr, span)."""
        return [(gmod, "canonical_map", "fio.canonical_map"),
                (gf.GaborFrame, "dual_atoms", "gabor.dual_atoms")]


class FitSweep(Workload):
    """assemble, fit_decay, restricted fits, bound check, sparsity.

    Slice i draws per_slice operators of consecutive families, starting
    at family i * len(families) // slices, so five slices of two cover
    all six families.
    """

    families = FAMILIES
    per_slice = 2

    def draw(self, slice_index: int, slices: int) -> list:
        first = slice_index * len(self.families) // slices
        return [draw_operator(self.rng, self.families[
            (first + k) % len(self.families)])[0]
            for k in range(self.per_slice)]

    def call(self, spec: str):
        tr = self.run.tracer
        op = gf.parse_operator(spec)
        start = time.perf_counter()
        try:
            with tr.span("gmatrix.assemble"):
                matrix = gf.assemble(op, self.frame)
            with tr.span("gmatrix.fit_decay"):
                fit = gf.fit_decay(matrix, floor=FIT_FLOOR)
            restricted = []
            for s in (0.5, 1.0):
                with tr.span("gmatrix.restricted_fit"):
                    restricted.append(gf.restricted_decay_fit(
                        matrix, s, floor=FIT_FLOOR))
            with tr.span("gmatrix.bound_check"):
                bound = gf.decay_bound_check(matrix, fit)
            with tr.span("gmatrix.sparsity"):
                report = gf.sparsity_curve(matrix, fit.s_hat)
        except Exception:
            self.run.fault("gmatrix", spec)
            return None
        self.run.latencies.append(time.perf_counter() - start)
        return matrix, fit, restricted, bound, report

    def fingerprint(self, outputs) -> list:
        matrix, fit, restricted, bound, report = outputs
        return [np.linalg.norm(matrix.entries),
                [fit.s_hat, fit.epsilon_hat, fit.log_c, fit.r_squared],
                np.asarray(restricted, dtype=float), bound["violations"],
                report.epsilons, report.r_squareds]

    def check(self, spec: str, outputs) -> None:
        matrix, fit, restricted, bound, report = outputs
        self.run.note_matrix(matrix)
        hard, misses = [], []
        if not _finite(matrix.entries):
            hard.append("non-finite matrix entries")
        if not _finite(fit.s_hat, fit.epsilon_hat, fit.log_c,
                       fit.r_squared, restricted, report.epsilons,
                       report.r_squareds):
            hard.append("non-finite fit")
        elif fit.r_squared <= FIT_MIN_R2:
            misses.append(f"fit r2 {fit.r_squared:.4f}")
        if bound["violations"]:
            misses.append(f"{bound['violations']} envelope violations")
        self.run.record("gmatrix", spec, misses, hard)


class FitLarge(FitSweep):
    """The fit-sweep operation on the N = 2048, truncation 12 frame."""

    size = LARGE
    families = ("harmonic", "chirp")
    per_slice = 1


def packet(t: np.ndarray, x0: float, xi0: float, width: float) -> np.ndarray:
    return (np.exp(-np.pi * (t - x0) ** 2 / width)
            * np.exp(2j * np.pi * xi0 * t))


def packet_oracle(family: str, param: float, t: np.ndarray, x0: float,
                  xi0: float, width: float) -> tuple:
    """(expected output, compare magnitudes only) for a Gaussian packet.

    Chirp: exp(i pi c x^2) f exactly. Dilation: |a|^-1/2 f(x/a). Harmonic:
    a width-1 packet keeps its shape under the rotation, so the output
    magnitude is the packet moved to the rotated centre; its phase depends
    on the sign branch of the propagator and is not compared.
    """
    if family == "chirp":
        chirp = np.exp(1j * np.pi * param * t * t)
        return chirp * packet(t, x0, xi0, width), False
    if family == "dilation":
        return abs(param) ** -0.5 * packet(t / param, x0, xi0, width), False
    if family == "harmonic":
        x1 = math.cos(param) * x0 - math.sin(param) * xi0
        return np.abs(packet(t, x1, 0.0, 1.0)), True
    raise ValueError(f"no packet oracle for {family!r}")


class Propagate(Workload):
    """sparse_apply at each threshold, fio.apply as the direct reference.

    Set-up assembles a chirp, a dilation and three harmonic matrices: one
    time drawn in each half of the guarded range, and the range's upper
    end. Each slice draws one packet per matrix. fio.apply needs no
    matrix, so every packet gets its own operator of its matrix's family
    for it, drawn from the family's whole range.
    """

    def setup(self) -> None:
        super().setup()
        tr = self.run.tracer
        with tr.span("gabor.frame_bounds"):
            gf.frame_bounds(self.frame)
        with tr.span("gabor.dual_window"):
            gf.dual_window(self.frame)
        self.run.dual_residuals.append(self.frame.dual_residuals)
        lo, hi = HARMONIC_RANGE
        mid = (lo + hi) / 2
        draws = [("chirp", draw_operator(self.rng, "chirp")),
                 ("dilation", draw_operator(self.rng, "dilation")),
                 ("harmonic", draw_operator(self.rng, "harmonic", (lo, mid))),
                 ("harmonic", draw_operator(self.rng, "harmonic", (mid, hi))),
                 ("harmonic", (f"harmonic:{hi!r}", hi))]
        self.operators = []
        for family, (spec, param) in draws:
            op = gf.parse_operator(spec)
            with tr.span("gmatrix.assemble"):
                matrix = gf.assemble(op, self.frame)
            self.run.note_matrix(matrix)
            self.operators.append((family, param, op, matrix))

    def draw(self, slice_index: int, slices: int) -> list:
        """One packet per operator, with its fio.apply operator."""
        items = []
        for index, (family, _, _, _) in enumerate(self.operators):
            x0, xi0 = self.rng.uniform(-PACKET_RANGE, PACKET_RANGE, 2)
            width = (1.0 if family == "harmonic"
                     else float(self.rng.uniform(0.5, 2.0)))
            spec, direct_param = draw_operator(self.rng, family)
            items.append((index, float(x0), float(xi0), width, spec,
                          direct_param))
        return items

    def describe(self, item) -> str:
        index, x0, xi0, width, _, _ = item
        return (f"{self.operators[index][2].name} packet "
                f"({x0:.3f}, {xi0:.3f}, {width:.3f})")

    def call(self, item):
        run, tr = self.run, self.run.tracer
        index, x0, xi0, width, spec, _ = item
        matrix = self.operators[index][3]
        grid = self.frame.grid
        f = gf.SampledSignal(grid, packet(grid.times(), x0, xi0, width))
        what = self.describe(item)
        outs = {}
        for tau in TAUS:
            start = time.perf_counter()
            try:
                with tr.span("gmatrix.sparse_apply"):
                    outs[tau], _ = gf.sparse_apply(matrix, self.frame, f, tau)
            except Exception:
                run.fault("gmatrix", f"{what} tau={tau:g}")
                continue
            run.latencies.append(time.perf_counter() - start)
        direct_op = gf.parse_operator(spec)
        try:
            with tr.span("fio.apply"):
                direct = gf.apply(direct_op, f)
        except Exception:
            run.fault("fio", f"{what} fio.apply {direct_op.name}")
            direct = None
        return outs, direct

    def fingerprint(self, outputs) -> list:
        outs, direct = outputs
        return ([outs[tau].values for tau in TAUS if tau in outs]
                + ([direct.values] if direct is not None else []))

    def check(self, item, outputs) -> None:
        run = self.run
        index, x0, xi0, width, spec, direct_param = item
        family, param, _, _ = self.operators[index]
        outs, direct = outputs
        t = self.frame.grid.times()
        what = self.describe(item)

        def oracle_error(signal, fam_param):
            expected, magnitude_only = packet_oracle(family, fam_param, t, x0,
                                                     xi0, width)
            values = np.abs(signal.values) if magnitude_only else signal.values
            return rel_error(values, expected)

        # Comparisons are written as "not (error <= tolerance)" so that a
        # NaN error is a miss; non-finite outputs are hard failures anyway.
        finite = {tau: _finite(out.values) for tau, out in outs.items()}
        err = ({tau: rel_error(outs[tau].values, outs[0.0].values)
                for tau in TAUS[:-1] if finite.get(tau)}
               if finite.get(0.0) else {})
        for i, tau in enumerate(TAUS):
            if tau not in outs:
                continue
            if not finite[tau]:
                run.record("gmatrix", f"{what} tau={tau:g}",
                           hard=["non-finite output"])
                continue
            misses = []
            if tau == 0.0:
                dense_err = oracle_error(outs[tau], param)
                if not dense_err <= SPARSE_TOL:
                    misses.append(f"oracle error {dense_err:.3e}")
            elif tau in err:
                nxt = TAUS[i + 1]
                if nxt in err and not err[tau] >= err[nxt]:
                    misses.append(f"error not monotone at tau={tau:g}")
                if tau == 1e-6 and not err[tau] <= THRESHOLD_TOL:
                    misses.append(f"tau=1e-6 vs tau=0 error {err[tau]:.3e}")
            run.record("gmatrix", f"{what} tau={tau:g}", misses)
        if finite.get(1e-6):
            run.apply_errors.append(oracle_error(outs[1e-6], param))
        if direct is not None:
            what = f"{what} fio.apply {spec}"
            if not _finite(direct.values):
                run.record("fio", what, hard=["non-finite output"])
            else:
                direct_err = oracle_error(direct, direct_param)
                run.record("fio", what, [f"oracle error {direct_err:.3e}"]
                           if not direct_err <= DIRECT_TOL else [])


class CliArtifacts(Workload):
    """In-process gaborfio.cli.main over the subcommand list, repeated.

    Artifacts go under the scratch directory, one directory per repeat
    and subcommand, and are hashed after the timed loop. The first cycle
    is the checked one; a later repeat fails only when it exits non-zero
    or its artifacts differ from the first cycle's.
    """

    layer = "cli"

    def setup(self) -> None:
        self.results = []
        self.argv = {}
        for command in CLI_COMMANDS:
            if command in CLI_FAMILIES:
                spec, _ = draw_operator(self.rng, CLI_FAMILIES[command])
                self.argv[command] = [command, spec]
            elif command == "gs-check":
                self.argv[command] = [command, "all"]
            else:
                self.argv[command] = [command]

    def start_loop(self, slice_indices, slices: int) -> None:
        """The inputs are the subcommand list; set-up drew their arguments."""
        self.items = list(CLI_COMMANDS)

    def out_dir(self, repeat: int, command: str) -> str:
        return os.path.join(self.scratch, f"repeat{repeat}", command)

    def step(self) -> None:
        command = CLI_COMMANDS[self.steps % len(CLI_COMMANDS)]
        repeat = self.steps // len(CLI_COMMANDS)
        self.steps += 1
        argv = ["--out", self.out_dir(repeat, command)] + self.argv[command]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    self.run.tracer.span(f"cli.{command}"):
                code = gcli.main(argv)
        except Exception:
            self.run.fault("cli", " ".join(self.argv[command]))
            return
        self.run.latencies.append(time.perf_counter() - start)
        self.results.append((command, repeat, code))

    def done(self, elapsed: float, seconds: float) -> bool:
        n = len(CLI_COMMANDS)
        return elapsed >= seconds and self.steps % n == 0 and self.steps >= n

    def artifact_digests(self, repeat: int, command: str) -> dict:
        """sha256 of each artifact; manifest.json records wall clock."""
        out, digests = self.out_dir(repeat, command), {}
        for name in sorted(os.listdir(out)):
            if name == "manifest.json":
                continue
            h = hashlib.sha256()
            with open(os.path.join(out, name), "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            digests[name] = h.hexdigest()
            if repeat == 0:
                self.run.artifact_bytes += os.path.getsize(
                    os.path.join(out, name))
        return digests

    def finish(self) -> None:
        run = self.run
        for command, repeat, code in self.results:
            what = f"{' '.join(self.argv[command])} repeat {repeat}"
            hard = []
            if code != 0:
                hard.append(f"exit code {code}")
            else:
                digests = self.artifact_digests(repeat, command)
                if digests != run.digests.setdefault(command, digests):
                    hard.append("artifacts differ from the first repeat")
            if repeat == 0 or hard:
                run.record("cli", what, hard=hard)
        shutil.rmtree(self.scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(self.scratch))

    def patches(self) -> list:
        run = self.run
        return super().patches() + [
            (gcli, "assemble", "gmatrix.assemble",
             lambda args, matrix: run.note_matrix(matrix)),
            (gcli, "fit_decay", "gmatrix.fit_decay"),
            (gcli, "restricted_decay_fit", "gmatrix.restricted_fit"),
            (gcli, "sparsity_curve", "gmatrix.sparsity"),
            (gcli, "sparse_apply", "gmatrix.sparse_apply"),
            (gcli, "dual_window", "gabor.dual_window",
             lambda args, _: run.dual_residuals.append(
                 args[0].dual_residuals)),
            (gcli, "frame_bounds", "gabor.frame_bounds"),
            (gcli, "fio_apply", "fio.apply"),
            (gcli, "stft", "gabor.stft"),
            (gcli, "inversion_formula_reconstruct",
             "gabor.inversion_formula"),
            (gmod.GaborMatrix, "to_csv", "gmatrix.to_csv"),
        ]


WORKLOADS = {
    "fit-sweep": FitSweep,
    "propagate": Propagate,
    "cli-artifacts": CliArtifacts,
    "fit-large": FitLarge,
}
