"""gaborfio benchmark: four closed-loop workloads, oracle-checked outputs.

Run from the repository root, with the thread settings of BENCHMARK.json:

    export GABORFIO_WORKERS=1 OPENBLAS_NUM_THREADS=2
    python3 perfbench/run.py --workload propagate --seed 3 --seconds 10
    python3 perfbench/run.py --workload propagate --seed 3 --trace 1
    python3 perfbench/run.py --seed 3        # every workload, untraced
                                             # and traced, with overhead

The library is imported from src/ next to this directory; nothing is
installed. --seconds is the length of the timed loop; it defaults to
BENCHMARK.json's run_seconds. An untraced run starts SETUP_SAMPLES fresh
processes. Every one of them builds the workload's set-up (imports,
frame, dual window, matrices) and reports its set-up time. All of them
(four on fit-large, two on cli-artifacts) also run the timed loop, an
equal share of --seconds each, spread over the run. A traced run
(--trace 1) is one process that runs the whole loop over the inputs of
every slice. It records spans, reports per-layer metrics instead of
end-to-end ones and writes its spans to .perfbench_out/.

Each slice draws a fixed list of inputs from the seed and runs it in turn
until its time is up, at least once. attempted and failed count the
checked first call on each input (see workloads.py), so a seed gives the
same counts however fast the machine runs; a repeat counts only when it
fails to reproduce the first call.

Metric names and units come from BENCHMARK.json. The last line of
standard output is one JSON object with correct, attempted, failed and
metrics. The exit code is 1 when a hard check fails (see workloads.py).

Thread pinning: BENCHMARK.json's command sets GABORFIO_WORKERS and
OPENBLAS_NUM_THREADS (1 assembly worker over 2 BLAS threads, the fastest
pairing measured on 2 cores). This script refuses to run without them,
or when their product exceeds the core count.

Warm-up: on a machine that was idle, the first fresh process runs its
first LAPACK calls up to 10x slower (0.57-0.96 s instead of 0.08 s for
frame_bounds). The parent therefore spends WARMUP_SECONDS in LAPACK
before it starts the first set-up process, and set-up time is the median
over the processes.
"""

import time

# A child's set-up clock starts here, before numpy and gaborfio load.
START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")

WORKLOADS = ("fit-sweep", "propagate", "cli-artifacts", "fit-large")
SETUP_SAMPLES = 5
# Fresh processes that each run one slice of an untraced timed loop. On a
# shared 2-core host the machine's speed shifts by up to 1.5x in phases of
# 7-15 s, so the loop is cut into short slices spread over the run. A
# slice ends after the operation that crosses its share of the time. A
# fit-large operator takes 6-8 s, so four slices of one operator each
# (two harmonic, two chirp) keep its run short. cli-artifacts runs whole
# cycles of its subcommands (about 10 s each), so it keeps two slices.
# Set-up-only processes make up the rest of the SETUP_SAMPLES.
SLICES = {"fit-sweep": 5, "propagate": 5, "cli-artifacts": 2, "fit-large": 4}
CHILD_TIMEOUT = 150
WARMUP_SECONDS = 0.5
MAX_MISS_LINES = 20
THREAD_SETTINGS = ("GABORFIO_WORKERS", "OPENBLAS_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def load_spec() -> dict:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def pin_threads() -> dict:
    try:
        pins = {key: int(os.environ[key]) for key in THREAD_SETTINGS}
    except KeyError as exc:
        raise BenchError(f"{exc} is not set; run the command in "
                         "BENCHMARK.json") from exc
    except ValueError as exc:
        raise BenchError(f"thread setting is not an integer: {exc}") from exc
    cores = os.cpu_count() or 1
    if pins["GABORFIO_WORKERS"] * pins["OPENBLAS_NUM_THREADS"] > cores:
        raise BenchError(f"{pins} oversubscribes {cores} cores")
    return pins


def warm_up() -> float:
    import numpy as np
    start = time.perf_counter()
    a = np.random.default_rng(0).standard_normal((700, 700))
    s = a @ a.T
    while time.perf_counter() - start < WARMUP_SECONDS:
        np.linalg.eigh(s)
    return time.perf_counter() - start


# ---------------------------------------------------------------- child


def child(args) -> None:
    """One fresh process: set up, and for role "measure" run one slice."""
    sys.path.insert(0, SRC)
    from tracing import Tracer, patched
    import workloads as wl

    tracer = Tracer(args.trace == 1)
    run = wl.Run(tracer)
    scratch = os.path.join(SCRATCH, f"{args.workload}-{os.getpid()}")
    workload = wl.WORKLOADS[args.workload](args.seed, run, scratch)
    result = {}
    with patched(tracer, workload.patches() if tracer.enabled else []):
        workload.setup()
        result["setup_s"] = time.perf_counter() - START
        if args.child == "measure":
            slices = SLICES[args.workload]
            workload.start_loop(range(slices) if tracer.enabled
                                else [args.slice], slices)
            loop_start = time.perf_counter()
            while not workload.done(time.perf_counter() - loop_start,
                                    args.seconds):
                tracer.op = workload.steps
                with tracer.span("bench.step"):
                    workload.step()
            result["wall_s"] = time.perf_counter() - loop_start
            workload.finish()
    if args.child == "measure":
        result.update(
            latencies=run.latencies, attempted=run.attempted,
            failed=run.failed, hard=run.hard, misses=run.misses,
            digests=run.digests,
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer.enabled:
            result["per_layer"] = run.layer_metrics(workload.size)
            os.makedirs(OUT, exist_ok=True)
            tracer.dump(os.path.join(
                OUT, f"trace-{args.workload}-seed{args.seed}.json"))
    print(json.dumps(result))


# --------------------------------------------------------------- parent


def spawn(role: str, workload: str, seed: int, seconds: float, trace: int,
          slice_index: int = 0) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--child", role,
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--slice", str(slice_index)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {role} process exceeded "
                         f"{CHILD_TIMEOUT} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {role} process exited "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile within the sample range."""
    ordered = sorted(values)
    pos = q / 100 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload once; returns the combined result with metrics.

    An untraced run splits the timed loop into SLICES[workload] fresh
    processes, so that it samples the machine at separate times. Where
    that gives fewer than SETUP_SAMPLES set-up times, set-up-only
    processes fill the gaps before, between and after the slices, one per
    gap. A traced run is one process that runs the whole loop.
    """
    if trace:
        parts = [spawn("measure", workload, seed, seconds, trace)]
        setups = [parts[0]["setup_s"]]
    else:
        slices = SLICES[workload]
        parts, setups = [], []
        for i in range(slices + 1):
            if i < SETUP_SAMPLES - slices:
                setups.append(spawn("setup", workload, seed, seconds,
                                    trace)["setup_s"])
            if i < slices:
                parts.append(spawn("measure", workload, seed,
                                   seconds / slices, trace, i))
        setups += [p["setup_s"] for p in parts]
    lat = [v for p in parts for v in p["latencies"]]
    if not lat:
        raise BenchError(f"{workload}: no operation completed")
    res = {
        "latencies": lat,
        "wall_s": sum(p["wall_s"] for p in parts),
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "hard": [line for p in parts for line in p["hard"]],
        "misses": [line for p in parts for line in p["misses"]],
        "digests": parts[0]["digests"],
        "setup_samples": setups,
    }
    for p in parts[1:]:
        for command, digests in p["digests"].items():
            if digests != res["digests"].get(command, digests):
                res["failed"] += 1
                res["hard"].append(f"cli {command}: artifacts differ "
                                   "between processes")
    res["ops_per_s"] = len(lat) / res["wall_s"]
    res["op_p90_s"] = percentile(lat, 90)
    if trace:
        res["metrics"] = dict(
            parts[0]["per_layer"], op_p50_s=statistics.median(lat),
            op_p90_s=res["op_p90_s"],
            **{"trace.ops_per_s": res["ops_per_s"]})
    else:
        res["metrics"] = {
            "setup_s": statistics.median(setups),
            "ops_per_s": res["ops_per_s"],
            "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        }
    return res


def report(workload: str, seed: int, trace: int, res: dict,
           units: dict) -> dict:
    """Print every metric by name with its unit; return them as JSON."""
    lat = res["latencies"]
    print(f"== {workload} seed={seed} trace={trace}: {len(lat)} operations "
          f"in {res['wall_s']:.3f} s, {res['failed']} of {res['attempted']} "
          f"checked calls failed")
    beyond = sum(1 for v in lat if v > res["op_p90_s"])
    print(f"   set-up samples (s): "
          f"{', '.join(f'{v:.4f}' for v in res['setup_samples'])}; "
          f"latency samples {len(lat)}, {beyond} beyond p90")
    metrics = {}
    for name, unit in units.items():
        if name not in res["metrics"]:
            raise BenchError(f"{workload}: metric {name} was not measured")
        value = res["metrics"][name]
        metrics[name] = {"value": value, "unit": unit}
        computed = " (computed)" if name in (
            "gmatrix.kernel_mib", "gmatrix.assemble_gflop") else ""
        print(f"   {name} = {value:.6g} {unit}{computed}")
    for line in res["hard"]:
        print(f"   HARD FAILURE {line}")
    for line in res["misses"][:MAX_MISS_LINES]:
        print(f"   oracle miss {line}")
    for command, digests in sorted(res["digests"].items()):
        for artifact, digest in digests.items():
            print(f"   sha256 {command} {artifact} {digest}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "measure"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--slice", type=int, default=0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(SRC, "gaborfio", "__init__.py")):
            raise BenchError(f"no gaborfio sources under {SRC}")
        if args.child:
            child(args)
            return 0
        spec = load_spec()
        seconds = args.seconds or spec["run_seconds"]
        pins = pin_threads()
        print(f"threads: {pins}; warm-up {warm_up():.3f} s of LAPACK")
        runs = ([(args.workload, args.trace)] if args.workload != "all"
                else [(w, t) for w in WORKLOADS for t in (0, 1)])
        correct, attempted, failed, metrics = True, 0, 0, {}
        for workload, trace in runs:
            res = measure(workload, args.seed, seconds, trace)
            kind = "per_layer" if trace else "end_to_end"
            units = {m["name"]: m["unit"] for m in spec[kind]}
            metrics[(workload, trace)] = report(workload, args.seed, trace,
                                                res, units)
            correct = correct and not res["hard"]
            attempted += res["attempted"]
            failed += res["failed"]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        for workload in WORKLOADS:
            overhead = (metrics[(workload, 1)]["trace.ops_per_s"]["value"]
                        - metrics[(workload, 0)]["ops_per_s"]["value"])
            print(f"tracing overhead {workload}: {overhead:+.6g} 1/s "
                  "(traced minus untraced ops_per_s)")
        metrics = {f"{w}.{m}": v for (w, _), ms in metrics.items()
                   for m, v in ms.items()}
    else:
        metrics = metrics[(args.workload, args.trace)]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
