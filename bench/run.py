"""Benchmark of the cayley-stiefel library.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload optimize --seed 1 --seconds 50 --trace 0

One process, one caller in a closed loop: each library call starts when
the previous one returns.  The run repeats whole rounds of its workload (see
workloads.py) until --seconds have passed and checks every output against
the numpy reference.  It sets up (import, inputs, warm-up) SETUPS times,
spread evenly over the run, and reports the median as setup_s; the host's
speed drifts over seconds, so set-ups made back to back share one state.
It prints a header line, a summary line and, last, one JSON object
{"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones.  Each timing is the
fastest repeat of each operation in the run, summed over the operations the
metric covers: on a shared host it mostly moves less from run to run than
the median does (see README.md).  The summary line also gives
the medians.  With --trace 1 the run alternates untraced and traced rounds;
the metrics are the per-layer ones, from spans recorded around the library's
public functions and methods in the traced rounds, and the tracing overhead
is the fastest traced round over the fastest untraced one, minus 1.

BLAS and OpenMP are pinned to one thread unless the environment already
sets a count: the matrices are at most 60 wide, so a second thread only
contends.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import importlib
import json
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import workloads
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "cayley_stiefel"
SETUPS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    **{f"solve_s.{f}": "s" for f in workloads.FIELDS},
    **{f"cover_samples_per_s.{f}": "1/s" for f in workloads.FIELDS},
    "lift_s": "s",
    "map_s": "s",
    "homotopy_s": "s",
}


def import_library() -> dict:
    """Import the library afresh from the checkout's src/ and return its layers."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    lib = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    if not Path(lib["kalg"].__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"{PACKAGE} was imported from {lib['kalg'].__file__}, not from {SRC}")
    return lib


def set_up(seed: int) -> tuple[float, dict, dict]:
    """Import, build the run's inputs and warm up; returns (seconds, library, inputs)."""
    start = time.perf_counter()
    lib = import_library()
    inputs = workloads.make_inputs(seed)
    workloads.Bench(lib, inputs, workloads.Stats()).warm_up(seed)
    return time.perf_counter() - start, lib, inputs


def end_to_end_metrics(times: dict, stat) -> dict:
    """Each timing metric as the sum over its operations of `stat` over repeats.

    Cover metrics are rates: samples per call over the call's time.
    """
    values = {}
    for metric, by_key in times.items():
        seconds = sum(stat(v) for v in by_key.values())
        values[metric] = workloads.COVER_SAMPLES / seconds if metric.startswith("cover_") else seconds
    return values


def commit() -> str:
    """Commit of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be found."""
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs_dir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def header(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict form
        blas = {}
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def per_layer_metrics(tr: Tracer, iterations: int, samples: int, rounds: int,
                      overhead: float) -> dict:
    """Per-layer metrics of the traced rounds, per round unless stated otherwise."""
    def calls(span):
        return tr.calls[span] / rounds

    def self_s(span):
        return tr.self_s[span] / rounds

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    curve_calls = tr.calls["optim.curve"]
    objective_self = tr.self_s["optim.objective"]
    m = {
        "kalg.matmul.calls": (calls("kalg.Mat.__matmul__"), "count/round"),
        "kalg.matmul.self_s": (self_s("kalg.Mat.__matmul__"), "s/round"),
        "kalg.matmul.gflop_per_s": (ratio(tr.matmul_flops, tr.self_s["kalg.Mat.__matmul__"], 1e-9),
                                    "GFLOP/s"),
        "kalg.inverse.calls": (calls("kalg.mat_inverse"), "count/round"),
        "kalg.inverse.self_s": (self_s("kalg.mat_inverse"), "s/round"),
        "kalg.inverse.mean_dim": (ratio(tr.inverse_rows, tr.calls["kalg.mat_inverse"]), "rows"),
        "kalg.mat.created": (calls("kalg.Mat.__init__"), "count/round"),
        "group.element.created": (calls("group.GroupElement.__post_init__"), "count/round"),
        "stiefel.point.created": (calls("stiefel.StiefelPoint.__post_init__"), "count/round"),
        "optim.iterations": (iterations / rounds, "count/round"),
        "optim.curve.calls": (calls("optim.curve"), "count/round"),
        "optim.linesearch.accept_ratio": (ratio(iterations, curve_calls), "ratio"),
        "optim.curve.self_s": (self_s("optim.curve"), "s/round"),
        "optim.objective.self_s": (objective_self / rounds, "s/round"),
        "optim.iteration_ms": (ratio(tr.total_s["optim.gradient_descent"], iterations, 1e3), "ms"),
        "cover.cover_membership.self_s": (self_s("cover.cover_membership"), "s/round"),
        "cover.sample_us": (ratio(tr.total_s["cover.verify_cover"], samples, 1e6), "us"),
        "trace.overhead": (overhead, "ratio"),
    }
    for fn in ("cayley_at_identity", "cayley_at", "b_matrix"):
        m[f"group.{fn}.calls"] = (calls(f"group.{fn}"), "count/round")
        m[f"group.{fn}.self_s"] = (self_s(f"group.{fn}"), "s/round")
    for fn in ("complete_lift", "gamma", "gamma_inverse", "local_section", "contraction",
               "random_stiefel_point"):
        m[f"stiefel.{fn}.self_s"] = (self_s(f"stiefel.{fn}"), "s/round")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(m.items())}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no library sources at {SRC / PACKAGE}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(json.dumps({"header": header(args)}), flush=True)

    seconds, lib, inputs = set_up(args.seed)
    setup_times = [seconds]

    stats = workloads.Stats()
    bench = workloads.Bench(lib, inputs, stats)
    bench.check_membership()
    tracer = Tracer() if args.trace else None
    # a traced run alternates untraced and traced rounds; their fastest
    # rounds give the tracing overhead
    round_times = {False: [], True: []}
    traced_iterations = traced_samples = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(round_times[False]) > len(round_times[True])
        if traced:
            tracer.instrument(lib)
            bench.tracer = tracer
            before = (stats.iterations, stats.cover_samples)
        t0 = time.perf_counter()
        bench.run_round(args.workload)
        round_times[traced].append(time.perf_counter() - t0)
        if traced:
            tracer.restore()
            bench.tracer = None
            traced_iterations += stats.iterations - before[0]
            traced_samples += stats.cover_samples - before[1]
        elapsed = time.perf_counter() - start
        if len(setup_times) < SETUPS and elapsed >= len(setup_times) * args.seconds / SETUPS:
            setup_times.append(set_up(args.seed)[0])
        if elapsed >= args.seconds and (tracer is None or round_times[True]):
            break
    while len(setup_times) < SETUPS:
        setup_times.append(set_up(args.seed)[0])

    medians = end_to_end_metrics(stats.times, statistics.median) if tracer is None else {}
    print(json.dumps({"summary": {
        "rounds": {"untraced": len(round_times[False]), "traced": len(round_times[True])},
        "groups": {g: {"attempted": stats.attempted[g], "failed": stats.failed[g]}
                   for g in workloads.GROUPS},
        "checks": {name: {"passed": ok, "made": made}
                   for name, (ok, made) in sorted(stats.checks.items())},
        "repeats": {name: min(len(v) for v in by_key.values())
                    for name, by_key in sorted(stats.times.items())},
        "setup_s": setup_times,
        "median_of_repeats": medians,
    }}), flush=True)

    if tracer is not None:
        overhead = min(round_times[True]) / min(round_times[False]) - 1.0
        metrics = per_layer_metrics(tracer, traced_iterations, traced_samples,
                                    len(round_times[True]), overhead)
    else:
        values = end_to_end_metrics(stats.times, min)
        values["setup_s"] = statistics.median(setup_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        missing = sorted(set(END_TO_END_UNITS) - set(values))
        if missing:
            stats.note(f"no successful operation measured {', '.join(missing)}")
            for name in missing:
                values[name] = 0.0
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    attempted = sum(stats.attempted.values())
    failed = sum(stats.failed.values())
    correct = stats.correct
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
