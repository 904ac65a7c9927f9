#!/usr/bin/env python3
"""RTRBench end-to-end benchmark: one workload per run, one JSON line out.

Run from the repository root, with the thread pools pinned before the
interpreter starts (``BENCHMARK.json`` holds the exact command)::

    env OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        NUMEXPR_NUM_THREADS=1 VECLIB_MAXIMUM_THREADS=1 \\
        python3 perfbench/run.py --workload plan-grid --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced for half of ``--seconds``, then traced for the other
half, prints the per-layer metrics and writes the spans as Chrome
trace-event JSON under ``.perfbench_out/``.  Every run works in its own
workload-cache directory and result store under ``.perfbench_state/``,
removed when the run ends.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE_ROOT = os.path.join(ROOT, ".perfbench_state")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Thread-pool variables, read by OpenBLAS and friends at import time;
#: the command must set every one to 1 before the interpreter starts.
PINNED_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Set-ups in fresh interpreters per run, besides the run's own; setup_s
#: is the median of all of them.
SETUP_PROBES = 3

UNITS = {
    "latency_p50_ms": "ms", "latency_p90_ms": "ms", "jobs_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def set_up(workload, seed: int, tracer=None) -> float:
    """Import the program and build the workload; returns raw seconds."""
    t0 = time.perf_counter()
    workload.imports()
    if tracer is not None:
        workload.trace_targets(tracer)
        tracer.install()
    try:
        workload.build(seed, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    return time.perf_counter() - t0


def scaled_setup(workload, seed: int) -> tuple:
    """One set-up's raw seconds and seconds at the reference speed."""
    from speed import SpeedProbe

    raw = set_up(workload, seed)
    probe = SpeedProbe()
    probe.burst()
    return raw, raw * probe.scale()


def probe_setups(args) -> list:
    """:data:`SETUP_PROBES` set-ups, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=150, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        times.append((result["raw_s"], result["setup_s"]))
    return times


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (``statistics.quantiles`` inclusive)."""
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def stop_resource_tracker() -> None:
    """End the tracker process shared memory starts, and wait for it."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None and hasattr(tracker._resource_tracker, "_stop"):
        tracker._resource_tracker._stop()


def describe_environment() -> None:
    import numpy

    pinned = " ".join(f"{v}={os.environ.get(v)}" for v in PINNED_VARS)
    print(f"env: {pinned}")
    print(
        f"env: nproc={len(os.sched_getaffinity(0))} "
        f"python={platform.python_implementation()} {platform.python_version()} "
        f"numpy={numpy.__version__}"
    )


def run(args) -> dict:
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    if args.period_ms is not None:
        workload.PERIOD_MS = args.period_ms
    if not args.trace:
        setups = [scaled_setup(workload, args.seed)]
        describe_environment()
        phase = workload.run(args.seconds)
        if phase.verify:
            phase.verify()
        setups += probe_setups(args)
        raw = {
            "latency_p50_ms": quantile(phase.latencies, 0.5) * 1e3,
            "latency_p90_ms": quantile(phase.latencies, 0.9) * 1e3,
            "jobs_per_s": phase.jobs_per_s,
            "setup_s": statistics.median(s for s, _ in setups),
        }
        print(f"raw: {len(phase.latencies)} jobs; " + "; ".join(
            f"{name} {value:.6g}" for name, value in raw.items()
        ) + f"; speed scale {phase.scale:.4f}")
        print(f"setup: raw {' '.join(f'{s:.3f}' for s, _ in setups)} s, "
              f"scaled {' '.join(f'{s:.3f}' for _, s in setups)} s")
        metrics = {
            "latency_p50_ms": raw["latency_p50_ms"] * phase.scale,
            "latency_p90_ms": raw["latency_p90_ms"] * phase.scale,
            "jobs_per_s": raw["jobs_per_s"] / phase.scale,
            "setup_s": statistics.median(s for _, s in setups),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = UNITS
    else:
        tracer = Tracer()
        set_up(workload, args.seed, tracer)
        describe_environment()
        untraced = workload.run(args.seconds / 2)
        tracer.install()
        try:
            phase = workload.run(args.seconds / 2, tracer)
        finally:
            tracer.restore()
        for half in (untraced, phase):
            if half.verify:
                half.verify()
        units = per_layer_units()
        metrics = {name: 0.0 for name in units}
        metrics.update(phase.layers)
        # At the reference speed, so that drift between the halves does
        # not pass for tracing cost.
        metrics["trace.jobs_per_s_untraced"] = untraced.jobs_per_s / untraced.scale
        metrics["trace.jobs_per_s_traced"] = phase.jobs_per_s / phase.scale
        metrics["trace.overhead_share"] = (
            1.0 - metrics["trace.jobs_per_s_traced"]
            / metrics["trace.jobs_per_s_untraced"]
        )
        stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
        tracer.write_chrome(stem + ".trace.json")
        table = "\n".join(
            f"{name:<40} {metrics[name]:>16.6g} {units[name]}" for name in units
        )
        with open(stem + ".layers.txt", "w") as fh:
            fh.write(table + "\n")
        print(table)
        print(f"spans: {len(tracer.spans)} written to {stem}.trace.json")
        phase.attempted += untraced.attempted
        phase.failed += untraced.failed
        phase.wrong += untraced.wrong
    return {
        "correct": phase.wrong == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("plan-grid", "perceive-step", "control-rt", "suite-pool"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--period-ms", type=float, default=None,
                        help="control-rt release period (default 6 ms), to check "
                             "that jobs_per_s does not follow it")
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up and exit (used by the run itself)")
    args = parser.parse_args(argv)
    if args.period_ms is not None and (args.workload != "control-rt" or args.period_ms <= 0):
        parser.error("--period-ms takes a positive period, for control-rt only")

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources at {SRC}/repro", file=sys.stderr)
        return 2
    unpinned = [v for v in PINNED_VARS if os.environ.get(v) != "1"]
    if unpinned:
        print(f"error: thread pools not pinned to 1: {', '.join(unpinned)}",
              file=sys.stderr)
        return 2

    sys.path.insert(0, SRC)
    os.makedirs(STATE_ROOT, exist_ok=True)
    state = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE_ROOT)
    os.environ["RTRBENCH_CACHE_DIR"] = os.path.join(state, "cache")
    os.environ["RTRBENCH_RESULTS_DIR"] = os.path.join(state, "results")
    # Provenance asks git for HEAD; keep it from searching above the tree.
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    try:
        if args.setup_probe:
            from workloads import WORKLOADS

            raw_s, setup_s = scaled_setup(WORKLOADS[args.workload](), args.seed)
            result = {"raw_s": raw_s, "setup_s": setup_s}
        else:
            print(f"perfbench: workload={args.workload} seed={args.seed} "
                  f"seconds={args.seconds:g} trace={args.trace}")
            result = run(args)
    finally:
        stop_resource_tracker()
        shutil.rmtree(state, ignore_errors=True)
        try:
            os.rmdir(STATE_ROOT)
        except OSError:
            pass  # another run's state is still there
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
