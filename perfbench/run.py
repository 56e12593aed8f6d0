"""Run one benchmark workload and print its metrics as a JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload train-prefetch --seed 0 --seconds 20 --trace 0

``--trace 0`` repeats untraced ``materialize()`` + ``run()`` iterations of the
workload until ``--seconds`` have passed (at least three) and reports the
end-to-end metrics.  Wall-clock figures are scaled to a reference host speed
(``perfbench/host.py``); the simulated report's metrics are exact for a seed.  ``--trace 1`` alternates
untraced and traced iterations on the same seed and reports the per-layer
metrics.  Every iteration runs the correctness checks of
``perfbench/workloads.py``, and every iteration's simulated-report digest must
equal the first one's, traced or not.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_ITERATIONS = 3

#: End-to-end metric -> unit (reported with ``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
    "sim.time_s": "sim_s",
    "sim.hit_rate": "ratio",
    "sim.rpc_mb": "MB",
    "ops.success_share": "ratio",
}

#: Per-layer metrics read from the simulated report -> unit.
SIM_LAYER = {
    "rpc.logical_requests": "count",
    "rpc.wire_requests": "count",
    "rpc.rows": "count",
    "cache.hot.hit_rate": "ratio",
    "cache.shared.hit_rate": "ratio",
    "sim.barrier_wait_s": "sim_s",
    "sim.stall_s": "sim_s",
    "sim.queue_wait_ms.p99": "sim_ms",
    "sim.p50_ms": "sim_ms",
    "sim.p99_ms": "sim_ms",
}


def per_layer_units() -> dict:
    """Every per-layer metric (``--trace 1``) -> unit."""
    from perfbench.spans import COUNT_NAMES, SPAN_NAMES

    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["events.self_s"] = "s"
    units.update({name: "count" for name in COUNT_NAMES})
    units.update(SIM_LAYER)
    units["trace.overhead_s"] = "s"
    units["trace.coverage"] = "ratio"
    return units


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run iterations for *seconds* and return the result object."""
    from perfbench.host import calibrate, peak_rss_mb, reset_peak_rss
    from perfbench.spans import Tracer
    from perfbench.workloads import run_once

    untraced, traced, calibrations, peaks = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(untraced) < MIN_ITERATIONS or time.perf_counter() < deadline:
        # Collect the previous iteration's garbage outside the timed phases.
        gc.collect()
        if trace:
            untraced.append(run_once(workload, seed))
            gc.collect()
            tracer = Tracer()
            with tracer:
                traced.append((run_once(workload, seed), tracer))
        else:
            calibrations.append(calibrate())
            reset_peak_rss()
            untraced.append(run_once(workload, seed))
            peaks.append(peak_rss_mb())

    reference = untraced[0]
    attempted = failed = 0
    problems = []
    for it in untraced + [t for t, _ in traced]:
        attempted += it.attempted
        failed += it.failed
        if it.digest != reference.digest:
            it.problems.append(f"report digest {it.digest} != {reference.digest}")
            failed += it.attempted - it.failed
        problems.extend(it.problems)
    for problem in problems:
        print(f"check failed: {problem}")

    print(f"digest: {reference.digest} final_loss: {reference.final_loss!r}")
    if traced:
        print(f"traced digest: {traced[0][0].digest}")
    print(f"iterations: {len(untraced)} untraced, {len(traced)} traced")

    if trace:
        metrics = layer_metrics(untraced, traced)
        units = per_layer_units()
    else:
        metrics = end_to_end_metrics(untraced, calibrations, peaks, attempted, failed)
        units = END_TO_END
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def trimmed_mean(values) -> float:
    """Mean of *values* without their lowest and highest tenth."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def end_to_end_metrics(its, calibrations, peaks, attempted: int, failed: int) -> dict:
    """Wall metrics scaled to the reference host speed (perfbench/host.py).

    ``setup_s`` is the median of the scaled set-up times.  ``ops_per_s``
    scales the trimmed mean ``run()`` time by the trimmed mean calibration
    time, so both average over the same load and one stray iteration or
    calibration cannot move it.
    """
    from perfbench.host import CALIBRATION_REF_S

    run_s = trimmed_mean(it.run_s for it in its)
    calibration_s = trimmed_mean(calibrations)
    print(f"raw: setup_s median {statistics.median(it.setup_s for it in its)!r}, "
          f"ops_per_s {its[0].ops / run_s!r}, calibration {calibration_s!r}")
    out = {
        "setup_s": statistics.median(
            it.setup_s * CALIBRATION_REF_S / c for it, c in zip(its, calibrations)
        ),
        "ops_per_s": its[0].ops / (run_s * CALIBRATION_REF_S / calibration_s),
        "peak_rss_mb": statistics.median(peaks),
        "ops.success_share": 1.0 - failed / attempted,
    }
    out.update(its[0].sim)
    return out


def layer_metrics(untraced, traced) -> dict:
    from perfbench.spans import SPAN_NAMES

    tracers = [tracer for _, tracer in traced]
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = tracers[0].calls[name]
        out[f"{name}.self_s"] = statistics.median(t.self_ns[name] / 1e9 for t in tracers)
    out["events.self_s"] = out["events.push.self_s"] + out["events.pop.self_s"]
    out.update(tracers[0].counts)
    out.update(untraced[0].layer_sim)
    # Minimum over iterations: other tenants' load only ever adds time.
    out["trace.overhead_s"] = (
        min(it.setup_s + it.run_s for it, _ in traced)
        - min(it.setup_s + it.run_s for it in untraced)
    )
    out["trace.coverage"] = statistics.median(
        tracer.total_self_s() / (it.setup_s + it.run_s) for it, tracer in traced
    )
    return out


def main(argv=None) -> int:
    # One BLAS thread: the host has two cores and the simulator is one
    # process; unpinned OpenBLAS threads widen the run-to-run spread.  This
    # must happen before NumPy loads, which the imports below do.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from perfbench.host import host_metadata

    print(f"host: {json.dumps(host_metadata(), sort_keys=True)}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
