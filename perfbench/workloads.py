"""The benchmark's workloads, their correctness checks, and the report digest.

Every workload goes through the public scenario API:
``SCENARIOS.build(name).with_overrides(...).materialize(seed).run()``.
Why each workload was chosen, and which layers it exercises, is recorded in
``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List

import numpy as np

from repro.distributed.rpc import aggregate_rpc_stats
from repro.scenarios import SCENARIOS
from repro.scenarios.registry import ClusterScenario
from repro.serving.report import ServingReport


# Sizes keep one iteration to one to three wall seconds on a 2-core host, so
# a run collects a dozen or more: see "Steadiness" in perfbench/README.md.
def _train_prefetch() -> ClusterScenario:
    return SCENARIOS.build("uniform").with_overrides(scale=0.5, epochs=1)


def _train_cache_churn() -> ClusterScenario:
    return SCENARIOS.build("cache-churn").with_overrides(scale=0.5, epochs=2)


def _serve_steady() -> ClusterScenario:
    scenario = SCENARIOS.build("steady-poisson")
    return scenario.with_overrides(serving=replace(scenario.serving, num_requests=1024))


#: Workload name -> scenario recipe (the seed is applied at materialize time).
WORKLOADS: Dict[str, Callable[[], ClusterScenario]] = {
    "train-prefetch": _train_prefetch,
    "train-cache-churn": _train_cache_churn,
    "serve-steady": _serve_steady,
}


@dataclass
class Iteration:
    """One materialize()+run() of a workload: its timings, checks and metrics.

    The report and cluster are dropped once read, so a run that repeats the
    workload holds one iteration's simulation in memory at a time.
    """

    setup_s: float
    run_s: float
    ops: int
    attempted: int
    failed: int
    problems: List[str]
    digest: str
    final_loss: float
    sim: Dict[str, float]
    layer_sim: Dict[str, float]


def run_once(workload: str, seed: int) -> Iteration:
    """Materialize and run *workload* once on *seed*, timing both phases."""
    scenario = WORKLOADS[workload]()
    start = time.perf_counter()
    materialized = scenario.materialize(seed)
    setup_s = time.perf_counter() - start
    start = time.perf_counter()
    report = materialized.run()
    run_s = time.perf_counter() - start
    cluster = materialized.cluster
    if isinstance(report, ServingReport):
        ops = int(report.completed)
        attempted, failed, problems = check_serving(report, cluster)
        loss = float("nan")
    else:
        ops = int(report.report.num_minibatches)
        attempted, failed, problems = check_training(report, cluster)
        loss = float(report.report.epoch_records[-1].loss)
    return Iteration(setup_s, run_s, ops, attempted, failed, problems, report_digest(report),
                     loss, sim_metrics(report, cluster), sim_layer_metrics(report, cluster))


# --------------------------------------------------------------------------- #
# Correctness checks.  Each returns (attempted, failed, problems): a failed
# check marks the steps or requests it covers as failed, never skips them.
# --------------------------------------------------------------------------- #
def _clock_problems(cluster) -> Dict[int, str]:
    """Trainers whose SimClock time differs from the sum of its ledger."""
    out = {}
    for trainer in cluster.trainers:
        ledger = math.fsum(trainer.clock.components.values())
        if not math.isclose(trainer.clock.time, ledger, rel_tol=1e-12, abs_tol=1e-15):
            out[trainer.global_rank] = (
                f"trainer {trainer.global_rank}: clock {trainer.clock.time!r} != "
                f"ledger sum {ledger!r}"
            )
    return out


def check_training(cluster_report, cluster) -> tuple:
    """Clock ledgers, planned vs run steps, and finite losses."""
    report = cluster_report.report
    epochs = report.epochs
    planned = sum(t.num_batches_per_epoch for t in cluster.trainers) * epochs
    done = int(report.num_minibatches)
    attempted = max(planned, done)
    problems: List[str] = []
    failed = abs(planned - done)
    if failed:
        problems.append(f"ran {done} steps, planned {planned}")
    bad_clocks = _clock_problems(cluster)
    problems.extend(bad_clocks.values())
    failed += sum(t.num_steps for t in cluster_report.trainer_stats
                  if t.global_rank in bad_clocks)
    losses = [r.loss for r in report.epoch_records]
    if len(losses) != epochs or not all(math.isfinite(x) for x in losses):
        problems.append(f"epoch losses not finite or missing: {losses}")
        failed = attempted
    return attempted, min(failed, attempted), problems


def check_serving(report: ServingReport, cluster) -> tuple:
    """Every request completed, its latency ledger adds up, clocks reconcile."""
    attempted = int(report.num_requests)
    problems: List[str] = []
    failed = attempted - int(report.completed)
    if failed:
        problems.append(f"completed {report.completed} of {attempted} requests")
    if len(report.requests) != report.completed:
        problems.append(f"{len(report.requests)} request records for "
                        f"{report.completed} completions")
        failed = attempted
    for r in report.requests:
        parts = r.queue_wait_s + r.sample_s + r.fetch_s + r.compute_s
        if not math.isclose(r.done_s - r.arrival_s, parts, rel_tol=1e-9, abs_tol=1e-12):
            failed += 1
            if len(problems) < 5:
                problems.append(f"request {r.request}: latency {r.done_s - r.arrival_s!r} "
                                f"!= components {parts!r}")
    bad_clocks = _clock_problems(cluster)
    problems.extend(bad_clocks.values())
    failed += sum(w.requests for w in report.worker_stats if w.global_rank in bad_clocks)
    return attempted, min(failed, attempted), problems


def report_digest(report) -> str:
    """sha256 of the simulated report (``as_dict`` holds no wall-clock field)."""
    blob = json.dumps(report.as_dict(), sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


# --------------------------------------------------------------------------- #
# Metrics read from the simulated report (exact for a fixed seed).
# --------------------------------------------------------------------------- #
def sim_metrics(report, cluster) -> Dict[str, float]:
    """End-to-end simulated-clock metrics of one run."""
    if isinstance(report, ServingReport):
        sim_time_s = report.duration_s
    else:
        sim_time_s = report.critical_path_time_s
    rpc = aggregate_rpc_stats([t.rpc for t in cluster.trainers])
    return {
        "sim.time_s": float(sim_time_s),
        "sim.hit_rate": float(report.mean_hit_rate or 0.0),
        "sim.rpc_mb": rpc.bytes_fetched / 1e6,
    }


def sim_layer_metrics(report, cluster) -> Dict[str, float]:
    """Per-layer counters and simulated waiting read from the report."""
    rpc = aggregate_rpc_stats([t.rpc for t in cluster.trainers])
    tiers = report.mean_tier_hit_rates()
    out = {
        "rpc.logical_requests": float(rpc.logical_requests),
        "rpc.wire_requests": float(rpc.requests),
        "rpc.rows": float(rpc.nodes_fetched),
        "cache.hot.hit_rate": _tier_rate(tiers, "hot"),
        "cache.shared.hit_rate": _tier_rate(tiers, "shared"),
        "sim.stall_s": math.fsum(t.clock.component_time("stall") for t in cluster.trainers),
    }
    if isinstance(report, ServingReport):
        latency = report.latency_ms()
        out.update({
            "sim.barrier_wait_s": 0.0,
            "sim.queue_wait_ms.p99": report.component_ms()["queue_wait"]["p99"],
            "sim.p50_ms": latency["p50"],
            "sim.p99_ms": latency["p99"],
        })
    else:
        out.update({
            "sim.barrier_wait_s": report.total_barrier_wait_s,
            "sim.queue_wait_ms.p99": 0.0,
            "sim.p50_ms": 0.0,
            "sim.p99_ms": 0.0,
        })
    return out


def _tier_rate(tiers: Dict[str, float], tier: str) -> float:
    """Mean hit rate over every role's ``{role}.tier.{tier}`` entry (0 if none)."""
    rates = [v for k, v in tiers.items() if k.endswith(f".tier.{tier}")]
    return float(np.mean(rates)) if rates else 0.0
