"""Self-test of the benchmark's span wrappers and correctness checks.

Each workload runs at a tiny scale, traced.  Every span must fire on exactly
the workloads :data:`perfbench.spans.SPANS` says exercise it (a renamed method
or a missed subclass override shows up here), the wrappers must be gone after
the traced run, and tracing must not change the simulated report.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench.run import END_TO_END, per_layer_units
from perfbench.spans import SPANS, Span, Tracer
from perfbench.workloads import WORKLOADS, check_serving, check_training, report_digest
from repro.serving.report import ServingReport


def _tiny(workload: str):
    scenario = WORKLOADS[workload]()
    if scenario.serving is not None:
        return scenario.with_overrides(serving=replace(scenario.serving, num_requests=64))
    return scenario.with_overrides(scale=0.05, epochs=1)


def _run(workload: str):
    materialized = _tiny(workload).materialize(0)
    return materialized.run(), materialized.cluster


def _check(report, cluster):
    if isinstance(report, ServingReport):
        return check_serving(report, cluster)
    return check_training(report, cluster)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_spans_fire_where_predicted_and_tracing_leaves_no_trace(workload):
    untraced, _ = _run(workload)
    tracer = Tracer()
    with tracer:
        installed = tracer.installed
        traced, cluster = _run(workload)

    assert installed
    for owner, attr, original in installed:
        assert getattr(owner, attr) is original, f"{owner}.{attr} still wrapped"
    assert not tracer.installed

    for span in SPANS:
        fired = tracer.calls[span.name] > 0
        assert fired == (workload in span.fires_on), (
            f"span {span.name} fired={fired} on {workload}"
        )
    assert report_digest(traced) == report_digest(untraced)
    attempted, failed, problems = _check(traced, cluster)
    assert attempted > 0 and failed == 0, problems


@pytest.mark.parametrize("workload", ["train-prefetch", "serve-steady"])
def test_checks_count_a_broken_clock_ledger_as_failed(workload):
    report, cluster = _run(workload)
    clock = cluster.trainers[0].clock
    clock.time += 1e-3
    attempted, failed, problems = _check(report, cluster)
    assert 0 < failed <= attempted
    assert any("ledger" in p for p in problems)


def test_training_check_fails_every_step_on_a_non_finite_loss():
    report, cluster = _run("train-prefetch")
    report.report.epoch_records[-1].loss = math.nan
    attempted, failed, _ = _check(report, cluster)
    assert failed == attempted


def test_serving_check_counts_requests_whose_latency_ledger_breaks():
    report, cluster = _run("serve-steady")
    report.requests[3].compute_s += 1e-3
    _, failed, problems = _check(report, cluster)
    assert failed == 1
    assert "request 3" in problems[0]


class _Base:
    def work(self, n):
        return n


class _Sub(_Base):
    def work(self, n):
        return super().work(n) + 1


def test_an_override_calling_super_is_one_span_call():
    originals = (_Base.__dict__["work"], _Sub.__dict__["work"])
    tracer = Tracer((Span("toy", (f"{__name__}:_Base.work",), frozenset()),))
    with tracer:
        assert _Sub().work(1) == 2
        assert _Base().work(1) == 1
    assert tracer.calls["toy"] == 2
    assert (_Base.__dict__["work"], _Sub.__dict__["work"]) == originals


def test_benchmark_json_lists_exactly_the_metrics_the_runner_prints():
    bench = json.loads((Path(__file__).parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == per_layer_units()
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
