"""Baseline (DistDGL-style) distributed training entry point.

A thin shim over the pipeline API: ``train_baseline(...)`` is exactly
``train_with_pipeline(dataset, "baseline", ...)``.
"""

from __future__ import annotations

from typing import Optional

from repro.distributed.cluster import ClusterConfig, SimCluster
from repro.distributed.cost_model import CostModel
from repro.graph.datasets import GraphDataset
from repro.training.config import TrainConfig
from repro.training.massive import train_with_pipeline
from repro.training.telemetry import TrainingReport


def train_baseline(
    dataset: GraphDataset,
    cluster_config: Optional[ClusterConfig] = None,
    train_config: Optional[TrainConfig] = None,
    cost_model: Optional[CostModel] = None,
    cluster: Optional[SimCluster] = None,
) -> TrainingReport:
    """Train a GNN with the baseline DistDGL data path (no prefetching).

    Either pass an existing ``cluster`` (so the baseline and the prefetch run
    share partitions and seed assignments) or let this function build one from
    ``cluster_config``.
    """
    return train_with_pipeline(
        dataset,
        "baseline",
        cluster_config=cluster_config,
        train_config=train_config,
        cost_model=cost_model,
        cluster=cluster,
    )
