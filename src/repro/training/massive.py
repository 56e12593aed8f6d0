"""MassiveGNN (prefetch + eviction) distributed training entry points.

Thin shims over the pipeline API: ``train_massive`` runs the registered
``"prefetch"`` pipeline, ``train_with_pipeline`` runs any registered pipeline
by name, and ``compare_baseline_and_prefetch`` runs ``"baseline"`` and
``"prefetch"`` on one shared cluster.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.config import PrefetchConfig
from repro.core.eviction import EvictionPolicy
from repro.distributed.cluster import ClusterConfig, SimCluster
from repro.distributed.cost_model import CostModel
from repro.graph.datasets import GraphDataset
from repro.training.config import TrainConfig
from repro.training.engine import TrainingEngine
from repro.training.telemetry import TrainingReport


def train_with_pipeline(
    dataset: GraphDataset,
    pipeline: str = "baseline",
    prefetch_config: Optional[PrefetchConfig] = None,
    cluster_config: Optional[ClusterConfig] = None,
    train_config: Optional[TrainConfig] = None,
    cost_model: Optional[CostModel] = None,
    cluster: Optional[SimCluster] = None,
    eviction_policy: Optional[EvictionPolicy] = None,
) -> TrainingReport:
    """Train a GNN with any pipeline registered in
    :data:`repro.training.pipelines.PIPELINES` (``"baseline"``, ``"prefetch"``,
    ``"static-cache"``, ...)."""
    cluster_config = cluster_config or ClusterConfig()
    train_config = train_config or TrainConfig()
    if cluster is None:
        cluster = SimCluster(dataset, cluster_config, cost_model=cost_model)
    engine = TrainingEngine(cluster, train_config)
    return engine.run_pipeline(
        pipeline, prefetch_config=prefetch_config, eviction_policy=eviction_policy
    )


def train_massive(
    dataset: GraphDataset,
    prefetch_config: Optional[PrefetchConfig] = None,
    cluster_config: Optional[ClusterConfig] = None,
    train_config: Optional[TrainConfig] = None,
    cost_model: Optional[CostModel] = None,
    cluster: Optional[SimCluster] = None,
    eviction_policy: Optional[EvictionPolicy] = None,
) -> TrainingReport:
    """Train a GNN with MassiveGNN's continuous prefetch-and-eviction scheme."""
    return train_with_pipeline(
        dataset,
        pipeline="prefetch",
        prefetch_config=prefetch_config or PrefetchConfig(),
        cluster_config=cluster_config,
        train_config=train_config,
        cost_model=cost_model,
        cluster=cluster,
        eviction_policy=eviction_policy,
    )


def compare_baseline_and_prefetch(
    dataset: GraphDataset,
    prefetch_config: Optional[PrefetchConfig] = None,
    cluster_config: Optional[ClusterConfig] = None,
    train_config: Optional[TrainConfig] = None,
    cost_model: Optional[CostModel] = None,
) -> Tuple[TrainingReport, TrainingReport]:
    """Run both pipelines on the *same* cluster and return (baseline, prefetch).

    Sharing the cluster guarantees both runs see identical partitions and seed
    assignments, which is how the paper's Fig. 6 comparison is constructed.
    """
    cluster = SimCluster(dataset, cluster_config or ClusterConfig(), cost_model=cost_model)
    baseline_report = train_with_pipeline(
        dataset, "baseline", train_config=train_config, cluster=cluster
    )
    prefetch_report = train_with_pipeline(
        dataset,
        "prefetch",
        prefetch_config=prefetch_config or PrefetchConfig(),
        train_config=train_config,
        cluster=cluster,
    )
    return baseline_report, prefetch_report
