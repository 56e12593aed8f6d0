"""Named pipeline configurations and their simulated-time accounting.

The engine runs whatever :class:`~repro.sampling.pipeline.MiniBatchPipeline`
it is given; *this* module decides what the named pipelines are made of:

* ``baseline`` — DistDGL data path: halo features over plain RPC, accounted
  serially (Eq. 2, with communication stall per Eq. 9);
* ``prefetch`` — MassiveGNN data path: halo features through the scored
  prefetch buffer (Algorithms 1–2), with minibatch preparation overlapping
  DDP training (Eqs. 3–5);
* ``static-cache`` — ablation: a degree-ranked cache populated once, same
  overlap accounting as ``prefetch`` but no scoreboards or eviction;
* ``tiered-cache`` — the policy-pluggable tier stack (``repro.cache``): a
  per-trainer hot tier plus an optional machine-shared tier in front of RPC,
  with admission/eviction selected by a
  :class:`~repro.cache.config.CacheConfig` (defaults reproduce
  ``static-cache`` bit-for-bit).

Each builder assembles, per trainer, a
:class:`~repro.features.store.FeatureStore` (sources resolved by name through
:data:`repro.features.FEATURE_SOURCES`), the four chained stages, and a
*timing policy* (:data:`TIMING_POLICIES`) mapping component costs onto the
trainer's simulated clock.  Pipelines are registered in :data:`PIPELINES`,
so new strategies plug in without touching any engine — the same builders
serve the lockstep :class:`~repro.training.cluster_engine.ClusterEngine`
(and its single-run front :class:`~repro.training.engine.TrainingEngine`) and
the event-driven :class:`~repro.training.async_engine.AsyncClusterEngine`
(selected from :data:`~repro.training.engines.ENGINES`), which is what keeps
their numerics differentially testable against each other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cache.config import CacheConfig
from repro.core.config import PrefetchConfig
from repro.core.eviction import EvictionPolicy
from repro.features.sources import SourceContext, build_feature_source
from repro.features.store import FeatureStore
from repro.sampling.pipeline import (
    BatchStage,
    FetchFeatureStage,
    MiniBatchPipeline,
    SampleStage,
    SeedStage,
)
from repro.training.telemetry import StepTiming
from repro.utils.registry import Registry

if TYPE_CHECKING:  # pragma: no cover
    from repro.distributed.clock import SimClock
    from repro.distributed.cluster import SimCluster, TrainerContext


# --------------------------------------------------------------------------- #
# Timing policies: component times -> critical path and clock advances
# --------------------------------------------------------------------------- #
class SerialTimingPolicy:
    """Eq. 2: sample, fetch, then train — nothing overlaps.

    The RPC time beyond the local copy is the communication stall (Eq. 9).
    """

    name = "serial"
    overlaps_preparation = False

    def account(self, timing: StepTiming, trainer_step: int, clock: "SimClock") -> None:
        critical = timing.sampling + max(timing.rpc, timing.copy) + timing.ddp
        clock.advance(timing.sampling, "sampling")
        clock.advance(timing.copy, "copy")
        clock.advance(max(0.0, timing.rpc - timing.copy), "rpc")
        clock.advance(timing.ddp, "ddp")
        timing.prepare = 0.0
        timing.hidden = 0.0
        timing.critical_path = critical


class OverlappedTimingPolicy:
    """Eqs. 3–5: preparation of the next minibatch overlaps DDP training.

    Scoreboard maintenance overlaps the RPC fetch of missed nodes (Eq. 3);
    the very first minibatch cannot reuse a prefetched batch (Eq. 4); in
    steady state only the un-hidden part of preparation stalls the trainer
    (Eq. 5).
    """

    name = "overlapped"
    overlaps_preparation = True

    def account(self, timing: StepTiming, trainer_step: int, clock: "SimClock") -> None:
        prepare = (
            timing.sampling
            + timing.lookup
            + max(timing.scoring + timing.eviction, max(timing.rpc, timing.copy))
        )
        timing.prepare = prepare
        if trainer_step == 0:
            critical = prepare + max(prepare, timing.ddp)
        else:
            critical = max(prepare, timing.ddp)
        timing.hidden = min(prepare, timing.ddp)
        clock.advance(timing.ddp, "ddp")
        clock.advance(max(0.0, critical - timing.ddp), "stall")
        timing.critical_path = critical


TIMING_POLICIES = Registry("timing policy")
TIMING_POLICIES.register("serial", SerialTimingPolicy, aliases=("eq2", "baseline"))
TIMING_POLICIES.register("overlapped", OverlappedTimingPolicy, aliases=("eq3-5", "prefetch"))


# --------------------------------------------------------------------------- #
# Pipeline builders
# --------------------------------------------------------------------------- #
PIPELINES = Registry("pipeline")


def _assemble(
    trainer: "TrainerContext",
    store: FeatureStore,
    timing: str,
    name: str,
) -> MiniBatchPipeline:
    """The canonical four-stage chain over one trainer's loader and store.

    ``timing`` is a :data:`TIMING_POLICIES` name, so custom pipelines select
    their accounting model the same way they select feature sources.
    """
    pipeline = (
        SeedStage(trainer.dataloader.seed_iterator)
        >> SampleStage(trainer.dataloader)
        >> FetchFeatureStage(store)
        >> BatchStage()
    )
    return pipeline.configure(
        timing=TIMING_POLICIES.build(timing),
        name=name,
        feature_store=store,
        init_report=store.initialize(),
    )


def _source_context(
    trainer: "TrainerContext",
    cluster: "SimCluster",
    prefetch_config: Optional[PrefetchConfig],
    eviction_policy: Optional[EvictionPolicy],
    cache_config: Optional[CacheConfig] = None,
) -> SourceContext:
    shared_tier = None
    if cache_config is not None and cache_config.tiers >= 2:
        # One shared tier per machine, owned by the cluster so every trainer
        # on the machine composes the same instance behind its hot tier.
        shared_tier = cluster.shared_cache_tier(trainer.machine, cache_config)
    return SourceContext(
        rpc=trainer.rpc,
        partition=trainer.partition,
        num_global_nodes=cluster.dataset.num_nodes,
        book=cluster.book,
        prefetch_config=prefetch_config,
        eviction_policy=eviction_policy,
        seed=cluster.config.seed,
        cache_config=cache_config,
        shared_tier=shared_tier,
    )


@PIPELINES.register("baseline", aliases=("distdgl",))
def build_baseline_pipeline(
    trainer: "TrainerContext",
    cluster: "SimCluster",
    prefetch_config: Optional[PrefetchConfig] = None,
    eviction_policy: Optional[EvictionPolicy] = None,
    cache_config: Optional[CacheConfig] = None,
) -> MiniBatchPipeline:
    ctx = _source_context(trainer, cluster, prefetch_config, eviction_policy)
    store = FeatureStore(
        partition=trainer.partition,
        local_source=build_feature_source("local-kvstore", ctx),
        halo_source=build_feature_source("remote-rpc", ctx),
    )
    return _assemble(trainer, store, "serial", "baseline")


@PIPELINES.register("prefetch", aliases=("massivegnn",))
def build_prefetch_pipeline(
    trainer: "TrainerContext",
    cluster: "SimCluster",
    prefetch_config: Optional[PrefetchConfig] = None,
    eviction_policy: Optional[EvictionPolicy] = None,
    cache_config: Optional[CacheConfig] = None,
) -> MiniBatchPipeline:
    if prefetch_config is None:
        raise ValueError("the 'prefetch' pipeline requires a PrefetchConfig")
    ctx = _source_context(trainer, cluster, prefetch_config, eviction_policy, cache_config)
    store = FeatureStore(
        partition=trainer.partition,
        local_source=build_feature_source("local-kvstore", ctx),
        halo_source=build_feature_source(prefetch_config.halo_source, ctx),
    )
    return _assemble(trainer, store, "overlapped", "prefetch")


@PIPELINES.register("static-cache", aliases=("static",))
def build_static_cache_pipeline(
    trainer: "TrainerContext",
    cluster: "SimCluster",
    prefetch_config: Optional[PrefetchConfig] = None,
    eviction_policy: Optional[EvictionPolicy] = None,
    cache_config: Optional[CacheConfig] = None,
) -> MiniBatchPipeline:
    if prefetch_config is None:
        raise ValueError("the 'static-cache' pipeline requires a PrefetchConfig "
                         "(its halo_fraction sets the cache capacity)")
    ctx = _source_context(trainer, cluster, prefetch_config, eviction_policy)
    store = FeatureStore(
        partition=trainer.partition,
        local_source=build_feature_source("local-kvstore", ctx),
        halo_source=build_feature_source("static-cache", ctx),
    )
    return _assemble(trainer, store, "overlapped", "static-cache")


@PIPELINES.register("tiered-cache", aliases=("tiered",))
def build_tiered_cache_pipeline(
    trainer: "TrainerContext",
    cluster: "SimCluster",
    prefetch_config: Optional[PrefetchConfig] = None,
    eviction_policy: Optional[EvictionPolicy] = None,
    cache_config: Optional[CacheConfig] = None,
) -> MiniBatchPipeline:
    """Halo features through the tiered cache stack (see ``repro.cache``).

    ``prefetch_config.halo_fraction`` still sets the trainer's row budget (so
    tiered runs are memory-comparable with ``prefetch``/``static-cache``);
    the :class:`CacheConfig` decides how that budget is split across tiers
    and which admission/eviction policies govern them.
    """
    if prefetch_config is None:
        raise ValueError("the 'tiered-cache' pipeline requires a PrefetchConfig "
                         "(its halo_fraction sets the cache budget)")
    ctx = _source_context(trainer, cluster, prefetch_config, eviction_policy, cache_config)
    store = FeatureStore(
        partition=trainer.partition,
        local_source=build_feature_source("local-kvstore", ctx),
        halo_source=build_feature_source("tiered-cache", ctx),
    )
    return _assemble(trainer, store, "overlapped", "tiered-cache")


def build_pipeline(
    name: str,
    trainer: "TrainerContext",
    cluster: "SimCluster",
    prefetch_config: Optional[PrefetchConfig] = None,
    eviction_policy: Optional[EvictionPolicy] = None,
    cache_config: Optional[CacheConfig] = None,
) -> MiniBatchPipeline:
    """Build the named pipeline for one trainer (see :data:`PIPELINES`)."""
    return PIPELINES.build(
        name,
        trainer,
        cluster,
        prefetch_config=prefetch_config,
        eviction_policy=eviction_policy,
        cache_config=cache_config,
    )
