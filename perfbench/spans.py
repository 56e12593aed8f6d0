"""Per-layer wall-clock spans, recorded from outside the simulator.

:class:`Tracer` wraps the public entry points of each ``repro`` layer (see
:data:`SPANS`) for the duration of a ``with`` block and restores the original
attributes on exit, so ``src/`` carries no instrumentation.  A span records
its call count and *self* time: its duration minus the time its child spans
cover.  The self times of all spans therefore add up to the wall time the
outermost spans cover, which is what ``trace.coverage`` checks.

Module-level functions are wrapped in every ``repro`` module that binds them
(``from x import f`` copies the reference), and methods on the defining class
and on every subclass that overrides them.  A span entered while the same
span is innermost (an override calling ``super()``) is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

TRAIN = frozenset({"train-prefetch", "train-cache-churn"})
ALL = TRAIN | {"serve-steady"}


@dataclass(frozen=True)
class Span:
    """One traced layer boundary.

    ``targets`` are ``"module:function"`` or ``"module:Class.method"``.
    ``counter`` (optional) maps the call's positional ``args`` (``self``
    first for methods) and its ``result`` to a work count that is summed
    under ``count_name``.  ``fires_on`` names the workloads that must
    call it; on the others its call count must be 0 (checked by the
    benchmark's self-test).
    """

    name: str
    targets: Tuple[str, ...]
    fires_on: FrozenSet[str]
    count_name: Optional[str] = None
    counter: Optional[Callable] = None


SPANS: Tuple[Span, ...] = (
    Span("graph.build", ("repro.graph.datasets:load_dataset",), ALL),
    Span("graph.partition", ("repro.graph.partition:partition_graph",), ALL),
    Span("distributed.cluster", ("repro.distributed.cluster:SimCluster.__init__",), ALL),
    Span("sampling", ("repro.sampling.dataloader:DistDataLoader.sample",), ALL,
         "sampling.edges", lambda args, result: result.total_edges()),
    Span("nn.forward", ("repro.nn.graphsage:GraphSAGE.forward",), ALL),
    Span("nn.backward", ("repro.nn.graphsage:GraphSAGE.backward",), TRAIN),
    Span("nn.optim", ("repro.nn.optim:SGD.step", "repro.nn.optim:Adam.step"), TRAIN),
    Span("cache.lookup", ("repro.cache.tier:CacheTier.lookup",),
         frozenset({"train-cache-churn", "serve-steady"})),
    Span("cache.admit", ("repro.cache.tier:CacheTier.admit",),
         frozenset({"train-cache-churn", "serve-steady"}), "cache.admit.rows",
         lambda args, result: len(args[1])),
    Span("cache.stack", ("repro.cache.stack:TieredFeatureCache.fetch",),
         frozenset({"train-cache-churn", "serve-steady"})),
    Span("core.prefetch", ("repro.core.prefetcher:Prefetcher.process_minibatch",),
         frozenset({"train-prefetch"})),
    Span("core.init", ("repro.core.prefetcher:Prefetcher.initialize",),
         frozenset({"train-prefetch"})),
    Span("features.fetch", ("repro.features.store:FeatureStore.fetch_minibatch",), ALL,
         "features.rows", lambda args, result: len(result[0])),
    Span("distributed.rpc", ("repro.distributed.rpc:RPCChannel.remote_pull",), ALL),
    Span("distributed.local", ("repro.distributed.rpc:RPCChannel.local_pull",), ALL),
    Span("distributed.allreduce", ("repro.distributed.ddp:allreduce_gradients",), TRAIN),
    Span("events.push", ("repro.events.loop:EventLoop.push",), frozenset({"serve-steady"})),
    Span("events.pop", ("repro.events.loop:EventLoop.pop",), frozenset({"serve-steady"})),
    Span("training.engine", ("repro.training.cluster_engine:ClusterEngine.run",
                             "repro.training.async_engine:AsyncClusterEngine.run"), TRAIN),
    Span("training.report", ("repro.training.engine:assemble_training_report",
                             "repro.training.cluster_engine:collect_trainer_stats"), TRAIN),
    Span("serving.engine", ("repro.serving.engine:InferenceClusterEngine.run",),
         frozenset({"serve-steady"})),
    Span("utils.validate", ("repro.utils.validation:check_1d_int_array",), ALL),
)

SPAN_NAMES = tuple(s.name for s in SPANS)
COUNT_NAMES = tuple(s.count_name for s in SPANS if s.count_name)


class Tracer:
    """Aggregated span recorder; install the wrappers with ``with tracer:``.

    ``calls[name]`` and ``self_ns[name]`` hold each span's call count and
    self time in nanoseconds; ``counts[count_name]`` the summed work counts.
    """

    def __init__(self, spans: Tuple[Span, ...] = SPANS):
        self.spans = spans
        self.calls: Dict[str, int] = {s.name: 0 for s in spans}
        self.self_ns: Dict[str, int] = {s.name: 0 for s in spans}
        self.counts: Dict[str, int] = {s.count_name: 0 for s in spans if s.count_name}
        # Open spans, innermost last: [name, ns covered by child spans].
        self._stack: List[list] = []
        # (owner, attribute, original value) for every installed wrapper.
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def _wrap(self, span: Span, fn: Callable) -> Callable:
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == span.name:
                return fn(*args, **kwargs)
            frame = [span.name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.calls[span.name] += 1
                self.self_ns[span.name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if span.counter is not None:
                self.counts[span.count_name] += int(span.counter(args, result))
            return result

        return traced

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _install(self, span: Span, target: str) -> None:
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        if "." in qualname:
            class_name, method = qualname.split(".")
            for cls in _with_subclasses(getattr(module, class_name)):
                fn = cls.__dict__.get(method)
                if fn is None:
                    continue
                if not callable(fn) or isinstance(fn, (staticmethod, classmethod)):
                    raise TypeError(f"{cls.__name__}.{method} is not a plain method")
                self._patch(cls, method, self._wrap(span, fn))
            return
        original = getattr(module, qualname)
        wrapper = self._wrap(span, original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if (name == "repro" or name.startswith("repro.")) and \
                    getattr(mod, qualname, None) is original:
                self._patch(mod, qualname, wrapper)

    def __enter__(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer is already installed")
        try:
            for span in self.spans:
                for target in span.targets:
                    self._install(span, target)
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._uninstall()

    def _uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> List[Tuple[object, str, object]]:
        """The (owner, attribute, original) triples currently patched."""
        return list(self._patched)

    # ------------------------------------------------------------------ #
    def total_self_s(self) -> float:
        """Sum of every span's self time: the wall time the spans cover."""
        return sum(self.self_ns.values()) / 1e9


def _with_subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in out:
            out.append(c)
            todo.extend(c.__subclasses__())
    return out
