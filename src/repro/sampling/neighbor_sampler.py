"""Fan-out neighbor sampling (DGL ``NeighborSampler`` analog).

Given seed nodes and a per-layer fan-out list (the paper uses ``{10, 25}`` for
a 2-layer GraphSAGE), the sampler walks the partition's *local* graph structure
outward layer by layer, uniformly sampling at most ``fanout`` neighbors per
node without replacement.  Halo nodes are legitimate sampling targets (their
structure is present locally) but have no outgoing edges in the local CSR, so
the frontier naturally truncates at the partition boundary — the same
behaviour as DistDGL's local sampling with halo nodes.

The sampler is deliberately stochastic and stateless across minibatches: this
non-determinism is exactly why a static cache is insufficient and a scored
prefetch buffer (the paper's contribution) is needed.

Each capped node (more than ``fanout`` neighbors) draws a *partial
Fisher–Yates* shuffle: it consumes exactly ``fanout`` uniform doubles, swap
round *i* exchanging positions ``i`` and ``i + floor(u_i * (deg - i))`` of its
neighbor list.  :class:`NeighborSampler` runs those rounds vectorized across
every capped node of a layer off **one** batched ``rng.random`` call;
:class:`LoopNeighborSampler` is its per-node reference twin.  Because NumPy
generators consume the stream sequentially, the two produce identical blocks,
edge indices, and RNG-stream consumption (pinned by
``tests/test_sampler_differential.py``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.halo import GraphPartition
from repro.sampling.block import Block, MiniBatch
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_1d_int_array


def _finalize_layer(
    dst: np.ndarray,
    sampled_src: np.ndarray,
    edge_dst: np.ndarray,
    pos_scratch: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map sampled neighbors onto frontier rows; shared by both samplers.

    ``pos_scratch`` is a reusable ``num_nodes``-sized array filled with ``-1``
    (restored before returning) giving O(1) node-id -> frontier-row lookups,
    replacing the former sort-based ``setdiff1d``/``searchsorted`` mapping
    with identical results.

    ``dst`` must be unique: the mapping resolves each sampled endpoint to
    *one* row, so a duplicated dst entry would silently attach every edge to
    an arbitrary occurrence and drop the others'.
    :meth:`NeighborSampler.sample` guarantees uniqueness by deduplicating the
    seeds at entry; direct callers get a loud error instead of lost edges.
    """
    rows = np.arange(len(dst), dtype=np.int64)
    pos_scratch[dst] = rows
    if not np.array_equal(pos_scratch[dst], rows):
        pos_scratch[dst] = -1
        raise ValueError(
            "dst contains duplicate nodes; deduplicate the frontier before "
            "sampling (sample() does this for seed batches) — a duplicated "
            "dst row cannot be distinguished by the edge-index mapping"
        )
    # Frontier nodes not already in dst, sorted ascending (deduplicated), are
    # appended after dst — same layout as the former setdiff1d construction.
    mapped = pos_scratch[sampled_src]
    new_mask = mapped < 0
    candidates = sampled_src[new_mask]
    if len(pos_scratch) <= 16 * len(candidates):
        # Dense regime (frontier comparable to the graph): idempotent scratch
        # marking + one linear scan beats hashing the much larger edge array.
        pos_scratch[candidates] = -2
        unique_new = np.nonzero(pos_scratch == -2)[0]
    else:
        # Sparse regime (big graph, small batch): stay bounded by the sampled
        # endpoints instead of scanning every node.  Same sorted-unique result.
        unique_new = np.unique(candidates)
    pos_scratch[unique_new] = len(dst) + np.arange(len(unique_new), dtype=np.int64)
    edge_src = mapped
    edge_src[new_mask] = pos_scratch[candidates]
    pos_scratch[dst] = -1
    pos_scratch[unique_new] = -1
    return unique_new, edge_src.astype(np.int64, copy=False), edge_dst.astype(np.int64, copy=False)


class NeighborSampler:
    """Layer-wise uniform neighbor sampler over a local (partition) graph.

    Nodes are bucketed by degree: take-all nodes (``deg <= fanout`` or
    ``fanout == -1``) are gathered by CSR slicing with no RNG at all, and all
    capped nodes share **one** ``rng.random(fanout * num_capped)`` draw (in
    dst order); the ``fanout`` swap rounds of the partial Fisher–Yates
    shuffle then run vectorized across every capped node at once.  Work per
    capped node is ``O(deg)`` for the initial gather plus ``O(fanout)`` for
    the swaps — no per-neighbor sort.

    Parameters
    ----------
    graph:
        CSR structure to sample from.  When sampling for a distributed trainer
        this is ``partition.local_graph`` (local id space).
    fanouts:
        Neighbors to sample per layer, listed from the layer closest to the
        seeds outward (the paper's ``{10, 25}`` means 10 neighbors at layer 1
        and 25 at layer 2).  ``-1`` keeps the full neighborhood.
    seed:
        RNG seed; each trainer uses an independent stream.
    """

    def __init__(self, graph: CSRGraph, fanouts: Sequence[int], seed: SeedLike = None):
        if not fanouts:
            raise ValueError("fanouts must contain at least one layer")
        for f in fanouts:
            if f == 0 or f < -1:
                raise ValueError(f"fanout must be positive or -1 (full), got {f}")
        self.graph = graph
        self.fanouts = [int(f) for f in fanouts]
        self.rng = ensure_rng(seed)
        # Node-id -> frontier-row scratch for _finalize_layer (kept at -1
        # between calls); one per sampler, so concurrent trainers never share.
        self._pos_scratch = np.full(graph.num_nodes, -1, dtype=np.int64)

    @property
    def num_layers(self) -> int:
        return len(self.fanouts)

    # ------------------------------------------------------------------ #
    def sample(
        self,
        seeds: np.ndarray,
        local_to_global: Optional[np.ndarray] = None,
        step: int = 0,
        labels: Optional[np.ndarray] = None,
    ) -> MiniBatch:
        """Sample a minibatch for *seeds* (given in the graph's id space).

        ``local_to_global`` translates sampler ids to global ids for the
        distributed data path; identity is assumed when omitted (single-machine
        sampling over the full graph).
        """
        seeds = check_1d_int_array(seeds, "seeds", max_value=self.graph.num_nodes, allow_empty=False)
        if local_to_global is None:
            local_to_global = np.arange(self.graph.num_nodes, dtype=np.int64)

        blocks: List[Block] = []
        # Repeated seeds in a batch are deduplicated here: each node's sampled
        # neighborhood and label appear once, and every layer's dst frontier is
        # unique — the invariant the edge-index mapping in _finalize_layer
        # depends on (duplicates there would silently drop edges).
        seed_nodes = np.unique(seeds)
        dst = seed_nodes
        # Sample from the innermost layer (closest to seeds) outward; blocks are
        # then reversed so blocks[0] is the outermost (input) layer.
        for fanout in self.fanouts:
            src_extra, edge_src, edge_dst = self._sample_one_layer(dst, fanout)
            src = np.concatenate([dst, src_extra])
            blocks.append(
                Block(
                    src_nodes=src,
                    dst_nodes=dst,
                    edge_src=edge_src,
                    edge_dst=edge_dst,
                    src_global=local_to_global[src],
                    dst_global=local_to_global[dst],
                )
            )
            dst = src
        blocks.reverse()

        input_local = blocks[0].src_nodes
        batch_labels = (
            labels[local_to_global[seed_nodes]]
            if labels is not None
            else np.zeros(0, dtype=np.int64)
        )
        return MiniBatch(
            seeds_global=local_to_global[seed_nodes],
            blocks=blocks,
            input_local=input_local,
            input_global=local_to_global[input_local],
            labels=batch_labels,
            step=step,
        )

    # ------------------------------------------------------------------ #
    def _sample_one_layer(self, dst: np.ndarray, fanout: int):
        """Sample up to *fanout* in-neighbors for every node in *dst*.

        Returns ``(new_src_nodes, edge_src_index, edge_dst_index)`` where the
        edge indices refer to positions in ``concat([dst, new_src_nodes])`` and
        ``dst`` respectively.
        """
        indptr, indices = self.graph.indptr, self.graph.indices
        n = len(dst)
        starts = indptr[dst]
        degs = indptr[dst + 1] - starts

        if fanout == -1:
            cap_mask = np.zeros(n, dtype=bool)
            counts = degs
        else:
            cap_mask = degs > fanout
            counts = np.where(cap_mask, fanout, degs)
        total = int(counts.sum())
        edge_dst = np.repeat(np.arange(n, dtype=np.int64), counts)
        sampled_src = np.empty(total, dtype=np.int64)
        out_first = np.cumsum(counts) - counts  # first output slot per dst row

        take_pos = np.nonzero(~cap_mask & (degs > 0))[0]
        if len(take_pos):
            tc = degs[take_pos]
            within = np.arange(int(tc.sum()), dtype=np.int64) - np.repeat(np.cumsum(tc) - tc, tc)
            flat = np.repeat(starts[take_pos], tc) + within
            slots = np.repeat(out_first[take_pos], tc) + within
            sampled_src[slots] = indices[flat]

        cap_pos = np.nonzero(cap_mask)[0]
        if len(cap_pos):
            num_capped = len(cap_pos)
            cc = degs[cap_pos]
            cap_first = np.cumsum(cc) - cc
            within = np.arange(int(cc.sum()), dtype=np.int64) - np.repeat(cap_first, cc)
            flat = np.repeat(starts[cap_pos], cc) + within
            buf = indices[flat]  # mutable concatenated neighbor lists, dst order
            # The single batched draw: sequential stream consumption makes this
            # equal to LoopNeighborSampler's concatenated per-node draws.
            u = self.rng.random(fanout * num_capped).reshape(num_capped, fanout)
            arange_fanout = np.arange(fanout, dtype=np.int64)
            for r in range(fanout):
                # Swap round r for every capped node at once.  Each node's
                # (pi, pj) pair lies inside its own segment, so the fancy
                # assignments never collide across nodes.
                j = r + (u[:, r] * (cc - r)).astype(np.int64)
                pi = cap_first + r
                pj = cap_first + j
                tmp = buf[pi].copy()
                buf[pi] = buf[pj]
                buf[pj] = tmp
            sel = np.repeat(cap_first, fanout) + np.tile(arange_fanout, num_capped)
            slots = np.repeat(out_first[cap_pos], fanout) + np.tile(arange_fanout, num_capped)
            sampled_src[slots] = buf[sel]

        return _finalize_layer(dst, sampled_src, edge_dst, self._pos_scratch)


class LoopNeighborSampler(NeighborSampler):
    """Per-node reference twin of :class:`NeighborSampler`.

    Capped nodes are drawn one at a time, in dst order: each consumes
    ``rng.random(fanout)`` and runs the swap rounds of the partial
    Fisher–Yates shuffle in a Python loop.  Output and RNG-stream consumption
    are bit-identical to :class:`NeighborSampler` on the same seed; this
    class exists as its differential oracle and as the benchmark baseline.
    """

    def _sample_one_layer(self, dst: np.ndarray, fanout: int):
        indptr, indices = self.graph.indptr, self.graph.indices
        starts = indptr[dst]
        degs = indptr[dst + 1] - starts
        counts = degs if fanout == -1 else np.minimum(degs, fanout)
        sampled_src_chunks: List[np.ndarray] = []
        for start, deg in zip(starts.tolist(), degs.tolist()):
            if deg == 0:
                continue
            neigh = indices[start : start + deg]
            if fanout == -1 or deg <= fanout:
                sampled_src_chunks.append(neigh)
                continue
            u = self.rng.random(fanout)
            arr = neigh.copy()
            for r in range(fanout):
                j = r + int(u[r] * (deg - r))
                arr[r], arr[j] = arr[j], arr[r]
            sampled_src_chunks.append(arr[:fanout])

        if sampled_src_chunks:
            sampled_src = np.concatenate(sampled_src_chunks).astype(np.int64, copy=False)
        else:
            sampled_src = np.zeros(0, dtype=np.int64)
        edge_dst = np.repeat(np.arange(len(dst), dtype=np.int64), counts)
        return _finalize_layer(dst, sampled_src, edge_dst, self._pos_scratch)


def sample_for_partition(
    partition: GraphPartition,
    sampler: NeighborSampler,
    seeds_local: np.ndarray,
    step: int = 0,
    labels: Optional[np.ndarray] = None,
) -> MiniBatch:
    """Convenience wrapper: sample on a partition's local graph with global-id mapping."""
    return sampler.sample(
        seeds_local, local_to_global=partition.local_to_global, step=step, labels=labels
    )


def split_local_halo(partition: GraphPartition, minibatch: MiniBatch):
    """Split a minibatch's input nodes into locally owned vs. halo global ids.

    Returns
    -------
    (local_global_ids, halo_global_ids, local_rows, halo_rows):
        Global ids plus the corresponding row positions in the minibatch's
        input feature matrix, so callers can scatter fetched features into the
        right rows.
    """
    is_halo = partition.is_halo_local_id(minibatch.input_local)
    local_rows = np.nonzero(~is_halo)[0].astype(np.int64)
    halo_rows = np.nonzero(is_halo)[0].astype(np.int64)
    return (
        minibatch.input_global[local_rows],
        minibatch.input_global[halo_rows],
        local_rows,
        halo_rows,
    )
