"""Segment operations and initializers for the NumPy GNN layers.

GNN message passing over sampled blocks reduces edge messages onto destination
nodes.  These helpers implement the segment reductions (sum / mean / softmax)
and their backward passes on top of :func:`scatter_add`, a vectorized scatter
that is byte-identical to ``np.add.at`` but batches the adds by occurrence
rank, which keeps the layer code free of Python-level edge loops.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.utils.rng import SeedLike, ensure_rng


# --------------------------------------------------------------------------- #
# Initializers
# --------------------------------------------------------------------------- #
def xavier_uniform(shape: Tuple[int, ...], seed: SeedLike = None) -> np.ndarray:
    """Glorot/Xavier uniform initialization."""
    rng = ensure_rng(seed)
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


# --------------------------------------------------------------------------- #
# Scatter
# --------------------------------------------------------------------------- #
#: :func:`scatter_add` defers to ``ufunc.at`` below this many value elements,
#: for rows narrower than ``SCATTER_MIN_ROW`` elements, and for the rank rounds
#: that move fewer than ``SCATTER_MIN_ROUND`` elements.  Measured on a 2-core
#: Xeon VM (NumPy 2.4, float32, about ten entries per row): ``np.add.at`` on
#: rows of width ``w`` costs about 15 + 10w ns per index; a rank round about
#: 4 us plus 55 + 2w ns per index; grouping the index 50-90 us per call.  So
#: rounds win only for ``w`` of about 6 and up, a round must move roughly
#: 500 (w = 100) to 1400 (w = 8) elements to pay its fixed cost, and at
#: w = 16 the whole call breaks even near 16k elements (10k: 200 vs 290 us;
#: 41k: 760 vs 470 us).
SCATTER_FLOOR = 16384
SCATTER_MIN_ROW = 8
SCATTER_MIN_ROUND = 1024


def scatter_add(
    out: np.ndarray, index: np.ndarray, values: np.ndarray, op: np.ufunc = np.add
) -> np.ndarray:
    """``op.at(out, index, values)`` in place, batched by occurrence rank.

    The entries of *values* are grouped by destination row (a stable sort,
    skipped when *index* is already non-decreasing, as every sampler's
    ``edge_dst`` is), groups are ordered largest first, and round ``k``
    applies each row's ``k``-th entry to every row that has one in a single
    ``out[rows] = op(out[rows], ...)``.  Once a round would move fewer than
    :data:`SCATTER_MIN_ROUND` elements (the few hub rows left), one
    ``op.at`` call applies the remaining entries row by row.  Every row thus
    sees the same float operations in the same order as under ``op.at``,
    starting from its current value, so the result is byte-identical,
    ``-0.0``, ``inf`` and ``nan`` included.  (``np.add.reduceat`` is not
    byte-identical: it sums in a pairwise, unrolled order.)

    Small or narrow calls, and any *index* other than a 1-D array of
    non-negative integers or a dtype cast, go straight to ``op.at``; see
    :data:`SCATTER_FLOOR`.  Returns *out*.
    """
    values = np.asarray(values)
    width = math.prod(out.shape[1:])
    if (
        not isinstance(index, np.ndarray)
        or index.ndim != 1
        or index.dtype.kind not in "iu"
        or len(index) == 0
        or values.size < SCATTER_FLOOR
        or width < SCATTER_MIN_ROW
        or values.dtype != out.dtype
        or index.min() < 0
    ):
        op.at(out, index, values)
        return out
    n = len(index)
    values = np.broadcast_to(values, (n,) + out.shape[1:])
    order = None
    if np.any(index[1:] < index[:-1]):
        order = np.argsort(index, kind="stable")
        index = index[order]
    starts = np.flatnonzero(np.concatenate(([True], index[1:] != index[:-1])))
    sizes = np.diff(np.append(starts, n))
    by_size = np.argsort(-sizes)
    starts, sizes, rows = starts[by_size], sizes[by_size], index[starts[by_size]]
    # Round k touches the groups with more than k entries: a prefix, as the
    # groups are ordered largest first.
    active = np.searchsorted(-sizes, -np.arange(sizes[0]), side="left")
    for k, m in enumerate(active.tolist()):
        if m * width < SCATTER_MIN_ROUND:
            left = sizes[:m] - k
            offsets = np.repeat(starts[:m] + k - (np.cumsum(left) - left), left)
            take = offsets + np.arange(len(offsets))
            op.at(out, np.repeat(rows[:m], left), values[take if order is None else order[take]])
            break
        take = starts[:m] + k
        dst = rows[:m]
        out[dst] = op(out[dst], values[take if order is None else order[take]])
    return out


# --------------------------------------------------------------------------- #
# Segment reductions
# --------------------------------------------------------------------------- #
def segment_sum(values: np.ndarray, segment_ids: np.ndarray, num_segments: int) -> np.ndarray:
    """Sum *values* rows into *num_segments* buckets given by *segment_ids*."""
    out_shape = (num_segments,) + values.shape[1:]
    out = np.zeros(out_shape, dtype=values.dtype)
    return scatter_add(out, segment_ids, values)


def segment_count(segment_ids: np.ndarray, num_segments: int) -> np.ndarray:
    """Number of entries per segment."""
    return np.bincount(segment_ids, minlength=num_segments).astype(np.int64)


def segment_mean(values: np.ndarray, segment_ids: np.ndarray, num_segments: int) -> np.ndarray:
    """Mean of *values* per segment; empty segments yield zero rows."""
    sums = segment_sum(values, segment_ids, num_segments)
    counts = segment_count(segment_ids, num_segments).astype(values.dtype)
    counts = np.maximum(counts, 1)
    return sums / counts.reshape((-1,) + (1,) * (values.ndim - 1))


def segment_mean_backward(
    grad_out: np.ndarray, segment_ids: np.ndarray, num_segments: int
) -> np.ndarray:
    """Backward of :func:`segment_mean`: distribute gradient / count to each entry."""
    counts = segment_count(segment_ids, num_segments).astype(grad_out.dtype)
    counts = np.maximum(counts, 1)
    scaled = grad_out / counts.reshape((-1,) + (1,) * (grad_out.ndim - 1))
    return scaled[segment_ids]


def segment_softmax(
    scores: np.ndarray, segment_ids: np.ndarray, num_segments: int
) -> np.ndarray:
    """Numerically stable softmax of *scores* within each segment.

    ``scores`` has shape ``(num_edges, ...)``; the softmax normalizes over all
    edges sharing a segment id, independently per trailing dimension.
    """
    if len(scores) == 0:
        return scores.copy()
    seg_max = np.full((num_segments,) + scores.shape[1:], -np.inf, dtype=scores.dtype)
    scatter_add(seg_max, segment_ids, scores, np.maximum)
    shifted = scores - seg_max[segment_ids]
    exp = np.exp(shifted)
    denom = segment_sum(exp, segment_ids, num_segments)
    denom = np.maximum(denom, np.finfo(scores.dtype).tiny)
    return exp / denom[segment_ids]


def segment_softmax_backward(
    grad_alpha: np.ndarray,
    alpha: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int,
) -> np.ndarray:
    """Backward of :func:`segment_softmax`.

    ``d_score = alpha * (d_alpha - sum_seg(alpha * d_alpha))``.
    """
    weighted = alpha * grad_alpha
    seg_dot = segment_sum(weighted, segment_ids, num_segments)
    return alpha * (grad_alpha - seg_dot[segment_ids])


# --------------------------------------------------------------------------- #
# Activations
# --------------------------------------------------------------------------- #
def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(grad: np.ndarray, pre_activation: np.ndarray) -> np.ndarray:
    return grad * (pre_activation > 0)


def leaky_relu(x: np.ndarray, slope: float = 0.2) -> np.ndarray:
    return np.where(x > 0, x, slope * x)


def leaky_relu_backward(grad: np.ndarray, pre_activation: np.ndarray, slope: float = 0.2) -> np.ndarray:
    return grad * np.where(pre_activation > 0, 1.0, slope)


def identity(x: np.ndarray) -> np.ndarray:
    return x


ACTIVATIONS = {
    "relu": (relu, relu_backward),
    "none": (identity, lambda grad, pre: grad),
}
