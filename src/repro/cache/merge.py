"""Merging new ids into a sorted id index, shared by the tier and the scorer.

Both :class:`~repro.cache.tier.CacheTier` and
:class:`~repro.cache.scoring.PrefetchScorer` keep parallel arrays ordered by
a sorted id array.  Adding ids computes the merged positions once with
:func:`merge_positions` and rebuilds each parallel array from them with
:func:`merged`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def merge_positions(index_ids: np.ndarray, new_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Where strictly increasing *new_ids*, absent from sorted *index_ids*, land.

    Returns ``(at, old)``: ``at`` holds each new id's position in the merged
    index (its rank among the existing ids plus the new ids before it), and
    ``old`` masks the merged positions the existing entries keep.
    """
    at = np.searchsorted(index_ids, new_ids) + np.arange(len(new_ids))
    old = np.ones(len(index_ids) + len(new_ids), dtype=bool)
    old[at] = False
    return at, old


def merged(current: np.ndarray, at: np.ndarray, old: np.ndarray, new) -> np.ndarray:
    """*current* spread over the ``old`` positions, with *new* written at ``at``."""
    out = np.empty(len(old), dtype=current.dtype)
    out[old] = current
    out[at] = new
    return out
