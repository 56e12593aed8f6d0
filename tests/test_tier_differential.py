"""Differential test: slot-slab CacheTier vs. a copy-based reference tier.

:class:`CopyingCacheTier` below keeps the storage ``CacheTier`` used before it
moved to a slot-addressed slab: every resident array, the feature rows
included, is kept in sorted-id order and rebuilt with ``np.insert`` /
``np.delete`` on each admit and eviction.  Seeded random sequences of
lookup/admit/resize/snapshot/restore/invalidate drive both tiers side by
side under every eviction policy and the interesting admission policies,
and every observable — hit masks, served rows, victim order, admitted and
evicted counts, stats, ``nbytes()``, snapshots and the scored ledger — must
match exactly.  The slab tier's own invariants are checked after every
operation.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

import numpy as np
import pytest

from repro.cache import CACHE_EVICTION_POLICIES, CacheTier

DIM = 3
NUM_IDS = 48
ADMISSIONS = ("always", "degree-weighted", "scored", "static-degree")


class CopyingCacheTier(CacheTier):
    """Reference tier: all resident arrays, rows included, in sorted-id order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._clear_copies()

    def _clear_copies(self) -> None:
        self._ids = np.zeros(0, dtype=np.int64)
        self._rows = np.zeros((0, self.feature_dim), dtype=np.float32)
        self._last_access = np.zeros(0, dtype=np.int64)
        self._freq = np.zeros(0, dtype=np.int64)
        self._ref = np.zeros(0, dtype=bool)
        self._degrees = np.zeros(0, dtype=np.int64)

    def nbytes(self) -> int:
        scorer_bytes = self.scorer.nbytes() if self.scorer is not None else 0
        return int(
            self._rows.nbytes + self._ids.nbytes + self._last_access.nbytes
            + self._freq.nbytes + self._ref.nbytes + self._degrees.nbytes
            + scorer_bytes
        )

    def lookup(self, global_ids, step):
        global_ids = np.asarray(global_ids, dtype=np.int64)
        self.stats.lookups += int(len(global_ids))
        self.last_step = max(self.last_step, int(step))
        if self.size == 0 or len(global_ids) == 0:
            self.stats.misses += int(len(global_ids))
            if self.scorer is not None and len(global_ids):
                self.scorer.observe(global_ids, step, np.zeros(len(global_ids), dtype=bool))
            return (np.zeros(len(global_ids), dtype=bool),
                    np.zeros((0, self.feature_dim), dtype=np.float32))
        idx = np.minimum(np.searchsorted(self._ids, global_ids), self.size - 1)
        hit_mask = self._ids[idx] == global_ids
        hit_idx = idx[hit_mask]
        self.stats.hits += int(hit_mask.sum())
        self.stats.misses += int((~hit_mask).sum())
        if len(hit_idx):
            self._last_access[hit_idx] = step
            np.add.at(self._freq, hit_idx, 1)
            self._ref[hit_idx] = True
        if self.scorer is not None:
            self.scorer.observe(global_ids, step, hit_mask)
        return hit_mask, self._rows[hit_idx]

    def contains(self, global_ids):
        global_ids = np.asarray(global_ids, dtype=np.int64)
        if self.size == 0 or len(global_ids) == 0:
            return np.zeros(len(global_ids), dtype=bool)
        idx = np.minimum(np.searchsorted(self._ids, global_ids), self.size - 1)
        return self._ids[idx] == global_ids

    def seed(self, global_ids, rows, step=0):
        global_ids = np.asarray(global_ids, dtype=np.int64)
        order = np.argsort(global_ids, kind="stable")
        self._ids = global_ids[order].copy()
        self._rows = np.asarray(rows, dtype=np.float32)[order].copy()
        self._last_access = np.full(self.size, step, dtype=np.int64)
        self._freq = np.zeros(self.size, dtype=np.int64)
        self._ref = np.ones(self.size, dtype=bool)
        self._degrees = self._degrees_for(self._ids)

    def admit(self, global_ids, rows, step):
        global_ids = np.asarray(global_ids, dtype=np.int64)
        if len(global_ids) == 0:
            return 0
        self.last_step = max(self.last_step, int(step))
        rows = np.asarray(rows, dtype=np.float32)
        unique_ids, first = np.unique(global_ids, return_index=True)
        if len(unique_ids) != len(global_ids):
            global_ids, rows = unique_ids, rows[first]
        fresh = ~self.contains(global_ids)
        global_ids, rows = global_ids[fresh], rows[fresh]
        if len(global_ids) == 0 or self.capacity == 0:
            self.stats.rejections += int(len(global_ids))
            return 0
        degrees = self._degrees_for(global_ids)
        mask = self.admission.admit(self, global_ids, degrees)
        self.stats.rejections += int((~mask).sum())
        admitted, rows, degrees = global_ids[mask], rows[mask], degrees[mask]
        if len(admitted) == 0:
            return 0
        overflow = self.size + len(admitted) - self.capacity
        if overflow > 0:
            victims = self.eviction.select(self, overflow)
            if len(victims):
                self._remove(victims)
                self.stats.evictions += int(len(victims))
            room = self.capacity - self.size
            if room < len(admitted):
                keep = np.sort(np.argsort(-degrees, kind="stable")[:room])
                self.stats.rejections += int(len(admitted) - len(keep))
                admitted, rows, degrees = admitted[keep], rows[keep], degrees[keep]
        if len(admitted) == 0:
            return 0
        self._insert(admitted, rows, degrees, step)
        self.stats.admissions += int(len(admitted))
        return int(len(admitted))

    def invalidate(self):
        dropped = self.size
        self._clear_copies()
        self.clock_hand = 0
        self.stats.evictions += dropped
        return dropped

    def snapshot(self):
        return {
            "capacity": self.capacity, "clock_hand": self.clock_hand,
            "last_step": self.last_step, "ids": self._ids.copy(),
            "rows": self._rows.copy(), "last_access": self._last_access.copy(),
            "freq": self._freq.copy(), "ref": self._ref.copy(),
            "degrees": self._degrees.copy(), "stats": self.stats.snapshot(),
        }

    def restore(self, state):
        self.capacity = int(state["capacity"])
        self.clock_hand = int(state["clock_hand"])
        self.last_step = int(state["last_step"])
        for key in ("ids", "rows", "last_access", "freq", "ref", "degrees"):
            setattr(self, f"_{key}", state[key].copy())
        self.stats = state["stats"].snapshot()

    def resize(self, new_capacity, step=0):
        new_capacity = int(new_capacity)
        evicted = 0
        if self.size > new_capacity:
            overflow = self.size - new_capacity
            victims = self.eviction.select(self, overflow)
            if len(victims) < overflow:
                remaining = np.setdiff1d(
                    np.arange(self.size, dtype=np.int64), victims, assume_unique=False
                )
                order = np.argsort(self._degrees[remaining], kind="stable")
                extra = remaining[order[: overflow - len(victims)]]
                victims = np.concatenate([victims, extra])
            self._remove(np.unique(victims)[:overflow] if len(victims) > overflow
                         else np.unique(victims))
            evicted = overflow
            self.stats.evictions += overflow
        self.capacity = new_capacity
        return evicted

    def _remove(self, indices):
        self._ids = np.delete(self._ids, indices)
        self._rows = np.delete(self._rows, indices, axis=0)
        self._last_access = np.delete(self._last_access, indices)
        self._freq = np.delete(self._freq, indices)
        self._ref = np.delete(self._ref, indices)
        self._degrees = np.delete(self._degrees, indices)
        self.clock_hand = self.clock_hand % self.size if self.size else 0

    def _insert(self, global_ids, rows, degrees, step):
        order = np.argsort(global_ids, kind="stable")
        global_ids, rows, degrees = global_ids[order], rows[order], degrees[order]
        at = np.searchsorted(self._ids, global_ids)
        self._ids = np.insert(self._ids, at, global_ids)
        self._rows = np.insert(self._rows, at, rows, axis=0)
        self._last_access = np.insert(self._last_access, at, step)
        self._freq = np.insert(self._freq, at, 0)
        self._ref = np.insert(self._ref, at, True)
        self._degrees = np.insert(self._degrees, at, degrees)


# --------------------------------------------------------------------------- #
def record_victims(tier: CacheTier) -> List[np.ndarray]:
    """Log every victim array the tier's eviction policy returns, in order."""
    log: List[np.ndarray] = []
    select = tier.eviction.select

    def recording(owner, num_victims):
        victims = select(owner, num_victims)
        log.append(np.asarray(victims).copy())
        return victims

    tier.eviction.select = recording
    return log


def check_invariants(tier: CacheTier) -> None:
    ids = tier.resident_ids
    assert np.all(np.diff(ids) > 0), "resident ids must be strictly increasing"
    assert tier.size <= tier.capacity
    assert tier.stats.hits + tier.stats.misses == tier.stats.lookups
    # Every slot is either occupied by exactly one index entry or free.
    occupied = tier._slots
    free = tier._free[:tier.capacity - tier.size]
    assert len(occupied) == tier.size
    assert sorted(np.concatenate([occupied, free]).tolist()) == list(range(tier.capacity))


def assert_same_state(slab: CacheTier, ref: CopyingCacheTier) -> None:
    assert slab.stats.as_dict() == ref.stats.as_dict()
    assert slab.nbytes() == ref.nbytes()
    assert slab.summary() == ref.summary()
    mine, theirs = slab.snapshot(), ref.snapshot()
    for key in ("capacity", "clock_hand", "last_step"):
        assert mine[key] == theirs[key], key
    for key in ("ids", "rows", "last_access", "freq", "ref", "degrees"):
        np.testing.assert_array_equal(mine[key], theirs[key], err_msg=key)
        assert mine[key].dtype == theirs[key].dtype, key
    assert [r.as_tuple() for r in slab.ledger] == [r.as_tuple() for r in ref.ledger]


def random_ids(rng: np.random.Generator, kind: str) -> np.ndarray:
    count = int(rng.integers(0, 9))
    if kind == "miss-path":  # the stack offers np.unique output
        return np.unique(rng.integers(0, NUM_IDS, size=count))
    return rng.integers(0, NUM_IDS, size=count).astype(np.int64)  # request order, repeats


def drive(eviction: str, admission: str, seed: int, num_ops: int = 80) -> Counter:
    """Run one seeded sequence on both tiers; returns what it exercised."""
    rng = np.random.default_rng(seed)
    server = rng.standard_normal((NUM_IDS, DIM)).astype(np.float32)
    degree_table = rng.integers(1, 6, size=NUM_IDS)

    def degree_of(ids):
        return degree_table[ids]

    capacity = int(rng.integers(0, 10))
    kwargs = dict(admission=admission, eviction=eviction, degree_of=degree_of,
                  record_decisions=True)
    slab = CacheTier("hot", capacity, DIM, **kwargs)
    ref = CopyingCacheTier("hot", capacity, DIM, **kwargs)
    slab_victims, ref_victims = record_victims(slab), record_victims(ref)

    if capacity and rng.random() < 0.5:
        ids = rng.choice(NUM_IDS, size=int(rng.integers(1, capacity + 1)), replace=False)
        slab.seed(ids, server[ids])
        ref.seed(ids, server[ids])

    snapshots: List[Dict[str, Dict[str, object]]] = []
    done: Counter = Counter()
    for step in range(num_ops):
        op = rng.choice(["lookup", "admit", "admit", "promote", "resize",
                         "snapshot", "restore", "invalidate"],
                        p=[0.3, 0.2, 0.15, 0.15, 0.08, 0.05, 0.04, 0.03])
        if op == "lookup":
            ids = random_ids(rng, "request")
            (mask_a, rows_a), (mask_b, rows_b) = slab.lookup(ids, step), ref.lookup(ids, step)
            np.testing.assert_array_equal(mask_a, mask_b)
            np.testing.assert_array_equal(rows_a, rows_b)
            np.testing.assert_array_equal(rows_a, server[ids[mask_a]])
        elif op in ("admit", "promote"):
            ids = random_ids(rng, "miss-path" if op == "admit" else "request")
            assert slab.admit(ids, server[ids], step) == ref.admit(ids, server[ids], step)
        elif op == "resize":
            new_capacity = int(rng.integers(0, 12))
            assert slab.resize(new_capacity, step) == ref.resize(new_capacity, step)
        elif op == "snapshot":
            snapshots.append({"slab": slab.snapshot(), "ref": ref.snapshot()})
        elif op == "restore" and snapshots:
            pick = snapshots[int(rng.integers(len(snapshots)))]
            slab.restore(pick["slab"])
            ref.restore(pick["ref"])
            done["restore"] += 1
        elif op == "invalidate":
            assert slab.invalidate() == ref.invalidate()
        check_invariants(slab)
        assert_same_state(slab, ref)
        assert len(slab_victims) == len(ref_victims)
        for mine, theirs in zip(slab_victims, ref_victims):
            np.testing.assert_array_equal(mine, theirs)
        done[op] += 1
    done["evictions"] = slab.stats.evictions
    done["hits"] = slab.stats.hits
    return done


@pytest.mark.parametrize("admission", ADMISSIONS)
@pytest.mark.parametrize("eviction", CACHE_EVICTION_POLICIES.names())
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_slab_tier_matches_copying_reference(eviction, admission, seed):
    drive(eviction, admission, seed)


def test_sequences_exercise_every_operation():
    # Guard against a vacuous differential: the sequences must really churn.
    done = sum((drive("lru", "always", seed) for seed in range(3)), Counter())
    for key in ("lookup", "admit", "promote", "resize", "snapshot", "restore",
                "invalidate", "evictions", "hits"):
        assert done[key] > 0, key
