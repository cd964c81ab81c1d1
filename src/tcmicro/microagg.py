"""Record-space geometry, clusters and partitions, MDAV partitioning, and
centroid aggregation into an anonymized release."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import AnonymizedTable, NormalizationParams, Table
from .emd import check_params


@dataclass(frozen=True)
class Cluster:
    """A nonempty, duplicate-free set of record indices, stored sorted."""

    members: np.ndarray

    def __post_init__(self):
        members = np.sort(np.asarray(self.members, dtype=np.int64))
        if members.size == 0:
            raise ValueError("a cluster must contain at least one record")
        if np.any(np.diff(members) == 0):
            raise ValueError("cluster members must be distinct record indices")
        members.setflags(write=False)
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return int(self.members.size)


class Partition:
    """Disjoint, nonempty clusters covering the records 0..n-1 as two read-only
    int64 arrays: order lists the records cluster by cluster, ascending within
    each, and cluster i starts at order[starts[i]] (the last ends at n).
    Partition(groups) takes each cluster's record indices, in any order."""

    def __init__(self, groups):
        sizes = np.array([len(g) for g in groups], dtype=np.int64)
        if not sizes.size:
            raise ValueError("a partition needs at least one cluster")
        if not sizes.all():
            raise ValueError("a cluster must contain at least one record")
        order = np.concatenate(groups).astype(np.int64, copy=False)
        if order.min() < 0 or order.max() >= order.size or np.bincount(order).max() > 1:
            raise ValueError("clusters must disjointly cover all record indices")
        # one in-place sort by (cluster, index): record j of cluster i sorts as i * n + j
        order += np.repeat(np.arange(sizes.size) * order.size, sizes)
        order.sort()
        order %= order.size
        self.order, self.starts, self.n = order, np.cumsum(sizes) - sizes, order.size
        self.order.setflags(write=False)
        self.starts.setflags(write=False)

    def sizes(self) -> list[int]:
        return np.diff(self.starts, append=self.n).tolist()

    def __len__(self) -> int:
        return self.starts.size

    @property
    def clusters(self) -> tuple[Cluster, ...]:
        """One Cluster per cluster, built on each access (for bench/)."""
        return tuple(Cluster(g) for g in np.split(self.order, self.starts[1:]))


def normalized_qi(table: Table, params: NormalizationParams) -> np.ndarray:
    """QI matrix mapped into [0, 1] per attribute with the given min/max;
    degenerate attributes (min == max) map to 0. A QI whose range max - min
    overflows float64 is rejected, since its values would map to nan."""
    x = params.scaled(table.qi_matrix() - params.mins)
    if not np.isfinite(x).all():
        raise ValueError("a QI's range (max - min) overflows float64; rescale that column")
    return x


def sq_distances(cols: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from point to records stored
    attribute-major: cols[j] holds attribute j of every record, in any shape.
    The terms (cols[j] - point[j]) ** 2 are added left to right, attribute 0
    first; below 8 attributes that is numpy's ((rows - point) ** 2).sum(-1)
    over the same records stored one per row, bit for bit."""
    diff = cols[0] - point[0]
    total = np.square(diff, out=diff)
    for j in range(1, cols.shape[0]):
        diff = cols[j] - point[j]
        total += np.square(diff, out=diff)
        del diff  # so only total is alive when the next term is made
    return total


# every finite float64 is an integer multiple of 2**-_SCALE: frexp's 53-bit
# integer mantissa of the smallest subnormal, 2**-1074, carries the exponent
# -1126, and no float's carries a lower one
_SCALE = 1126
# one key per (attribute, mantissa exponent): the exponents span
# -_SCALE..971, shifted here to 0.._SHIFTS - 1
_SHIFTS = 2098
_HALF = 26
_MANTISSA = float(1 << 53)
# a block of at most this many values is summed value by value in Python
# ints, a larger one grouped by exponent in numpy: on a 2-core Xeon VM
# (Python 3.11, numpy 2.4) the two cost about the same, 30 us, near 80 values
_LOOP_VALUES = 64
_BLOCK_ROWS = 4096


def _exact_sums(rows: np.ndarray, labels: np.ndarray | None = None) -> list[list[int]]:
    """Each group's exact column sums over rows, times 2**_SCALE, as Python
    ints: sums[g][j] for the rows labelled g, or sums[0] for all rows when
    labels is None.

    A value is a 53-bit integer mantissa times a power of two. In numpy, a
    block of rows at a time, the mantissas sharing a group, a column and an
    exponent are summed in int64, in two halves of at most 27 bits so that no
    sum of fewer than 2**36 of them overflows, and only those group sums are
    shifted into Python ints. A block sorts its values by key, so rows passed
    grouped by label keep each block to a few groups."""
    q = rows.shape[1]
    if labels is None and rows.size <= _LOOP_VALUES:
        sums = [0] * q
        for j, col in enumerate(rows.T.tolist()):
            for v in col:
                frac, exp = math.frexp(v)
                sums[j] += int(frac * _MANTISSA) << (exp + _SCALE - 53)
        return [sums]
    sums = [[0] * q for _ in range(1 if labels is None else int(labels.max()) + 1)]
    for i in range(0, rows.shape[0], _BLOCK_ROWS):
        frac, exp = np.frexp(rows[i : i + _BLOCK_ROWS])
        exp += _SCALE - 53 + _SHIFTS * np.arange(q)
        mant = (frac * _MANTISSA).astype(np.int64).ravel()
        keys = exp.ravel()
        if labels is not None:
            keys = keys + _SHIFTS * q * labels[i : i + _BLOCK_ROWS].repeat(q)
        order = keys.argsort()
        keys, mant = keys.take(order), mant.take(order)
        starts = np.flatnonzero(keys[1:] != keys[:-1])
        starts = np.concatenate(([0], starts + 1))
        high = np.add.reduceat(mant >> _HALF, starts).tolist()
        low = np.add.reduceat(mant & ((1 << _HALF) - 1), starts).tolist()
        for key, h, lo in zip(keys.take(starts).tolist(), high, low):
            group, key = divmod(key, _SHIFTS * q)
            col, shift = divmod(key, _SHIFTS)
            sums[group][col] += ((h << _HALF) + lo) << shift
    return sums


def _exact_mean(sums: list[int], size: int) -> np.ndarray:
    """The exact mean of size values from their sums, rounded once (Python's
    int / int is correctly rounded)."""
    unit = size << _SCALE
    return np.array([s / unit for s in sums])


class _PoolMean:
    """Mean record of the rows of x still in a shrinking pool: each attribute's
    sum is held exactly, in units of 2**-_SCALE, so each mean is the correctly
    rounded quotient of two integers. Rows that leave through remove are
    subtracted at the next mean, all at once."""

    def __init__(self, x: np.ndarray):
        self._x = x
        self._sums = _exact_sums(x)[0]
        self._size = x.shape[0]
        self._gone: list[np.ndarray] = []

    def remove(self, rows: np.ndarray) -> None:
        self._gone.append(rows)

    def mean(self) -> np.ndarray:
        if self._gone:
            gone = np.concatenate(self._gone)
            self._gone.clear()
            self._size -= gone.size
            self._sums = [s - g for s, g in zip(self._sums, _exact_sums(self._x[gone])[0])]
        return _exact_mean(self._sums, self._size)


# the working width is compacted once 1/_DEAD_SHARE of its slots are dead
_DEAD_SHARE = 8


def seeded_partition(x: np.ndarray, build) -> Partition:
    """Partition the records of x with MDAV's alternating farthest-point
    seeding.

    Seeds alternate between the unassigned record farthest from the average of
    the unassigned records (each attribute's exact mean, correctly rounded)
    and the unassigned record farthest from the previous seed; ties break
    toward the lowest record index. For each seed, build(seed, ids, alive,
    dist) returns the members of its cluster, drawn from the unassigned
    records; they leave the pool, and seeding continues until the pool is
    empty. ids is an ascending array of record indices, alive marks its
    unassigned slots, and dist[i] is the squared distance from the seed to
    x[ids[i]], +inf where alive is False; build may read them during the
    call but not change them.

    The slots hold an attribute-major copy of their records' QI rows, which
    read +inf once the record is assigned, so every distance row is +inf
    there too. Dead slots read -inf in the farthest-point picks, so no
    record is gathered per cluster; the slots are compacted only once
    1/_DEAD_SHARE of them are dead. A seed's row is computed once and also
    gives the next farthest-from-previous-seed pick.
    """
    ids = np.arange(x.shape[0])
    cols = x.T.copy()  # attribute-major, and never a view of x
    alive = np.ones(ids.size, dtype=bool)
    dead, gone = np.empty_like(ids), 0  # dead[:gone]: the dead slots
    pool = _PoolMean(x)
    groups: list[np.ndarray] = []
    from_prev = None  # the previous seed's row, when the next pick is farthest from it
    while gone < ids.size:
        far = from_prev
        if far is None:
            far = sq_distances(cols, pool.mean())
            far[dead[:gone]] = -np.inf
        seed = int(ids[far.argmax()])
        dist = sq_distances(cols, x[seed])
        members = build(seed, ids, alive, dist)
        groups.append(members)
        pool.remove(members)
        slots = ids.searchsorted(members)
        alive[slots] = False
        cols[:, slots] = np.inf
        dead[gone : gone + slots.size] = slots
        gone += slots.size
        if from_prev is None:
            from_prev = dist
            from_prev[dead[:gone]] = -np.inf
        else:
            from_prev = None
        if gone < ids.size and _DEAD_SHARE * gone >= ids.size:
            ids, cols = ids[alive], cols.compress(alive, axis=1)
            if from_prev is not None:
                from_prev = from_prev[alive]
            alive, gone = np.ones(ids.size, dtype=bool), 0
    return Partition(groups)


def _k_smallest(d: np.ndarray, k: int) -> np.ndarray:
    """Mask of the k smallest entries of d, ties at the k-th value toward the
    lowest position: the first k entries of a stable argsort."""
    kth = np.partition(d, k - 1)[k - 1]
    mask = d < kth
    tied = np.flatnonzero(d == kth)
    mask[tied[: k - np.count_nonzero(mask)]] = True
    return mask


def mdav_partition(table: Table, params: NormalizationParams, k: int) -> Partition:
    """Fixed-size MDAV microaggregation partition.

    Each seed from seeded_partition takes its k nearest unassigned records,
    ties toward the lowest record index, while at least 2k records remain;
    below 2k, all remaining records form the last cluster. The result is
    deterministic, and every cluster size lies in [k, 2k-1].
    """
    check_params(table.n, k)

    def build(seed: int, ids: np.ndarray, alive: np.ndarray, dist: np.ndarray) -> np.ndarray:
        if np.count_nonzero(alive) < 2 * k:
            return ids[alive]
        return ids[_k_smallest(dist, k)]

    return seeded_partition(normalized_qi(table, params), build)


def aggregate(table: Table, partition: Partition) -> AnonymizedTable:
    """Replace each record's QI cells with its cluster centroid, the exact
    mean of the cluster's QI rows rounded once, leaving the confidential and
    ignored cells untouched, and record cluster ids."""
    if partition.n != table.n:
        raise ValueError("partition does not match the table size")
    order, sizes = partition.order, partition.sizes()
    labels = np.repeat(np.arange(len(sizes)), sizes)
    sums = _exact_sums(table.rows[np.ix_(order, table.qi_indices)], labels)
    means = np.array([_exact_mean(s, size) for s, size in zip(sums, sizes)])
    ids = np.empty(table.n, dtype=np.int64)
    ids[order] = labels
    rows = table.rows.copy()
    rows[:, table.qi_indices] = means[ids]
    return AnonymizedTable(Table(table.specs, rows), ids)
