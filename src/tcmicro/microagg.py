"""Record-space geometry, clusters and partitions, MDAV partitioning, and
centroid aggregation into an anonymized release."""

from __future__ import annotations

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


@dataclass(frozen=True)
class Partition:
    """A list of pairwise-disjoint clusters covering all n record indices."""

    clusters: tuple[Cluster, ...]
    n: int

    def __post_init__(self):
        clusters = tuple(self.clusters)
        if not clusters:
            raise ValueError("a partition needs at least one cluster")
        joined = np.concatenate([c.members for c in clusters])
        if joined.size != self.n or np.any(np.sort(joined) != np.arange(self.n)):
            raise ValueError("clusters must disjointly cover all record indices")
        object.__setattr__(self, "clusters", clusters)

    def sizes(self) -> list[int]:
        return [len(c) for c in self.clusters]

    def __len__(self) -> int:
        return len(self.clusters)


def partition_from_arrays(member_arrays, n: int) -> Partition:
    return Partition(tuple(Cluster(a) for a in member_arrays), n)


def normalized_qi(table: Table, params: NormalizationParams) -> np.ndarray:
    """QI matrix mapped into [0, 1] per attribute with the given min/max;
    degenerate attributes (min == max) map to 0."""
    return params.scaled(table.qi_matrix() - params.mins)


def sq_distances(cols: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from point to records stored
    attribute-major: cols[j] holds attribute j of every record, in any shape.

    Bit-identical to ((rows - point) ** 2).sum(axis=-1) over the same records
    stored one per row. numpy adds a contiguous row of fewer than 8 terms left
    to right, a row of 8 to 128 terms as 8 interleaved partial sums combined
    pairwise, and a longer row as two halves split at a multiple of 8; the
    terms are added here in that order, one whole attribute at a time.
    """
    return _pairwise_sum(cols, point, 0, cols.shape[0])


def _pairwise_sum(cols: np.ndarray, point: np.ndarray, lo: int, hi: int) -> np.ndarray:
    n = hi - lo
    if n > 128:
        mid = lo + n // 2 - (n // 2) % 8
        return _pairwise_sum(cols, point, lo, mid) + _pairwise_sum(cols, point, mid, hi)

    def term(j: int) -> np.ndarray:
        diff = cols[j] - point[j]
        return np.square(diff, out=diff)

    if n < 8:
        total = term(lo)
        for j in range(lo + 1, hi):
            total += term(j)
        return total
    parts = [term(lo + j) for j in range(8)]
    tail = hi - n % 8
    for i in range(lo + 8, tail, 8):
        for j in range(8):
            parts[j] += term(i + j)
    total = ((parts[0] + parts[1]) + (parts[2] + parts[3])) + (
        (parts[4] + parts[5]) + (parts[6] + parts[7])
    )
    for j in range(tail, hi):
        total += term(j)
    return total


def _record_mean(cols: np.ndarray) -> np.ndarray:
    """Mean record of an attribute-major copy, bit-identical to
    rows.mean(axis=0): numpy accumulates that mean record by record, except
    for a single attribute, whose one contiguous column it sums pairwise."""
    if cols.shape[0] == 1:
        return cols.sum(axis=1) / cols.shape[1]
    return np.cumsum(cols, axis=1)[:, -1] / cols.shape[1]


def seeded_partition(x: np.ndarray, build) -> Partition:
    """Partition the records of x with MDAV's alternating farthest-point
    seeding.

    Seeds alternate between the unassigned record farthest from the average of
    the unassigned records and the unassigned record farthest from the
    previous seed; ties break toward the lowest record index. For each seed,
    build(seed, pool, dist) returns the members of its cluster, drawn from the
    ascending array pool of unassigned records; they leave the pool, and
    seeding continues until the pool is empty. dist[i] is the squared
    distance from the seed to x[pool[i]], computed once per seed; its entries
    for the records left over give the next farthest-from-previous-seed pick,
    so build may read it but not change it.
    """
    pool = np.arange(x.shape[0])
    cols = np.ascontiguousarray(x.T)
    groups: list[np.ndarray] = []
    from_prev = None  # the previous seed's dist, when the next pick is farthest from it
    while pool.size:
        far = sq_distances(cols, _record_mean(cols)) if from_prev is None else from_prev
        seed = int(pool[np.argmax(far)])
        dist = sq_distances(cols, x[seed])
        members = build(seed, pool, dist)
        groups.append(members)
        keep = np.ones(pool.size, dtype=bool)
        keep[np.searchsorted(pool, members)] = False
        pool, cols = pool[keep], cols.compress(keep, axis=1)
        from_prev = dist[keep] if from_prev is None else None
    return partition_from_arrays(groups, x.shape[0])


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

    def build(seed: int, pool: np.ndarray, dist: np.ndarray) -> np.ndarray:
        return pool if pool.size < 2 * k else pool[_k_smallest(dist, k)]

    return seeded_partition(normalized_qi(table, params), build)


def aggregate(table: Table, partition: Partition) -> AnonymizedTable:
    """Replace each record's QI cells with its cluster centroid, leaving the
    confidential and ignored cells untouched, and record cluster ids."""
    if partition.n != table.n:
        raise ValueError("partition does not match the table size")
    rows = table.rows.copy()
    ids = np.empty(table.n, dtype=np.int64)
    qi_idx = np.array(table.qi_indices)
    for ci, cluster in enumerate(partition.clusters):
        rows[np.ix_(cluster.members, qi_idx)] = rows[np.ix_(cluster.members, qi_idx)].mean(axis=0)
        ids[cluster.members] = ci
    return AnonymizedTable(Table(table.specs, rows), ids)
