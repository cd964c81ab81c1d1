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
    qi = table.qi_matrix()
    spans = params.spans
    out = np.zeros_like(qi)
    ok = spans > 0
    out[:, ok] = (qi[:, ok] - params.mins[ok]) / spans[ok]
    return out


def centroid(table: Table, cluster: Cluster) -> np.ndarray:
    """Per-QI arithmetic mean of a cluster, in original units."""
    if len(cluster) == 0:
        raise ValueError("cluster is empty")
    return table.qi_matrix()[cluster.members].mean(axis=0)


def _farthest(x: np.ndarray, pool: np.ndarray, point: np.ndarray) -> int:
    d = ((x[pool] - point) ** 2).sum(axis=1)
    return int(pool[int(np.argmax(d))])


def seeded_partition(x: np.ndarray, build) -> Partition:
    """Partition the records of x with MDAV's alternating farthest-point
    seeding.

    Seeds alternate between the unassigned record farthest from the average of
    the unassigned records and the unassigned record farthest from the
    previous seed; ties break toward the lowest record index. For each seed,
    build(seed, pool) returns the members of its cluster, drawn from the
    ascending array pool of unassigned records; they leave the pool, and
    seeding continues until the pool is empty.
    """
    alive = np.ones(x.shape[0], dtype=bool)
    groups: list[np.ndarray] = []
    prev = None
    while alive.any():
        pool = np.flatnonzero(alive)
        anchor = x[pool].mean(axis=0) if prev is None else x[prev]
        seed = _farthest(x, pool, anchor)
        members = build(seed, pool)
        alive[members] = False
        groups.append(members)
        prev = seed if prev is None else None
    return partition_from_arrays(groups, x.shape[0])


def mdav_partition(table: Table, params: NormalizationParams, k: int) -> Partition:
    """Fixed-size MDAV microaggregation partition.

    Each seed from seeded_partition takes its k nearest unassigned records,
    ties toward the lowest record index, while at least 2k records remain;
    below 2k, all remaining records form the last cluster. The result is
    deterministic, and every cluster size lies in [k, 2k-1].
    """
    check_params(table.n, k)
    x = normalized_qi(table, params)

    def build(seed: int, pool: np.ndarray) -> np.ndarray:
        if pool.size < 2 * k:
            return pool
        d = ((x[pool] - x[seed]) ** 2).sum(axis=1)
        return np.sort(pool[np.argsort(d, kind="stable")[:k]])

    return seeded_partition(x, build)


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
