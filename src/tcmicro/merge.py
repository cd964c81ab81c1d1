"""Microaggregate-then-merge pipeline: standard MDAV microaggregation followed
by merging of clusters until every cluster is t-close."""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

from .dataset import AnonymizedTable, NormalizationParams, Table, minmax_params
from .emd import TableEmd, check_params
from .metrics import RunReport, make_report
from .microagg import (
    Partition, _exact_mean, _exact_sums, aggregate, mdav_partition, normalized_qi, sq_distances,
)


def merge_until_tclose(
    table: Table,
    partition: Partition,
    tau: float,
    params: NormalizationParams,
    ctx: TableEmd,
) -> Partition:
    """Repeatedly merge the cluster with the greatest EMD to the table into
    its QI-nearest neighbor (centroid to centroid, normalized space) until
    every cluster's EMD is at most tau.

    Always terminates: in the worst case all clusters collapse into one, whose
    EMD is exactly 0. A partition that already satisfies tau is returned
    unchanged. Ties break toward the lower cluster index; the merged cluster
    keeps the lower of the two slots.

    Every EMD is TableEmd's exact integer formula, so two clusters of equal
    EMD tie bit for bit. One partition_emds call gives the initial EMDs; a
    merge costs one cluster_emd of the merged cluster, O(s log n) for s
    records, one argmax that is also the tau test, one distance pass over
    the attribute-major centroids and an O(q) centroid from exact sums.
    """
    if not tau >= 0:
        raise ValueError("tau must be nonnegative")
    if partition.n != table.n:
        raise ValueError("partition does not match the table size")

    emds = ctx.partition_emds(partition.order, partition.starts)
    worst = int(np.argmax(emds))
    if emds[worst] <= tau:
        return partition

    # One slot per input cluster, in input order. A slot merged away is dead:
    # its EMD is -inf and its centroid +inf, hence its distance too, so argmax
    # and argmin still pick the lowest live slot among ties, as if the dead
    # slots had been deleted. cols[j] holds attribute j of every centroid,
    # each the exact mean of the slot's rows rounded once (see _exact_sums).
    # A merged slot's records stay unsorted until the final Partition.
    groups = np.split(partition.order, partition.starts[1:])
    labels = np.repeat(np.arange(len(groups)), partition.sizes())
    sums = _exact_sums(normalized_qi(table, params)[partition.order], labels)
    cols = np.array([_exact_mean(s, g.size) for s, g in zip(sums, groups)]).T.copy()

    while emds[worst] > tau:
        dists = sq_distances(cols, cols[:, worst])
        dists[worst] = np.inf
        other = int(np.argmin(dists))
        lo, hi = sorted((worst, other))
        groups[lo], groups[hi] = np.concatenate([groups[lo], groups[hi]]), None
        sums[lo], sums[hi] = [a + b for a, b in zip(sums[lo], sums[hi])], None
        cols[:, lo], cols[:, hi] = _exact_mean(sums[lo], groups[lo].size), np.inf
        emds[lo], emds[hi] = ctx.cluster_emd(groups[lo]), -np.inf
        worst = int(np.argmax(emds))

    return Partition([g for g in groups if g is not None])


def release(
    algorithm: str, table: Table, k: int, tau: float, seed: Optional[int],
    partition_step: Callable[[NormalizationParams, TableEmd], Partition],
) -> tuple[AnonymizedTable, Partition, RunReport]:
    """The release every pipeline shares: check the parameters, build the
    normalization and the confidential-rank context once, take the partition
    from partition_step(params, ctx), merge until t-close, aggregate and
    report. The reported runtime covers everything but the parameter check
    and the report itself."""
    check_params(table.n, k, tau)
    start = time.perf_counter()
    params, ctx = minmax_params(table), TableEmd(table)
    partition = merge_until_tclose(table, partition_step(params, ctx), tau, params, ctx)
    anonymized = aggregate(table, partition)
    runtime_ms = (time.perf_counter() - start) * 1000.0
    report = make_report(
        algorithm, table, params, ctx, partition, anonymized, k, tau, runtime_ms, seed
    )
    return anonymized, partition, report


def run_merge_algorithm(
    table: Table, k: int, tau: float, seed: Optional[int] = None
) -> tuple[AnonymizedTable, Partition, RunReport]:
    """MDAV partition, merge until t-close, aggregate. The output satisfies
    k-anonymity at level k and t-closeness at tau."""
    return release(
        "merge", table, k, tau, seed, lambda params, ctx: mdav_partition(table, params, k)
    )
