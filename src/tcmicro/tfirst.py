"""t-Closeness-first pipeline: records are split into k ranked subsets by
confidential value and every cluster takes one record per subset, so closeness
holds by construction and no EMD is evaluated while clustering."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import AnonymizedTable, Table
from .emd import adjust_cluster_size, check_params, required_cluster_size
from .merge import release
from .merge import aggregate, make_report, merge_until_tclose  # bench/spans.py patches these here
from .metrics import RunReport
from .microagg import Partition, normalized_qi, seeded_partition


@dataclass
class RankedSubsets:
    """Working state for cluster construction: the k subsets of records in
    ascending confidential order, held as the rows of one block.

    Row i of `ids` holds subset i's record indices in ascending index order;
    slots already taken, and the padding of rows shorter than the block, hold
    -1. `sizes` counts each subset's records not yet taken. Non-central
    subsets start with exactly floor(n/k) records; the n mod k leftover
    records sit in the central subset(s), with a per-subset budget of extras
    still to hand out.
    """

    ids: np.ndarray
    sizes: np.ndarray
    extras: list[int]

    @property
    def k(self) -> int:
        return self.ids.shape[0]


def split_subsets(table: Table, k: int) -> RankedSubsets:
    """Split records into k subsets of floor(n/k) ascending confidential
    values, assigning the n mod k leftovers to the central subset for odd k or
    as evenly as possible to the two central subsets for even k. Requires
    n mod k <= floor(n/k), which adjust_cluster_size guarantees."""
    check_params(table.n, k)
    baseline, leftover = divmod(table.n, k)
    if leftover > baseline:
        raise ValueError(
            f"n mod k = {leftover} exceeds floor(n/k) = {baseline}; adjust the cluster size first"
        )
    extras = [0] * k
    if leftover:
        if k % 2 == 1:
            extras[(k - 1) // 2] = leftover
        else:
            upper = leftover // 2
            extras[k // 2 - 1] = leftover - upper
            extras[k // 2] = upper

    ranked = np.argsort(table.confidential_column(), kind="stable")
    sizes = baseline + np.array(extras, dtype=np.int64)
    ids = np.full((k, int(sizes.max())), -1, dtype=np.int64)
    at = 0
    for i, size in enumerate(sizes):
        ids[i, :size] = np.sort(ranked[at : at + size])
        at += size
    return RankedSubsets(ids, sizes, extras)


def build_cluster(ranked: RankedSubsets, dist: np.ndarray) -> np.ndarray:
    """Build one cluster around a seed record: the QI-nearest record from each
    subset, plus one extra from the first central subset that still has
    extras to place; ties go to the lowest record index. dist[r] is record
    r's squared QI distance to the seed, and dist[-1] is +inf for -1 slots.
    Consumes the chosen records (and extras budget) from `ranked` and returns
    the sorted members; cluster size is k or k + 1.

    One gather of dist covers the whole block; the block is compacted once
    half of its width has been taken.
    """
    extra = next((i for i, left in enumerate(ranked.extras) if left > 0), None)
    need = np.ones(ranked.k, dtype=np.int64)
    if extra is not None:
        need[extra] = 2
    short = ranked.sizes < need
    if short.any():
        raise ValueError(f"subset {short.argmax() + 1} is empty")

    d = dist[ranked.ids]
    rows = np.arange(ranked.k)
    slots = d.argmin(axis=1)
    if extra is not None:
        d[extra, slots[extra]] = np.inf
        rows = np.append(rows, extra)
        slots = np.append(slots, d[extra].argmin())
        ranked.extras[extra] -= 1
    members = ranked.ids[rows, slots]
    ranked.ids[rows, slots] = -1
    ranked.sizes -= need
    if 2 * ranked.sizes.max() <= ranked.ids.shape[1]:
        _compact(ranked)
    return np.sort(members)


def _compact(ranked: RankedSubsets) -> None:
    """Shrink the block to the longest subset, keeping each row's records
    first and in order."""
    order = np.argsort(ranked.ids < 0, axis=1, kind="stable")[:, : ranked.sizes.max()]
    ranked.ids = np.take_along_axis(ranked.ids, order, axis=1)


def run_tfirst_algorithm(
    table: Table, k: int, tau: float, seed: Optional[int] = None
) -> tuple[AnonymizedTable, Partition, RunReport]:
    """t-Closeness-first microaggregation.

    The working cluster size k' is the closeness formula size adjusted so the
    leftover records fit, records are split into k' ranked subsets, and each
    seed from seeded_partition takes one record per subset. floor(n/k')
    clusters result, each of size k' or k' + 1. When k' divides n every
    cluster's EMD is bounded by construction; otherwise the bound is
    approximate, so the merge pass enforces tau in all cases (it returns an
    already t-close partition unchanged).
    """

    def partition_step(params, ctx):
        n = table.n
        ranked = split_subsets(table, adjust_cluster_size(n, required_cluster_size(n, k, tau)))
        drec = np.full(n + 1, np.inf)  # dist by record; the last slot stays +inf

        def build(seed, ids, alive, dist):
            drec[ids] = dist
            return build_cluster(ranked, drec)

        return seeded_partition(normalized_qi(table, params), build)

    return release("tfirst", table, k, tau, seed, partition_step)
