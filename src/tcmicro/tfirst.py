"""t-Closeness-first pipeline: records are split into k ranked subsets by
confidential value and every cluster takes one record per subset, so closeness
holds by construction and no EMD is evaluated while clustering."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import AnonymizedTable, Table, minmax_params
from .emd import TableEmd, adjust_cluster_size, check_params, required_cluster_size
from .merge import merge_until_tclose
from .metrics import RunReport, make_report
from .microagg import Partition, aggregate, normalized_qi, seeded_partition


@dataclass
class RankedSubsets:
    """Working state for cluster construction: k subsets of record indices in
    ascending confidential order. Non-central subsets hold exactly `baseline`
    records; the n mod k leftover records sit in the central subset(s), with
    a per-subset budget of extras still to hand out."""

    subsets: list[np.ndarray]
    baseline: int
    extras: list[int]

    @property
    def k(self) -> int:
        return len(self.subsets)


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
    subsets = []
    at = 0
    for i in range(k):
        size = baseline + extras[i]
        subsets.append(ranked[at : at + size])
        at += size
    return RankedSubsets(subsets, baseline, extras)


def _take_nearest(subset: np.ndarray, x: np.ndarray, seed_point: np.ndarray):
    """QI-nearest record in the subset, ties toward the lowest record index;
    returns the record and the subset without it."""
    d = ((x[subset] - seed_point) ** 2).sum(axis=1)
    tied = subset[d == d.min()]
    pick = int(tied.min())
    pos = int(np.flatnonzero(subset == pick)[0])
    return pick, np.delete(subset, pos)


def build_cluster(seed: int, ranked: RankedSubsets, x: np.ndarray) -> np.ndarray:
    """Build one cluster around a seed record: the QI-nearest record (rows of
    the normalized QI matrix x) from each subset, plus one extra from the
    first central subset that still has extras to place. Consumes the chosen
    records (and extras budget) from `ranked` and returns the sorted members;
    cluster size is k or k + 1."""
    seed_point = x[seed]
    members = []
    extra_taken = False
    for i in range(ranked.k):
        if ranked.subsets[i].size == 0:
            raise ValueError(f"subset {i + 1} is empty")
        pick, rest = _take_nearest(ranked.subsets[i], x, seed_point)
        members.append(pick)
        ranked.subsets[i] = rest
        if not extra_taken and ranked.extras[i] > 0:
            if rest.size == 0:
                raise ValueError(f"subset {i + 1} is empty")
            pick, rest = _take_nearest(rest, x, seed_point)
            members.append(pick)
            ranked.subsets[i] = rest
            ranked.extras[i] -= 1
            extra_taken = True
    return np.sort(np.array(members, dtype=np.int64))


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
    n = table.n
    check_params(n, k, tau)
    start = time.perf_counter()
    params, ctx = minmax_params(table), TableEmd(table)
    ranked = split_subsets(table, adjust_cluster_size(n, required_cluster_size(n, k, tau)))
    x = normalized_qi(table, params)
    partition = seeded_partition(x, lambda seed, pool: build_cluster(seed, ranked, x))
    partition = merge_until_tclose(table, partition, tau, params, ctx)
    anonymized = aggregate(table, partition)
    runtime_ms = (time.perf_counter() - start) * 1000.0
    report = make_report(
        "tfirst", table, params, ctx, partition, anonymized, k, tau, runtime_ms, seed
    )
    return anonymized, partition, report
