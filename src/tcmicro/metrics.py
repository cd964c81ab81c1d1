"""Independent verifiers and information-loss metrics: normalized SSE,
k-anonymity and t-closeness checks, cluster-size statistics and the run
report."""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from .dataset import AnonymizedTable, NormalizationParams, Table
from .emd import TableEmd
from .microagg import Partition


@dataclass(frozen=True)
class RunReport:
    """Summary of one anonymization run: requested parameters, realized
    cluster sizes, worst per-cluster EMD, normalized SSE and wall time."""

    algorithm: str
    n: int
    k_requested: int
    tau: float
    k_min_actual: int
    k_avg_actual: float
    max_cluster_emd: float
    sse: float
    runtime_ms: float
    seed: Optional[int] = None
    sse_attr_count: int = 0

    def __post_init__(self):
        if self.k_min_actual > self.k_avg_actual:
            raise ValueError("minimum cluster size cannot exceed the average")
        if self.sse < 0 or self.max_cluster_emd < 0:
            raise ValueError("sse and max_cluster_emd must be nonnegative")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class KAnonymityCheck:
    ok: bool
    k: int
    min_count: int
    witness: Optional[tuple[float, ...]]


@dataclass(frozen=True)
class TClosenessCheck:
    ok: bool
    tau: float
    max_emd: float
    worst_cluster: Optional[int]


def normalized_sse(
    original: Table, anonymized: AnonymizedTable, params: NormalizationParams
) -> float:
    """Mean over records and released attributes of the squared normalized
    difference between original and anonymized cells.

    Differences are scaled by each QI's original min-max range (degenerate
    ranges contribute 0). The confidential column is released unchanged, so it
    contributes 0 while still counting toward the attribute total; ignored
    attributes are excluded.
    """
    anon = anonymized.table
    if anon.rows.shape != original.rows.shape:
        raise ValueError("original and anonymized tables differ in shape")
    qi_idx = np.array(original.qi_indices)
    ned = params.scaled(original.rows[:, qi_idx] - anon.rows[:, qi_idx])
    m = len(qi_idx) + 1
    return float((ned**2).sum() / (original.n * m))


def _classes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, starts) for the classes of equal rows of keys: one stable sort
    puts the classes in lexicographic order, each class's rows by index, and
    class i starts at order[starts[i]]; == on floats groups -0.0 with 0.0."""
    order = np.lexsort(keys.T[::-1])
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.r_[True, (sorted_keys[1:] != sorted_keys[:-1]).any(axis=1)])
    return order, starts


def verify_k_anonymity(anonymized: AnonymizedTable, k: int) -> KAnonymityCheck:
    """Pass iff every distinct QI combination occurs in at least k rows; on
    failure the witness is one violating combination."""
    qi = anonymized.table.qi_matrix()
    order, starts = _classes(qi)
    counts = np.diff(np.r_[starts, qi.shape[0]])
    min_count = int(counts.min())
    if min_count >= k:
        return KAnonymityCheck(True, k, min_count, None)
    witness_row = int(order[starts[np.argmin(counts)]])
    return KAnonymityCheck(False, k, min_count, tuple(float(v) for v in qi[witness_row]))


def verify_t_closeness(table: Table, anonymized: AnonymizedTable, tau: float) -> TClosenessCheck:
    """Pass iff every class of rows sharing a cluster id has an EMD to the
    table marginal of at most tau; worst_cluster is the cluster id of the
    class with the largest EMD, the lowest id on ties."""
    ids = anonymized.cluster_ids
    order, starts = _classes(ids[:, None])
    max_emd, worst = TableEmd(table).max_cluster_emd(order, starts)
    return TClosenessCheck(max_emd <= tau, tau, max_emd, int(ids[order[starts[worst]]]))


def cluster_size_stats(partition: Partition) -> tuple[int, float]:
    return min(partition.sizes()), partition.n / len(partition)


def make_report(
    algorithm: str,
    table: Table,
    params: NormalizationParams,
    ctx: TableEmd,
    partition: Partition,
    anonymized: AnonymizedTable,
    k_requested: int,
    tau: float,
    runtime_ms: float,
    seed: Optional[int] = None,
) -> RunReport:
    k_min, k_avg = cluster_size_stats(partition)
    return RunReport(
        algorithm=algorithm,
        n=table.n,
        k_requested=k_requested,
        tau=tau,
        k_min_actual=k_min,
        k_avg_actual=k_avg,
        max_cluster_emd=ctx.max_cluster_emd(partition.order, partition.starts)[0],
        sse=normalized_sse(table, anonymized, params),
        runtime_ms=runtime_ms,
        seed=seed,
        sse_attr_count=len(table.qi_indices) + 1,
    )
