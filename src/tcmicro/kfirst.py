"""k-Anonymity-first pipeline: clusters are grown to size k on QI proximity,
then refined by EMD-guided record swaps; a final merge pass guarantees
t-closeness, which cluster construction alone cannot."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .dataset import AnonymizedTable, NormalizationParams, Table
from .emd import TableEmd, check_params
from .merge import release
from .merge import aggregate, make_report, merge_until_tclose  # bench/spans.py patches these here
from .metrics import RunReport
from .microagg import Partition, normalized_qi, seeded_partition, sq_distances


class _SwapEmd:
    """Incremental cluster-vs-table EMD under single-record swaps.

    Keeps the cumulative mass-difference vector of the current cluster plus
    prefix sums of |cum|, |cum + 1/c| and |cum - 1/c|, so that the EMD after
    replacing one member by one candidate is a constant-time interval query:
    swapping rank a for rank b shifts the cumulative vector by -1/c on [a, b)
    (a < b) or +1/c on [b, a) (a > b).
    """

    def __init__(self, ctx: TableEmd, members: np.ndarray):
        self.ctx = ctx
        self.members = list(int(i) for i in members)
        self.member_ranks = [int(ctx.ranks[i]) for i in members]
        self.size = len(self.members)
        self.counts = np.bincount(self.member_ranks, minlength=ctx.m).astype(np.float64)
        self._rebuild()

    def _rebuild(self):
        ctx = self.ctx
        if ctx.m == 1:
            self.emd = 0.0
            return
        cum = np.cumsum(self.counts / self.size - ctx.table_mass)
        shift = 1.0 / self.size
        zero = np.zeros(1)
        self._abs = np.concatenate([zero, np.cumsum(np.abs(cum))])
        self._plus = np.concatenate([zero, np.cumsum(np.abs(cum + shift))])
        self._minus = np.concatenate([zero, np.cumsum(np.abs(cum - shift))])
        self._total = self._abs[-1]
        self.emd = float(self._total / (ctx.m - 1))

    def _swap_sum(self, a: int, b: int) -> float:
        if a == b:
            return self._total
        if a < b:
            return self._total - (self._abs[b] - self._abs[a]) + (self._minus[b] - self._minus[a])
        return self._total - (self._abs[a] - self._abs[b]) + (self._plus[a] - self._plus[b])

    def best_swap(self, candidate_rank: int) -> int:
        """Member position whose replacement by the candidate minimizes the
        EMD, or -1 when no strict improvement exists. Ties keep the earliest
        member, so equal-EMD swaps are never taken."""
        if self.ctx.m == 1:
            return -1
        best_pos = -1
        best_sum = self._total
        for pos, a in enumerate(self.member_ranks):
            s = self._swap_sum(a, candidate_rank)
            if s < best_sum:
                best_sum = s
                best_pos = pos
        return best_pos

    def apply_swap(self, pos: int, candidate: int, candidate_rank: int):
        old_rank = self.member_ranks[pos]
        self.counts[old_rank] -= 1.0
        self.counts[candidate_rank] += 1.0
        self.members[pos] = candidate
        self.member_ranks[pos] = candidate_rank
        self._rebuild()


def generate_cluster(
    seed: int, candidates: np.ndarray, x: np.ndarray, ctx: TableEmd, k: int, tau: float
) -> np.ndarray:
    """One cluster around a seed record, per the k-anonymity-first rules.

    Fewer than 2k candidates are returned whole. Otherwise the cluster starts
    as the seed plus its k-1 QI-nearest candidates (rows of the normalized QI
    matrix x); then candidates are consumed in order of QI distance to the
    seed, each swapped against the member whose replacement most reduces the
    cluster-vs-table EMD, accepting strict improvements only, until the EMD
    reaches tau or candidates run out. The candidate array is not mutated;
    the sorted members are returned.
    """
    if candidates.size < 2 * k:
        return np.sort(candidates)
    others = candidates[candidates != seed]
    d = sq_distances(x[others].T, x[seed])
    order = np.argsort(d, kind="stable")
    ordered = others[order]
    state = _SwapEmd(ctx, np.concatenate([[seed], ordered[: k - 1]]))
    for y in ordered[k - 1 :]:
        if state.emd <= tau:
            break
        y_rank = int(ctx.ranks[y])
        pos = state.best_swap(y_rank)
        if pos >= 0:
            state.apply_swap(pos, int(y), y_rank)
    return np.sort(np.array(state.members, dtype=np.int64))


def kfirst_partition(
    table: Table, k: int, tau: float, params: NormalizationParams, ctx: TableEmd
) -> Partition:
    """Full k-anonymity-first partition: one generate_cluster per seed from
    seeded_partition. Cluster sizes lie in [k, 2k-1]; clusters need not all be
    t-close yet (see run_kfirst_algorithm)."""
    check_params(table.n, k, tau)
    x = normalized_qi(table, params)
    return seeded_partition(x, lambda seed, pool: generate_cluster(seed, pool, x, ctx, k, tau))


def run_kfirst_algorithm(
    table: Table, k: int, tau: float, seed: Optional[int] = None
) -> tuple[AnonymizedTable, Partition, RunReport]:
    """k-Anonymity-first partition followed by the merge pass as the hard
    t-closeness guarantee, then aggregation."""
    return release(
        "kfirst", table, k, tau, seed,
        lambda params, ctx: kfirst_partition(table, k, tau, params, ctx),
    )
