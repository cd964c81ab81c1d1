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
    """Cluster-vs-table EMD of a cluster under single-record swaps.

    Keeps the cumulative mass-difference vector cum of the current cluster
    and, in the three rows of prefix, the prefix sums of |cum|, |cum + 1/c|
    and |cum - 1/c|, each starting at 0. Replacing a member of rank a by a
    candidate of rank b shifts cum by -1/c on [a, b) (a < b) or +1/c on
    [b, a) (a > b), so the summed EMD after the swap is an interval query on
    prefix, for a whole block of candidates x members at once.
    """

    def __init__(self, ctx: TableEmd, members: np.ndarray):
        self.ctx = ctx
        self.members = np.array(members, dtype=np.int64)
        self.ranks = ctx.ranks[self.members]
        self.size = self.members.size
        self.counts = np.bincount(self.ranks, minlength=ctx.m).astype(np.float64)
        self._cum = np.empty(ctx.m)
        self.prefix = np.zeros((3, ctx.m + 1))
        self._rebuild(0)

    def _rebuild(self, lo: int):
        """Recompute cum and prefix from rank lo on. Both are sequential left
        folds seeded with the kept entry before lo, so the result is bit for
        bit that of a rebuild from rank 0."""
        cum, prefix = self._cum, self.prefix
        tail = self.counts[lo:] / self.size - self.ctx.table_mass[lo:]
        if lo:
            tail[0] += cum[lo - 1]
        np.cumsum(tail, out=tail)
        cum[lo:] = tail
        shift = 1.0 / self.size
        np.abs(tail, out=prefix[0, lo + 1 :])
        np.abs(tail + shift, out=prefix[1, lo + 1 :])
        np.abs(tail - shift, out=prefix[2, lo + 1 :])
        np.cumsum(prefix[:, lo:], axis=1, out=prefix[:, lo:])
        self.total = prefix[0, -1]
        self.emd = 0.0 if self.ctx.m == 1 else float(self.total / (self.ctx.m - 1))

    def first_swap(self, candidate_ranks: np.ndarray) -> tuple[int, int]:
        """(j, pos) for the first candidate j whose best swap strictly lowers
        the EMD, pos being the earliest member position attaining that best;
        (-1, -1) when no candidate improves. A candidate sharing a member's
        rank scores exactly the current sum, so equal-EMD swaps are never
        taken."""
        a = self.ranks
        b = candidate_ranks[:, None]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        col = np.where(a < b, 2, 1)
        prefix, total = self.prefix, self.total
        sums = total - (prefix[0, hi] - prefix[0, lo]) + (prefix[col, hi] - prefix[col, lo])
        hits = np.flatnonzero(sums.min(axis=1) < total)
        if not hits.size:
            return -1, -1
        j = int(hits[0])
        return j, int(np.argmin(sums[j]))

    def apply_swap(self, pos: int, candidate: int, candidate_rank: int):
        old_rank = int(self.ranks[pos])
        self.counts[old_rank] -= 1.0
        self.counts[candidate_rank] += 1.0
        self.members[pos] = candidate
        self.ranks[pos] = candidate_rank
        self._rebuild(min(old_rank, candidate_rank))


# candidates scored per block: _FIRST_BLOCK after each accepted swap, doubled
# after every block without one, so a long run of misses costs few numpy calls;
# capped at _MAX_BLOCK_CELLS candidate x member scores so that a block's
# temporaries stay small whatever the pool size and k
_FIRST_BLOCK = 16
_MAX_BLOCK_CELLS = 1 << 16


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
    rest = ordered[k - 1 :]
    rest_ranks = ctx.ranks[rest]
    # a block of candidates is scored against the unchanged state; after the
    # first improving candidate the state changes and scoring resumes past it
    at, block = 0, _FIRST_BLOCK
    while at < rest.size and state.emd > tau:
        j, pos = state.first_swap(rest_ranks[at : at + block])
        if j < 0:
            at += block
            block = min(2 * block, max(_FIRST_BLOCK, _MAX_BLOCK_CELLS // k))
            continue
        state.apply_swap(pos, int(rest[at + j]), int(rest_ranks[at + j]))
        at += j + 1
        block = _FIRST_BLOCK
    return np.sort(state.members)


def kfirst_partition(
    table: Table, k: int, tau: float, params: NormalizationParams, ctx: TableEmd
) -> Partition:
    """Full k-anonymity-first partition: one generate_cluster per seed from
    seeded_partition. Cluster sizes lie in [k, 2k-1]; clusters need not all be
    t-close yet (see run_kfirst_algorithm)."""
    check_params(table.n, k, tau)
    x = normalized_qi(table, params)
    return seeded_partition(x, lambda seed, pool, _: generate_cluster(seed, pool, x, ctx, k, tau))


def run_kfirst_algorithm(
    table: Table, k: int, tau: float, seed: Optional[int] = None
) -> tuple[AnonymizedTable, Partition, RunReport]:
    """k-Anonymity-first partition followed by the merge pass as the hard
    t-closeness guarantee, then aggregation."""
    return release(
        "kfirst", table, k, tau, seed,
        lambda params, ctx: kfirst_partition(table, k, tau, params, ctx),
    )
