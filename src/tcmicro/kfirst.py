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
from .microagg import Partition, normalized_qi, seeded_partition


class _SwapEmd:
    """Exact EMD numerator of a cluster under single-record swaps.

    For a cluster of s of the table's n records, keeps c_j = n A_j - s B_j
    (TableEmd's cumulative counts, see there), D = sum of |c_j| and, in the
    two rows of prefix, the prefix sums of |c_j - n| - |c_j| and
    |c_j + n| - |c_j|, each starting at 0, all in int64. Replacing a member
    of rank a by a candidate of rank b lowers A by 1 on [a, b) (a < b) or
    raises it by 1 on [b, a) (a > b), so the exact change in D is
    prefix[0, b] - prefix[0, a] or prefix[1, a] - prefix[1, b], for a whole
    block of candidates x members at once.
    """

    def __init__(self, ctx: TableEmd, members: np.ndarray):
        self.ctx = ctx
        self.members = np.array(members, dtype=np.int64)
        self.ranks = ctx.ranks[self.members]
        self.size = s = self.members.size
        a = np.cumsum(np.bincount(self.ranks, minlength=ctx.m))
        self._c = ctx.n * a - s * ctx._b
        self.d = np.abs(self._c).sum()
        self.prefix = np.zeros((2, ctx.m + 1), dtype=np.int64)
        self._fill(0, ctx.m)
        self._set_emd()

    def _fill(self, lo: int, hi: int):
        """Recompute prefix[:, lo + 1 : hi + 1] from c[lo:hi], keeping
        prefix[:, lo]; |c - n| - |c| = clip(n - 2c, -n, n) and
        |c + n| - |c| = clip(n + 2c, -n, n)."""
        n, prefix = self.ctx.n, self.prefix
        terms = np.multiply.outer((-2, 2), self._c[lo:hi])
        terms += n
        np.minimum(terms, n, out=terms)
        np.maximum(terms, -n, out=terms)
        terms[:, 0] += prefix[:, lo]
        np.cumsum(terms, axis=1, out=prefix[:, lo + 1 : hi + 1])

    def _set_emd(self):
        self.emd = 0.0 if self.ctx.m == 1 else float(self.ctx._emds(self.d, self.size))

    def first_swap(self, candidate_ranks: np.ndarray) -> tuple[int, int]:
        """(j, pos) for the first candidate j whose best swap strictly lowers
        D, pos being the earliest member position attaining that best;
        (-1, -1) when no candidate improves. A candidate sharing a member's
        rank changes D by exactly 0, so equal-EMD swaps are never taken."""
        a = self.ranks
        b = candidate_ranks[:, None]
        down, up = self.prefix
        deltas = np.where(b > a, down[b] - down[a], up[a] - up[b])
        hits = np.minimum.reduce(deltas, axis=1) < 0
        j = int(hits.argmax())
        if not hits[j]:
            return -1, -1
        return j, int(deltas[j].argmin())

    def apply_swap(self, pos: int, candidate: int, candidate_rank: int):
        """Replace the member at pos by the candidate. c moves by n on the
        ranks [lo, hi) between the two, so prefix is recomputed on (lo, hi]
        and every entry after hi moves by one constant, its change at hi."""
        old_rank = int(self.ranks[pos])
        if old_rank != candidate_rank:
            lo, hi = sorted((old_rank, candidate_rank))
            row = 0 if candidate_rank > old_rank else 1
            prefix = self.prefix
            self.d += prefix[row, hi] - prefix[row, lo]
            end = prefix[:, hi].copy()
            self._c[lo:hi] += self.ctx.n if row else -self.ctx.n
            self._fill(lo, hi)
            prefix[:, hi + 1 :] += (prefix[:, hi] - end)[:, None]
            self._set_emd()
        self.members[pos] = candidate
        self.ranks[pos] = candidate_rank


# candidates scored per block: _FIRST_BLOCK after each accepted swap, doubled
# after every block without one, so a long run of misses costs few numpy calls;
# capped at _MAX_BLOCK_CELLS candidate x member scores so that a block's
# temporaries stay small whatever the pool size and k
_FIRST_BLOCK = 16
_MAX_BLOCK_CELLS = 1 << 16


def generate_cluster(
    seed: int, candidates: np.ndarray, dist: np.ndarray, ctx: TableEmd, k: int, tau: float
) -> np.ndarray:
    """One cluster around a seed record, per the k-anonymity-first rules.

    Fewer than 2k candidates are returned whole. Otherwise the cluster starts
    as the seed plus its k-1 QI-nearest candidates (dist[i] is candidates[i]'s
    squared QI distance to the seed); then candidates are consumed in that
    order, each swapped against the member whose replacement most reduces the
    cluster-vs-table EMD, accepting only swaps that lower its exact integer
    numerator, until the EMD reaches tau or candidates run out. No argument
    is mutated; the sorted members are returned.
    """
    if candidates.size < 2 * k:
        return np.sort(candidates)
    others = candidates != seed
    ordered = candidates[others][np.argsort(dist[others], kind="stable")]
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
    return seeded_partition(x, lambda seed, pool, d: generate_cluster(seed, pool, d, ctx, k, tau))


def run_kfirst_algorithm(
    table: Table, k: int, tau: float, seed: Optional[int] = None
) -> tuple[AnonymizedTable, Partition, RunReport]:
    """k-Anonymity-first partition followed by the merge pass as the hard
    t-closeness guarantee, then aggregation."""
    return release(
        "kfirst", table, k, tau, seed,
        lambda params, ctx: kfirst_partition(table, k, tau, params, ctx),
    )
