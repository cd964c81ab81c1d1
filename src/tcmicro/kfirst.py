"""k-Anonymity-first pipeline: clusters are grown to size k on QI proximity,
then refined by EMD-guided record swaps; a final merge pass guarantees
t-closeness, which cluster construction alone cannot."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .dataset import AnonymizedTable, NormalizationParams, Table
from . import emd
from .emd import TableEmd, check_params
from .merge import release
from .merge import aggregate, make_report, merge_until_tclose  # bench/spans.py patches these here
from .metrics import RunReport
from .microagg import Partition, normalized_qi, seeded_partition


class _SwapEmd:
    """Exact EMD numerator of a cluster under single-record swaps, on O(s)
    state for a cluster of s of the table's n records.

    With c_j = n A_j - s B_j (TableEmd's cumulative counts, see there) and
    D = sum of |c_j|, let down(x) and up(x) be the sums over j < x of
    |c_j - n| - |c_j| and |c_j + n| - |c_j|. Replacing a member of rank a by
    a candidate of rank b lowers A by 1 on [a, b) (a < b) or raises it by 1
    on [b, a) (a > b), so D changes by exactly down(b) - down(a) or
    up(a) - up(b). Between consecutive sorted member ranks A_j is one
    constant p, so with p = #{member ranks < x} and F the swap sums of
    TableEmd.swap_sums(s),

        down(x) = gd[p] + F[p, x],    up(x) = gu[p] - F[p + 1, x]

    for s + 1 offsets gd and gu per state. A candidate b is improving iff
    down(b) < max{down(a) : a < b} or up(b) > min{up(a) : a >= b}, that is
    iff F[p, b] < td[p] or F[p + 1, b] < tu[p], with the thresholds held as
    the (s + 1, 2) array thr; a side with no member gets a threshold below
    every F. D is a Python int.

    A block of candidates is scored in a fixed number of numpy calls. For s
    up to _LOOP_SIZE and a tabulated F, members, ranks, gd, gu and each
    member's (down(a), up(a)) are lists of Python ints, rebuilt after a
    swap from table reads, and numpy builds only the sorted ranks and thr;
    otherwise they are arrays, rebuilt in a fixed number of numpy calls.
    """

    def __init__(self, ctx: TableEmd, members: np.ndarray):
        self.ctx = ctx
        self.members = np.array(members, dtype=np.int64)
        self.ranks = ctx.ranks[self.members]
        self.size = s = self.members.size
        sums = ctx.swap_sums(s)
        self._pairs, self._triples = sums.pairs, sums.triples
        self._item = sums.table.item if s <= emd._LOOP_SIZE and sums.table is not None else None
        if self._item is not None:
            self.members, self.ranks = self.members.tolist(), self.ranks.tolist()
        self._never = -ctx.n * (ctx.m + 1)
        self.d = ctx._numerator(np.sort(self.ranks))
        self._rebuild()

    @property
    def emd(self) -> float:
        """The cluster's EMD, bit for bit TableEmd.cluster_emd's."""
        return float(self.ctx._emds(self.d, self.size))

    def _rebuild(self):
        """Offsets, each member's down and up and the thresholds: along the
        sorted ranks r, down(r_i) = gd[i] + F[i, r_i], gd[i + 1] = down(r_i)
        - F[i + 1, r_i], up(r_i) = gu[i] - F[i + 1, r_i] and gu[i + 1] =
        up(r_i) + F[i + 2, r_i], which holds through tied ranks too."""
        s, never, item = self.size, self._never, self._item
        if item is not None:
            ranks = self.ranks
            order = sorted(range(s), key=ranks.__getitem__)
            r = [ranks[j] for j in order]
            gd, gu, values = [0], [0], [None] * s
            # thr row by row; down and up lie in [-n m, n m], above never
            thr, top, low = [never] * (2 * s + 2), never, -never
            for i, j in enumerate(order):
                # F[i, rank] at x, F[i + 1, rank] at x + 1, F[i + 2, rank] at x + 3
                x = 2 * (r[i] * (s + 1) + i)
                f1 = item(x + 1)
                values[j] = down, up = gd[i] + item(x), gu[i] - f1
                gd.append(down - f1)
                gu.append(up + item(x + 3))
                if down > top:
                    top = down
                thr[2 * i + 2] = top - gd[i + 1]
            for i in range(s - 1, -1, -1):
                up = values[order[i]][1]
                if up < low:
                    low = up
                thr[2 * i + 1] = gu[i] - low
            self._sorted = np.array(r)
            self._gd, self._gu, self._values = gd, gu, values
            self._thr = np.array(thr).reshape(s + 1, 2)
            return
        order = self.ranks.argsort()
        self._sorted = r = self.ranks[order]
        f = self._triples(r)
        self._gd = gd = np.zeros(s + 1, dtype=np.int64)
        self._gu = gu = np.zeros(s + 1, dtype=np.int64)
        np.add.accumulate(f[:, 0] - f[:, 1], out=gd[1:])
        np.add.accumulate(f[:, 2] - f[:, 1], out=gu[1:])
        values = np.empty((s, 2), dtype=np.int64)
        down, up = values.T
        np.add(gd[:-1], f[:, 0], out=down)
        np.subtract(gu[:-1], f[:, 1], out=up)
        self._thr = thr = np.full((s + 1, 2), never)
        np.subtract(np.maximum.accumulate(down), gd[1:], out=thr[1:, 0])
        np.subtract(gu[:-1], np.minimum.accumulate(up[::-1])[::-1], out=thr[:-1, 1])
        self._values = np.empty_like(values)
        self._values[order] = values

    def _best(self, rank: int, down_b: int, up_b: int) -> tuple[int, int]:
        """(pos, delta): the earliest member position whose swap for a
        candidate of this rank, down and up changes D least, and that
        change; a member of the same rank changes D by 0."""
        if self._item is not None:
            deltas = [
                down_b - down if rank > a else up - up_b
                for a, (down, up) in zip(self.ranks, self._values)
            ]
            delta = min(deltas)
            return deltas.index(delta), delta
        down, up = self._values.T
        deltas = np.where(self.ranks < rank, down_b - down, up - up_b)
        pos = int(deltas.argmin())
        return pos, int(deltas[pos])

    def first_swap(self, candidate_ranks: np.ndarray) -> tuple[int, int, int]:
        """(j, pos, delta) for the first candidate j whose best swap strictly
        lowers D, pos being the earliest member position attaining that best
        and delta the change in D; (-1, -1, 0) when no candidate improves. A
        candidate sharing a member's rank changes D by exactly 0, so
        equal-EMD swaps are never taken. Only candidate j's s deltas are
        formed."""
        p = self._sorted.searchsorted(candidate_ranks)
        f = self._pairs(p, candidate_ranks)
        hits = f < self._thr.take(p, axis=0)
        first = int(hits.argmax())
        if not hits.item(first):
            return -1, -1, 0
        j = first // 2
        pj = p.item(j)
        f0, f1 = f[j].tolist()
        pos, delta = self._best(candidate_ranks.item(j), self._gd[pj] + f0, self._gu[pj] - f1)
        return j, pos, delta

    def apply_swap(self, pos: int, candidate: int, candidate_rank: int, delta: int):
        """Replace the member at pos by the candidate, which moves D by delta
        (first_swap's), and rebuild the O(s) state."""
        self.d += delta
        self.ranks[pos] = candidate_rank
        self.members[pos] = candidate
        self._rebuild()


def _stable_argsort(keys: np.ndarray) -> np.ndarray:
    """np.argsort(keys, kind="stable") from one unstable sort when the sorted
    keys strictly increase, since distinct keys have one sorted order; from
    the stable sort otherwise."""
    order = keys.argsort()
    return order if (np.diff(keys[order]) > 0).all() else keys.argsort(kind="stable")


# candidates scored per block: _FIRST_BLOCK after each accepted swap, doubled
# after every block without one, so a long run of misses costs few numpy calls
# while a block's temporaries stay O(block)
_FIRST_BLOCK = 16


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
    ordered = candidates[_stable_argsort(dist)]
    ordered = ordered[ordered != seed]
    state = _SwapEmd(ctx, np.concatenate([[seed], ordered[: k - 1]]))
    rest = ordered[k - 1 :]
    rest_ranks = ctx.ranks[rest]
    over = ctx.tau_threshold(k, tau)
    # a block of candidates is scored against the unchanged state; after the
    # first improving candidate the state changes and scoring resumes past it
    at, block = 0, _FIRST_BLOCK
    while at < rest.size and state.d >= over:
        j, pos, delta = state.first_swap(rest_ranks[at : at + block])
        if j < 0:
            at += block
            block *= 2
            continue
        state.apply_swap(pos, rest.item(at + j), rest_ranks.item(at + j), delta)
        at += j + 1
        block = _FIRST_BLOCK
    return np.sort(state.members)


def kfirst_partition(
    table: Table, k: int, tau: float, params: NormalizationParams, ctx: TableEmd
) -> Partition:
    """Full k-anonymity-first partition: one generate_cluster per seed from
    seeded_partition. Every cluster size lies in [k, 2k-1]; clusters need not
    all be t-close yet (see run_kfirst_algorithm)."""
    check_params(table.n, k, tau)

    def build(seed, ids, alive, dist):
        return generate_cluster(seed, ids[alive], dist[alive], ctx, k, tau)

    return seeded_partition(normalized_qi(table, params), build)


def run_kfirst_algorithm(
    table: Table, k: int, tau: float, seed: Optional[int] = None
) -> tuple[AnonymizedTable, Partition, RunReport]:
    """k-Anonymity-first partition followed by the merge pass as the hard
    t-closeness guarantee, then aggregation."""
    return release(
        "kfirst", table, k, tau, seed,
        lambda params, ctx: kfirst_partition(table, k, tau, params, ctx),
    )
