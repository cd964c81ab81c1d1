"""Earth mover's distance of a cluster against the table over the ranked
distinct values of the confidential attribute, parameter checks, the
closed-form lower bound for fixed-size clusters, and the cluster size needed
to meet a closeness threshold."""

from __future__ import annotations

import math
import numbers

import numpy as np

from .dataset import Table


# every int64 intermediate of the EMD kernel is at most n * n * m
_INT64_RANGE = 2**63

# a cluster of at most this many records takes its EMD numerator, and in
# kfirst over a tabulated F its swap state, in Python ints, not numpy: on a
# 2-core Xeon VM (Python 3.11, numpy 2.4) the two cost about the same near 10
_LOOP_SIZE = 10


class TableEmd:
    """Rank-indexed view of a table's confidential column for repeated
    cluster-vs-table EMD evaluations.

    For a cluster of s of the table's n records over its m distinct values,
    let A_j and B_j count the cluster's and the table's records of rank at
    most j. The EMD with ground distance |i - j| / (m - 1) is

        D / (s n (m - 1)),    D = sum over j of |n A_j - s B_j|,

    and D is an integer, summed exactly in int64 whatever the order. No
    intermediate exceeds n * n * m, so a table with n * n * m >= 2**63 is
    rejected."""

    def __init__(self, table: Table):
        conf = table.confidential_column()
        support, ranks, counts = np.unique(conf, return_inverse=True, return_counts=True)
        self.n = table.n
        self.support = support
        self.ranks = ranks
        self.m = support.size
        if self.n * self.n * self.m >= _INT64_RANGE:
            raise ValueError(
                f"table too large for the exact EMD: n={self.n} records over m={self.m} "
                "distinct confidential values need n * n * m < 2**63"
            )
        # the table's cumulative counts B and their prefix sums
        # SB[j] = B[0] + ... + B[j-1]
        self._b = np.cumsum(counts)
        self._sb = np.concatenate(([0], np.cumsum(self._b)))
        self._swap_sums = None
        self._threshold = None, None, None

    def cluster_emd(self, members: np.ndarray) -> float:
        """EMD between the cluster's confidential distribution and the whole
        table's, exactly 0 for the full table: the partition_emds kernel on
        one cluster, O(s log n) for s members."""
        members = np.asarray(members)
        if members.size == 0:
            raise ValueError("cluster is empty")
        if self.m == 1:
            return 0.0
        return float(self._emds(self._numerator(np.sort(self.ranks[members])), members.size))

    def partition_emds(self, order, starts) -> np.ndarray:
        """Every cluster's EMD at once, bit for bit cluster_emd of each, in
        Partition's (order, starts) layout: one sort by (cluster, rank) orders
        every cluster's ranks, and the kernel is O(n log n) for the whole
        partition instead of O(m) per cluster."""
        sizes = np.diff(starts, append=len(order))
        if not sizes.all():
            raise ValueError("cluster is empty")
        m = self.m
        if m == 1:
            return np.zeros(sizes.size)
        ranks = self.ranks[order]
        labels = np.repeat(np.arange(sizes.size), sizes)
        # sorting keeps the clusters in order, each one's ranks ascending
        offsets = labels * m
        lo = np.sort(offsets + ranks) - offsets
        hi = np.empty_like(lo)
        hi[:-1], hi[-1] = lo[1:], m
        hi[starts[1:] - 1] = m
        a = np.arange(1, lo.size + 1) - starts[labels]
        d = self._numerators(lo, hi, a, sizes[labels], starts, sizes, np.add.reduceat(ranks, starts))
        return self._emds(d, sizes)

    def _numerator(self, ranks: np.ndarray) -> int:
        """D of one cluster from its ranks in ascending order: _numerators'
        steps, in Python ints for at most _LOOP_SIZE ranks."""
        s = ranks.size
        if s > _LOOP_SIZE:
            hi = np.empty_like(ranks)
            hi[:-1], hi[-1] = ranks[1:], self.m
            return int(self._numerators(ranks, hi, np.arange(1, s + 1), s, [0], s, ranks.sum())[0])
        n, m, lo = self.n, self.m, ranks.tolist()
        hi = lo[1:] + [m]
        t = self._b.searchsorted([-(-n * a // s) for a in range(1, s + 1)]).tolist()
        t = [min(max(u, x), y) for u, x, y in zip(t, lo, hi)]
        sb = self._sb.take(t + hi + lo[:1]).tolist()
        p = sum(s * (sb[s + a] - sb[a]) - n * (a + 1) * (hi[a] - t[a]) for a in range(s))
        return 2 * (p + s * sb[-1]) + n * (s * m - sum(lo)) - s * sb[2 * s - 1]

    def _numerators(self, lo, hi, a, s, first, sizes, rank_sums) -> np.ndarray:
        """D of each cluster from its ranks in ascending order: the one at
        lo, the a-th of a cluster of s, starts the ranks [lo, hi) up to the
        next one (none for a repeated rank), on which A_j = a. first holds
        the position of each cluster's first rank, sizes and rank_sums its
        size and sum of ranks.

        On [lo, hi) B is nondecreasing, so the part where s B_j > n a starts
        at the searchsorted position t of ceil(n a / s), and the sum of
        s B_j - n a over [t, hi) is two products and two lookups in SB.
        With the ranks before the first, where A_j = 0, that gives P, the
        sum of max(0, s B_j - n A_j) over all j; and sum_j (n A_j - s B_j)
        = n (s m - rank_sums) - s SB[m], so D = 2 P + that sum."""
        n, sb = self.n, self._sb
        na = n * a
        t = np.minimum(np.maximum(np.searchsorted(self._b, (na + s - 1) // s), lo), hi)
        p = np.add.reduceat(s * (sb[hi] - sb[t]) - na * (hi - t), first) + sizes * sb[lo[first]]
        return 2 * p + (n * (sizes * self.m - rank_sums) - sizes * sb[-1])

    def _emds(self, d, sizes) -> np.ndarray:
        """EMD = D / (s n (m - 1)) in float64. numpy turns each integer
        operand, a Python int too, into a float64 before it divides, so the
        quotient is one rounding from the exact integers only while D and
        s n (m - 1) are below 2**53; above that each operand is rounded
        first, and [2**53 + 1] / [3] gives 3002399751580330.5 where the exact
        quotient rounds to 3002399751580331.0."""
        return np.true_divide(d, sizes * (self.n * (self.m - 1)))

    def tau_threshold(self, s: int, tau: float) -> int:
        """The smallest D whose cluster of s records has an EMD above tau under
        _emds' rounding, so the EMD exceeds tau iff D >= it; s n (m - 1) + 1,
        above every D, when none does, as for m = 1. Found by bisection, as
        that EMD never falls as D grows, and kept for the last (s, tau)."""
        if self._threshold[:2] != (s, tau):
            lo, hi = -1, s * self.n * (self.m - 1) + 1
            while self.m > 1 and hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if self._emds(mid, s) > tau else (mid, hi)
            self._threshold = s, tau, hi
        return self._threshold[2]

    def swap_sums(self, s: int) -> "SwapSums":
        """kfirst's swap sums for clusters of s records (see SwapSums),
        built on first use and kept for the last s asked for."""
        if self._swap_sums is None or self._swap_sums.s != s:
            self._swap_sums = SwapSums(self, s)
        return self._swap_sums

    def max_cluster_emd(self, order, starts) -> tuple[float, int]:
        """The largest EMD of partition_emds(order, starts) and its lowest index."""
        emds = self.partition_emds(order, starts)
        worst = int(np.argmax(emds))
        return float(emds[worst]), worst


# SwapSums tabulates F when its table has at most this many rows, 16 bytes
# each (16 MiB), and evaluates it in closed form otherwise
_MAX_TABLE_ROWS = 1 << 20


class SwapSums:
    """The swap sums of clusters of s of a table's n records over its m
    distinct values:

        F[alpha, x] = sum over j < x of clip(n - 2 (n alpha - s B_j), -n, n)

    for alpha in 0..s + 1 and x in 0..m. Where a cluster's A_j is alpha
    (TableEmd's cumulative counts), c_j = n alpha - s B_j, so F[alpha] holds
    the prefix sums of |c_j - n| - |c_j|, the change in |c_j| when A_j drops
    by 1, and -F[alpha + 1] those of |c_j + n| - |c_j|, the change when it
    rises by 1.

    B is nondecreasing, so with T[beta] = #{j : s B_j < n beta} the term is
    -n below T[alpha - 1], n from T[alpha] on and linear in B_j between,
    which sums to

        F[alpha, x] = n x + 2 H(alpha, min(x, T[alpha]))
                          - 2 H(alpha - 1, min(x, T[alpha - 1])),
        H(beta, u) = s SB[u] - n beta u,

    every intermediate below n * n * m in magnitude for s < n. The
    (s + 1)(m + 1) rows (F[alpha, x], F[alpha + 1, x]), 16 bytes each, are
    tabulated as table when there are at most _MAX_TABLE_ROWS of them, and
    a read is one gather; otherwise table is None and a read evaluates F
    from the s + 3 breakpoints T in a fixed number of numpy calls."""

    def __init__(self, emd: TableEmd, s: int):
        n = self._n = emd.n
        self.s = s
        self._sb = emd._sb
        # row p holds beta = p - 1, p, p + 1, for p in 0..s; in the views
        # of width 4, row i holds beta = i - 1..i + 2, for i in 0..s - 1
        beta = np.arange(-1, s + 2)
        t, nbeta = emd._b.searchsorted(-(-n * beta // s)), n * beta
        window = np.lib.stride_tricks.sliding_window_view
        self._t, self._nbeta = window(t, 3).copy(), window(nbeta, 3).copy()
        self._t4, self._nbeta4 = window(t, 4), window(nbeta, 4)
        self._regimes = np.arange(s)
        self.table = None
        if (s + 1) * (emd.m + 1) > _MAX_TABLE_ROWS:
            return
        table = np.zeros((emd.m + 1, s + 1, 2), dtype=np.int64)
        # each half is built in place, so building takes no more memory
        # than keeping
        for half in (0, 1):
            f = table[1:, :, half]
            f[:] = 2 * s * emd._b[:, None]
            f += n * (1 - 2 * np.arange(half, s + 1 + half))
            np.clip(f, -n, n, out=f)
            np.cumsum(f, axis=0, out=f)
        self.table = table.reshape(-1, 2)

    def pairs(self, p: np.ndarray, x: np.ndarray) -> np.ndarray:
        """(F[p, x], F[p + 1, x]) in each row, for regimes p in 0..s and
        ranks x in 0..m, one-dimensional int64 arrays of one length."""
        if self.table is None:
            return self._evaluate(self._t.take(p, axis=0), self._nbeta.take(p, axis=0), x)
        rows = x * (self.s + 1)
        rows += p
        return self.table.take(rows, axis=0)

    def triples(self, x: np.ndarray) -> np.ndarray:
        """(F[i, x_i], F[i + 1, x_i], F[i + 2, x_i]) in row i, for the s
        ranks x_i of a cluster's sorted members; in closed form, one
        evaluation over the breakpoints beta = i - 1..i + 2."""
        if self.table is None:
            return self._evaluate(self._t4, self._nbeta4, x)
        rows = x * (self.s + 1)
        rows += self._regimes
        return np.concatenate([self.table.take(rows, axis=0), self.table[rows + 1, 1:]], axis=1)

    def _evaluate(self, t: np.ndarray, nbeta: np.ndarray, x: np.ndarray) -> np.ndarray:
        """F at each row's rank x, for the regimes between consecutive
        columns of that row's breakpoints t and n beta."""
        u = np.minimum(t, x[:, None])
        h = self._sb.take(u)
        h *= self.s
        h -= nbeta * u
        f = h[:, 1:] - h[:, :-1]
        f *= 2
        f += (self._n * x)[:, None]
        return f


def check_params(n: int, k, tau=None) -> None:
    """Reject a cluster size k that is not an integer in [2, n] and, when one
    is given, a closeness level tau that is not a finite positive number."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or not 2 <= k <= n:
        raise ValueError(f"need an integer k with 2 <= k <= n, got k={k!r}, n={n}")
    if tau is not None and not (isinstance(tau, numbers.Real) and math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be a finite positive number, got {tau!r}")


def min_emd_bound(n: int, k: int) -> float:
    """Lower bound on the EMD of any k-record cluster against an n-record
    table: (n + k)(n - k) / (4 n (n - 1) k). Tight for odd n/k when k | n."""
    check_params(n, k)
    return (n + k) * (n - k) / (4.0 * n * (n - 1) * k)


def required_cluster_size(n: int, k: int, t: float) -> int:
    """Smallest admissible cluster size for closeness level t:
    max(k, ceil(n / (2 (n - 1) t + 1)))."""
    check_params(n, k, t)
    return max(k, math.ceil(n / (2.0 * (n - 1) * t + 1.0)))


def adjust_cluster_size(n: int, k: int) -> int:
    """Grow k until the leftover n mod k records fit one-per-cluster, i.e.
    n mod k <= floor(n / k), iterating k += floor((n mod k) / floor(n / k))."""
    check_params(n, k)
    while n % k > n // k:
        k += (n % k) // (n // k)
    return k
