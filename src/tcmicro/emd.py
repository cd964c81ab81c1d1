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

    def cluster_emd(self, members: np.ndarray) -> float:
        """EMD between the cluster's confidential distribution and the whole
        table's, exactly 0 for the full table: the partition_emds kernel on
        one cluster, O(s log n) for s members."""
        members = np.asarray(members)
        if members.size == 0:
            raise ValueError("cluster is empty")
        if self.m == 1:
            return 0.0
        ranks = np.sort(self.ranks[members])
        s = ranks.size
        hi = np.empty_like(ranks)
        hi[:-1], hi[-1] = ranks[1:], self.m
        d = self._numerators(ranks, hi, np.arange(1, s + 1), s, [0], s, ranks.sum())
        return float(self._emds(d, s)[0])

    def partition_emds(self, groups) -> np.ndarray:
        """Every cluster's EMD at once, bit for bit cluster_emd of each: one
        sort by (cluster, rank) orders every cluster's ranks, and the kernel
        is O(n log n) for the whole partition instead of O(m) per cluster."""
        sizes = np.array([len(g) for g in groups], dtype=np.int64)
        if not sizes.all():
            raise ValueError("cluster is empty")
        m = self.m
        if m == 1:
            return np.zeros(sizes.size)
        ranks = self.ranks[np.concatenate(groups)]
        starts = np.cumsum(sizes) - sizes
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
        """EMD = D / (s n (m - 1)), one rounding from the exact integers."""
        return d / (sizes * (self.n * (self.m - 1)))

    def max_cluster_emd(self, groups) -> tuple[float, int]:
        """The largest cluster EMD over groups and the lowest index attaining
        it."""
        emds = self.partition_emds(groups)
        worst = int(np.argmax(emds))
        return float(emds[worst]), worst


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
