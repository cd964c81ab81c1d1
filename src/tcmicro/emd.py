"""Earth mover's distance of a cluster against the table over the ranked
distinct values of the confidential attribute, parameter checks, the
closed-form lower bound for fixed-size clusters, and the cluster size needed
to meet a closeness threshold."""

from __future__ import annotations

import math
import numbers

import numpy as np

from .dataset import Table


class TableEmd:
    """Rank-indexed view of a table's confidential column for repeated
    cluster-vs-table EMD evaluations."""

    def __init__(self, table: Table):
        conf = table.confidential_column()
        support, ranks, counts = np.unique(conf, return_inverse=True, return_counts=True)
        self.support = support
        self.ranks = ranks
        self.m = support.size
        self.table_mass = counts / table.n
        # the table CDF P and its prefix sums S[j] = P[0] + ... + P[j-1]
        self._cdf = np.cumsum(self.table_mass)
        self._cdf_sums = np.concatenate(([0.0], np.cumsum(self._cdf)))

    def cluster_emd(self, members: np.ndarray) -> float:
        """EMD between the cluster's confidential distribution and the whole
        table's, exactly 0 for the full table."""
        members = np.asarray(members)
        if members.size == 0:
            raise ValueError("cluster is empty")
        if self.m == 1:
            return 0.0
        counts = np.bincount(self.ranks[members], minlength=self.m)
        cum = np.cumsum(counts / members.size - self.table_mass)
        return float(np.abs(cum).sum() / (self.m - 1))

    def partition_emds(self, groups) -> tuple[np.ndarray, np.ndarray]:
        """Every cluster's EMD at once, and for each a bound g on its distance
        from cluster_emd(members).

        Between two consecutive distinct ranks of a cluster its cumulative
        mass Q is a constant q and the table's P is nondecreasing, so the sum
        of |q - P[j]| over that interval is two products and four lookups in
        the prefix sums S, split where searchsorted puts q in P. One sort by
        (cluster, rank) finds the intervals of every cluster and one
        np.add.reduceat adds them up: O(n log n) for the whole partition
        instead of O(m) per cluster.

        Error bound, for a cluster of s members: let u = 2**-53 and assume
        (m + s) u < 0.01. Sums of nonnegative terms are recursive, so P is
        within 1.02 (m + 1) u of the exact table CDF and each S[j] within
        1.03 m**2 u of the exact prefix sum of the computed P. Given the
        computed P and q, the interval formula is exact, so the cluster's sum
        over its d <= s intervals and the leading one is off by at most 4d + 1
        lookup errors, 7d roundings of magnitude at most 2.2 m u each, the
        reduceat's d adds, m u from rounding q, m times the error in P and the
        final division.
        cluster_emd's cumsum over m terms of total magnitude at most 2 and its
        sum of |cum| are off by at most 3.07 m**2 u + 4.2 m u. With
        m**2 / (m - 1) <= m + 2 for m >= 2, the two differ by at most

            u ((4.12 s + 5.12) m + 41.28 s + 26.72)
            < g - 60 u,    g = 16 (s + 2) (m + 3) u,

        and the 60 u of headroom covers the rounding of fast +- g, so a
        comparison of the rounded fast + g or fast - g against tau or against
        each other errs only on the safe side. For m == 1 both EMDs are 0.
        """
        sizes = np.array([len(g) for g in groups], dtype=np.int64)
        if not sizes.all():
            raise ValueError("cluster is empty")
        m = self.m
        if m == 1:
            return np.zeros(sizes.size), np.zeros(sizes.size)
        labels = np.repeat(np.arange(sizes.size), sizes)
        keys = np.sort(labels * m + self.ranks[np.concatenate(groups)])
        # one run per distinct (cluster, rank); a run's rank starts the
        # interval on which the cluster's cumulative count is its end + 1
        ends = np.append(np.flatnonzero(np.diff(keys)), keys.size - 1)
        cluster, lo = np.divmod(keys[ends], m)
        first = np.flatnonzero(np.diff(cluster, prepend=-1))
        starts = np.cumsum(sizes) - sizes
        q = (ends + 1 - starts[cluster]) / sizes[cluster]
        hi = np.append(lo[1:], m)
        hi[first[1:] - 1] = m
        t = np.clip(np.searchsorted(self._cdf, q), lo, hi)
        psum = self._cdf_sums
        below = q * (t - lo) - (psum[t] - psum[lo])
        above = (psum[hi] - psum[t]) - q * (hi - t)
        # before its first rank a cluster's cumulative mass is 0
        sums = np.add.reduceat(below + above, first) + psum[lo[first]]
        return sums / (m - 1), 16.0 * (sizes + 2) * (m + 3) * 2.0**-53

    def max_cluster_emd(self, groups) -> tuple[float, int]:
        """The largest cluster_emd over groups and the lowest index attaining
        it, bit for bit what a loop over every cluster gives. Only the clusters
        whose partition_emds interval reaches the largest lower bound, which
        include every cluster attaining the maximum, are computed exactly."""
        fast, bound = self.partition_emds(groups)
        candidates = np.flatnonzero(fast + bound >= (fast - bound).max())
        exact = [self.cluster_emd(groups[i]) for i in candidates]
        best = int(np.argmax(exact))
        return exact[best], int(candidates[best])


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
