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
