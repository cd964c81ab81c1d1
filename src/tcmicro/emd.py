"""Earth mover's distance over the ranked distinct values of the confidential
attribute, closed-form min/max bounds for fixed-size clusters, and the cluster
size needed to meet a closeness threshold."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Table

MASS_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Distribution:
    """Probability masses over an ascending support of distinct values."""

    support: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=np.float64)
        mass = np.asarray(self.mass, dtype=np.float64)
        if support.ndim != 1 or support.shape != mass.shape or support.size < 1:
            raise ValueError("support and mass must be 1-D arrays of equal, nonzero length")
        if np.any(np.diff(support) <= 0):
            raise ValueError("support must be strictly increasing")
        if np.any(mass < -MASS_TOLERANCE):
            raise ValueError("mass weights must be nonnegative")
        if abs(mass.sum() - 1.0) > MASS_TOLERANCE:
            raise ValueError(f"mass weights must sum to 1, got {mass.sum()!r}")
        support.setflags(write=False)
        mass.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "mass", mass)

    @property
    def m(self) -> int:
        return self.support.size


def distribution_of(values: Sequence[float], support: Sequence[float]) -> Distribution:
    """Empirical distribution of a multiset of values over a fixed ascending
    support. Every value must occur in the support."""
    values = np.asarray(values, dtype=np.float64)
    support = np.asarray(support, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot build a distribution from zero values")
    if np.any(np.diff(support) <= 0):
        raise ValueError("support must be strictly increasing")
    idx = np.searchsorted(support, values)
    bad = (idx >= support.size) | (support[np.minimum(idx, support.size - 1)] != values)
    if np.any(bad):
        offender = values[np.flatnonzero(bad)[0]]
        raise ValueError(f"value {offender!r} does not occur in the support")
    mass = np.bincount(idx, minlength=support.size) / values.size
    return Distribution(support, mass)


def emd_ordered(p: Distribution, q: Distribution) -> float:
    """EMD between two distributions on a common support with the ordered
    ground distance |i - j| / (m - 1): the mean absolute cumulative-mass
    difference. A single-point support yields 0 by convention."""
    if p.support.shape != q.support.shape or np.any(p.support != q.support):
        raise ValueError("distributions must share an identical support")
    m = p.m
    if m == 1:
        return 0.0
    cum = np.cumsum(p.mass - q.mass)
    return float(np.abs(cum).sum() / (m - 1))


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


def max_emd_bound(n: int, k: int) -> float:
    """Upper bound on the EMD of a cluster holding one record from each of k
    ascending equal subsets: (n - k) / (2 (n - 1) k)."""
    check_params(n, k)
    return (n - k) / (2.0 * (n - 1) * k)


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
