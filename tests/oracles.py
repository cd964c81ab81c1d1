"""Reference EMD code the tests compare the package against: explicit
distributions over an ordered support, the cumulative-mass EMD formula, a
mass-moving transport oracle and the closed-form upper bound for clusters
built one record per subset."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from tcmicro.emd import check_params

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


def transport_oracle_emd(p: Distribution, q: Distribution) -> float:
    """EMD computed by explicitly moving probability mass between bins.

    Supply bins of p and demand bins of q are matched left to right, paying
    |i - j| / (m - 1) per unit moved. For an ordered 1-D support this greedy
    plan is an optimal transport plan. Coded independently of emd_ordered's
    cumulative-sum formula so the two act as cross-checks.
    """
    if p.support.shape != q.support.shape or np.any(p.support != q.support):
        raise ValueError("distributions must share an identical support")
    m = p.m
    if m == 1:
        return 0.0
    a = p.mass.copy()
    b = q.mass.copy()
    cost = 0.0
    i = j = 0
    while i < m and j < m:
        if a[i] <= 0.0:
            i += 1
            continue
        if b[j] <= 0.0:
            j += 1
            continue
        moved = min(a[i], b[j])
        cost += moved * abs(i - j) / (m - 1)
        a[i] -= moved
        b[j] -= moved
    return cost


def max_emd_bound(n: int, k: int) -> float:
    """Upper bound on the EMD of a cluster holding one record from each of k
    ascending equal subsets: (n - k) / (2 (n - 1) k)."""
    check_params(n, k)
    return (n - k) / (2.0 * (n - 1) * k)
