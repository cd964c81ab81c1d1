"""Reference code the tests compare the package against: the squared
distance added attribute by attribute, the exact mean record summed in
Fractions, explicit distributions over an ordered support, the
cumulative-mass EMD formula, a mass-moving transport oracle, the integer
EMD numerator summed over every rank, the closed-form upper bound for
clusters built one record per subset, the one-candidate-at-a-time kfirst swap
loop on recounted integer numerators, the per-rank swap prefix sums, the swap
sums term by term and the brute-force swap delta matrix, the list-based merge
loop on Fraction centroids, the np.unique k-anonymity check, and the
row-at-a-time CSV reader and writer that the package's array and block
versions replaced."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from tcmicro.dataset import AnonymizedTable, AttributeSpec, Table, _parse_cells
from tcmicro.emd import TableEmd, check_params
from tcmicro.metrics import KAnonymityCheck
from tcmicro.microagg import Partition, normalized_qi

MASS_TOLERANCE = 1e-12


def sq_distances(rows: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from point to records stored one per row
    (the last axis holds the attributes): the terms (rows[..., j] - point[j])
    ** 2 added left to right, attribute 0 first."""
    total = np.zeros(rows.shape[:-1])
    for j in range(rows.shape[-1]):
        total = total + (rows[..., j] - point[j]) ** 2
    return total


def fraction_mean(rows: np.ndarray) -> np.ndarray:
    """Each column's mean over rows, summed exactly in Fractions and rounded
    once to the nearest float."""
    return np.array([float(sum(map(Fraction, col)) / len(col)) for col in rows.T.tolist()])


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


def emd_numerator(conf: np.ndarray, members: Sequence[int]) -> int:
    """D = sum over every rank j of |n A_j - s B_j| as a Python integer, for a
    cluster of s of the n values in conf, A_j and B_j counting the cluster's
    and the whole column's values at most the j-th smallest distinct value."""
    conf = np.asarray(conf, dtype=np.float64)
    support = np.unique(conf)
    b = np.searchsorted(np.sort(conf), support, side="right").tolist()
    a = np.searchsorted(np.sort(conf[np.asarray(members)]), support, side="right").tolist()
    n, s = conf.size, len(members)
    return sum(abs(n * a_j - s * b_j) for a_j, b_j in zip(a, b))


def exact_emd(conf: np.ndarray, members: Sequence[int]) -> float:
    """The cluster's EMD D / (s n (m - 1)), rounded once from the exact
    integers; 0 for a single distinct value."""
    m = np.unique(conf).size
    if m == 1:
        return 0.0
    return emd_numerator(conf, members) / (len(members) * len(conf) * (m - 1))


def max_emd_bound(n: int, k: int) -> float:
    """Upper bound on the EMD of a cluster holding one record from each of k
    ascending equal subsets: (n - k) / (2 (n - 1) k)."""
    check_params(n, k)
    return (n - k) / (2.0 * (n - 1) * k)


def scan_generate_cluster(
    seed: int, candidates: np.ndarray, x: np.ndarray, ctx: TableEmd, k: int, tau: float
) -> np.ndarray:
    """kfirst's cluster build as the rule reads: candidates are taken one at
    a time in order of QI distance to the seed, and each trial swap's EMD
    numerator D is recounted from the trial cluster's per-rank counts over
    every rank. A swap is taken when the smallest trial D is below the
    current one, at the earliest member position attaining it. D is at most
    n * n * m, so int64 holds it exactly, as Python integers would."""
    if candidates.size < 2 * k:
        return np.sort(candidates)
    others = candidates[candidates != seed]
    d = sq_distances(x[others], x[seed])
    ordered = others[np.argsort(d, kind="stable")]
    ranks, m = ctx.ranks, ctx.m
    n = ranks.size
    if n * n * m >= 2**63:
        raise ValueError("table too large for an exact int64 recount")
    b = np.cumsum(np.bincount(ranks, minlength=m))

    def numerators(counts):
        return np.abs(n * np.cumsum(counts, axis=-1) - k * b).sum(axis=-1)

    members = np.concatenate([[seed], ordered[: k - 1]])
    counts = np.bincount(ranks[members], minlength=m)
    current = int(numerators(counts))
    for y in ordered[k - 1 :]:
        if m == 1 or current / (k * n * (m - 1)) <= tau:
            break
        trials = np.tile(counts, (k, 1))
        trials[np.arange(k), ranks[members]] -= 1
        trials[:, ranks[y]] += 1
        sums = numerators(trials).tolist()
        best = min(sums)
        if best < current:
            pos = sums.index(best)
            members[pos], counts, current = y, trials[pos], best
    return np.sort(members)


def swap_prefix_sums(ctx: TableEmd, ranks: Sequence[int]) -> np.ndarray:
    """The (2, m + 1) int64 prefix sums down, up of |c_j - n| - |c_j| and
    |c_j + n| - |c_j| over every rank, each starting at 0, for the cluster
    whose members have these ranks (c_j = n A_j - s B_j): the O(m) state the
    kfirst swap search kept per cluster before its O(k) state."""
    n, s = ctx.n, len(ranks)
    c = n * np.cumsum(np.bincount(ranks, minlength=ctx.m)) - s * ctx._b
    terms = np.multiply.outer((-2, 2), c) + n
    np.clip(terms, -n, n, out=terms)
    prefix = np.zeros((2, ctx.m + 1), dtype=np.int64)
    np.cumsum(terms, axis=1, out=prefix[:, 1:])
    return prefix


def swap_sums_matrix(ctx: TableEmd, s: int) -> np.ndarray:
    """F[alpha, x], the sum over j < x of clip(n - 2 (n alpha - s B_j), -n, n),
    for alpha in 0..s + 1 and x in 0..m, summed term by term in Python ints:
    the swap sums of clusters of s records."""
    n, b = ctx.n, ctx._b.tolist()
    f = np.zeros((s + 2, ctx.m + 1), dtype=np.int64)
    for alpha in range(s + 2):
        total = 0
        for j, bj in enumerate(b):
            total += min(max(n - 2 * (n * alpha - s * bj), -n), n)
            f[alpha, j + 1] = total
    return f


def swap_delta_matrix(ranks: np.ndarray, members: Sequence[int], candidate_ranks) -> np.ndarray:
    """D after swapping member position i (column) for a record of each
    candidate rank (row), minus D before, with every D recounted from the
    trial cluster's per-rank counts over every rank; ranks are the table's
    confidential ranks, record by record."""
    n, m, s = ranks.size, int(ranks.max()) + 1, len(members)
    b = np.cumsum(np.bincount(ranks, minlength=m))
    current = np.asarray(ranks)[np.asarray(members)]

    def numerator(r):
        return int(np.abs(n * np.cumsum(np.bincount(r, minlength=m)) - s * b).sum())

    d = numerator(current)
    return np.array([[numerator(np.where(np.arange(s) == i, c, current)) - d for i in range(s)]
                     for c in candidate_ranks], dtype=np.int64)


def list_merge_until_tclose(table, partition, tau, params, ctx):
    """The merge pass over Python lists, deleting each merged-away cluster
    and rebuilding the centroid matrix for every merge; each centroid is the
    Fraction mean of the cluster's rows, rounded once."""
    if not tau >= 0:
        raise ValueError("tau must be nonnegative")
    if partition.n != table.n:
        raise ValueError("partition does not match the table size")

    emds = [ctx.cluster_emd(c.members) for c in partition.clusters]
    if max(emds) <= tau:
        return partition

    x = normalized_qi(table, params)
    groups = [c.members for c in partition.clusters]
    centroids = [fraction_mean(x[g]) for g in groups]

    while max(emds) > tau and len(groups) > 1:
        worst = int(np.argmax(emds))
        dists = sq_distances(np.array(centroids), centroids[worst])
        dists[worst] = np.inf
        other = int(np.argmin(dists))
        lo, hi = sorted((worst, other))
        merged = np.sort(np.concatenate([groups[lo], groups[hi]]))
        groups[lo] = merged
        centroids[lo] = fraction_mean(x[merged])
        emds[lo] = ctx.cluster_emd(merged)
        del groups[hi], centroids[hi], emds[hi]

    return Partition(groups)


def unique_verify_k_anonymity(anonymized: AnonymizedTable, k: int) -> KAnonymityCheck:
    """verify_k_anonymity grouping the QI rows with np.unique(axis=0)."""
    qi = anonymized.table.qi_matrix()
    _, inverse, counts = np.unique(qi, axis=0, return_inverse=True, return_counts=True)
    min_count = int(counts.min())
    if min_count >= k:
        return KAnonymityCheck(True, k, min_count, None)
    bad_group = int(np.argmin(counts))
    witness_row = int(np.flatnonzero(inverse == bad_group)[0])
    return KAnonymityCheck(False, k, min_count, tuple(float(v) for v in qi[witness_row]))


def rowwise_read_csv(path, roles: Sequence[AttributeSpec], trailing: tuple[str, ...], drop_missing: bool):
    """Read a UTF-8 CSV whose header is the declared columns, in any order,
    followed by the integer `trailing` columns. Returns the specs in file
    order, the kept rows' declared cells as an (n, declared) float array and
    their trailing cells as an (n, trailing) int64 array. A cell that parses
    to nan or an infinity counts as missing."""
    by_name = {spec.name: spec for spec in roles}
    if len(by_name) != len(roles):
        raise ValueError("duplicate attribute names in roles")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: file is empty") from None
        width = len(header) - len(trailing)
        if tuple(header[width:]) != trailing:
            raise ValueError(f"{path}: expected a trailing {', '.join(trailing)} column")
        names = header[:width]
        for name in names:
            if name not in by_name:
                raise ValueError(f"unknown column '{name}': no role declared for it")
        missing_cols = set(by_name) - set(names)
        if missing_cols:
            raise ValueError(f"declared columns missing from file: {sorted(missing_cols)}")
        specs = tuple(by_name[name] for name in names)

        rows, tails, row_nos = [], [], []
        for row_no, raw in enumerate(reader, start=1):
            if not "".join(raw).strip():
                continue
            if len(raw) != len(header):
                raise ValueError(f"row {row_no}: expected {len(header)} cells, got {len(raw)}")
            try:
                values = list(map(float, raw[:width]))
                tail = list(map(int, raw[width:]))
            except ValueError:
                try:
                    values, tail = _parse_cells(header, raw, width)
                except ValueError as exc:
                    if drop_missing:
                        continue
                    raise ValueError(f"row {row_no}, {exc}") from None
            rows += values
            tails += tail
            row_nos.append(row_no)
    cells = np.array(rows, dtype=np.float64).reshape(len(row_nos), width)
    try:
        ids = np.array(tails, dtype=np.int64).reshape(len(row_nos), len(trailing))
    except OverflowError:
        i = next(i for i, v in enumerate(tails) if not -(2**63) <= v < 2**63)
        name = trailing[i % len(trailing)]
        raise ValueError(f"row {row_nos[i // len(trailing)]}, column '{name}': "
                         "integer out of range") from None
    finite = np.isfinite(cells).all(axis=1)
    if not finite.all():
        if not drop_missing:
            i = int(np.argmin(finite))
            name = header[int(np.argmin(np.isfinite(cells[i])))]
            raise ValueError(f"row {row_nos[i]}, column '{name}': non-finite cell")
        cells, ids = cells[finite], ids[finite]
    if not len(cells):
        raise ValueError(f"{path}: no usable rows after parsing")
    return specs, cells, ids


def rowwise_write_csv(data: Union[Table, AnonymizedTable], path: Union[str, Path]) -> None:
    """Write a table (or anonymized table, with a trailing cluster_id column)
    as UTF-8 CSV. Values round-trip through load_csv exactly."""
    if isinstance(data, AnonymizedTable):
        table, ids = data.table, data.cluster_ids
    else:
        table, ids = data, None
    header = [spec.name for spec in table.specs]
    if ids is not None:
        header.append("cluster_id")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(table.n):
            row = [repr(float(v)) for v in table.rows[i]]
            if ids is not None:
                row.append(str(int(ids[i])))
            writer.writerow(row)
