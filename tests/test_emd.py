from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcmicro import (
    AnonymizedTable,
    SynthConfig,
    TableEmd,
    adjust_cluster_size,
    emd,
    min_emd_bound,
    required_cluster_size,
    synth_generate,
    verify_t_closeness,
)
from oracles import (
    Distribution,
    distribution_of,
    emd_numerator,
    emd_ordered,
    exact_emd,
    max_emd_bound,
    transport_oracle_emd,
)
from util import make_1d_table, make_ranks_table, swap_paths


def uniform(m, support=None):
    support = np.arange(1, m + 1) if support is None else support
    return Distribution(support, np.full(m, 1.0 / m))


class TestDistribution:
    def test_counting(self):
        d = distribution_of([1, 1, 2], [1, 2, 3])
        assert np.allclose(d.mass, [2 / 3, 1 / 3, 0.0])

    def test_full_column_is_marginal(self):
        t = make_ranks_table(6)
        conf = t.confidential_column()
        d = distribution_of(conf, np.unique(conf))
        assert np.allclose(d.mass, np.full(6, 1 / 6))

    def test_value_outside_support(self):
        with pytest.raises(ValueError, match="support"):
            distribution_of([1, 4], [1, 2, 3])

    def test_mass_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Distribution([1, 2], [0.6, 0.6])

    def test_support_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Distribution([1, 1, 2], [0.5, 0.25, 0.25])


class TestEmdOrdered:
    def test_identical_is_zero(self):
        d = uniform(3)
        assert emd_ordered(d, d) == 0.0

    def test_half_mass_low_vs_uniform(self):
        p = Distribution([10, 20, 30, 40], [0.5, 0.5, 0.0, 0.0])
        q = uniform(4, [10, 20, 30, 40])
        assert emd_ordered(p, q) == pytest.approx(1 / 3, abs=1e-15)

    def test_ranks_one_and_four_of_six(self):
        # by cumulative sums: per-rank deviations 1/3,1/6,0,1/3,1/6,0 over m-1=5
        p = Distribution(range(1, 7), [0.5, 0, 0, 0.5, 0, 0])
        assert emd_ordered(p, uniform(6)) == pytest.approx(0.2, abs=1e-15)

    def test_single_point_support(self):
        d = Distribution([5.0], [1.0])
        assert emd_ordered(d, d) == 0.0

    def test_support_mismatch(self):
        with pytest.raises(ValueError, match="support"):
            emd_ordered(uniform(3), uniform(4))

    def test_metric_properties_random(self):
        rng = np.random.default_rng(17)
        support = np.arange(7)
        for _ in range(200):
            masses = rng.dirichlet(np.ones(7), size=3)
            p, q, r = (Distribution(support, m) for m in masses)
            dpq = emd_ordered(p, q)
            assert dpq >= 0.0
            assert dpq == pytest.approx(emd_ordered(q, p), abs=1e-15)
            assert emd_ordered(p, p) == 0.0
            assert dpq <= emd_ordered(p, r) + emd_ordered(r, q) + 1e-12

    def test_matches_transport_oracle_random(self):
        rng = np.random.default_rng(91)
        for _ in range(100):
            m = rng.integers(2, 9)
            support = np.cumsum(rng.uniform(0.1, 1.0, size=m))
            p = Distribution(support, rng.dirichlet(np.ones(m)))
            q = Distribution(support, rng.dirichlet(np.ones(m)))
            assert emd_ordered(p, q) == pytest.approx(transport_oracle_emd(p, q), abs=1e-9)


class TestClusterVsTable:
    def test_all_records_zero(self):
        t = make_ranks_table(9)
        assert TableEmd(t).cluster_emd(np.arange(9)) == 0.0

    def test_two_of_four(self):
        t = make_ranks_table(4)
        assert TableEmd(t).cluster_emd([0, 1]) == pytest.approx(1 / 3, abs=1e-15)

    def test_median_singleton_minimal_by_exhaustion(self):
        t = make_ranks_table(7)
        emds = [TableEmd(t).cluster_emd([i]) for i in range(7)]
        assert np.argmin(emds) == 3  # the median rank

    def test_empty_cluster_rejected(self):
        t = make_ranks_table(4)
        with pytest.raises(ValueError):
            TableEmd(t).cluster_emd(np.array([], dtype=int))


@st.composite
def partitioned_tables(draw):
    """A confidential column with ties, sometimes a single value (m == 1) or
    a few rows repeated whole, and a partition of its records into clusters
    of random labels, into singletons, or into one cluster holding the whole
    table (k == n)."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, n))
    ranks = np.array(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
    if draw(st.booleans()):
        # duplicate rows: the first few rows tiled over the whole table
        ranks = np.resize(ranks[: draw(st.integers(1, n))], n)
    values = draw(st.lists(st.floats(-1e6, 1e6), min_size=m, max_size=m, unique=True))
    table = make_1d_table(np.zeros(n), np.array(values)[ranks])
    shape = draw(st.sampled_from(["labels", "singletons", "whole"]))
    if shape == "labels":
        labels = np.array(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
    else:
        labels = np.arange(n) if shape == "singletons" else np.zeros(n, dtype=int)
    order = draw(st.permutations(np.unique(labels).tolist()))
    return table, [np.flatnonzero(labels == c) for c in order]


def verified_worst(table, groups) -> tuple[float, int]:
    """verify_t_closeness's largest EMD and worst cluster id over a release
    that gives the records of groups[i] the cluster id i."""
    ids = np.empty(table.n, dtype=np.int64)
    for i, g in enumerate(groups):
        ids[g] = i
    check = verify_t_closeness(table, AnonymizedTable(table, ids), 1.0)
    return check.max_emd, check.worst_cluster


def assert_kernel_is_exact(table, groups):
    ctx = TableEmd(table)
    order, starts = np.concatenate(groups), np.cumsum([0] + [len(g) for g in groups[:-1]])
    emds = ctx.partition_emds(order, starts)
    single = np.array([ctx.cluster_emd(g) for g in groups])
    assert emds.tobytes() == single.tobytes()
    conf = table.confidential_column()
    assert emds.tolist() == [exact_emd(conf, g) for g in groups]
    whole = distribution_of(conf, ctx.support)
    ordered = [emd_ordered(distribution_of(conf[g], ctx.support), whole) for g in groups]
    assert emds == pytest.approx(ordered, abs=1e-12)
    worst = int(np.argmax(emds))
    assert verified_worst(table, groups) == (emds[worst], worst)


class TestPartitionEmds:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(partitioned_tables())
    def test_equals_cluster_emd_and_integer_oracle(self, case):
        assert_kernel_is_exact(*case)

    @pytest.mark.parametrize("n, m, clusters", [(3000, 3000, 60), (3000, 40, 300), (4000, 1, 7)])
    def test_large_support_and_mixed_cluster_sizes(self, n, m, clusters):
        rng = np.random.default_rng(n + m)
        table = make_1d_table(np.zeros(n), rng.integers(0, m, size=n).astype(float))
        cuts = np.sort(rng.choice(np.arange(1, n), size=clusters - 1, replace=False))
        assert_kernel_is_exact(table, np.split(rng.permutation(n), cuts))

    def test_exact_ties_take_the_lowest_index(self):
        # the singletons of the lowest value, records 2 and 4, tie for the
        # worst EMD bit for bit
        table = make_1d_table(np.zeros(6), [2.0, 3.0, 1.0, 3.0, 1.0, 3.0])
        ctx = TableEmd(table)
        assert ctx.cluster_emd([4]) == ctx.cluster_emd([2])
        assert verified_worst(table, [[i] for i in range(6)]) == (ctx.cluster_emd([2]), 2)

    def test_whole_table_is_exactly_zero(self):
        t = synth_generate(SynthConfig(n=500, qi_count=2, target_correlation=0.52, seed=4))
        ctx = TableEmd(t)
        assert emd_numerator(t.confidential_column(), np.arange(500)) == 0
        assert ctx.partition_emds(np.arange(500), np.array([0])).tolist() == [0.0]
        assert verified_worst(t, [np.arange(500)]) == (0.0, 0)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            TableEmd(make_ranks_table(4)).partition_emds(np.arange(4), np.array([0, 4]))


def counts_only_emd(n: int, m: int) -> TableEmd:
    """A TableEmd of n records over m distinct values with no table behind
    it, for tables too large to build here: tau_threshold reads only n and
    m."""
    ctx = TableEmd.__new__(TableEmd)
    ctx.n, ctx.m, ctx._threshold = n, m, (None, None, None)
    return ctx


@st.composite
def threshold_cases(draw):
    """(n, m, s, tau): n records over m distinct values, m = 1 included and
    n * n * m < 2**63, a cluster size s <= n, and a tau at or a few ulps
    from one cluster's rounded EMD, or anywhere in (0, 2)."""
    n = draw(st.one_of(st.integers(1, 50), st.integers(2**18, 2**21 - 1)))
    m = draw(st.one_of(st.just(1), st.integers(1, min(n, (2**63 - 1) // (n * n)))))
    s = draw(st.integers(1, n))
    den = s * n * (m - 1)
    if den and draw(st.booleans()):
        tau = float(np.int64(draw(st.integers(0, den))) / np.int64(den))
        for _ in range(draw(st.integers(0, 2))):
            tau = float(np.nextafter(tau, draw(st.sampled_from([0.0, 2.0]))))
    else:
        tau = draw(st.floats(0, 2, exclude_min=True))
    return n, m, s, tau


class TestTauThreshold:
    # s n (m - 1) and D* above 2**53, where consecutive numerators round to
    # one float: at tau = 0.1, and at the rounded EMD of D = 2**60 + 1
    @example(case=(2**21 - 1, 2**20, 2**21 - 1, 0.1))
    @example(case=(2**21 - 1, 2**20, 2**21 - 1,
                   float(np.int64(2**60 + 1) / np.int64((2**21 - 1) ** 2 * (2**20 - 1)))))
    @example(case=(7, 1, 3, 0.25))
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(threshold_cases())
    def test_integer_threshold_is_the_float_rule(self, case):
        # every D within 3 of D*, and 0 and s n (m - 1), the largest D
        n, m, s, tau = case
        ctx = counts_only_emd(n, m)
        star = ctx.tau_threshold(s, tau)
        den = s * n * (m - 1)
        with np.errstate(invalid="ignore"):
            for d in [0, den, *range(star - 3, star + 4)]:
                if 0 <= d <= den:
                    assert (d >= star) == (float(np.int64(d) / np.int64(den)) > tau)
        # no EMD exceeds 2, and the kept value follows the last (s, tau)
        assert ctx.tau_threshold(s, 2.0) == den + 1
        assert ctx.tau_threshold(s, tau) == star

    def test_on_a_table(self):
        # every pair of the ranks 1..6, at taus equal to and between their
        # EMDs
        table = make_ranks_table(6)
        ctx = TableEmd(table)
        for tau in (0.1, 0.2, 1 / 6, 4 / 15, 0.4):
            star = ctx.tau_threshold(2, tau)
            for pair in combinations(range(6), 2):
                d = emd_numerator(table.confidential_column(), pair)
                assert (d >= star) == (ctx.cluster_emd(pair) > tau)


@st.composite
def small_clusters(draw):
    """A column of n = m * reps records over m ranks, each rank held by reps
    records, and a cluster of s <= _LOOP_SIZE of them whose ranks repeat and
    take the ends 0 and m - 1 often."""
    s = draw(st.integers(1, emd._LOOP_SIZE))
    m = draw(st.integers(1, 9))
    reps = draw(st.integers(s, s + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ranks = rng.permutation(np.arange(m * reps) % m)
    ends = st.sampled_from([0, m - 1])
    wanted = draw(st.lists(st.one_of(ends, st.integers(0, m - 1)), min_size=s, max_size=s))
    members = []
    for r in set(wanted):
        members += rng.choice(np.flatnonzero(ranks == r), wanted.count(r), replace=False).tolist()
    return make_1d_table(np.zeros(ranks.size), ranks * 1.5 - 2), np.array(members)


class TestSmallNumerator:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(small_clusters())
    def test_python_ints_match_the_numpy_kernel(self, case):
        table, members = case
        ctx = TableEmd(table)
        ranks = np.sort(ctx.ranks[members])
        d = ctx._numerator(ranks)
        assert type(d) is int
        assert d == emd_numerator(table.confidential_column(), members)
        with swap_paths(True, loop=False):
            assert ctx._numerator(ranks) == d
        kernel = ctx.partition_emds(np.sort(members), np.array([0]))
        assert np.float64(ctx.cluster_emd(members)).tobytes() == kernel.tobytes()


class TestInt64Range:
    def test_rejects_a_table_at_the_limit(self, monkeypatch):
        # n * n * m = 125 for five distinct values; the real limit is 2**63
        table = make_ranks_table(5)
        monkeypatch.setattr(emd, "_INT64_RANGE", 126)
        assert TableEmd(table).cluster_emd([0, 1]) == pytest.approx(0.375, abs=1e-15)
        monkeypatch.setattr(emd, "_INT64_RANGE", 125)
        with pytest.raises(ValueError, match=r"n=5 records over m=5 .* n \* n \* m < 2\*\*63"):
            TableEmd(table)

    def test_limit_is_the_int64_range(self):
        assert emd._INT64_RANGE == int(np.iinfo(np.int64).max) + 1


class TestMinBound:
    def test_n6_k2_value_and_brute_force(self):
        bound = min_emd_bound(6, 2)
        assert bound == pytest.approx(32 / 240, abs=1e-15)
        t = make_ranks_table(6)
        emds = {c: TableEmd(t).cluster_emd(c) for c in combinations(range(6), 2)}
        assert min(emds.values()) == pytest.approx(bound, abs=1e-12)
        # n/k = 3 is odd: the minimum sits at the medians of the two halves
        assert emds[(1, 4)] == pytest.approx(bound, abs=1e-12)

    def test_cluster_equals_table(self):
        assert min_emd_bound(8, 8) == 0.0

    def test_closed_form_1080_10(self):
        expected = Fraction((1080 + 10) * (1080 - 10), 4 * 1080 * 1079 * 10)
        assert min_emd_bound(1080, 10) == pytest.approx(float(expected), abs=1e-15)

    def test_not_tight_when_quotient_even(self):
        # n=4, k=2: true minimum by exhaustion is 1/6, above the 0.125 bound
        t = make_ranks_table(4)
        best = min(TableEmd(t).cluster_emd(c) for c in combinations(range(4), 2))
        assert best == pytest.approx(1 / 6, abs=1e-12)
        assert best > min_emd_bound(4, 2)

    def test_domain(self):
        with pytest.raises(ValueError):
            min_emd_bound(5, 1)
        with pytest.raises(ValueError):
            min_emd_bound(5, 6)


class TestMaxBound:
    def test_n6_k2_attained_at_min_end(self):
        t = make_ranks_table(6)
        # one record per ascending 3-subset: offsets over {0,1,2} x {3,4,5}
        emds = {
            (a, b): TableEmd(t).cluster_emd([a, b])
            for a in range(3)
            for b in range(3, 6)
        }
        assert max(emds.values()) == pytest.approx(max_emd_bound(6, 2), abs=1e-12)
        assert emds[(0, 3)] == pytest.approx(0.2, abs=1e-12)

    def test_cluster_equals_table(self):
        assert max_emd_bound(5, 5) == 0.0

    def test_1080_2_near_quarter(self):
        assert max_emd_bound(1080, 2) == pytest.approx(0.24977, abs=5e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            max_emd_bound(1, 1)


class TestRequiredSize:
    def test_tight_threshold(self):
        assert required_cluster_size(1080, 2, 0.01) == 48
        assert required_cluster_size(1080, 2, 0.05) == 10

    def test_k_dominates(self):
        assert required_cluster_size(1080, 15, 0.05) == 15

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            required_cluster_size(1080, 2, 0.0)

    def test_nonincreasing_in_t_and_at_least_k(self):
        sizes = [required_cluster_size(500, 3, t) for t in np.linspace(0.005, 0.3, 40)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert all(s >= 3 for s in sizes)


class TestAdjustSize:
    def test_1080_48_becomes_49(self):
        # 1080 mod 48 = 24 > floor(1080/48) = 22, so one bump; 1080 mod 49 = 2
        assert adjust_cluster_size(1080, 48) == 49

    def test_exact_division_unchanged(self):
        assert adjust_cluster_size(1080, 10) == 10

    def test_small_remainder_unchanged(self):
        assert adjust_cluster_size(100, 7) == 7

    def test_postcondition_random(self):
        rng = np.random.default_rng(33)
        for _ in range(300):
            n = int(rng.integers(4, 5000))
            k = int(rng.integers(2, n + 1))
            kk = adjust_cluster_size(n, k)
            assert kk >= k
            assert n % kk <= n // kk
