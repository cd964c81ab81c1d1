import numpy as np
import pytest
from scipy.optimize import linprog

from tcmicro import (
    AnonymizedTable,
    AttributeSpec,
    Partition,
    Role,
    SynthConfig,
    Table,
    TableEmd,
    aggregate,
    mdav_partition,
    minmax_params,
    normalized_sse,
    run_kfirst_algorithm,
    synth_generate,
    verify_k_anonymity,
    verify_t_closeness,
)
from tcmicro.metrics import make_report
from oracles import Distribution, emd_ordered, transport_oracle_emd
from util import groups, make_1d_table, make_ranks_table


def linprog_emd(p: Distribution, q: Distribution) -> float:
    """Exact transport LP: an oracle for the oracle, on tiny supports."""
    m = p.m
    cost = np.abs(np.subtract.outer(np.arange(m), np.arange(m))).ravel() / (m - 1)
    a_eq = np.zeros((2 * m, m * m))
    for i in range(m):
        a_eq[i, i * m : (i + 1) * m] = 1.0  # row sums = p
        a_eq[m + i, i::m] = 1.0  # column sums = q
    res = linprog(cost, A_eq=a_eq, b_eq=np.concatenate([p.mass, q.mass]), method="highs")
    assert res.success
    return float(res.fun)


class TestNormalizedSse:
    def test_identity_is_zero(self):
        t = make_ranks_table(10)
        part = Partition([[i] for i in range(10)])
        assert normalized_sse(t, aggregate(t, part), minmax_params(t)) == 0.0

    def test_two_point_collapse(self):
        # one QI of range 10 collapsed to the midpoint, one unchanged
        # confidential: (1/2) * [(1/2)(0.25) + (1/2)(0.25)] = 0.125
        t = make_1d_table([0, 10], [1, 2])
        anon = aggregate(t, Partition([[0, 1]]))
        assert normalized_sse(t, anon, minmax_params(t)) == pytest.approx(0.125, abs=1e-15)

    def test_refinement_never_worse(self):
        t = synth_generate(SynthConfig(n=80, qi_count=2, target_correlation=0.5, seed=6))
        params = minmax_params(t)
        coarse = normalized_sse(t, aggregate(t, Partition([np.arange(80)])), params)
        for k in (2, 5, 10):
            fine = normalized_sse(t, aggregate(t, mdav_partition(t, params, k)), params)
            assert fine <= coarse + 1e-12

    def test_bounded_by_one(self):
        t = synth_generate(SynthConfig(n=50, qi_count=3, target_correlation=0.2, seed=9))
        params = minmax_params(t)
        sse = normalized_sse(t, aggregate(t, Partition([np.arange(50)])), params)
        assert 0.0 <= sse <= 1.0

    def test_shape_mismatch(self):
        t = make_ranks_table(4)
        other = make_ranks_table(5)
        anon = aggregate(other, Partition([np.arange(5)]))
        with pytest.raises(ValueError):
            normalized_sse(t, anon, minmax_params(t))


class TestVerifyKAnonymity:
    def test_aggregated_partition_passes(self):
        t = synth_generate(SynthConfig(n=60, qi_count=2, target_correlation=0.3, seed=2))
        part = mdav_partition(t, minmax_params(t), 5)
        anon = aggregate(t, part)
        assert verify_k_anonymity(anon, 5).ok

    def test_fails_one_above_min_size(self):
        t = synth_generate(SynthConfig(n=60, qi_count=2, target_correlation=0.3, seed=2))
        part = mdav_partition(t, minmax_params(t), 5)
        anon = aggregate(t, part)
        check = verify_k_anonymity(anon, min(part.sizes()) + 1)
        assert not check.ok
        assert check.witness is not None

    def test_raw_distinct_table_fails(self):
        t = make_ranks_table(8)
        anon = AnonymizedTable(t, np.arange(8))
        check = verify_k_anonymity(anon, 2)
        assert not check.ok and check.min_count == 1


class TestVerifyTCloseness:
    def test_single_cluster_passes_any_tau(self):
        t = make_ranks_table(12)
        part = Partition([np.arange(12)])
        assert verify_t_closeness(t, aggregate(t, part), 0.0).ok

    def test_halves_of_six_fail_at_point_two(self):
        t = make_ranks_table(6)
        part = Partition([[0, 1, 2], [3, 4, 5]])
        check = verify_t_closeness(t, aggregate(t, part), 0.2)
        assert not check.ok
        assert check.max_emd == pytest.approx(0.3, abs=1e-12)  # by cumulative sums

    def test_reports_worst_cluster(self):
        t = make_ranks_table(8)
        part = Partition([[0, 1], [2, 3, 4, 5], [6, 7]])
        check = verify_t_closeness(t, aggregate(t, part), 0.05)
        worst = check.worst_cluster
        assert worst in (0, 2)  # the tail pairs are the farthest from uniform

    def test_no_slack_above_tau(self):
        # the check is emd <= tau on the kernel's EMD, with no allowance
        t = make_ranks_table(6)
        part = Partition([[0, 1, 2], [3, 4, 5]])
        anon = aggregate(t, part)
        assert verify_t_closeness(t, anon, 0.3).ok
        assert not verify_t_closeness(t, anon, 0.3 - 1e-6).ok
        assert not verify_t_closeness(t, anon, 0.3 - 0.5e-9).ok

    def test_groups_unsorted_ids_with_gaps(self):
        # classes are the rows sharing a cluster id, whatever the ids' order
        # or gaps, and the worst class is named by its id, not its position
        t = make_ranks_table(8)
        ids = np.array([7, 2, 7, 9, 2, 2, 40, 7])
        check = verify_t_closeness(t, AnonymizedTable(t, ids), 0.3)
        ctx = TableEmd(t)
        emds = [ctx.cluster_emd(g) for g in ([1, 4, 5], [0, 2, 7], [3], [6])]
        assert check.max_emd == max(emds) == emds[3]
        assert check.worst_cluster == 40
        assert not check.ok

    def test_coincident_centroids_publish_one_t_close_class(self):
        # kfirst's swaps give clusters {1, 3} and {0, 5} different QI rows
        # with one exact centroid, (1, 1.5), so they publish one class; the
        # EMD to a fixed marginal is convex in the class's distribution, so
        # the union of two t-close clusters is t-close too
        qi_a, qi_b = (AttributeSpec(name, Role.QUASI_IDENTIFIER) for name in "ab")
        specs = (qi_a, qi_b, AttributeSpec("s", Role.CONFIDENTIAL))
        rows = [[0, 2, 0], [1, 1, 1], [0, 0, 1], [1, 2, 0], [1, 0, 2], [2, 1, 3]]
        t = Table(specs, np.array(rows, dtype=np.float64))
        anon, part, _ = run_kfirst_algorithm(t, 2, 0.25)
        assert [g.tolist() for g in groups(part)] == [[1, 3], [2, 4], [0, 5]]
        qi = anon.table.qi_matrix()
        assert qi[[0, 1, 3, 5]].tolist() == [[1.0, 1.5]] * 4
        assert verify_k_anonymity(anon, 2).ok
        assert verify_t_closeness(t, anon, 0.25).ok
        # the same check on the published classes, labelled by their QI rows
        _, classes = np.unique(qi, axis=0, return_inverse=True)
        by_class = verify_t_closeness(t, AnonymizedTable(anon.table, classes.ravel()), 0.25)
        assert by_class.ok
        assert by_class.max_emd <= verify_t_closeness(t, anon, 0.25).max_emd


class TestTransportOracle:
    def test_identical(self):
        d = Distribution([1, 2, 3], [0.2, 0.3, 0.5])
        assert transport_oracle_emd(d, d) == 0.0

    def test_full_range_move(self):
        p = Distribution([1, 2, 3, 4], [1.0, 0.0, 0.0, 0.0])
        q = Distribution([1, 2, 3, 4], [0.0, 0.0, 0.0, 1.0])
        assert transport_oracle_emd(p, q) == pytest.approx(1.0, abs=1e-15)

    def test_agrees_with_formula_on_randoms(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            m = int(rng.integers(2, 9))
            support = np.arange(m, dtype=float)
            p = Distribution(support, rng.dirichlet(np.ones(m)))
            q = Distribution(support, rng.dirichlet(np.ones(m)))
            assert transport_oracle_emd(p, q) == pytest.approx(emd_ordered(p, q), abs=1e-9)

    def test_oracle_is_lp_optimal(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            m = int(rng.integers(2, 7))
            support = np.arange(m, dtype=float)
            p = Distribution(support, rng.dirichlet(np.ones(m)))
            q = Distribution(support, rng.dirichlet(np.ones(m)))
            assert transport_oracle_emd(p, q) == pytest.approx(linprog_emd(p, q), abs=1e-8)


def report_of(clusters) -> tuple:
    """make_report's cluster sizes and worst EMD for these clusters of a
    ranks table, with partition_emds' largest EMD."""
    table, part = make_ranks_table(sum(map(len, clusters))), Partition(clusters)
    ctx = TableEmd(table)
    report = make_report(
        "mdav", table, minmax_params(table), ctx, part, aggregate(table, part), 2, 0.5, 0.0
    )
    top = ctx.partition_emds(part.order, part.starts).max()
    return report.k_min_actual, report.k_avg_actual, report.max_cluster_emd, top


class TestClusterSizeStats:
    def test_mixed_sizes(self):
        k_min, k_avg, worst, top = report_of([[0, 1, 2], [3, 4, 5, 6]])
        assert (k_min, k_avg) == (3, 3.5)
        assert worst == top > 0

    def test_uniform(self):
        k_min, k_avg, worst, top = report_of([np.arange(i * 10, (i + 1) * 10) for i in range(4)])
        assert (k_min, k_avg) == (10, 10.0)
        assert worst == top > 0
