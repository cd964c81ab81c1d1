from itertools import product

import numpy as np
import pytest

from tcmicro import (
    SynthConfig,
    TableEmd,
    build_cluster,
    minmax_params,
    normalized_qi,
    split_subsets,
    synth_generate,
    run_tfirst_algorithm,
    verify_k_anonymity,
    verify_t_closeness,
)
from tcmicro.microagg import sq_distances
from oracles import max_emd_bound
from util import make_ranks_table


def small_table(n=120, seed=3):
    return synth_generate(SynthConfig(n=n, qi_count=2, target_correlation=0.52, seed=seed))


def build(seed, ranked, table):
    return build_cluster(ranked, seed_row(normalized_qi(table, minmax_params(table)), seed))


def seed_row(x, seed):
    """Squared distances from the seed to every record, then +inf for the
    block's -1 slots."""
    return np.append(sq_distances(x.T, x[seed]), np.inf)


def remaining(ranked):
    """Each subset's records not yet taken, ascending."""
    return [row[row >= 0] for row in ranked.ids]


class TestSplitSubsets:
    def test_exact_division(self):
        t = make_ranks_table(6)
        ranked = split_subsets(t, 2)
        assert ranked.ids.tolist() == [[0, 1, 2], [3, 4, 5]]
        assert ranked.sizes.tolist() == [3, 3]
        assert ranked.extras == [0, 0]

    def test_odd_k_extras_in_middle(self):
        t = make_ranks_table(11)
        ranked = split_subsets(t, 3)
        assert ranked.sizes.tolist() == [3, 5, 3]
        assert ranked.ids.tolist() == [[0, 1, 2, -1, -1], [3, 4, 5, 6, 7], [8, 9, 10, -1, -1]]
        assert ranked.extras == [0, 2, 0]

    def test_even_k_extras_split_between_central(self):
        t = make_ranks_table(10)
        ranked = split_subsets(t, 4)
        assert [s.size for s in remaining(ranked)] == [2, 3, 3, 2]
        assert ranked.sizes.tolist() == [2, 3, 3, 2]
        assert ranked.extras == [0, 1, 1, 0]

    def test_subsets_follow_confidential_order(self):
        rng = np.random.default_rng(7)
        conf = rng.permutation(12).astype(float)
        t = small_table(12, 1)
        t = type(t)(t.specs, np.column_stack([t.qi_matrix(), conf]))
        ranked = split_subsets(t, 3)
        subsets = remaining(ranked)
        for lower, upper in zip(subsets, subsets[1:]):
            assert conf[lower].max() < conf[upper].min()
        for s in subsets:
            assert np.all(np.diff(s) > 0)

    def test_precondition_violation(self):
        t = make_ranks_table(10)
        # 10 mod 7 = 3 > floor(10/7) = 1
        with pytest.raises(ValueError, match="adjust"):
            split_subsets(t, 7)


class TestBuildCluster:
    def test_no_extras_gives_size_k(self):
        t = make_ranks_table(12)
        ranked = split_subsets(t, 3)
        c = build(0, ranked, t)
        assert len(c) == 3
        assert all(s.size == 3 for s in remaining(ranked))
        assert ranked.sizes.tolist() == [3, 3, 3]

    def test_extras_consumed_first_clusters(self):
        t = make_ranks_table(11)  # k=3 -> baseline 3, 2 extras in the middle
        ranked = split_subsets(t, 3)
        sizes = []
        for seed in (0, 5, 10):
            sizes.append(len(build(seed, ranked, t)))
        assert sorted(sizes) == [3, 4, 4]
        assert sum(ranked.extras) == 0

    def test_one_record_per_subset(self):
        t = make_ranks_table(12)
        ranked = split_subsets(t, 4)
        starts = [set(s) for s in remaining(ranked)]
        c = build(3, ranked, t)
        for block in starts:
            assert len(block & set(c)) == 1

    def test_every_one_per_subset_cluster_within_bound(self):
        t = make_ranks_table(6)
        bound = max_emd_bound(6, 2)
        for a, b in product(range(3), range(3, 6)):
            assert TableEmd(t).cluster_emd([a, b]) <= bound + 1e-12

    def test_block_compacts_once_half_taken(self):
        t = small_table(60, 9)
        x = normalized_qi(t, minmax_params(t))
        ranked = split_subsets(t, 5)  # 5 subsets of 12 records
        taken = set()
        for built in range(1, 7):
            taken |= set(build_cluster(ranked, seed_row(x, built)).tolist())
            assert ranked.ids.shape == (5, 12 if built < 6 else 6)
        assert len(taken) == 30
        assert (ranked.ids >= 0).all() and not taken & set(ranked.ids.ravel().tolist())
        assert (np.diff(ranked.ids, axis=1) > 0).all()  # each row still ascending

    def test_empty_subset_rejected(self):
        t = make_ranks_table(4)
        ranked = split_subsets(t, 2)
        build(0, ranked, t)
        build(0, ranked, t)
        with pytest.raises(ValueError, match="empty"):
            build(0, ranked, t)


class TestRunTfirst:
    def test_table3_sweep_k2(self, mcd_table):
        expect = {0.01: 49, 0.05: 10, 0.09: 6, 0.13: 4, 0.17: 3, 0.21: 3, 0.25: 2}
        for tau, size in expect.items():
            anon, part, report = run_tfirst_algorithm(mcd_table, 2, tau)
            assert report.k_min_actual == size
            if 1080 % size == 0:
                assert report.k_avg_actual == size
            else:
                # 1080 = 22*49 + 2: two clusters carry one extra record each
                assert round(report.k_avg_actual) == size
                assert sorted(part.sizes()).count(size + 1) == 1080 % size
            assert verify_t_closeness(mcd_table, anon, tau).ok

    def test_k_dominates(self, mcd_table):
        _, _, report = run_tfirst_algorithm(mcd_table, 20, 0.09)
        assert report.k_min_actual == report.k_avg_actual == 20

    def test_balanced_when_size_divides_n(self):
        t = small_table(120, 5)
        _, part, _ = run_tfirst_algorithm(t, 2, 0.05)
        sizes = set(part.sizes())
        assert len(sizes) == 1  # perfectly balanced

    def test_uniform_subset_depletion(self):
        t = small_table(60, 9)
        ranked = split_subsets(t, 5)
        baseline = t.n // 5
        for built in range(1, 4):
            build(built, ranked, t)
            assert all(s.size == baseline - built for s in remaining(ranked))
            assert ranked.sizes.tolist() == [baseline - built] * 5

    def test_nondivisible_sizes_and_guarantee(self):
        t = small_table(101, 11)
        for k, tau in [(2, 0.2), (3, 0.07), (4, 0.12)]:
            anon, part, report = run_tfirst_algorithm(t, k, tau)
            assert verify_t_closeness(t, anon, tau).ok
            assert verify_k_anonymity(anon, k).ok
            assert report.k_min_actual >= k

    def test_sizes_k_or_k_plus_one_with_counts(self):
        t = small_table(101, 13)
        _, part, _ = run_tfirst_algorithm(t, 3, 0.2)
        # formula size for t=0.2 is small, so k'=3; 101 = 33*3 + 2
        sizes = sorted(part.sizes())
        assert sizes.count(4) == 101 % 3
        assert set(sizes) <= {3, 4}

    def test_rejects_bad_params(self):
        t = small_table(30, 2)
        with pytest.raises(ValueError):
            run_tfirst_algorithm(t, 1, 0.1)
        with pytest.raises(ValueError):
            run_tfirst_algorithm(t, 2, 0.0)

    def test_tiny_tau_single_cluster(self):
        t = small_table(40, 4)
        _, part, report = run_tfirst_algorithm(t, 2, 1e-9)
        assert len(part) == 1
        assert report.max_cluster_emd == 0.0

    def test_every_cluster_takes_one_record_per_rank_block(self):
        # k'=5 for these parameters and divides n, so the construction is
        # visible unmodified in the output
        t = small_table(120, 31)
        _, part, _ = run_tfirst_algorithm(t, 3, 0.1)
        blocks = [set(s) for s in remaining(split_subsets(t, 5))]
        assert len(part) == 24
        for c in part.clusters:
            assert [len(set(c.members) & b) for b in blocks] == [1] * 5
