from itertools import combinations

import numpy as np
import pytest

from tcmicro import (
    AttributeSpec,
    Cluster,
    Partition,
    Role,
    SynthConfig,
    Table,
    aggregate,
    mdav_partition,
    minmax_params,
    normalized_qi,
    run_kfirst_algorithm,
    run_merge_algorithm,
    run_tfirst_algorithm,
    synth_generate,
    verify_k_anonymity,
)
import tcmicro.kfirst
import tcmicro.microagg
import tcmicro.tfirst
from tcmicro.microagg import seeded_partition, sq_distances
from util import make_1d_table, make_ranks_table, same_bits

SPECS_2QI = (
    AttributeSpec("a", Role.QUASI_IDENTIFIER),
    AttributeSpec("b", Role.QUASI_IDENTIFIER),
    AttributeSpec("s", Role.CONFIDENTIAL),
)


def record_distance(table, i, j):
    x = normalized_qi(table, minmax_params(table))
    return float(np.sqrt(((x[i] - x[j]) ** 2).sum()))


def random_table(n, seed):
    rng = np.random.default_rng(seed)
    return Table(SPECS_2QI, rng.uniform(-50, 50, size=(n, 3)))


class TestClusterPartition:
    def test_cluster_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            Cluster([])
        with pytest.raises(ValueError):
            Cluster([1, 1, 2])

    def test_partition_must_cover(self):
        # two records, so index 1 is missing and index 2 out of range
        with pytest.raises(ValueError, match="cover"):
            Partition([[0, 2]])

    def test_partition_must_be_disjoint(self):
        with pytest.raises(ValueError, match="cover"):
            Partition([[0, 1], [1, 2]])

    def test_partition_needs_a_cluster(self):
        with pytest.raises(ValueError, match="at least one cluster"):
            Partition([])

    def test_partition_rejects_an_empty_cluster(self):
        with pytest.raises(ValueError, match="at least one record"):
            Partition([[0, 1], []])

    def test_partition_rejects_a_negative_index(self):
        with pytest.raises(ValueError, match="cover"):
            Partition([[1, -1], [0]])

    def test_partition_sorts_within_clusters(self):
        first = np.array([4, 0, 2])
        part = Partition([first, [3, 1]])
        assert first.tolist() == [4, 0, 2]
        assert [c.members.tolist() for c in part.clusters] == [[0, 2, 4], [1, 3]]
        assert part.order.tolist() == [0, 2, 4, 1, 3]
        assert part.starts.tolist() == [0, 3]
        assert part.order.dtype == part.starts.dtype == np.int64
        assert not part.order.flags.writeable and not part.starts.flags.writeable
        assert (len(part), part.n, part.sizes()) == (2, 5, [3, 2])
        assert all(type(size) is int for size in part.sizes())


class TestRecordDistance:
    def test_identical_rows(self):
        t = make_1d_table([3, 3, 7], [1, 2, 3])
        assert record_distance(t, 0, 1) == 0.0

    def test_full_range_is_one(self):
        t = make_1d_table([0, 10], [1, 2])
        assert record_distance(t, 0, 1) == 1.0

    def test_two_full_ranges_sqrt2(self):
        t = Table(SPECS_2QI, np.array([[0.0, -5.0, 1.0], [10.0, 5.0, 2.0]]))
        d = record_distance(t, 0, 1)
        assert d == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_range_overflowing_float64_is_rejected(self):
        # max - min = 2e308 overflows, so normalizing would give nan, on
        # which the seeding cannot pick or average
        t = make_1d_table([1e308, -1e308, 0.0, 5.0], [1, 2, 3, 4])
        with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match="overflows"):
            normalized_qi(t, minmax_params(t))
        with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match="overflows"):
            run_merge_algorithm(t, 2, 1.0)

    def test_symmetry(self):
        t = random_table(10, 2)
        assert record_distance(t, 2, 7) == record_distance(t, 7, 2)


class TestMdav:
    def test_two_obvious_groups(self):
        t = make_1d_table([1, 2, 3, 101, 102, 103], [1, 2, 3, 4, 5, 6])
        part = mdav_partition(t, minmax_params(t), 3)
        groups = {tuple(c.members) for c in part.clusters}
        assert groups == {(0, 1, 2), (3, 4, 5)}

    def test_two_groups_is_sse_optimum_by_exhaustion(self):
        t = make_1d_table([1, 2, 3, 101, 102, 103], [1, 2, 3, 4, 5, 6])
        x = normalized_qi(t, minmax_params(t))

        def sse_of(groups):
            return sum(((x[list(g)] - x[list(g)].mean(0)) ** 2).sum() for g in groups)

        best = min(
            sse_of([c, tuple(set(range(6)) - set(c))]) for c in combinations(range(6), 3)
        )
        part = mdav_partition(t, minmax_params(t), 3)
        assert sse_of([tuple(c.members) for c in part.clusters]) == pytest.approx(best)

    def test_residual_absorption(self):
        t = make_ranks_table(7)
        part = mdav_partition(t, minmax_params(t), 3)
        assert sorted(part.sizes()) == [3, 4]

    def test_k_equals_n(self):
        t = make_ranks_table(5)
        part = mdav_partition(t, minmax_params(t), 5)
        assert len(part) == 1 and part.sizes() == [5]

    def test_k_larger_than_n(self):
        t = make_ranks_table(4)
        with pytest.raises(ValueError):
            mdav_partition(t, minmax_params(t), 5)

    def test_size_bounds_and_count(self):
        for seed, n, k in [(1, 53, 4), (2, 80, 7), (3, 41, 2), (4, 60, 20)]:
            t = random_table(n, seed)
            part = mdav_partition(t, minmax_params(t), k)
            sizes = part.sizes()
            assert min(sizes) >= k
            assert max(sizes) <= 2 * k - 1
            assert len(part) == n // k

    def test_deterministic(self):
        t = random_table(64, 9)
        p1 = mdav_partition(t, minmax_params(t), 5)
        p2 = mdav_partition(t, minmax_params(t), 5)
        assert [tuple(c.members) for c in p1.clusters] == [tuple(c.members) for c in p2.clusters]


class TestSeededPartition:
    def test_seeds_alternate_between_average_and_previous_seed(self):
        # on evenly spaced points the average-farthest seed is the lowest
        # remaining index (a tie with the highest), the next the farthest
        # from it
        t = make_ranks_table(7)
        x = normalized_qi(t, minmax_params(t))
        part = seeded_partition(x, lambda seed, ids, alive, dist: np.array([seed]))
        assert [int(c.members[0]) for c in part.clusters] == [0, 6, 1, 5, 2, 4, 3]

    def test_build_sees_only_unassigned_records(self):
        # ids ascend, alive marks exactly the unassigned records, dead slots
        # read +inf and live slots are the seed's sq_distances row bit for bit
        t = make_ranks_table(9)
        x = normalized_qi(t, minmax_params(t))
        pools = []

        def build(seed, ids, alive, dist):
            assert_row(x, seed, ids, alive, dist)
            pool = ids[alive]
            pools.append(pool)
            assert seed in pool
            return pool[:3]

        part = seeded_partition(x, build)
        assert part.sizes() == [3, 3, 3]
        assert [p.size for p in pools] == [9, 6, 3]
        taken = [set(c.members.tolist()) for c in part.clusters]
        for pool, before in zip(pools, ([], taken[:1], taken[:2])):
            assert set(pool.tolist()) == set(range(9)).difference(*before)

    @pytest.mark.parametrize(
        "module, run",
        [
            (tcmicro.microagg, run_merge_algorithm),
            (tcmicro.kfirst, run_kfirst_algorithm),
            (tcmicro.tfirst, run_tfirst_algorithm),
        ],
    )
    def test_no_build_modifies_dist(self, monkeypatch, module, run):
        # the loop reuses dist for the next pick, so a build must leave it,
        # ids and alive as they came; 5 QIs, and k, t chosen so kfirst swaps
        # and tfirst places extras
        t = synth_generate(SynthConfig(n=103, qi_count=5, target_correlation=0.52, seed=4))
        seeds, dead_slots = [], []

        def checked(x, build):
            def wrapped(seed, ids, alive, dist):
                assert_row(x, seed, ids, alive, dist)
                dead_slots.append(alive.size - np.count_nonzero(alive))
                before = [a.copy() for a in (ids, alive, dist)]
                members = build(seed, ids, alive, dist)
                assert all(same_bits(a, b) for a, b in zip((ids, alive, dist), before))
                seeds.append(seed)
                return members

            return seeded_partition(x, wrapped)

        _, want, _ = run(t, 3, 0.15)
        monkeypatch.setattr(module, "seeded_partition", checked)
        _, got, _ = run(t, 3, 0.15)
        assert len(seeds) >= 10 and max(dead_slots) > 0
        assert [c.members.tolist() for c in got.clusters] == [
            c.members.tolist() for c in want.clusters
        ]


def assert_row(x, seed, ids, alive, dist):
    """The builder contract: ids ascend, alive and dist align with them,
    dead slots read +inf and live ones are the seed's squared distances."""
    assert ids.shape == alive.shape == dist.shape
    assert np.all(np.diff(ids) > 0)
    assert alive[np.searchsorted(ids, seed)]
    assert np.all(dist[~alive] == np.inf)
    assert same_bits(dist[alive], sq_distances(x[ids[alive]].T, x[seed]))


class TestAggregate:
    def test_singleton_partition_is_identity(self):
        t = random_table(8, 3)
        part = Partition([[i] for i in range(8)])
        anon = aggregate(t, part)
        assert np.array_equal(anon.table.rows, t.rows)

    def test_single_cluster_gives_global_mean(self):
        t = random_table(9, 4)
        anon = aggregate(t, Partition([np.arange(9)]))
        qi = anon.table.qi_matrix()
        assert np.allclose(qi, t.qi_matrix().mean(axis=0))

    def test_preserves_column_means(self):
        t = random_table(37, 5)
        part = mdav_partition(t, minmax_params(t), 4)
        anon = aggregate(t, part)
        assert np.allclose(
            anon.table.qi_matrix().mean(axis=0), t.qi_matrix().mean(axis=0), atol=1e-9
        )

    def test_confidential_untouched(self):
        t = random_table(30, 6)
        anon = aggregate(t, mdav_partition(t, minmax_params(t), 3))
        assert np.array_equal(anon.table.confidential_column(), t.confidential_column())

    def test_output_is_k_anonymous_at_min_size(self):
        t = random_table(45, 7)
        part = mdav_partition(t, minmax_params(t), 4)
        anon = aggregate(t, part)
        assert verify_k_anonymity(anon, min(part.sizes())).ok

    def test_ignored_column_passes_through(self):
        specs = SPECS_2QI + (AttributeSpec("note", Role.IGNORED),)
        rng = np.random.default_rng(10)
        t = Table(specs, rng.uniform(0, 1, size=(20, 4)))
        anon = aggregate(t, mdav_partition(t, minmax_params(t), 5))
        assert np.array_equal(anon.table.rows[:, 3], t.rows[:, 3])
