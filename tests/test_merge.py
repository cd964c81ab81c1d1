import numpy as np
import pytest

from tcmicro import (
    Partition,
    SynthConfig,
    TableEmd,
    aggregate,
    mdav_partition,
    merge_until_tclose,
    minmax_params,
    synth_generate,
    verify_k_anonymity,
    verify_t_closeness,
    run_merge_algorithm,
)
from test_golden_partitions import tables as golden_tables
from util import make_ranks_table


# kfirst's partitions of two golden tables at k=5, t=0.05, stored as each
# record's cluster slot, as an earlier float swap scorer built them; the
# merge pass starts from several clusters at the same exact maximal EMD
TIED_PARTITIONS = {
    "dup-rows": """
        0 10 4 8 0 4 4 9 0 8 5 9 0 1 8 2 5 5 9 1 6 5 4 1 9 7 11 1 3 10 1 11 6 10
        2 7 7 6 2 11 6 10 3 2 11 3 7 7 11 3 5 6 8 3 10 4 8 2 0 9
""",
    "synth9-s1-n300": """
        16 9 26 33 2 53 4 6 2 13 34 12 5 40 37 24 8 47 4 43 13 5 25 8 6 33 32 21
        51 16 38 3 19 0 58 32 43 48 37 26 18 43 7 29 17 12 46 27 41 16 7 22 50
        20 25 18 17 1 30 29 47 23 40 30 30 1 31 45 10 8 41 49 52 20 31 53 9 13
        34 2 24 33 18 40 27 48 50 8 29 50 31 17 57 17 39 56 48 53 2 21 19 55 58
        26 35 23 34 9 36 46 57 8 14 39 54 35 1 22 35 15 45 51 48 22 41 53 51 26
        32 59 52 42 11 31 35 15 51 34 7 9 0 57 4 55 51 16 17 44 33 3 11 55 4 41
        49 11 52 12 12 21 25 10 38 47 10 59 9 45 15 6 42 19 7 42 24 38 59 39 32
        52 10 50 22 26 5 35 28 55 37 32 41 23 57 36 5 56 36 18 52 36 30 37 54 46
        53 38 20 34 46 30 49 46 47 31 45 23 58 24 13 58 20 57 21 23 48 47 49 22
        19 38 10 6 42 42 18 56 43 3 28 49 1 33 27 39 0 28 44 16 6 29 25 44 15 58
        27 0 7 14 11 28 43 27 54 44 14 29 5 14 59 1 4 12 40 11 15 54 3 2 24 14
        19 21 13 3 59 54 40 44 37 0 55 56 25 45 56 28 39 36 50 20
""",
}


def stored_partition(name: str) -> Partition:
    labels = np.array(TIED_PARTITIONS[name].split(), dtype=np.int64)
    return Partition([np.flatnonzero(labels == i) for i in range(labels.max() + 1)])


def small_table(n=120, seed=2):
    return synth_generate(SynthConfig(n=n, qi_count=2, target_correlation=0.52, seed=seed))


def merge(table, partition, tau):
    return merge_until_tclose(table, partition, tau, minmax_params(table), TableEmd(table))


class TestMergeUntilTclose:
    def test_already_close_returned_unchanged(self):
        t = small_table()
        part = mdav_partition(t, minmax_params(t), 3)
        out = merge(t, part, 1.0)
        assert out is part

    def test_tau_zero_collapses_to_single_cluster(self):
        t = small_table(80, 5)
        part = mdav_partition(t, minmax_params(t), 2)
        out = merge(t, part, 0.0)
        assert len(out) == 1
        assert TableEmd(t).cluster_emd(out.clusters[0].members) == 0.0

    def test_two_clusters_one_violating(self):
        t = make_ranks_table(6)
        part = Partition([[0, 1, 2], [3, 4, 5]])
        out = merge(t, part, 0.2)  # each half has EMD 0.3
        assert len(out) == 1

    def test_output_is_coarsening(self):
        t = small_table(200, 9)
        part = mdav_partition(t, minmax_params(t), 2)
        out = merge(t, part, 0.08)
        originals = [set(c.members) for c in part.clusters]
        for merged in out.clusters:
            block = set(merged.members)
            used = [o for o in originals if o & block]
            assert set().union(*used) == block  # union of whole input clusters

    def test_postcondition_max_emd(self):
        t = small_table(150, 4)
        part = mdav_partition(t, minmax_params(t), 2)
        for tau in (0.05, 0.1, 0.2):
            out = merge(t, part, tau)
            assert verify_t_closeness(t, aggregate(t, out), tau).ok

    @pytest.mark.parametrize("name, top, tied, first_pair", [
        ("dup-rows", 1 / 14, [4, 5, 6, 7, 8, 9, 10, 11], [4, 6]),
        ("synth9-s1-n300", 59 / 598, [58, 59], [13, 58]),
    ], ids=["dup-rows", "synth9-s1-n300"])
    def test_equal_emd_tie_merges_the_lowest_slot_first(self, name, top, tied, first_pair):
        # the first merge takes the lowest of the tied clusters
        table = golden_tables()[name]
        params = minmax_params(table)
        part = stored_partition(name)
        groups = [c.members for c in part.clusters]
        emds = TableEmd(table).partition_emds(part.order, part.starts)
        assert emds.max() == top
        assert np.flatnonzero(emds == top).tolist() == tied

        merged = []

        class RecordingEmd(TableEmd):
            def cluster_emd(self, members):
                merged.append(set(np.asarray(members).tolist()))
                return super().cluster_emd(members)

        merge_until_tclose(table, part, 0.05, params, RecordingEmd(table))
        assert [i for i, g in enumerate(groups) if merged[0] >= set(g.tolist())] == first_pair


class TestRunMerge:
    def test_slack_tau_equals_plain_mdav(self):
        t = small_table()
        _, part, report = run_merge_algorithm(t, 2, 1.0)
        mdav = mdav_partition(t, minmax_params(t), 2)
        assert [tuple(c.members) for c in part.clusters] == [
            tuple(c.members) for c in mdav.clusters
        ]
        assert report.k_min_actual == 2

    def test_tiny_tau_full_collapse(self):
        t = small_table()
        _, part, report = run_merge_algorithm(t, 2, 0.0001)
        assert len(part) == 1
        assert report.k_min_actual == report.k_avg_actual == t.n
        assert report.max_cluster_emd == 0.0

    def test_report_min_at_least_k(self):
        t = small_table(140, 12)
        for k, tau in [(2, 0.15), (5, 0.1), (7, 0.25)]:
            anon, part, report = run_merge_algorithm(t, k, tau)
            assert report.k_min_actual >= k
            assert verify_k_anonymity(anon, k).ok
            assert verify_t_closeness(t, anon, tau).ok

    def test_merge_count_bound(self):
        t = small_table(100, 3)
        k = 2
        _, part, _ = run_merge_algorithm(t, k, 0.1)
        start = len(mdav_partition(t, minmax_params(t), k))
        assert start - len(part) <= t.n // k - 1

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            run_merge_algorithm(small_table(), 2, 0.0)

    def test_single_cluster_emd_is_exactly_zero(self):
        t = small_table(90, 21)
        ctx = TableEmd(t)
        assert ctx.cluster_emd(np.arange(t.n)) == 0.0
