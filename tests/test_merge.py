import numpy as np
import pytest

from tcmicro import (
    Cluster,
    Partition,
    SynthConfig,
    TableEmd,
    kfirst_partition,
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
        part = Partition((Cluster([0, 1, 2]), Cluster([3, 4, 5])), 6)
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
            assert verify_t_closeness(t, out, tau).ok

    @pytest.mark.parametrize("name, top, tied, first_pair", [
        ("dup-rows", 1 / 14, [4, 5, 6, 7, 8, 9, 10, 11], [4, 6]),
        ("synth9-s1-n300", 59 / 598, [58, 59], [13, 58]),
    ], ids=["dup-rows", "synth9-s1-n300"])
    def test_equal_emd_tie_merges_the_lowest_slot_first(self, name, top, tied, first_pair):
        # kfirst's partitions of two golden tables at k=5, t=0.05 start the
        # merge pass with several clusters at the same exact maximal EMD;
        # the first merge takes the lowest of them
        table = golden_tables()[name]
        params = minmax_params(table)
        part = kfirst_partition(table, 5, 0.05, params, TableEmd(table))
        groups = [c.members for c in part.clusters]
        emds = TableEmd(table).partition_emds(groups)
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
            assert verify_t_closeness(t, part, tau).ok

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
