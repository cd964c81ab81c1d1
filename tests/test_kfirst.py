import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcmicro import (
    SynthConfig,
    TableEmd,
    generate_cluster,
    kfirst_partition,
    mdav_partition,
    minmax_params,
    normalized_qi,
    run_kfirst_algorithm,
    synth_generate,
    verify_k_anonymity,
    verify_t_closeness,
)
import tcmicro.kfirst as kfirst
from tcmicro.kfirst import _SwapEmd, _stable_argsort
from tcmicro.microagg import sq_distances
from oracles import (
    emd_numerator,
    max_emd_bound,
    scan_generate_cluster,
    swap_delta_matrix,
    swap_prefix_sums,
)
from util import (
    SWAP_PATHS,
    groups,
    make_1d_table,
    make_ranks_table,
    swap_down_up,
    swap_paths,
    swap_state,
)


def small_table(n=120, seed=6):
    return synth_generate(SynthConfig(n=n, qi_count=2, target_correlation=0.52, seed=seed))


def generate(seed, candidates, table, k, tau):
    x = normalized_qi(table, minmax_params(table))
    candidates = np.asarray(candidates)
    dist = sq_distances(x[candidates].T, x[seed])
    return generate_cluster(seed, candidates, dist, TableEmd(table), k, tau)


def emd(table, members):
    return TableEmd(table).cluster_emd(members)


def partition(table, k, tau):
    return kfirst_partition(table, k, tau, minmax_params(table), TableEmd(table))


class TestStableArgsort:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 400), st.integers(0, 6), st.integers(0, 2**32 - 1))
    def test_matches_the_stable_argsort(self, n, distinct, seed):
        # distinct == 0: no two keys equal; otherwise keys from that many
        # values, so longer arrays tie
        rng = np.random.default_rng(seed)
        if distinct:
            keys = rng.integers(0, distinct, n) * 0.25
        else:
            keys = rng.permutation(n) * 0.25
        assert _stable_argsort(keys).tolist() == np.argsort(keys, kind="stable").tolist()


class TestGenerateCluster:
    def test_slack_tau_returns_k_nearest(self):
        t = make_ranks_table(10)
        c = generate(0, np.arange(10), t, 3, max_emd_bound(10, 3) + 0.5)
        assert tuple(c) == (0, 1, 2)

    def test_small_pool_returned_whole(self):
        t = make_ranks_table(9)
        pool = np.arange(4, 9)  # 2k - 1 = 5 candidates for k = 3
        c = generate(5, pool, t, 3, 0.01)
        assert tuple(c) == (4, 5, 6, 7, 8)

    def test_swap_trace_on_six_ranks(self):
        # seed rank 1, k=2, tau=0.2: EMD path 0.4 -> 0.2667 -> 0.1667, ending
        # at the {rank2, rank4} cluster
        t = make_ranks_table(6)
        c = generate(0, np.arange(6), t, 2, 0.2)
        assert tuple(c) == (1, 3)
        assert emd(t, c) == pytest.approx(1 / 6, abs=1e-12)

    def test_candidate_pool_not_mutated(self):
        t = make_ranks_table(12)
        pool = np.arange(12)
        before = pool.copy()
        generate(0, pool, t, 2, 0.05)
        assert np.array_equal(pool, before)

    def test_swaps_never_increase_emd(self, monkeypatch):
        # each accepted swap strictly lowers the exact numerator D
        accepted = []

        class RecordingSwapEmd(_SwapEmd):
            def apply_swap(self, pos, candidate, candidate_rank, delta):
                before = list(self.members)
                super().apply_swap(pos, candidate, candidate_rank, delta)
                accepted.append((before, list(self.members)))

        monkeypatch.setattr(kfirst, "_SwapEmd", RecordingSwapEmd)
        t = small_table(60, 8)
        conf = t.confidential_column()
        for seed_rec, tau in [(0, 0.05), (17, 0.02), (41, 0.1)]:
            accepted.clear()
            generate(seed_rec, np.arange(60), t, 4, tau)
            assert accepted
            for before, after in accepted:
                assert emd_numerator(conf, after) < emd_numerator(conf, before)

    def test_incremental_emd_matches_recomputation(self):
        # duplicate confidential values included, so several records share a
        # support rank
        rng = np.random.default_rng(55)
        t = make_1d_table(rng.uniform(0, 1, 40), rng.integers(0, 9, 40))
        ctx = TableEmd(t)
        conf = t.confidential_column()
        members = rng.choice(40, size=6, replace=False)
        state = _SwapEmd(ctx, members)
        outside = [i for i in range(40) if i not in members]
        swaps = 0
        for candidate in outside:
            rank = int(ctx.ranks[candidate])
            j, pos, delta = state.first_swap(np.array([rank]))
            if j >= 0:
                state.apply_swap(pos, candidate, rank, delta)
                swaps += 1
            assert state.d == emd_numerator(conf, state.members)
            assert state.emd == ctx.cluster_emd(state.members)
        assert swaps > 0

    def test_incremental_state_matches_fresh_state(self):
        # arbitrary swaps, improving or not: the O(k) state rebuilt after each
        # one equals a fresh state's, and down and up at every rank equal the
        # O(m) prefix sums, on every way of reading F and rebuilding
        rng = np.random.default_rng(56)
        n = 300
        t = make_1d_table(rng.uniform(0, 1, n), rng.integers(0, 120, n))
        members = rng.choice(n, size=5, replace=False)
        order = rng.permutation(n)
        for tabulate, loop in SWAP_PATHS:
            with swap_paths(tabulate, loop):
                ctx = TableEmd(t)
                state = _SwapEmd(ctx, members)
                for candidate in order:
                    if candidate in state.members:
                        continue
                    pos = int(rng.integers(0, state.size))
                    rank = int(ctx.ranks[candidate])
                    delta = swap_delta_matrix(ctx.ranks, state.members, [rank])[0, pos]
                    state.apply_swap(pos, int(candidate), rank, int(delta))
                    fresh = _SwapEmd(ctx, state.members)
                    # the loop holds members, ranks, gd, gu and values as
                    # lists of Python ints
                    assert isinstance(state.members, list) == loop
                    assert isinstance(state._gd, list) == loop
                    assert swap_state(state) == swap_state(fresh)
                    down, up = swap_prefix_sums(ctx, ctx.ranks[state.members])
                    want = list(zip(down.tolist(), up.tolist()))
                    assert swap_down_up(state) == want

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_ties_at_distance_zero_keep_the_scan_order(self, k):
        # 300 records on 6 distinct QI values over 10 confidential values;
        # each seed is the last record of its QI value, so every earlier copy
        # ties at distance 0 and the order among the ties decides which
        # enter and are swapped
        rng = np.random.default_rng(k)
        label = rng.integers(0, 6, 300)
        t = make_1d_table(np.array([0.0, 1.0, 2.0, 0.5, 3.0, 5.0])[label], rng.integers(0, 10, 300))
        ctx = TableEmd(t)
        x = normalized_qi(t, minmax_params(t))
        pool = np.arange(300)
        for point in range(6):
            seed = int(np.flatnonzero(label == point)[-1])
            for tau in (0.02, 0.1):
                got = generate(seed, pool, t, k, tau)
                want = scan_generate_cluster(seed, pool, x, ctx, k, tau)
                assert got.tolist() == want.tolist()

    def test_refuses_a_zero_gain_swap(self):
        # a float scorer read this cluster's EMD as 0.09523809523809525, one
        # ulp above 2/21, and swapped record 0 in for the seed 5 although
        # both clusters have D = 16; it returned (0, 4, 6)
        t = make_1d_table([2, 5, 0, 3, 4, 7, 6, 1], [3, 2, 5, 7, 1, 4, 6, 0])
        ctx = TableEmd(t)
        conf = t.confidential_column()
        assert emd_numerator(conf, [5, 6, 4]) == emd_numerator(conf, [0, 6, 4]) == 16
        state = _SwapEmd(ctx, np.array([5, 6, 4]))
        assert state.first_swap(ctx.ranks[[0]]) == (-1, -1, 0)
        got = generate(5, np.arange(8), t, 3, 0.0)
        x = normalized_qi(t, minmax_params(t))
        want = scan_generate_cluster(5, np.arange(8), x, ctx, 3, 0.0)
        assert got.tolist() == want.tolist() == [4, 5, 6]

    def test_matches_naive_reference(self):
        # direct transcription of the swap rules, recomputing every EMD
        def naive(seed, candidates, table, k, tau):
            x = normalized_qi(table, minmax_params(table))
            cands = list(candidates)
            if len(cands) < 2 * k:
                return sorted(cands)
            others = [c for c in cands if c != seed]
            others.sort(key=lambda j: (((x[j] - x[seed]) ** 2).sum(), j))
            members = [seed] + others[: k - 1]
            cur = emd(table, members)
            for y in others[k - 1 :]:
                if cur <= tau:
                    break
                best_pos, best = -1, cur
                for pos in range(k):
                    trial = list(members)
                    trial[pos] = y
                    e = emd(table, trial)
                    if e < best:
                        best_pos, best = pos, e
                if best_pos >= 0:
                    members[best_pos] = y
                    cur = best
            return sorted(members)

        rng = np.random.default_rng(77)
        for trial in range(8):
            n = int(rng.integers(12, 30))
            t = make_1d_table(rng.uniform(0, 100, n), rng.uniform(0, 100, n))
            k = int(rng.integers(2, 5))
            tau = float(rng.uniform(0.02, 0.3))
            seed_rec = int(rng.integers(0, n))
            got = generate(seed_rec, np.arange(n), t, k, tau)
            assert list(got) == naive(seed_rec, range(n), t, k, tau)


class TestKfirstPartition:
    def test_huge_tau_equals_mdav(self):
        t = small_table()
        got = partition(t, 3, 1.0)
        want = mdav_partition(t, minmax_params(t), 3)
        assert [tuple(g) for g in groups(got)] == [tuple(g) for g in groups(want)]

    def test_cluster_sizes_in_band(self):
        for seed, n, k in [(1, 97, 3), (2, 64, 2), (3, 55, 5)]:
            t = small_table(n, seed)
            part = partition(t, k, 0.15)
            sizes = part.sizes()
            assert min(sizes) >= k
            assert max(sizes) <= 2 * k - 1

    def test_min_size_stays_near_k_at_moderate_tau(self, mcd_table):
        part = partition(mcd_table, 2, 0.17)
        assert min(part.sizes()) == 2


class TestRunKfirst:
    def test_output_always_verifies(self):
        t = small_table(130, 14)
        for k, tau in [(2, 0.25), (2, 0.05), (5, 0.1)]:
            anon, part, report = run_kfirst_algorithm(t, k, tau)
            assert verify_k_anonymity(anon, k).ok
            assert verify_t_closeness(t, anon, tau).ok
            assert report.k_min_actual >= k

    def test_vacuous_tau_no_merging(self):
        # 0.5 is a hard ceiling on any EMD under the ordered distance
        t = small_table(100, 18)
        _, part, _ = run_kfirst_algorithm(t, 2, 0.6)
        assert max(part.sizes()) <= 3

    def test_tight_tau_forces_merging(self):
        t = small_table(100, 18)
        _, loose, _ = run_kfirst_algorithm(t, 2, 0.25)
        _, tight, _ = run_kfirst_algorithm(t, 2, 0.01)
        assert max(tight.sizes()) > max(loose.sizes())
