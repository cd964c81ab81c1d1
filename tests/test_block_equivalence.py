"""The vectorised seeding, MDAV and tfirst builds, the slot-array merge pass
with its batched first check and the lexsort k-anonymity check against the
code they replaced, and the block-scored kfirst swap search against its rule
as written (one candidate at a time, every trial swap's integer EMD numerator
recounted), kept here (or in oracles.py) as reference oracles.

The squared-distance helper must match the oracle's attribute-by-attribute
sum over row-major records bit for bit, the seeding's average must be the
exact mean summed in Fractions and rounded once, and the partitions must be
identical, cluster order included.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tcmicro import (
    AnonymizedTable,
    AttributeSpec,
    Role,
    SynthConfig,
    Table,
    TableEmd,
    adjust_cluster_size,
    build_cluster,
    generate_cluster,
    mdav_partition,
    merge_until_tclose,
    minmax_params,
    normalized_qi,
    split_subsets,
    synth_generate,
    verify_k_anonymity,
)
from tcmicro.kfirst import _SwapEmd
import tcmicro.microagg
from tcmicro.microagg import Partition, _PoolMean, seeded_partition, sq_distances
from oracles import (
    emd_numerator,
    exact_emd,
    fraction_mean,
    list_merge_until_tclose,
    scan_generate_cluster,
    sq_distances as row_sq_distances,
    swap_delta_matrix,
    swap_prefix_sums,
    swap_sums_matrix,
    unique_verify_k_anonymity,
)
from util import (
    SWAP_PATH_IDS,
    SWAP_PATHS,
    cluster_means,
    numpy_rebuild_sides,
    same_bits,
    swap_down_up,
    swap_paths,
    swap_state,
)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def oracle_seeding(x: np.ndarray, build) -> list[np.ndarray]:
    """MDAV's alternating farthest-point seeding over an alive mask, with the
    pool's rows gathered afresh for every seed and their average summed in
    Fractions."""
    alive = np.ones(x.shape[0], dtype=bool)
    groups = []
    prev = None
    while alive.any():
        pool = np.flatnonzero(alive)
        anchor = fraction_mean(x[pool]) if prev is None else x[prev]
        seed = int(pool[int(np.argmax(row_sq_distances(x[pool], anchor)))])
        members = build(seed, pool)
        alive[members] = False
        groups.append(members)
        prev = seed if prev is None else None
    return groups


def oracle_mdav(x: np.ndarray, k: int) -> list[np.ndarray]:
    def build(seed, pool):
        if pool.size < 2 * k:
            return pool
        d = row_sq_distances(x[pool], x[seed])
        return np.sort(pool[np.argsort(d, kind="stable")[:k]])

    return oracle_seeding(x, build)


def oracle_tfirst(table: Table, k: int, x: np.ndarray) -> list[np.ndarray]:
    """tfirst's one-record-per-subset build as a scan of each subset per pick
    followed by a copy of the subset without the pick."""
    baseline, leftover = divmod(table.n, k)
    extras = [0] * k
    if leftover:
        if k % 2 == 1:
            extras[(k - 1) // 2] = leftover
        else:
            extras[k // 2 - 1] = leftover - leftover // 2
            extras[k // 2] = leftover // 2
    ranked = np.argsort(table.confidential_column(), kind="stable")
    subsets, at = [], 0
    for i in range(k):
        subsets.append(ranked[at : at + baseline + extras[i]])
        at += baseline + extras[i]

    def take_nearest(subset, point):
        d = row_sq_distances(x[subset], point)
        pick = int(subset[d == d.min()].min())
        return pick, np.delete(subset, int(np.flatnonzero(subset == pick)[0]))

    def build(seed, pool):
        members = []
        extra_taken = False
        for i in range(k):
            pick, subsets[i] = take_nearest(subsets[i], x[seed])
            members.append(pick)
            if not extra_taken and extras[i] > 0:
                pick, subsets[i] = take_nearest(subsets[i], x[seed])
                members.append(pick)
                extras[i] -= 1
                extra_taken = True
        return np.sort(np.array(members, dtype=np.int64))

    return oracle_seeding(x, build)


def tfirst_groups(table: Table, k: int, x: np.ndarray) -> list[np.ndarray]:
    ranked = split_subsets(table, k)
    drec = np.full(table.n + 1, np.inf)

    def build(seed, ids, alive, dist):
        drec[ids] = dist
        return build_cluster(ranked, drec)

    part = seeded_partition(x, build)
    return [c.members for c in part.clusters]


def assert_same_groups(got, want):
    assert [g.tolist() for g in got] == [np.sort(w).tolist() for w in want]


def make_table(qi: np.ndarray, conf: np.ndarray) -> Table:
    specs = tuple(AttributeSpec(f"q{j}", Role.QUASI_IDENTIFIER) for j in range(qi.shape[1]))
    return Table(specs + (AttributeSpec("s", Role.CONFIDENTIAL),), np.column_stack([qi, conf]))


QS = list(range(1, 21)) + [64, 129, 300]


def data(kind: str, m: int, q: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.random((m, q))
    # few distinct values a third apart: many distances tie in real arithmetic
    return rng.integers(0, 4, (m, q)) / 3.0


class TestSqDistances:
    @pytest.mark.parametrize("kind", ["random", "tied"])
    @pytest.mark.parametrize("q", QS)
    def test_matches_row_sum_bit_for_bit(self, q, kind):
        x = data(kind, 3000, q, q)
        for point in (x[7], x.mean(axis=0)):
            want = row_sq_distances(x, point)
            if q < 8:
                # numpy's row sum adds fewer than 8 terms left to right too,
                # so the distances on tables of at most 7 QIs are its own
                assert same_bits(((x - point) ** 2).sum(axis=1), want)
            # a contiguous attribute-major copy, and the strided view the
            # kfirst candidate order and the merge pass's centroid search pass
            for cols in (np.ascontiguousarray(x.T), x.T):
                assert same_bits(sq_distances(cols, point), want)

    @pytest.mark.parametrize("q", [1, 4, 8, 9, 17])
    def test_block_shape_and_infinite_slots(self, q):
        x = data("tied", 60, q, 100 + q)
        block = x.reshape(5, 12, q)
        want = row_sq_distances(block, x[3])
        cols = block.transpose(2, 0, 1).copy()
        cols[:, 1, 4] = np.inf
        want[1, 4] = np.inf
        assert same_bits(sq_distances(cols, x[3]), want)


class TestRecordMean:
    @pytest.mark.parametrize("kind", ["random", "tied"])
    @pytest.mark.parametrize("q", QS)
    def test_matches_row_mean_bit_for_bit(self, q, kind):
        # the seeding's mean record is the rows' exact mean rounded once, on
        # the whole table and as the pool shrinks to nested subsets, the
        # rows leaving in two batches per step
        x = data(kind, 150, q, 50 + q)
        pool = np.flatnonzero(np.random.default_rng(q).random(150) < 0.7)
        mean = _PoolMean(x)
        assert same_bits(mean.mean(), fraction_mean(x))
        left = np.arange(150)
        for rows in (pool, pool[:60], pool[:9], pool[:1]):
            gone = np.setdiff1d(left, rows)
            mean.remove(gone[::2])
            mean.remove(gone[1::2])
            assert same_bits(mean.mean(), fraction_mean(x[rows]))
            left = rows


# zeros, subnormals, the smallest normal, one ulp below 1 and 1
SPECIAL_CELLS = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.5, float(np.nextafter(1.0, 0.0)), 1.0]


@st.composite
def unit_rows(draw):
    """Rows of 1 to 10 values in [0, 1], as normalized QIs are, drawn from a
    few distinct rows, so values tie and rows repeat."""
    q = draw(st.integers(1, 10))
    cell = st.one_of(st.sampled_from(SPECIAL_CELLS), st.floats(0.0, 1.0))
    distinct = draw(st.lists(st.lists(cell, min_size=q, max_size=q), min_size=1, max_size=8))
    n = draw(st.integers(1, 60))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
    return np.array([distinct[i] for i in picks])


@SETTINGS
@given(unit_rows(), st.data())
def test_pool_mean_is_the_fraction_mean(x, data):
    # before and after each removal, down to one row; removals of a few
    # values and of many take both ways of summing exactly, and the first
    # sums are built in blocks of rows of any size. The clusters' centroids
    # come from the same sums, labelled by cluster, a cluster's rows
    # possibly split across blocks
    n = x.shape[0]
    cuts = data.draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
    groups = np.split(np.array(data.draw(st.permutations(range(n)))), sorted(cuts))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tcmicro.microagg, "_BLOCK_ROWS", data.draw(st.sampled_from([1, 7, 4096])))
        mean = _PoolMean(x)
        means = cluster_means(x, groups)
    assert same_bits(means, np.array([fraction_mean(x[g]) for g in groups]))
    left = np.arange(x.shape[0])
    while True:
        assert same_bits(mean.mean(), fraction_mean(x[left]))
        if left.size == 1:
            break
        gone = data.draw(st.lists(st.sampled_from(left.tolist()), min_size=1,
                                  max_size=left.size - 1, unique=True))
        mean.remove(np.array(gone))
        left = np.setdiff1d(left, gone)


def lazy_mdav(x: np.ndarray, k: int, watch: bool = False):
    """seeded_partition with MDAV's build as a stable argsort over the whole
    slot width, returning the groups, the slot width each build saw and,
    when watched, how many picks from the average and from the previous seed
    had a dead slot farther than every live one."""
    widths, stale, seeds = [], [0, 0], []

    def build(seed, ids, alive, dist):
        widths.append(ids.size)
        from_prev = len(seeds) % 2
        if watch and not alive.all():
            anchor = x[seeds[-1]] if from_prev else fraction_mean(x[ids[alive]])
            d = row_sq_distances(x[ids], anchor)
            stale[from_prev] += d[~alive].max() > d[alive].max()
        seeds.append(seed)
        if np.count_nonzero(alive) < 2 * k:
            return ids[alive]
        return np.sort(ids[np.argsort(dist, kind="stable")[:k]])

    part = seeded_partition(x, build)
    return [c.members for c in part.clusters], widths, stale


def lazy_case(name: str) -> np.ndarray:
    if name == "ranks":
        return np.arange(300.0)[:, None] / 299
    if name == "synth":
        table = synth_generate(SynthConfig(n=257, qi_count=2, target_correlation=0.52, seed=8))
        return normalized_qi(table, minmax_params(table))
    return data("tied", 240, 3, 12)


@pytest.mark.parametrize("name", ["ranks", "synth", "tied"])
def test_lazy_compaction_matches_oracle_seeding(name):
    # k = 2 over a few hundred records compacts many times; on evenly
    # spaced points the extremes go first, so dead records lie farther from
    # the average and from the previous seed than any live one
    x = lazy_case(name)
    got, widths, stale = lazy_mdav(x, 2, watch=True)
    assert_same_groups(got, oracle_mdav(x, 2))
    assert np.count_nonzero(np.diff(widths)) > 5
    if name == "ranks":
        assert min(stale) > 0


@pytest.mark.parametrize("n", [256, 2048])
def test_compactions_grow_with_log_n(n):
    # ids, alive, the distance row and the attribute-major copy shrink
    # together, so a change in the width a build sees is one compaction;
    # each drops at least 1/_DEAD_SHARE of the width
    table = synth_generate(SynthConfig(n=n, qi_count=2, target_correlation=0.52, seed=n))
    got, widths, _ = lazy_mdav(normalized_qi(table, minmax_params(table)), 2)
    compactions = np.count_nonzero(np.diff(widths))
    bound = math.log(n) / -math.log1p(-1 / tcmicro.microagg._DEAD_SHARE) + 1
    assert len(got) == n // 2
    assert 0 < compactions <= bound
    assert compactions < len(got) / 4


@st.composite
def tables(draw):
    """Small tables with duplicate QI rows, tied confidential values and up
    to 10 QIs, plus a working size k' with n = k' * baseline + extras and
    extras <= baseline."""
    k = draw(st.integers(2, 8))
    baseline = draw(st.integers(1, 6))
    n = k * baseline + draw(st.integers(0, min(baseline, k - 1)))
    q = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = draw(st.integers(1, n))
    rows = rng.integers(0, 4, (distinct, q)) / draw(st.sampled_from([1.0, 3.0, 7.0]))
    qi = rows[rng.integers(0, distinct, n)]
    conf = rng.integers(0, draw(st.integers(1, n)), n).astype(float)
    return make_table(qi, conf), k


@SETTINGS
@given(tables())
def test_tfirst_block_matches_scan_and_delete(case):
    table, k = case
    x = normalized_qi(table, minmax_params(table))
    assert_same_groups(tfirst_groups(table, k, x), oracle_tfirst(table, k, x))


@SETTINGS
@given(tables())
def test_mdav_matches_argsort_build(case):
    table, k = case
    x = normalized_qi(table, minmax_params(table))
    part = mdav_partition(table, minmax_params(table), k)
    assert_same_groups([c.members for c in part.clusters], oracle_mdav(x, k))


@pytest.mark.parametrize(
    "n, q, k",
    [(500, 9, 8), (500, 4, 7), (301, 2, 10), (244, 12, 6)],
)
def test_tfirst_block_matches_oracle_with_compaction(n, q, k):
    # k even or odd with n mod k extras in the central subsets; a few hundred
    # records, so the block is compacted several times
    table = synth_generate(SynthConfig(n=n, qi_count=q, target_correlation=0.52, seed=n + q))
    assert adjust_cluster_size(n, k) == k
    x = normalized_qi(table, minmax_params(table))
    assert_same_groups(tfirst_groups(table, k, x), oracle_tfirst(table, k, x))


TAUS = [0.0, 0.01, 0.05, 0.1, 0.2, 0.5]


def kfirst_groups(table: Table, k: int, tau: float, scan: bool = False) -> list[np.ndarray]:
    x = normalized_qi(table, minmax_params(table))
    ctx = TableEmd(table)

    def build(seed, ids, alive, dist):
        if scan:
            return scan_generate_cluster(seed, ids[alive], x, ctx, k, tau)
        return generate_cluster(seed, ids[alive], dist[alive], ctx, k, tau)

    part = seeded_partition(x, build)
    return [c.members for c in part.clusters]


def merged_groups(table: Table, part, tau: float, merge) -> list[np.ndarray]:
    return [c.members for c in merge(table, part, tau, minmax_params(table), TableEmd(table)).clusters]


def assert_same_kfirst_and_merge(table: Table, k: int, tau: float):
    got = kfirst_groups(table, k, tau)
    assert_same_groups(got, kfirst_groups(table, k, tau, scan=True))
    for part in (mdav_partition(table, minmax_params(table), k), Partition(got)):
        assert_same_groups(
            merged_groups(table, part, tau, merge_until_tclose),
            merged_groups(table, part, tau, list_merge_until_tclose),
        )


@SETTINGS
@given(tables(), st.sampled_from(TAUS))
def test_kfirst_block_search_and_merge_slots_match_loops(case, tau):
    # tied and constant confidential columns (m == 1), duplicate QI rows and
    # so coincident centroids, n == 2k pools, and tau = 0, which merges down
    # to one cluster
    table, k = case
    assert_same_kfirst_and_merge(table, k, tau)


@SETTINGS
@given(tables(), st.floats(0.0, 0.6), st.data())
def test_generate_cluster_on_a_pool_of_exactly_2k(case, tau, data):
    table, k = case
    n = table.n
    assume(n >= 2 * k)
    pool = np.sort(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).choice(
        n, size=2 * k, replace=False))
    seed = int(pool[data.draw(st.integers(0, 2 * k - 1))])
    x = normalized_qi(table, minmax_params(table))
    ctx = TableEmd(table)
    got = generate_cluster(seed, pool, sq_distances(x[pool].T, x[seed]), ctx, k, tau)
    assert got.tolist() == scan_generate_cluster(seed, pool, x, ctx, k, tau).tolist()


@st.composite
def tied_tables(draw):
    """Tables drawn from a few distinct rows, so records repeat whole (QIs
    and confidential value) or share QIs over a few confidential values:
    QI distances, EMDs and swap scores tie exactly."""
    k = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2 * k, 40))
    q = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = draw(st.integers(1, 8))
    values = draw(st.integers(1, 5))
    rows = rng.integers(0, 3, (distinct, q + 1))[rng.integers(0, distinct, n)]
    conf = rows[:, q] % values if draw(st.booleans()) else rng.integers(0, values, n)
    return make_table(rows[:, :q].astype(float), conf.astype(float)), k


@SETTINGS
@given(tied_tables(), st.sampled_from(TAUS))
def test_kfirst_matches_integer_scan_on_tied_and_duplicate_rows(case, tau):
    table, k = case
    got = kfirst_groups(table, k, tau)
    assert_same_groups(got, kfirst_groups(table, k, tau, scan=True))


@pytest.mark.parametrize("tabulate, loop", SWAP_PATHS, ids=SWAP_PATH_IDS)
@SETTINGS
@given(tied_tables(), st.data())
def test_swap_state_matches_brute_force_deltas(tabulate, loop, case, data):
    # random states and candidate blocks, member ranks included, on tables
    # with tied ranks: down and up at every rank are the O(m) prefix sums,
    # first_swap picks what the brute-force delta matrix picks, with its
    # delta, and after that swap or any other, applied with the matrix's
    # delta, D is the recounted numerator, on every way of reading F and
    # rebuilding, and the numpy rebuild reads the same state from a table
    # and from the closed form
    table, k = case
    with swap_paths(tabulate, loop):
        ctx = TableEmd(table)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        state = _SwapEmd(ctx, rng.choice(table.n, size=k, replace=False))
        for _ in range(4):
            member_ranks = ctx.ranks[state.members]
            down, up = swap_prefix_sums(ctx, member_ranks)
            assert swap_down_up(state) == list(zip(down.tolist(), up.tolist()))
            block = rng.permutation(np.concatenate([
                rng.integers(0, ctx.m, data.draw(st.integers(0, 12))),
                rng.choice(member_ranks, data.draw(st.integers(1, k))),
            ]))
            deltas = swap_delta_matrix(ctx.ranks, state.members, block)
            improving = np.flatnonzero(deltas.min(axis=1) < 0)
            j, pos, delta = state.first_swap(block)
            if not improving.size:
                assert (j, pos, delta) == (-1, -1, 0)
                break
            assert (j, pos, delta) == (improving[0], int(deltas[j].argmin()), deltas[j].min())
            if data.draw(st.booleans()):
                pos = int(rng.integers(0, k))
            candidate = int(np.flatnonzero(ctx.ranks == block[j])[0])
            state.apply_swap(pos, candidate, int(block[j]), int(deltas[j, pos]))
            assert state.d == emd_numerator(table.confidential_column(), state.members)
            table_side, closed_side = numpy_rebuild_sides(table, state.members)
            assert table_side == closed_side == swap_state(state)


@SETTINGS
@given(tied_tables(), st.integers(1, 12))
def test_swap_sums_table_and_closed_form_match_term_by_term_sums(case, s):
    # every regime and rank, on tables with tied ranks and a single value
    table, _ = case
    want = swap_sums_matrix(TableEmd(table), s)
    m = want.shape[1] - 1
    p, x = (a.ravel() for a in np.meshgrid(np.arange(s + 1), np.arange(m + 1)))
    for tabulate in (True, False):
        with swap_paths(tabulate, loop=False):
            got = TableEmd(table).swap_sums(s).pairs(p, x)
        for i in range(2):
            assert got[:, i].tolist() == want[p + i, x].tolist()


def test_large_swap_sums_are_not_tabulated():
    # (s + 1)(m + 1) = 2000 * 4001 rows would take 128 MB as a table; the
    # closed form keeps O(s) breakpoints and reads the same F
    n = 4000
    ctx = TableEmd(make_table(np.zeros((n, 1)), np.arange(n, dtype=float)))
    tracemalloc.start()
    try:
        sums = ctx.swap_sums(1999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert sums.table is None
    rng = np.random.default_rng(4)
    p, x = rng.integers(0, 2000, 500), rng.integers(0, n + 1, 500)
    for alpha, rank, row in zip(p.tolist(), x.tolist(), sums.pairs(p, x).tolist()):
        b = ctx._b[:rank]
        assert row == [int(np.clip(n - 2 * (n * (alpha + i) - 1999 * b), -n, n).sum()) for i in range(2)]


@pytest.mark.parametrize("tabulate, loop", SWAP_PATHS, ids=SWAP_PATH_IDS)
@pytest.mark.parametrize("k, conf", [(3, None), (5, lambda n: np.arange(n) % 4), (24, None)])
def test_kfirst_matches_integer_scan_on_every_swap_path(tabulate, loop, k, conf):
    table = synth_generate(SynthConfig(n=240, qi_count=2, target_correlation=0.52, seed=k))
    if conf is not None:
        rows = table.rows.copy()
        rows[:, table.confidential_index] = np.random.default_rng(k).permutation(conf(240))
        table = Table(table.specs, rows)
    for tau in (0.01, 0.1):
        with swap_paths(tabulate, loop):
            got = kfirst_groups(table, k, tau)
        assert_same_groups(got, kfirst_groups(table, k, tau, scan=True))


@pytest.mark.parametrize(
    "n, q, k, tau, conf",
    [
        (600, 2, 2, 0.1, None),  # blocks double over the whole pool
        (500, 3, 3, 0.05, lambda n: np.arange(n) % 7),  # seven tied values
        (300, 2, 4, 0.02, np.zeros),  # constant confidential column
        # one record of value 0 among 1023 of value 1: every EMD is exact, no
        # cluster without the 0 can improve on 1/1024, so every block misses
        # and blocks double until they span the rest of the pool
        (1024, 2, 200, 1e-4, lambda n: (np.arange(n) > 0).astype(float)),
    ],
)
def test_kfirst_and_merge_match_loops_on_synthetic_tables(n, q, k, tau, conf):
    table = synth_generate(SynthConfig(n=n, qi_count=q, target_correlation=0.52, seed=n + k))
    if conf is not None:
        rows = table.rows.copy()
        rows[:, table.confidential_index] = np.random.default_rng(n).permutation(conf(n))
        table = Table(table.specs, rows)
    assert_same_kfirst_and_merge(table, k, tau)


def test_merge_slots_match_loop_with_coincident_centroids():
    # every QI row equal: all centroids coincide, so each nearest neighbour
    # is the lowest live slot other than the worst one
    rng = np.random.default_rng(3)
    table = make_table(np.zeros((40, 2)), rng.integers(0, 10, 40).astype(float))
    for tau in (0.0, 0.05, 0.2):
        assert_same_kfirst_and_merge(table, 2, tau)


MAX_CASES = [(n, k, seed) for n in (200, 300, 500) for k in (3, 5) for seed in (0, 2)]


def test_merge_at_the_exact_max_matches_loop():
    # tau at the partition's max EMD, which is the integer oracle's value,
    # and one ulp to either side: the merge pass returns the partition
    # unchanged, or merges, exactly when the list-based loop does
    for n, k, seed in MAX_CASES:
        table = synth_generate(SynthConfig(n=n, qi_count=2, target_correlation=0.52, seed=seed))
        part = mdav_partition(table, minmax_params(table), k)
        conf = table.confidential_column()
        top = max(exact_emd(conf, c.members) for c in part.clusters)
        assert TableEmd(table).max_cluster_emd(part.order, part.starts)[0] == top
        for tau in (np.nextafter(top, -np.inf), top, np.nextafter(top, np.inf)):
            assert_same_groups(
                merged_groups(table, part, tau, merge_until_tclose),
                merged_groups(table, part, tau, list_merge_until_tclose),
            )


qi_cells = st.sampled_from([0.0, -0.0, 1.0, -1.5, 2.0, 1e-300])


@st.composite
def released_tables(draw):
    """Published QI rows with duplicates, ties within a column and -0.0
    next to 0.0, drawn from a few distinct rows."""
    q = draw(st.integers(1, 3))
    distinct = draw(st.lists(st.tuples(*[qi_cells] * q), min_size=1, max_size=6))
    n = draw(st.integers(1, 30))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
    rows = np.column_stack([np.array([distinct[i] for i in picks]), np.arange(n)])
    specs = tuple(AttributeSpec(f"q{i}", Role.QUASI_IDENTIFIER) for i in range(q))
    table = Table(specs + (AttributeSpec("s", Role.CONFIDENTIAL),), rows)
    return AnonymizedTable(table, np.zeros(n, dtype=np.int64))


@SETTINGS
@given(released_tables(), st.integers(2, 8))
def test_verify_k_anonymity_matches_unique(anonymized, k):
    got = verify_k_anonymity(anonymized, k)
    want = unique_verify_k_anonymity(anonymized, k)
    assert (got.ok, got.min_count) == (want.ok, want.min_count)
    # the witness keeps the sign of a zero
    assert np.array_equal(np.signbit(got.witness or ()), np.signbit(want.witness or ()))
    assert got == want
