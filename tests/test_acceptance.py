"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Surrogate seeds are fixed in
conftest.py (MCD seed 23, HCD seed 37); the scaling test uses its own seed.
"""

import time
from contextlib import contextmanager
from itertools import combinations, islice, product

import numpy as np
import pytest

from tcmicro import (
    SynthConfig,
    TableEmd,
    min_emd_bound,
    run_kfirst_algorithm,
    run_merge_algorithm,
    run_tfirst_algorithm,
    synth_generate,
    verify_k_anonymity,
    verify_t_closeness,
)
from oracles import Distribution, emd_ordered, max_emd_bound, transport_oracle_emd
from util import make_ranks_table, subset_emd_matrix

PIPELINES = {
    "merge": run_merge_algorithm,
    "kfirst": run_kfirst_algorithm,
    "tfirst": run_tfirst_algorithm,
}

GRID_K = (2, 5, 10)
GRID_T = (0.05, 0.10, 0.15, 0.20, 0.25)


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"CRITERION {num} ({name}): FAIL")
        raise
    print(f"CRITERION {num} ({name}): PASS")


@pytest.fixture(scope="module")
def grid_results(mcd_table, hcd_table):
    """All pipeline runs for the (algorithm, dataset, k, t) guarantee grid."""
    tables = {"mcd": mcd_table, "hcd": hcd_table}
    results = {}
    for algo, runner in PIPELINES.items():
        for ds, table in tables.items():
            for k in GRID_K:
                for t in GRID_T:
                    results[algo, ds, k, t] = runner(table, k, t)
    return results


def test_criterion_1_table3_cluster_sizes(mcd_table):
    with criterion(1, "t-closeness-first analytic cluster sizes"):
        start = time.perf_counter()
        k2_row = {0.01: 49, 0.05: 10, 0.09: 6, 0.13: 4, 0.17: 3, 0.21: 3, 0.25: 2}
        formula_size = {0.05: 10, 0.09: 6, 0.13: 4, 0.17: 3, 0.21: 3, 0.25: 2}
        for t, size in k2_row.items():
            _, part, report = run_tfirst_algorithm(mcd_table, 2, t)
            assert report.k_min_actual == size, (t, report.k_min_actual)
            if 1080 % size == 0:
                assert report.k_avg_actual == size, (t, report.k_avg_actual)
            else:
                # 49 does not divide 1080 (= 22*49 + 2): the two leftover
                # records ride along in two clusters of 50
                assert round(report.k_avg_actual) == size
                assert sorted(part.sizes()).count(size + 1) == 1080 % size
        for k in (10, 15, 20, 25, 30):
            for t, fsize in formula_size.items():
                expected = max(k, fsize)
                _, part, report = run_tfirst_algorithm(mcd_table, k, t)
                assert report.k_min_actual == expected, (k, t, report.k_min_actual)
                if 1080 % expected == 0:
                    assert report.k_avg_actual == expected
                else:
                    assert round(report.k_avg_actual) == expected
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"


def _chunks(iterable, size, width):
    it = iter(iterable)
    while True:
        block = list(islice(it, size))
        if not block:
            return
        yield np.array(block, dtype=np.int64).reshape(len(block), width)


def test_criterion_2_emd_bounds_brute_force():
    with criterion(2, "closed-form EMD bounds vs exhaustive enumeration"):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        for n in range(2, 25):
            for k in range(2, n + 1):
                if n % k:
                    continue
                g = n // k
                lo = min_emd_bound(n, k)
                hi = max_emd_bound(n, k)

                best = np.inf
                for block in _chunks(combinations(range(n), k), 150000, k):
                    best = min(best, subset_emd_matrix(block, n).min())
                assert best >= lo - 1e-12, (n, k, best, lo)
                if g % 2 == 1:
                    # median-of-each-subset construction attains the bound
                    medians = np.array([[i * g + g // 2 for i in range(k)]])
                    med_emd = subset_emd_matrix(medians, n)[0]
                    assert abs(med_emd - lo) <= 1e-12, (n, k, med_emd, lo)
                    assert abs(best - lo) <= 1e-12

                picks = np.array(list(product(range(g), repeat=k)), dtype=np.int64)
                picks += np.arange(k) * g
                one_per = subset_emd_matrix(picks, n)
                assert one_per.max() <= hi + 1e-12, (n, k)
                # minimum-of-each-subset construction attains the bound
                min_end = subset_emd_matrix(np.array([[i * g for i in range(k)]]), n)[0]
                assert abs(min_end - hi) <= 1e-12, (n, k, min_end, hi)

                # tie the vectorized enumeration EMD to the library path
                table = make_ranks_table(n)
                sample = rng.choice(n, size=k, replace=False)
                lib = TableEmd(table).cluster_emd(sample)
                fast = subset_emd_matrix(np.sort(sample)[None, :], n)[0]
                assert abs(lib - fast) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"enumeration took {elapsed:.1f}s"


def test_criterion_3_emd_oracle_equivalence():
    with criterion(3, "ordered EMD equals transport oracle on 1000 pairs"):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            m = int(rng.integers(2, 9))
            support = np.cumsum(rng.uniform(0.01, 2.0, size=m))
            p = Distribution(support, rng.dirichlet(np.full(m, 0.7)))
            q = Distribution(support, rng.dirichlet(np.full(m, 0.7)))
            a = emd_ordered(p, q)
            b = transport_oracle_emd(p, q)
            assert abs(a - b) <= 1e-9, (p.mass, q.mass)


def test_criterion_4_hard_guarantees(grid_results, mcd_table, hcd_table):
    with criterion(4, "k-anonymity and t-closeness on the full grid"):
        tables = {"mcd": mcd_table, "hcd": hcd_table}
        for (algo, ds, k, t), (anon, _, _) in grid_results.items():
            k_check = verify_k_anonymity(anon, k)
            t_check = verify_t_closeness(tables[ds], anon, t)
            assert k_check.ok, (algo, ds, k, t, k_check)
            assert t_check.ok, (algo, ds, k, t, t_check.max_emd)


def test_criterion_5_sse_ordering_trend(grid_results):
    with criterion(5, "SSE ordering tfirst <= kfirst <= merge on MCD"):
        sse = {
            algo: [grid_results[algo, "mcd", 2, t][2].sse for t in GRID_T]
            for algo in PIPELINES
        }
        ordered = [
            sse["tfirst"][i] <= sse["kfirst"][i] <= sse["merge"][i]
            for i in range(len(GRID_T))
        ]
        assert sum(ordered) / len(ordered) >= 0.8, (ordered, sse)
        tf = sse["tfirst"]
        assert all(tf[i + 1] <= tf[i] + 1e-15 for i in range(len(tf) - 1)), tf


def test_criterion_6_cluster_size_inflation(grid_results):
    with criterion(6, "merge cluster-size inflation and kfirst advantage"):
        merge_avg = {t: grid_results["merge", "mcd", 2, t][2].k_avg_actual for t in GRID_T}
        assert merge_avg[0.05] >= 5 * merge_avg[0.25], merge_avg
        for t in (t for t in GRID_T if t <= 0.13):
            kfirst_avg = grid_results["kfirst", "mcd", 2, t][2].k_avg_actual
            assert kfirst_avg <= merge_avg[t], (t, kfirst_avg, merge_avg[t])


def _best_time(runner, table, k, t, repeats=2):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        runner(table, k, t)
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_7_quadratic_scaling():
    with criterion(7, "wall-time growth from n=1000 to n=2000"):
        tables = {
            n: synth_generate(SynthConfig(n=n, qi_count=2, target_correlation=0.52, seed=11))
            for n in (1000, 2000)
        }
        limits = {"merge": 5.0, "tfirst": 5.0, "kfirst": 9.0}
        for algo, limit in limits.items():
            small = _best_time(PIPELINES[algo], tables[1000], 2, 0.1)
            large = _best_time(PIPELINES[algo], tables[2000], 2, 0.1)
            ratio = large / small
            print(f"  {algo}: {small*1000:.0f} ms -> {large*1000:.0f} ms (x{ratio:.2f})")
            assert ratio <= limit, (algo, ratio)


def test_criterion_8_merge_degenerate_termination(mcd_table):
    with criterion(8, "merge at vanishing t collapses to one exact-zero cluster"):
        _, part, report = run_merge_algorithm(mcd_table, 2, 1e-12)
        assert len(part) == 1
        assert report.max_cluster_emd == 0.0
        assert report.k_min_actual == report.k_avg_actual == mcd_table.n
