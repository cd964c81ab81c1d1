"""Workload definitions for the release benchmark, with the reason each one
exists and the map from per-layer metrics to the end-to-end metrics they
should move.

Every workload generates its table with ``tcmicro synth`` (rho 0.52) from the
benchmark's ``--seed``; the program sees only the generated CSV and roles file.

Why each workload was chosen
----------------------------
Shares below are self times from one traced run per workload at seed 11 on a
2-core Intel Xeon VM (python3 bench/run.py --workload W --trace 1).

merge-strict   merge pipeline, n=5000, 2 QIs, k=2, t=0.1.
               t lies below min_emd_bound(5000, 2) ~ 0.125, so every MDAV
               cluster fails t and the merge pass makes 2,314 merges (2,500
               clusters down to 186). MDAV seeding is 50% of release_s and
               the merge pass with its EMD calls 47%; kfirst and tfirst code
               never runs.
kfirst-swap    kfirst pipeline, n=2000, 2 QIs, k=2, t=0.1.
               The swap search's worst case: no cluster can reach t, so it
               scans the whole remaining pool for every cluster.
               kfirst_partition is 93% of release_s and the merge pass 6%;
               CSV I/O and EMD take almost none.
tfirst-large   tfirst pipeline, n=50000, 4 QIs, k=50, t=0.1.
               The largest and widest table. k'=50 divides n, so there is no
               merge fallback; MDAV and the merge pass never run. The tfirst
               subset build is 68% of release_s. The only workload where CSV
               I/O and the EMD checks, which cost O(clusters x distinct
               confidential values), show up: CSV I/O is ~14% of release_s
               and ~59% of verify_s, EMD ~15% of release_s and ~31% of
               verify_s. anonymize reads one CSV and writes one, verify reads
               two, so read-side and write-side changes show separately.

Per-layer metric -> end-to-end metric it should move, on which workload
-----------------------------------------------------------------------
dataset.*      release_s and verify_s on tfirst-large; no change elsewhere.
microagg.mdav_partition_s, microagg.mdav_clusters
               release_s on merge-strict (about half); not called elsewhere.
microagg.aggregate_s
               release_s on tfirst-large; negligible elsewhere.
merge.*        release_s on merge-strict (about 40%) and kfirst-swap; not
               called on tfirst-large. merge.merges also moves k_avg_actual
               and sse.
kfirst.*       release_s on kfirst-swap only.
tfirst.*       release_s on tfirst-large only.
emd.*          release_s and verify_s on tfirst-large, where a call costs
               O(distinct values); release_s on merge-strict.
metrics.*      release_s and verify_s on tfirst-large.
cli.*          verify_s on tfirst-large, through the O(clusters x n) rebuild
               of the partition from cluster ids.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str
    n: int
    qi_count: int
    k: int
    t: float
    rho: float = 0.52


WORKLOADS = {
    w.name: w
    for w in (
        Workload("merge-strict", "merge", n=5000, qi_count=2, k=2, t=0.1),
        Workload("kfirst-swap", "kfirst", n=2000, qi_count=2, k=2, t=0.1),
        Workload("tfirst-large", "tfirst", n=50000, qi_count=4, k=50, t=0.1),
    )
}

DEFAULT_SEED = 11
