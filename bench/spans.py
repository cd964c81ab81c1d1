"""Span tracing from outside the program.

The tracer wraps public functions at tcmicro's module boundaries by replacing
the name in the module that imports it (or the class attribute, for TableEmd
methods). Each wrapper records a span in memory: name, start, end, parent
span and release id, plus counters taken from the call's arguments and
result. Nothing under src/ changes.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import tcmicro.cli
import tcmicro.emd
import tcmicro.kfirst
import tcmicro.merge
import tcmicro.metrics
import tcmicro.tfirst

# span name -> per-layer self-time metric
SELF_METRICS = {
    "cli.anonymize": "cli.anonymize_self_s",
    "cli.verify": "cli.verify_self_s",
    "dataset.load_csv": "dataset.load_csv_s",
    "dataset.load_anonymized_csv": "dataset.load_anonymized_csv_s",
    "dataset.write_csv": "dataset.write_csv_s",
    "microagg.mdav_partition": "microagg.mdav_partition_s",
    "microagg.aggregate": "microagg.aggregate_s",
    "merge.run_merge_algorithm": "merge.self_s",
    "merge.merge_until_tclose": "merge.merge_until_tclose_s",
    "kfirst.run_kfirst_algorithm": "kfirst.self_s",
    "kfirst.kfirst_partition": "kfirst.kfirst_partition_s",
    "tfirst.run_tfirst_algorithm": "tfirst.self_s",
    "tfirst.split_subsets": "tfirst.split_subsets_s",
    "emd.table_emd_build": "emd.table_emd_build_s",
    "emd.cluster_emd": "emd.cluster_emd_s",
    "metrics.make_report": "metrics.make_report_s",
    "metrics.verify_k_anonymity": "metrics.verify_k_anonymity_s",
    "metrics.verify_t_closeness": "metrics.verify_t_closeness_s",
}

COUNT_METRICS = (
    "dataset.bytes_read",
    "dataset.bytes_written",
    "microagg.mdav_clusters",
    "merge.clusters_in",
    "merge.clusters_out",
    "merge.merges",
    "kfirst.clusters",
    "tfirst.k_work",
    "tfirst.fallback",
    "emd.cluster_emd_calls",
    "emd.table_emd_builds",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "release", "attrs")

    def __init__(self, name, parent, release):
        self.name = name
        self.start = self.end = None
        self.parent = parent
        self.release = release
        self.attrs = None

    def to_dict(self, index):
        return {"id": index, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "release": self.release, "attrs": self.attrs or {}}


def _file_size(path) -> dict:
    return {"bytes": os.path.getsize(path)}


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.release = None
        self._patches = []
        # kfirst partitions kept for the tclose ratio, computed after the release
        self.kfirst_results = []

    def call(self, name, fn, *args, attrs=None, **kwargs):
        """Run fn inside a span; attrs(args, kwargs, result) adds counters."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, parent, self.release)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if attrs is not None:
            span.attrs = attrs(args, kwargs, result)
        return result

    def _wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, attrs=attrs, **kwargs)
        return wrapper

    def _patch(self, owner, attr, name, attrs=None):
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self._wrap(name, original, attrs)
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(name, original, attrs))
        self._patches.append((owner, attr, original))

    def install(self):
        cli, merge, kfirst, tfirst = tcmicro.cli, tcmicro.merge, tcmicro.kfirst, tcmicro.tfirst
        self._patch(cli, "load_csv", "dataset.load_csv", lambda a, kw, r: _file_size(a[0]))
        self._patch(cli, "load_anonymized_csv", "dataset.load_anonymized_csv",
                    lambda a, kw, r: _file_size(a[0]))
        self._patch(cli, "write_csv", "dataset.write_csv", lambda a, kw, r: _file_size(a[1]))
        self._patch(cli.ALGORITHMS, "merge", "merge.run_merge_algorithm")
        self._patch(cli.ALGORITHMS, "kfirst", "kfirst.run_kfirst_algorithm")
        self._patch(cli.ALGORITHMS, "tfirst", "tfirst.run_tfirst_algorithm")
        self._patch(merge, "mdav_partition", "microagg.mdav_partition",
                    lambda a, kw, r: {"clusters": len(r)})
        self._patch(kfirst, "kfirst_partition", "kfirst.kfirst_partition", self._kfirst_attrs)
        self._patch(tfirst, "split_subsets", "tfirst.split_subsets",
                    lambda a, kw, r: {"k_work": a[1]})
        for module in (merge, kfirst, tfirst):
            self._patch(module, "merge_until_tclose", "merge.merge_until_tclose",
                        lambda a, kw, r: {"clusters_in": len(a[1]), "clusters_out": len(r)})
            self._patch(module, "aggregate", "microagg.aggregate")
            self._patch(module, "make_report", "metrics.make_report")
        self._patch(cli, "verify_k_anonymity", "metrics.verify_k_anonymity")
        self._patch(cli, "verify_t_closeness", "metrics.verify_t_closeness")
        self._patch(tcmicro.metrics, "verify_t_closeness", "metrics.verify_t_closeness")
        self._patch(tcmicro.emd.TableEmd, "__init__", "emd.table_emd_build")
        self._patch(tcmicro.emd.TableEmd, "cluster_emd", "emd.cluster_emd")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def _kfirst_attrs(self, args, kwargs, partition):
        table, tau = args[0], args[2]
        self.kfirst_results.append((self.release, table, partition, tau))
        return {"clusters": len(partition)}


def self_times(spans: list[Span], release) -> dict[str, float]:
    """Per-span-name self time of one release: each span's duration minus the
    durations of its direct children, summed over the release's spans."""
    child_time = defaultdict(float)
    for span in spans:
        if span.release == release and span.parent is not None:
            child_time[span.parent] += span.end - span.start
    totals = defaultdict(float)
    for index, span in enumerate(spans):
        if span.release == release:
            totals[span.name] += (span.end - span.start) - child_time[index]
    return totals


def layer_counts(spans: list[Span], release) -> dict[str, int]:
    """The per-layer counters of one release (all but kfirst.tclose_ratio)."""
    counts = dict.fromkeys(COUNT_METRICS, 0)
    for span in spans:
        if span.release != release:
            continue
        attrs = span.attrs or {}
        if span.name == "dataset.write_csv":
            counts["dataset.bytes_written"] += attrs["bytes"]
        elif span.name.startswith("dataset.load"):
            counts["dataset.bytes_read"] += attrs["bytes"]
        elif span.name == "microagg.mdav_partition":
            counts["microagg.mdav_clusters"] += attrs["clusters"]
        elif span.name == "merge.merge_until_tclose":
            counts["merge.clusters_in"] += attrs["clusters_in"]
            counts["merge.clusters_out"] += attrs["clusters_out"]
            counts["merge.merges"] += attrs["clusters_in"] - attrs["clusters_out"]
            parent = spans[span.parent].name if span.parent is not None else None
            if parent == "tfirst.run_tfirst_algorithm" and attrs["clusters_out"] < attrs["clusters_in"]:
                counts["tfirst.fallback"] = 1
        elif span.name == "kfirst.kfirst_partition":
            counts["kfirst.clusters"] += attrs["clusters"]
        elif span.name == "tfirst.split_subsets":
            counts["tfirst.k_work"] = attrs["k_work"]
        elif span.name == "emd.cluster_emd":
            counts["emd.cluster_emd_calls"] += 1
        elif span.name == "emd.table_emd_build":
            counts["emd.table_emd_builds"] += 1
    return counts
