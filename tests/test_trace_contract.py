"""The names bench/spans.py patches in the pipeline and cli modules still
feed it, and bench/worker.py can read what it records.

The benchmark tracer wraps module-level names in each pipeline module and in
cli; a step that binds one of them at import time, or a module that stops
importing one, silently empties a per-layer metric or breaks the tracer's
install.
"""

import sys
from pathlib import Path

import pytest

from tcmicro import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import spans  # noqa: E402

SHARED = {"merge.merge_until_tclose", "microagg.aggregate", "metrics.make_report"}
PARTITION_SPAN = {
    "merge": "microagg.mdav_partition",
    "kfirst": "kfirst.kfirst_partition",
    "tfirst": "tfirst.split_subsets",
}


@pytest.fixture(scope="module")
def synth_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("trace")
    data, roles = d / "data.csv", d / "roles.cfg"
    assert cli.main(["synth", "--n", "120", "--rho", "0.52", "--seed", "3",
                     "--output", str(data), "--roles-out", str(roles)]) == 0
    return data, roles


def traced_anonymize(algorithm, synth_files, tmp_path):
    data, roles = synth_files
    tracer = spans.Tracer()
    tracer.install()
    try:
        rc = cli.main(["anonymize", "--input", str(data), "--roles", str(roles),
                       "--algorithm", algorithm, "--k", "2", "--t", "0.1",
                       "--output", str(tmp_path / "anon.csv"),
                       "--report", str(tmp_path / "report.json")])
    finally:
        tracer.uninstall()
    assert rc == 0
    return tracer


@pytest.mark.parametrize("algorithm", sorted(PARTITION_SPAN))
def test_pipeline_spans_and_merge_parent(algorithm, synth_files, tmp_path):
    tracer = traced_anonymize(algorithm, synth_files, tmp_path)
    names = [span.name for span in tracer.spans]
    assert SHARED | {PARTITION_SPAN[algorithm]} <= set(names)
    assert names.count("merge.merge_until_tclose") == 1
    merge_span = next(s for s in tracer.spans if s.name == "merge.merge_until_tclose")
    parent = tracer.spans[merge_span.parent].name
    assert parent == f"{algorithm}.run_{algorithm}_algorithm"


def test_worker_reads_the_kfirst_partition(synth_files, tmp_path):
    # bench/worker.py's per-layer metrics read the kfirst partition the
    # tracer recorded: its len, and each cluster's members for the ratio
    import worker

    tracer = traced_anonymize("kfirst", synth_files, tmp_path)
    metrics, _ = worker.layer_metrics(tracer, None)
    [(_, _, partition, _)] = tracer.kfirst_results
    assert metrics["kfirst.clusters"] == len(partition) > 0
    assert 0.0 <= metrics["kfirst.tclose_ratio"] <= 1.0


def test_verify_spans(synth_files, tmp_path):
    data, roles = synth_files
    anon = tmp_path / "anon.csv"
    assert cli.main(["anonymize", "--input", str(data), "--roles", str(roles),
                     "--algorithm", "tfirst", "--k", "2", "--t", "0.1",
                     "--output", str(anon), "--report", str(tmp_path / "report.json")]) == 0
    tracer = spans.Tracer()
    tracer.install()
    try:
        rc = cli.main(["verify", "--input", str(data), "--anonymized", str(anon),
                       "--roles", str(roles), "--k", "2", "--t", "0.1"])
    finally:
        tracer.uninstall()
    assert rc == 0
    names = [span.name for span in tracer.spans]
    for name in ("dataset.load_csv", "dataset.load_anonymized_csv",
                 "metrics.verify_k_anonymity", "metrics.verify_t_closeness"):
        assert names.count(name) == 1, (name, names)
