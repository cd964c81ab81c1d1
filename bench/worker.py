"""One workload in one fresh process: set up, run releases in a closed loop
for the given time, check every release, and write the result as JSON.

Started by run.py; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checker  # noqa: E402
import spans  # noqa: E402
from tcmicro import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up is repeated at least SETUP_REPEATS times and for at least
# SETUP_MIN_S seconds, so its median is steady on the small tables too
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
VERIFY_MIN_S = 0.5
# a tail percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10


def _quiet_main(argv):
    """cli.main with its stdout captured; returns (exit code, output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class Run:
    def __init__(self, workload, seed, workdir):
        self.w = workload
        self.seed = seed
        self.input = str(workdir / "input.csv")
        self.roles = str(workdir / "roles.txt")
        self.release = str(workdir / "release.csv")
        self.report = str(workdir / "report.json")

    def setup(self) -> float:
        w = self.w
        start = time.perf_counter()
        code, out = _quiet_main([
            "synth", "--n", str(w.n), "--qi-count", str(w.qi_count), "--rho", str(w.rho),
            "--seed", str(self.seed), "--output", self.input, "--roles-out", self.roles,
        ])
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"synth exited {code}: {out}")
        return elapsed

    def anonymize_argv(self):
        w = self.w
        return ["anonymize", "--input", self.input, "--roles", self.roles,
                "--algorithm", w.algorithm, "--k", str(w.k), "--t", str(w.t),
                "--seed", str(self.seed), "--output", self.release, "--report", self.report]

    def verify_argv(self):
        w = self.w
        return ["verify", "--input", self.input, "--anonymized", self.release,
                "--roles", self.roles, "--k", str(w.k), "--t", str(w.t)]


def _timed(tracer, name, argv):
    """Run one CLI command; inside a root span when tracing."""
    start = time.perf_counter()
    if tracer is None:
        code, out = _quiet_main(argv)
    else:
        code, out = tracer.call(name, _quiet_main, argv)
    return code, out, time.perf_counter() - start


def release_once(run, tracer):
    """One anonymize + verify + independent check. Returns a sample dict.

    An untraced release repeats verify until VERIFY_MIN_S has passed, so that
    the short verify calls of the small tables get enough samples."""
    for stale in (run.release, run.report):
        with contextlib.suppress(FileNotFoundError):
            os.remove(stale)
    if tracer is not None:
        tracer.install()
    try:
        a_code, a_out, release_s = _timed(tracer, "cli.anonymize", run.anonymize_argv())
        v_code, v_out, verify_s = (None, "", [])
        if a_code == 0:
            v_code, v_out, took = _timed(tracer, "cli.verify", run.verify_argv())
            verify_s.append(took)
    finally:
        if tracer is not None:
            tracer.uninstall()
    while tracer is None and v_code == 0 and sum(verify_s) < VERIFY_MIN_S:
        v_code, v_out, took = _timed(None, "cli.verify", run.verify_argv())
        verify_s.append(took)

    sample = {"release_s": release_s, "verify_s": verify_s, "traced": tracer is not None,
              "problems": []}
    if a_code != 0:
        sample["problems"].append(f"anonymize exited {a_code}")
        return sample
    if v_code != 0:
        sample["problems"].append(f"verify exited {v_code}: {v_out.strip()}")
    with open(run.report, encoding="utf-8") as fh:
        report = json.load(fh)
    sample["sse"] = report["sse"]
    sample["k_avg_actual"] = report["k_avg_actual"]
    problems, classes = checker.check_release(run.input, run.roles, run.release, run.w.k, run.w.t)
    sample["problems"] += problems
    sample["fingerprint"] = checker.fingerprint(classes) if classes else None
    return sample


def layer_metrics(tracer, release):
    """Per-layer self times and counts of one traced release."""
    selfs = spans.self_times(tracer.spans, release)
    metrics = {metric: selfs.get(span, 0.0) for span, metric in spans.SELF_METRICS.items()}
    metrics.update(spans.layer_counts(tracer.spans, release))
    ratios = [
        float(np.mean(checker.class_emds(table.confidential_column(),
                                         [c.members for c in partition.clusters]) <= tau))
        for rel, table, partition, tau in tracer.kfirst_results if rel == release
    ]
    metrics["kfirst.tclose_ratio"] = ratios[0] if ratios else 0.0
    return metrics, sum(selfs.values())


def _time_stat(values):
    """Median, extremes and the highest tail percentile that has at least
    TAIL_SAMPLES samples beyond it, if any."""
    stat = {"median": statistics.median(values), "samples": len(values),
            "min": min(values), "max": max(values)}
    for p in (99, 95, 90):
        if len(values) * (100 - p) / 100 >= TAIL_SAMPLES:
            stat[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    return stat


def _max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans-out", required=True)
    args = p.parse_args(argv)

    run = Run(WORKLOADS[args.workload], args.seed, Path(args.workdir))
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        setup_times.append(run.setup())
    # the interpreter, numpy and the set-up already hold this much; the rest of
    # peak_rss_mb is the releases and the checker
    rss_base_mb = _max_rss_mb()

    tracer = spans.Tracer() if args.trace else None
    samples = []
    deadline = time.perf_counter() + args.seconds
    min_samples = 2 if args.trace else 1
    while True:
        began = time.perf_counter()
        # the traced run alternates untraced and traced releases, so the
        # difference between the two medians is the tracing overhead
        traced = tracer is not None and len(samples) % 2 == 1
        if traced:
            tracer.release = len(samples)
        try:
            sample = release_once(run, tracer if traced else None)
        except Exception:  # a crash in the program is a failed release, not the end of the run
            sample = {"traced": traced, "problems": [traceback.format_exc().strip()]}
        sample["id"] = len(samples)
        samples.append(sample)
        for problem in sample["problems"]:
            print(f"release {sample['id']} FAILED: {problem}", flush=True)
        took = time.perf_counter() - began
        if len(samples) >= min_samples and time.perf_counter() + took > deadline:
            break

    # a release that ran both commands is timed even when a check failed it;
    # the failure is counted in failed and makes correct false
    timed = [s for s in samples if s.get("verify_s")]
    untraced = [s for s in timed if not s["traced"]]
    nondeterministic = []
    for key in ("sse", "k_avg_actual", "fingerprint"):
        if len({s[key] for s in timed}) > 1:
            nondeterministic.append(key)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "thread_pools": {v: os.environ.get(v) for v in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        },
        "attempted": len(samples),
        "failed": sum(1 for s in samples if s["problems"]),
        "setup_s": _time_stat(setup_times),
        "peak_rss_mb": _max_rss_mb(),
        "rss_base_mb": rss_base_mb,
        "fingerprint": timed[0]["fingerprint"] if timed else None,
        "sse": timed[0]["sse"] if timed else None,
        "k_avg_actual": timed[0]["k_avg_actual"] if timed else None,
    }
    if untraced:
        result["release_s"] = _time_stat([s["release_s"] for s in untraced])
        result["verify_s"] = _time_stat([v for s in untraced for v in s["verify_s"]])

    if tracer is not None:
        traced = [s for s in timed if s["traced"]]
        per_release = [layer_metrics(tracer, s["id"]) for s in traced]
        for name in spans.COUNT_METRICS + ("kfirst.tclose_ratio",):
            if len({m[name] for m, _ in per_release}) > 1:
                nondeterministic.append(name)
        if traced and untraced:
            # report the layers of the traced release with the (lower) median
            # release_s, so its self times add up to that release's times
            pick = sorted(traced, key=lambda s: s["release_s"])[(len(traced) - 1) // 2]
            layers, result["self_time_sum_s"] = per_release[traced.index(pick)]
            layers["metrics.sse"] = pick["sse"]
            layers["metrics.k_avg_actual"] = pick["k_avg_actual"]
            layers["trace.release_s"] = pick["release_s"]
            layers["trace.verify_s"] = pick["verify_s"][0]
            layers["trace.overhead_s"] = pick["release_s"] - statistics.median_low(
                [s["release_s"] for s in untraced])
            result["layers"] = layers
        with open(args.spans_out, "w", encoding="utf-8") as fh:
            for index, span in enumerate(tracer.spans):
                fh.write(json.dumps(span.to_dict(index)) + "\n")
        result["spans_file"] = args.spans_out

    result["nondeterministic"] = nondeterministic
    for key in nondeterministic:
        print(f"DETERMINISM FAILED: {key} differs between repetitions", flush=True)
    with open(Path(args.workdir) / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
