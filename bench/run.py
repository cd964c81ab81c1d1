"""Release benchmark for tcmicro.

Runs the user's path, ``tcmicro anonymize`` followed by ``tcmicro verify``,
in-process through ``tcmicro.cli.main`` on seeded synthetic tables, checks
every release with an independent checker (bench/checker.py), and prints each
metric by name with its unit. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

Load model: one closed-loop client in a single process; each release starts
after the previous one finished. Each workload runs in a fresh child process
(bench/worker.py) with BLAS/OpenMP pools pinned to at most nproc threads, in
a temporary directory under .bench_tmp/ that is removed at the end.

    python3 bench/run.py                         # every workload, seed 11
    python3 bench/run.py --workload merge-strict --seed 12
    python3 bench/run.py --workload tfirst-large --trace 1   # per-layer metrics

--seconds is how long each workload measures; it defaults to run_seconds in
BENCHMARK.json, which also declares every metric's name and unit.

With --trace 0 the metrics are the end-to-end ones: release_s and verify_s
(medians over the run; verify is repeated on each release until 0.5 s have
passed, so the small tables give enough verify samples), peak_rss_mb and
setup_s (median of several set-ups). failed_ratio, sse and k_avg_actual are printed too; failed_ratio is
carried by the attempted and failed fields. sse and k_avg_actual are exact for
a seed but vary by tens of percent from seed to seed (lognormal QI tails under
min-max scaling), so no bound could hold on them across seeds: they are
reported as the per-layer metrics metrics.sse and metrics.k_avg_actual, and
the worker asserts they repeat exactly within a run. With --trace 1 the
metrics are the per-layer self times and counts of a traced release; its
spans go to .bench_out/.

Run from the root of the repository. Workload definitions, the reason for
each, and the per-layer -> end-to-end map are in bench/workloads.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# a worker may run this long past --seconds: start-up, the repeated set-up and
# the last release, which may begin just before the deadline
CHILD_MARGIN_S = 120


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in a fresh child process and return its result."""
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OMP_NUM_THREADS=nproc, OPENBLAS_NUM_THREADS=nproc,
               MKL_NUM_THREADS=nproc, PYTHONHASHSEED="0")
    tmp_base = ROOT / ".bench_tmp"
    tmp_base.mkdir(exist_ok=True)
    spans_out = ROOT / ".bench_out" / f"spans-{name}-seed{seed}.jsonl"
    if trace:
        spans_out.parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_base))
    timeout = seconds + CHILD_MARGIN_S
    try:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
               "--workdir", str(workdir), "--spans-out", str(spans_out)]
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{name}: worker did not finish within {timeout:g} s")
        if code != 0:
            raise RuntimeError(f"{name}: worker exited {code}")
        with open(workdir / "result.json", encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_base.rmdir()
        except OSError:
            pass


def metrics_of(result: dict, trace: bool) -> dict:
    """The metrics BENCHMARK.json declares for this mode, with their units."""
    if trace:
        values, units = result["layers"], PER_LAYER
    else:
        values = {
            "release_s": result["release_s"]["median"],
            "verify_s": result["verify_s"]["median"],
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": result["setup_s"]["median"],
        }
        units = END_TO_END
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def print_result(result: dict, metrics: dict) -> None:
    w = WORKLOADS[result["workload"]]
    env = result["environment"]
    print(f"== {w.name}: {w.algorithm}, n={w.n}, {w.qi_count} QIs, k={w.k}, t={w.t}, "
          f"seed {result['seed']} | nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}")
    for name, m in metrics.items():
        note = ""
        if name in ("release_s", "verify_s", "setup_s"):
            stat = result[name]
            note = f"  (median of {stat['samples']}, min {stat['min']:.4f}, max {stat['max']:.4f}"
            tail = [f"{p} {stat[p]:.4f}" for p in ("p99", "p95", "p90") if p in stat]
            note += f", {tail[0]})" if tail else ", too few samples for a tail percentile)"
        elif name == "peak_rss_mb":
            note = f"  ({result['rss_base_mb']:.1f} MB of it held before the first release)"
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'sse':32s} {result['sse']:.6g} 1  (RunReport, exact per seed)")
    print(f"  {'k_avg_actual':32s} {result['k_avg_actual']:.6g} records  (RunReport, exact per seed)")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_ratio':32s} {failed / attempted:.6g} 1  ({failed} of {attempted} releases)")
    print(f"  fingerprint sha256:{result['fingerprint']}")
    if "self_time_sum_s" in result:
        roots = metrics["trace.release_s"]["value"] + metrics["trace.verify_s"]["value"]
        print(f"  layer self times sum to {result['self_time_sum_s']:.6f} s; "
              f"traced release_s + verify_s = {roots:.6f} s")
    if "spans_file" in result:
        print(f"  spans written to {Path(result['spans_file']).relative_to(ROOT)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "tcmicro" / "__init__.py").is_file():
        print(f"error: no tcmicro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if "release_s" not in result or (args.trace and "layers" not in result):
            print(f"error: {name}: no successful release to measure", file=sys.stderr)
            return 1
        m = metrics_of(result, bool(args.trace))
        print_result(result, m)
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["failed"] == 0 and not result["nondeterministic"]
        if len(names) == 1:
            metrics = m
        else:
            metrics.update({f"{name}.{k}": v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
