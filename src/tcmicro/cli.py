"""Command-line front end: synthetic data generation, anonymization runs,
independent verification of releases, and benchmark sweeps."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

import numpy as np

from .dataset import (
    AnonymizedTable,
    AttributeSpec,
    Role,
    SynthConfig,
    Table,
    achieved_correlation,
    load_anonymized_csv,
    load_csv,
    synth_generate,
    write_csv,
)
from .kfirst import run_kfirst_algorithm
from .merge import run_merge_algorithm
from .metrics import RunReport, verify_k_anonymity, verify_t_closeness
from .tfirst import run_tfirst_algorithm

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_IO = 3

ALGORITHMS = {
    "merge": run_merge_algorithm,
    "kfirst": run_kfirst_algorithm,
    "tfirst": run_tfirst_algorithm,
}

_ROLE_TOKENS = {role.value: role for role in Role}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # raise instead of sys.exit so main() owns the exit codes
    def error(self, message):
        raise _UsageError(message)


def read_roles(path: str) -> list[AttributeSpec]:
    """Parse a roles config: one 'column=qi|confidential|ignore' line per
    attribute; blank lines and '#' comments are skipped."""
    specs = []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected 'column=role', got {line!r}")
            name, token = (part.strip() for part in line.split("=", 1))
            if token not in _ROLE_TOKENS:
                raise ValueError(
                    f"{path}:{line_no}: unknown role {token!r}; use qi, confidential or ignore"
                )
            specs.append(AttributeSpec(name, _ROLE_TOKENS[token]))
    if not specs:
        raise ValueError(f"{path}: no roles declared")
    return specs


def _check_params(k: int, t: float) -> None:
    if k < 2:
        raise ValueError(f"invalid --k: must be at least 2, got {k}")
    if not 0.0 < t <= 1.0:
        raise ValueError(f"invalid --t: must lie in (0, 1], got {t}")


def cmd_synth(args) -> int:
    cfg = SynthConfig(
        n=args.n, qi_count=args.qi_count, target_correlation=args.rho, seed=args.seed
    )
    table = synth_generate(cfg)
    write_csv(table, args.output)
    if args.roles_out:
        with open(args.roles_out, "w", encoding="utf-8") as fh:
            for spec in table.specs:
                fh.write(f"{spec.name}={spec.role.value}\n")
    print(f"wrote {table.n} records to {args.output}")
    print(f"achieved correlation: {achieved_correlation(table):.4f}")
    return EXIT_OK


def cmd_anonymize(args) -> int:
    _check_params(args.k, args.t)
    roles = read_roles(args.roles)
    table = load_csv(args.input, roles, drop_missing=args.drop_missing)
    anonymized, _, report = ALGORITHMS[args.algorithm](table, args.k, args.t, seed=args.seed)

    failed = [line for passed, line in _check_release(table, anonymized, args.k, args.t)
              if not passed]
    if failed:
        print("internal verification failed, refusing to write output:", file=sys.stderr)
        for line in failed:
            print(f"  {line}", file=sys.stderr)
        return EXIT_VERIFY

    write_csv(anonymized, args.output)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
        print(
            f"{args.algorithm}: n={report.n} k={args.k} t={args.t} -> "
            f"clusters min/avg {report.k_min_actual}/{report.k_avg_actual:.2f}, "
            f"max EMD {report.max_cluster_emd:.6f}, SSE {report.sse:.6f}, "
            f"{report.runtime_ms:.0f} ms"
        )
    else:
        print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK


def _check_release(original: Table, anonymized: AnonymizedTable, k: int, t: float):
    """The checks a release of `original` must pass, as (passed, line) pairs:
    k-anonymity of the published QI rows, t-closeness of the classes its
    cluster_ids declare, and the confidential column unchanged row for row."""
    k_check = verify_k_anonymity(anonymized, k)
    k_line = (f"PASS (smallest equivalence class {k_check.min_count})" if k_check.ok else
              f"FAIL (combination {k_check.witness} occurs in {k_check.min_count} rows)")
    t_check = verify_t_closeness(original, anonymized, t)
    t_line = (f"PASS (max cluster EMD {t_check.max_emd:.6f})" if t_check.ok else
              f"FAIL (cluster {t_check.worst_cluster} has EMD {t_check.max_emd!r} > {t})")
    before, after = original.confidential_column(), anonymized.table.confidential_column()
    changed = np.flatnonzero(before != after)
    c_line = "PASS (unchanged row for row)"
    if changed.size:
        row = int(changed[0])
        c_line = (f"FAIL (first differing row {row + 1}: "
                  f"original {float(before[row])!r}, release {float(after[row])!r})")
    return [
        (k_check.ok, f"k-anonymity (k={k}): {k_line}"),
        (t_check.ok, f"t-closeness (t={t}): {t_line}"),
        (not changed.size, f"confidential column: {c_line}"),
    ]


def cmd_verify(args) -> int:
    _check_params(args.k, args.t)
    roles = read_roles(args.roles)
    original = load_csv(args.input, roles, drop_missing=args.drop_missing)
    anonymized = load_anonymized_csv(args.anonymized, roles)
    if anonymized.n != original.n:
        raise ValueError(
            f"record count mismatch: original has {original.n}, anonymized has {anonymized.n}"
        )
    results = _check_release(original, anonymized, args.k, args.t)
    for _, line in results:
        print(line)
    return EXIT_OK if all(passed for passed, _ in results) else EXIT_VERIFY


def _grid(text: str, flag: str, parse) -> list:
    """The nonblank comma-separated entries of a bench grid option, each
    parsed by parse; an entry it rejects is an error naming the flag."""
    values = []
    for entry in (v.strip() for v in text.split(",")):
        if entry:
            try:
                values.append(parse(entry))
            except ValueError:
                raise ValueError(f"invalid {flag} entry {entry!r}") from None
    return values


def cmd_bench(args) -> int:
    grid_k = _grid(args.grid_k, "--grid-k", int)
    grid_t = _grid(args.grid_t, "--grid-t", float)
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    for name in algorithms:
        if name not in ALGORITHMS:
            raise ValueError(f"invalid --algorithms entry {name!r}")
    if not algorithms or not grid_k or not grid_t:
        raise ValueError("--algorithms, --grid-k and --grid-t must each list at least one value")
    roles = read_roles(args.roles)
    table = load_csv(args.input, roles, drop_missing=args.drop_missing)

    rows = []
    for name in algorithms:
        for k in grid_k:
            for t in grid_t:
                cell = f"{name} k={k} t={t}"
                try:
                    _check_params(k, t)
                    _, _, report = ALGORITHMS[name](table, k, t, seed=args.seed)
                    row = {**report.to_dict(), "status": "ok"}
                    print(
                        f"{cell}: min/avg {report.k_min_actual}/{report.k_avg_actual:.2f}, "
                        f"sse {report.sse:.6f}, {report.runtime_ms:.0f} ms"
                    )
                except Exception as exc:  # a failing cell is recorded, not fatal
                    row = dict(algorithm=name, n=table.n, k_requested=k, tau=t,
                               seed=args.seed, status="error", error=str(exc))
                    print(f"{cell}: ERROR {exc}")
                rows.append(row)

    with open(args.report, "w", newline="", encoding="utf-8") as fh:
        fieldnames = [f.name for f in dataclasses.fields(RunReport)] + ["status", "error"]
        writer = csv.DictWriter(fh, fieldnames=fieldnames, restval="")
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} report rows to {args.report}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="tcmicro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic data set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--qi-count", type=int, default=2)
    p.add_argument("--rho", type=float, required=True,
                   help="target QI/confidential correlation in [-1, 1]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.add_argument("--roles-out", default=None,
                   help="also write a matching roles config here")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("anonymize", help="run one anonymization and write the release")
    p.add_argument("--input", required=True)
    p.add_argument("--roles", required=True)
    p.add_argument("--algorithm", choices=sorted(ALGORITHMS), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", required=True)
    p.add_argument("--report", default=None, help="write the run report as JSON here")
    p.add_argument("--drop-missing", action="store_true")
    p.set_defaults(func=cmd_anonymize)

    p = sub.add_parser("verify", help="re-check a written release against its original")
    p.add_argument("--input", required=True, help="original data set")
    p.add_argument("--anonymized", required=True, help="release with cluster_id column")
    p.add_argument("--roles", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--drop-missing", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="run a k x t x algorithm grid and emit a CSV report")
    p.add_argument("--input", required=True)
    p.add_argument("--roles", required=True)
    p.add_argument("--grid-k", required=True, help="comma-separated k values")
    p.add_argument("--grid-t", required=True, help="comma-separated t values")
    p.add_argument("--algorithms", default="merge,kfirst,tfirst")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--report", required=True)
    p.add_argument("--drop-missing", action="store_true")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
