"""Self-test of the independent release checker.

    python3 -m pytest bench/test_checker.py

A tfirst release is tampered so that every published QI class is a pair of
adjacent confidential ranks, while its cluster_id column still names the
original t-close clusters. ``tcmicro verify`` trusts that column and passes
the release; the checker must reject it, and must pass an untouched copy.
"""

import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
from tcmicro import AnonymizedTable, Table, cli, load_anonymized_csv, write_csv  # noqa: E402
from tcmicro.cli import read_roles  # noqa: E402

K, T = 2, 0.1


def _main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@pytest.fixture(scope="module")
def release(tmp_path_factory):
    d = tmp_path_factory.mktemp("release")
    paths = {name: str(d / name) for name in ("input.csv", "roles.txt", "release.csv")}
    assert _main(["synth", "--n", "400", "--rho", "0.52", "--seed", "11",
                  "--output", paths["input.csv"], "--roles-out", paths["roles.txt"]]) == 0
    assert _main(["anonymize", "--input", paths["input.csv"], "--roles", paths["roles.txt"],
                  "--algorithm", "tfirst", "--k", str(K), "--t", str(T),
                  "--output", paths["release.csv"]]) == 0
    return paths


def _verify_exit(paths, release_csv):
    return _main(["verify", "--input", paths["input.csv"], "--anonymized", release_csv,
                  "--roles", paths["roles.txt"], "--k", str(K), "--t", str(T)])


def _tampered(paths, tmp_path, tamper):
    """Write a copy of the release with tamper(original rows, release rows,
    qi columns, confidential column) applied to the release rows."""
    roles = read_roles(paths["roles.txt"])
    anon = load_anonymized_csv(paths["release.csv"], roles)
    _, original = checker.read_csv(paths["input.csv"])
    rows = anon.table.rows.copy()
    table = anon.table
    tamper(original, rows, list(table.qi_indices), table.confidential_index)
    out = str(tmp_path / "tampered.csv")
    write_csv(AnonymizedTable(Table(table.specs, rows), anon.cluster_ids), out)
    return out


def _pair_adjacent_ranks(original, rows, qi, conf):
    order = np.argsort(original[:, conf], kind="stable")
    for pair in order.reshape(-1, 2):
        rows[np.ix_(pair, qi)] = original[np.ix_(pair, qi)].mean(axis=0)


def test_untouched_release_passes(release):
    assert _verify_exit(release, release["release.csv"]) == 0
    problems, classes = checker.check_release(
        release["input.csv"], release["roles.txt"], release["release.csv"], K, T)
    assert problems == []
    assert sum(c.size for c in classes) == 400


def test_adjacent_rank_pairs_fool_verify_but_not_the_checker(release, tmp_path):
    tampered = _tampered(release, tmp_path, _pair_adjacent_ranks)
    assert _verify_exit(release, tampered) == 0
    problems, classes = checker.check_release(
        release["input.csv"], release["roles.txt"], tampered, K, T)
    assert len(classes) == 200
    assert len(problems) == 1 and problems[0].startswith("t-closeness")


def _swap_confidential(original, rows, qi, conf):
    rows[[0, 1], conf] = rows[[1, 0], conf]


def _shift_one_qi_cell(original, rows, qi, conf):
    members = np.flatnonzero((rows[:, qi] == rows[0, qi]).all(axis=1))
    rows[members, qi[0]] += 1.0


def _split_a_class(original, rows, qi, conf):
    rows[0, qi] = original[0, qi]


@pytest.mark.parametrize("tamper, expected", [
    (_swap_confidential, "confidential column"),
    (_shift_one_qi_cell, "QI cells"),
    (_split_a_class, "k-anonymity"),
])
def test_each_check_rejects_its_tampering(release, tmp_path, tamper, expected):
    tampered = _tampered(release, tmp_path, tamper)
    problems, _ = checker.check_release(
        release["input.csv"], release["roles.txt"], tampered, K, T)
    assert any(p.startswith(expected) for p in problems), problems
