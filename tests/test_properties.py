"""Property tests over adversarial tables: ties, constant or all-zero QI
columns, duplicate rows, negative values, subnormals, magnitudes near the
largest float, n just above k, k == n and tiny t.

Every pipeline's release must be k-anonymous and t-close on the equivalence
classes it actually publishes (rows with equal QI values), each published QI
cell must be its cluster's exact mean rounded once, whatever the order of the
clusters and of their members, and invalid k or tau must raise ValueError and
nothing else. A release written by the CLI must pass the CLI's verify at its
t and fail it just below its worst EMD. Utility is not asserted.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcmicro import (
    AttributeSpec,
    Partition,
    Role,
    Table,
    TableEmd,
    aggregate,
    cli,
    run_kfirst_algorithm,
    run_merge_algorithm,
    run_tfirst_algorithm,
    write_csv,
)
from oracles import fraction_mean
from util import cluster_means, same_bits

PIPELINES = [run_merge_algorithm, run_kfirst_algorithm, run_tfirst_algorithm]
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

cells = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    # subnormals, and values whose float sum overflows; all positive, so a
    # QI's span max - min stays finite
    st.sampled_from([5e-324, 1e-310, 1.5e308, 1.7976931348623157e308]),
)


@st.composite
def tables(draw, n=st.integers(2, 24)):
    """A table of n records drawn with replacement from a few distinct rows,
    with some QI columns optionally forced constant or zero. 8 to 10 QIs
    reach the squared distances numpy's row sum would add pairwise."""
    q = draw(st.one_of(st.integers(1, 3), st.integers(8, 10)))
    row = st.tuples(*[cells] * (q + 1))
    distinct = draw(st.lists(row, min_size=1, max_size=12))
    n = draw(n)
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
    rows = np.array([distinct[i] for i in picks], dtype=np.float64)
    for col in draw(st.sets(st.integers(0, q - 1), max_size=q)):
        rows[:, col] = draw(st.sampled_from([0.0, -2.5]))
    specs = tuple(AttributeSpec(f"q{i}", Role.QUASI_IDENTIFIER) for i in range(q))
    return Table(specs + (AttributeSpec("s", Role.CONFIDENTIAL),), rows)


def emd_to_table(conf: np.ndarray, members: np.ndarray) -> float:
    support, ranks = np.unique(conf, return_inverse=True)
    m = support.size
    if m == 1:
        return 0.0
    p = np.bincount(ranks[members], minlength=m) / members.size
    q = np.bincount(ranks, minlength=m) / conf.size
    return float(np.abs(np.cumsum(p - q)).sum() / (m - 1))


@SETTINGS
@given(
    data=st.data(),
    k=st.integers(2, 6),
    extra=st.one_of(st.just(0), st.just(1), st.integers(0, 18)),
    tau=st.one_of(st.just(1e-6), st.floats(1e-3, 0.6)),
)
def test_published_classes_are_k_anonymous_and_t_close(data, k, extra, tau):
    table = data.draw(tables(n=st.just(k + extra)))
    conf, original = table.confidential_column(), table.qi_matrix()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for run in PIPELINES:
        anonymized, partition, _ = run(table, k, tau)
        assert np.array_equal(anonymized.table.confidential_column(), conf)
        qi = anonymized.table.qi_matrix()
        _, classes = np.unique(qi, axis=0, return_inverse=True)
        for c in np.unique(classes):
            members = np.flatnonzero(classes.ravel() == c)
            assert members.size >= k, run.__name__
            assert emd_to_table(conf, members) <= tau + 1e-9, run.__name__
        clusters = np.split(partition.order, partition.starts[1:])
        for members in clusters:
            want = np.tile(fraction_mean(original[members]), (members.size, 1))
            assert same_bits(qi[members], want), run.__name__
        # the same clusters in another order, each with its members in
        # another order, publish the same bytes
        perm = rng.permutation(len(partition))
        groups = [rng.permutation(clusters[i]) for i in perm]
        shuffled = aggregate(table, Partition(groups))
        assert shuffled.table.rows.tobytes() == anonymized.table.rows.tobytes()
        assert np.array_equal(perm[shuffled.cluster_ids], anonymized.cluster_ids)
        assert same_bits(cluster_means(original, groups), qi[[g[0] for g in groups]])


@st.composite
def groupings(draw):
    """A table and a grouping of its records, clusters and members in a
    random order: random labels, all singletons, or one cluster of every
    record."""
    table = draw(tables(n=st.integers(1, 24)))
    shape = draw(st.sampled_from(["random", "singletons", "whole"]))
    n = table.n
    if shape == "random":
        labels = np.array(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
    else:
        labels = np.arange(n) if shape == "singletons" else np.zeros(n, dtype=np.int64)
    groups = [
        np.array(draw(st.permutations(np.flatnonzero(labels == c).tolist())), dtype=np.int64)
        for c in draw(st.permutations(np.unique(labels).tolist()))
    ]
    return table, groups


@SETTINGS
@given(groupings())
def test_partition_holds_its_groups(case):
    table, groups = case
    part = Partition(groups)
    ascending = [sorted(g.tolist()) for g in groups]
    assert [c.members.tolist() for c in part.clusters] == ascending
    assert [g.tolist() for g in np.split(part.order, part.starts[1:])] == ascending
    assert part.sizes() == [g.size for g in groups]
    assert (len(part), part.n) == (len(groups), table.n)
    ctx = TableEmd(table)
    single = np.array([ctx.cluster_emd(g) for g in groups])
    assert ctx.partition_emds(part.order, part.starts).tobytes() == single.tobytes()
    original, qi = table.qi_matrix(), aggregate(table, part).table.qi_matrix()
    for g in groups:
        assert same_bits(qi[g], np.tile(fraction_mean(original[g]), (g.size, 1)))
    # one record repeated in the last cluster, or one replaced by an index
    # past the end, no longer covers 0..n-1 exactly once
    for last in (np.append(groups[-1], groups[0][0]), np.append(groups[-1][1:], table.n)):
        with pytest.raises(ValueError, match="cover"):
            Partition(groups[:-1] + [last])


@SETTINGS
@given(
    data=st.data(),
    k=st.integers(2, 6),
    extra=st.one_of(st.just(0), st.just(1), st.integers(0, 18)),
    tau=st.one_of(st.just(1e-6), st.floats(1e-3, 0.6)),
)
def test_cli_release_verifies_at_t_and_fails_just_below_its_worst_emd(data, k, extra, tau):
    table = data.draw(tables(n=st.just(k + extra)))
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write_csv(table, d / "data.csv")
        (d / "roles.cfg").write_text(
            "".join(f"{spec.name}={spec.role.value}\n" for spec in table.specs))
        files = ["--input", str(d / "data.csv"), "--roles", str(d / "roles.cfg")]
        release = ["--anonymized", str(d / "anon.csv"), "--k", str(k)]

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main([*argv, *files])

        for algorithm in sorted(cli.ALGORITHMS):
            assert run("anonymize", "--algorithm", algorithm, "--k", str(k), "--t", repr(tau),
                       "--output", str(d / "anon.csv"), "--report", str(d / "run.json")) == 0
            assert run("verify", *release, "--t", repr(tau)) == 0, algorithm
            worst = json.loads((d / "run.json").read_text())["max_cluster_emd"]
            if worst > 0:
                below = repr(worst * (1 - 1e-12))
                assert run("verify", *release, "--t", below) == cli.EXIT_VERIFY, algorithm


bad_k = st.one_of(
    st.integers(-5, 1),
    st.integers(25, 40),
    st.floats(allow_nan=True).filter(lambda v: not (math.isfinite(v) and v == int(v))),
    st.floats(2, 24).filter(lambda v: v != int(v)),
)
bad_tau = st.one_of(
    st.just(math.nan),
    st.just(math.inf),
    st.just(-math.inf),
    st.floats(max_value=0.0, allow_nan=False),
)


@SETTINGS
@given(table=tables(), k=bad_k)
def test_invalid_k_raises_value_error(table, k):
    for run in PIPELINES:
        with pytest.raises(ValueError):
            run(table, k, 0.1)


@SETTINGS
@given(table=tables(), tau=bad_tau)
def test_invalid_tau_raises_value_error(table, tau):
    for run in PIPELINES:
        with pytest.raises(ValueError):
            run(table, 2, tau)
