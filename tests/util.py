"""Shared helpers for the test suite."""

from contextlib import contextmanager

import numpy as np
import pytest

import tcmicro.emd
import tcmicro.kfirst
from tcmicro import AttributeSpec, Role, Table
from tcmicro.microagg import _exact_mean, _exact_sums

# kfirst's swap state reads the swap sums F from a table or evaluates them
# in closed form, and is held in numpy or, over a table, in Python ints;
# cluster size selects the path, and numpy_rebuild_sides compares the two
# numpy sides
SWAP_PATHS = [(True, True), (True, False), (False, False)]
SWAP_PATH_IDS = ["table-loop", "table-numpy", "closed-numpy"]


@contextmanager
def swap_paths(tabulate: bool, loop: bool):
    """Force the swap sums to be tabulated or not, and the swap state to be
    held in Python ints (given a table) or in numpy, whatever the cluster
    size, for states made inside the block; the one size constant,
    emd._LOOP_SIZE, also selects the EMD numerator's Python-int or numpy
    steps."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tcmicro.emd, "_MAX_TABLE_ROWS", 1 << 62 if tabulate else 0)
        mp.setattr(tcmicro.emd, "_LOOP_SIZE", 1 << 62 if loop else 0)
        yield


def swap_down_up(state) -> list[tuple[int, int]]:
    """(down(x), up(x)) of a kfirst swap state at every rank x in 0..m, read
    from its sorted member ranks, offsets gd and gu and swap sums F."""
    x = np.arange(state.ctx.m + 1)
    p = state._sorted.searchsorted(x)
    f = state._pairs(p, x)
    down = np.asarray(state._gd)[p] + f[:, 0]
    up = np.asarray(state._gu)[p] - f[:, 1]
    return list(zip(down.tolist(), up.tolist()))


def swap_state(state) -> tuple:
    """Everything a kfirst swap state holds after a rebuild, as plain lists
    whether it holds lists of Python ints or arrays."""
    return tuple(np.asarray(a).tolist() for a in (
        state.members, state.ranks, state._sorted, state._gd, state._gu, state._thr, state._values,
    )) + (state.d, state.emd)


def numpy_rebuild_sides(table: Table, members) -> list[tuple]:
    """The swap state of a cluster with these members from the numpy
    rebuild, once reading a tabulated F and once F in closed form."""
    sides = []
    for tabulate in (True, False):
        with swap_paths(tabulate, loop=False):
            sides.append(swap_state(tcmicro.kfirst._SwapEmd(tcmicro.emd.TableEmd(table), members)))
    return sides


def make_1d_table(qi_values, conf_values) -> Table:
    specs = (
        AttributeSpec("x", Role.QUASI_IDENTIFIER),
        AttributeSpec("s", Role.CONFIDENTIAL),
    )
    return Table(specs, np.column_stack([qi_values, conf_values]).astype(float))


def make_ranks_table(n: int) -> Table:
    """1-D table where QI and confidential values are both the ranks 1..n."""
    vals = np.arange(1, n + 1, dtype=float)
    return make_1d_table(vals, vals)


def cluster_means(x: np.ndarray, groups) -> np.ndarray:
    """Each group's centroid, one row per group, from the package's exact
    sums over the rows of x labelled by group, passed group by group in the
    given member order, as the merge pass and aggregate pass them."""
    labels = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    sums = _exact_sums(x[np.concatenate(groups)], labels)
    return np.array([_exact_mean(s, len(g)) for s, g in zip(sums, groups)])


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape, dtype and bytes."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def subset_emd_matrix(members_matrix: np.ndarray, n: int) -> np.ndarray:
    """Vectorized cluster-vs-table EMD for many clusters over a duplicate-free
    confidential column of n ranked values.

    members_matrix holds 0-based ranks, one cluster per row. Local
    re-derivation of the cumulative formula so brute-force enumerations stay
    fast and independent of the library loop structure.
    """
    b, k = members_matrix.shape
    table_cum = np.arange(1, n + 1) / n
    mass = np.zeros((b, n))
    np.add.at(mass, (np.repeat(np.arange(b), k), members_matrix.ravel()), 1.0 / k)
    cum = np.cumsum(mass, axis=1) - table_cum
    return np.abs(cum).sum(axis=1) / (n - 1)
