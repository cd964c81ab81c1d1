"""Shared helpers for the test suite."""

import numpy as np

from tcmicro import AttributeSpec, Role, Table


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
