"""Parameter validation: every public entry point rejects a cluster size k
that is not an integer in [2, n], and a closeness level tau that is not a
finite positive number, with ValueError."""

import math

import numpy as np
import pytest

from tcmicro import (
    SynthConfig,
    TableEmd,
    adjust_cluster_size,
    kfirst_partition,
    mdav_partition,
    merge_until_tclose,
    min_emd_bound,
    minmax_params,
    required_cluster_size,
    run_kfirst_algorithm,
    run_merge_algorithm,
    run_tfirst_algorithm,
    split_subsets,
    synth_generate,
)
from oracles import max_emd_bound

TABLE = synth_generate(SynthConfig(n=30, qi_count=2, target_correlation=0.52, seed=4))
RUNS = {
    "merge": run_merge_algorithm,
    "kfirst": run_kfirst_algorithm,
    "tfirst": run_tfirst_algorithm,
}
BAD_K = [2.5, 2.0, 1, 0, -3, TABLE.n + 1, True, "2", None]
BAD_TAU = [math.nan, math.inf, -math.inf, 0.0, -0.1, "0.1"]


@pytest.mark.parametrize("pipeline", RUNS)
@pytest.mark.parametrize("k", BAD_K)
def test_run_rejects_bad_k(pipeline, k):
    with pytest.raises(ValueError, match="integer k"):
        RUNS[pipeline](TABLE, k, 0.1)


@pytest.mark.parametrize("pipeline", RUNS)
@pytest.mark.parametrize("tau", BAD_TAU)
def test_run_rejects_bad_tau(pipeline, tau):
    # before validation was shared, merge and kfirst accepted tau=nan and
    # returned releases with a max EMD of 0.49 and 0.25
    with pytest.raises(ValueError, match="tau"):
        RUNS[pipeline](TABLE, 2, tau)


@pytest.mark.parametrize("k", BAD_K)
def test_partition_steps_reject_bad_k(k):
    params, ctx = minmax_params(TABLE), TableEmd(TABLE)
    with pytest.raises(ValueError, match="integer k"):
        mdav_partition(TABLE, params, k)
    with pytest.raises(ValueError, match="integer k"):
        kfirst_partition(TABLE, k, 0.1, params, ctx)
    with pytest.raises(ValueError, match="integer k"):
        split_subsets(TABLE, k)


@pytest.mark.parametrize("k", [2.5, 1, 31])
def test_closed_forms_reject_bad_k(k):
    for fn in (min_emd_bound, max_emd_bound, adjust_cluster_size):
        with pytest.raises(ValueError, match="integer k"):
            fn(30, k)
    with pytest.raises(ValueError, match="integer k"):
        required_cluster_size(30, k, 0.1)


def test_merge_pass_rejects_nan_tau():
    part = mdav_partition(TABLE, minmax_params(TABLE), 3)
    with pytest.raises(ValueError, match="tau"):
        merge_until_tclose(TABLE, part, math.nan, minmax_params(TABLE), TableEmd(TABLE))


@pytest.mark.parametrize("pipeline", RUNS)
def test_numpy_integer_k_accepted(pipeline):
    _, want, _ = RUNS[pipeline](TABLE, 3, 0.2)
    _, got, _ = RUNS[pipeline](TABLE, np.int64(3), 0.2)
    assert [tuple(c.members) for c in got.clusters] == [tuple(c.members) for c in want.clusters]
