"""k-Anonymous, t-close microdata releases via microaggregation: three
anonymization pipelines, independent verifiers, information-loss metrics, a
synthetic-data generator and a benchmarking CLI."""

from .dataset import (
    AnonymizedTable,
    AttributeSpec,
    Role,
    SynthConfig,
    Table,
    achieved_correlation,
    load_anonymized_csv,
    load_csv,
    minmax_params,
    synth_generate,
    write_csv,
)
from .emd import (
    TableEmd,
    adjust_cluster_size,
    min_emd_bound,
    required_cluster_size,
)
from .kfirst import generate_cluster, kfirst_partition, run_kfirst_algorithm
from .merge import merge_until_tclose, run_merge_algorithm
from .metrics import (
    RunReport,
    cluster_size_stats,
    normalized_sse,
    verify_k_anonymity,
    verify_t_closeness,
)
from .microagg import (
    Cluster,
    Partition,
    aggregate,
    mdav_partition,
    normalized_qi,
)
from .tfirst import build_cluster, run_tfirst_algorithm, split_subsets

__version__ = "0.1.0"

__all__ = [
    "AnonymizedTable",
    "AttributeSpec",
    "Cluster",
    "Partition",
    "Role",
    "RunReport",
    "SynthConfig",
    "Table",
    "TableEmd",
    "achieved_correlation",
    "adjust_cluster_size",
    "aggregate",
    "build_cluster",
    "cluster_size_stats",
    "generate_cluster",
    "kfirst_partition",
    "load_anonymized_csv",
    "load_csv",
    "mdav_partition",
    "merge_until_tclose",
    "min_emd_bound",
    "minmax_params",
    "normalized_qi",
    "normalized_sse",
    "required_cluster_size",
    "run_kfirst_algorithm",
    "run_merge_algorithm",
    "run_tfirst_algorithm",
    "split_subsets",
    "synth_generate",
    "verify_k_anonymity",
    "verify_t_closeness",
    "write_csv",
]
