"""One experiment module per table/figure of the paper.

Every module exposes ``TITLE`` (what it regenerates) and ``run(settings)``
returning the rendered report string; ``sdp-bench <id>`` runs one::

    sdp-bench table-1.1 --instances 30

The per-experiment index mapping paper tables/figures to these modules lives
in ``DESIGN.md``; measured-vs-paper numbers are recorded in
``EXPERIMENTS.md``.
"""

from repro.bench.experiments import (
    ext_baselines,
    ext_estimation,
    ext_feature_vector,
    ext_partitioning,
    ext_skew,
    ext_topologies,
    figure_1_2,
    figure_2_2,
    robust_report,
    table_1_1,
    table_1_2,
    table_1_3,
    table_1_4,
    table_2_1,
    table_2_2,
    table_2_3,
    table_3_1,
    table_3_2,
    table_3_3,
    table_3_4,
    table_3_5,
    table_3_6,
)
from repro.bench.experiments.common import ExperimentSettings

#: Registry used by the CLI: experiment id -> module.
EXPERIMENTS = {
    "table-1.1": table_1_1,
    "table-1.2": table_1_2,
    "table-1.3": table_1_3,
    "table-1.4": table_1_4,
    "figure-1.2": figure_1_2,
    "table-2.1": table_2_1,
    "figure-2.2": figure_2_2,
    "table-2.2": table_2_2,
    "table-2.3": table_2_3,
    "table-3.1": table_3_1,
    "table-3.2": table_3_2,
    "table-3.3": table_3_3,
    "table-3.4": table_3_4,
    "table-3.5": table_3_5,
    "table-3.6": table_3_6,
    # extensions beyond the paper (cited alternatives + stated future work)
    "ext-baselines": ext_baselines,
    "ext-skew": ext_skew,
    "ext-feature-vector": ext_feature_vector,
    "ext-partitioning": ext_partitioning,
    "ext-estimation": ext_estimation,
    "ext-topologies": ext_topologies,
    "robust-report": robust_report,
}

__all__ = ["EXPERIMENTS", "ExperimentSettings"]
