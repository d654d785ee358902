"""PostgreSQL-style cost model and cardinality estimation.

The paper implements DP/IDP/SDP *inside* PostgreSQL 8.1.2 and therefore
inherits its cost model. This package rebuilds that model's structure:

* page-based I/O costs (sequential vs random), CPU costs per tuple /
  index tuple / operator (:class:`CostModel`);
* access paths: sequential scan and (ordered) index scan
  (:mod:`repro.cost.scans`);
* join methods: nested loop, index nested loop, hash join, merge join
  (:mod:`repro.cost.joins`), plus explicit sorts (:mod:`repro.cost.sorts`);
* join selectivity from distinct counts with a skew correction from
  most-common-value fractions (:mod:`repro.cost.selectivity`);
* consistent per-relation-set cardinalities via
  :class:`CardinalityEstimator`, including the shared-join-column (t-1
  largest distinct counts) rule (:mod:`repro.cost.cardinality`).

Plan-quality results are cost *ratios* between optimizers run on the same
model, so reproducing the model's structure (not PostgreSQL's exact
constants-by-version behaviour) is what matters; see DESIGN.md.
"""

from repro.cost.cardinality import CardinalityEstimator
from repro.cost.joins import (
    hash_join_cost,
    index_nestloop_cost,
    merge_join_cost,
    nestloop_cost,
)
from repro.cost.model import DEFAULT_COST_MODEL, CostModel
from repro.cost.scans import index_lookup_cost, index_scan_full_cost, seq_scan_cost
from repro.cost.selectivity import eclass_selectivity, predicate_selectivity
from repro.cost.sorts import sort_cost

__all__ = [
    "CostModel",
    "DEFAULT_COST_MODEL",
    "CardinalityEstimator",
    "seq_scan_cost",
    "index_scan_full_cost",
    "index_lookup_cost",
    "sort_cost",
    "nestloop_cost",
    "index_nestloop_cost",
    "hash_join_cost",
    "merge_join_cost",
    "predicate_selectivity",
    "eclass_selectivity",
]
