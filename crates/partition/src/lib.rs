#![warn(missing_docs)]

//! Query-aware stream partitioning analysis (Sections 3–4 of the paper).
//!
//! Given a query-set DAG, this crate answers the three questions of
//! Section 3.2:
//!
//! 1. *Which partitioning scheme is optimal for each query node?* —
//!    [`compatible_set`] infers the compatible partitioning set of every
//!    node class (aggregation from its group-by variables, join from its
//!    equality predicates, σ/π/∪ compatible with anything), lowering
//!    derived columns to source-stream expressions via provenance and
//!    excluding temporal attributes (Section 3.5.1).
//! 2. *How to reconcile conflicting requirements?* —
//!    [`reconcile_partition_sets`] intersects two sets column-wise,
//!    coarsening transforms to their least common denominator
//!    (Section 4.1).
//! 3. *Which single initial partitioning minimizes the maximum network
//!    load on any node?* — [`choose_partitioning`] runs the candidate
//!    enumeration of Section 4.2.2 under the cost model of
//!    Section 4.2.1.
//!
//! [`HashPartitioner`] implements the hash-based splitter of
//! Section 3.3, the runtime counterpart the cluster simulator uses.

mod choose;
mod compat;
mod cost;
mod hash;
mod set;
mod sketch;

pub use choose::{choose_partitioning, choose_partitioning_with, PartitionAnalysis};
pub use compat::{
    compatible_set, compatible_set_with, node_compatibilities, node_compatibilities_with,
    AnalysisOptions, Compatibility,
};
pub use cost::{
    node_rates, plan_cost, CostModel, CostReport, NodeRates, NodeStats, StatsProvider, UniformStats,
};
pub use hash::{fnv1a_hash, identity_assignment, HashPartitioner, Routed};
pub use set::{reconcile_partition_sets, PartitionSet};
pub use sketch::KeySketch;
