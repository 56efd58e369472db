#![warn(missing_docs)]

//! The partition-aware distributed query optimizer (Section 5 of the
//! paper).
//!
//! Input: a *logical* query DAG and a description of how the splitter
//! hardware actually partitions the source stream (which may differ from
//! the analyzer's recommendation — Section 5's "the distributed query
//! optimizer needs to take advantage of any partitioning that is used by
//! the system, even if it differs from the optimal one").
//!
//! Output: a *physical* plan — another [`qap_plan::QueryDag`] whose
//! leaves are per-partition scans, with a host assignment for every
//! node — produced by the bottom-up transformation algorithm of
//! Section 5.1:
//!
//! 1. build the partition-agnostic plan (scans + a central merge per
//!    source, everything else on the aggregator host — Figure 3);
//! 2. walk the logical DAG bottom-up, applying
//!    `Opt_Eligible`/`Transform` per node class:
//!    - **aggregation, compatible** (5.2.1): push a replica below the
//!      merge onto every partition — Figure 4;
//!    - **aggregation, incompatible** (5.2.2): split into sub-aggregates
//!      (per partition or per host) and a central super-aggregate,
//!      pushing WHERE down and keeping HAVING at the super — Figure 5;
//!    - **join, compatible** (5.3): pairwise per-partition joins —
//!      Figure 7;
//!    - **selection/projection** (5.4): always pushed.

mod distributed;
mod error;
mod partitioning;
mod plan_partition;
#[cfg(test)]
mod tests;

pub use distributed::{
    agnostic_plan, optimize, optimize_explained, DistributedPlan, PlanOutput, PlanSource,
};
pub use error::{OptError, OptResult};
pub use partitioning::{OptimizerConfig, PartialAggScope, Partitioning, SplitStrategy};
pub use plan_partition::plan_partitioning;
pub use qap_planner::{NodeDecision, PlanExplanation};
