#![warn(missing_docs)]

//! Cluster simulation: executing distributed plans over partitioned
//! streams with per-host CPU and network accounting.
//!
//! This crate stands in for the paper's testbed — four dual-core Xeon
//! servers running Gigascope behind a splitter, fed by a replayed
//! packet trace. The simulator:
//!
//! - implements the **splitter**: round-robin or hash partitioning of
//!   the raw stream into `M` partitions mapped onto hosts (Section 3.3);
//! - executes the optimizer's physical plan *exactly*, one unit per
//!   host as the paper runs one Gigascope instance per host, so result
//!   correctness is end-to-end checkable against the centralized plan;
//! - charges per-tuple **work units** — parse cost at the scans,
//!   operator cost per processed tuple, a *send* cost at the producing
//!   host and a (deliberately larger) *remote-receive* cost at the
//!   consuming host for every process-to-process transfer, reflecting
//!   the paper's "significant overhead involved in processing remote
//!   tuples as compared to local processing";
//! - reports the paper's measured quantities: **CPU load on the
//!   aggregator node**, **network load (tuples/sec) into the
//!   aggregator**, and leaf-node CPU load.
//!
//! The `experiments` module packages the three evaluation scenarios of
//! Section 6 with their system configurations (Naive / Optimized /
//! Partitioned variants).

mod deploy;
pub mod experiments;
pub mod link;
mod measure;
mod obs_export;
pub mod rebalance;
mod remote;
mod sim;
mod splitter;
mod threaded;
mod transport;
mod unit;
mod validate;

pub use link::{connect_with_backoff, HostAddr, HostListener};
pub use measure::measure_stats;
pub use obs_export::{metrics_registry, op_kind};
pub use rebalance::{
    hot_key_floor, migration_spec, plan_assignment, ImbalanceDetector, MigrationSpec,
    RebalanceConfig, ReplicaFamily,
};
pub use remote::{remote_host_count, run_distributed_remote, serve_host, HostServerConfig};
pub use sim::{
    run_distributed, run_distributed_multi, ClusterMetrics, CostConstants, SimConfig, SimResult,
};
pub use threaded::run_distributed_threaded;
pub use transport::{
    EdgeTransport, FaultPlan, TransportConfig, TransportKind, TransportMetrics,
    DEFAULT_SEND_TIMEOUT_MS,
};
pub use validate::{
    predict_host_load, predict_host_load_for_plan, validate_cost_model, CostValidation,
    DEFAULT_TOLERANCE,
};

// Re-exported so downstream users can export snapshots without naming
// `qap-obs` directly.
pub use qap_obs::MetricsRegistry;

// Re-exported so callers matching on a failed run's error (or reading
// `SimResult::failures`) don't need their own `qap-exec` edge.
pub use qap_exec::{FailureCause, HostFailure};
