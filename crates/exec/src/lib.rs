#![warn(missing_docs)]

//! Tumbling-window streaming execution.
//!
//! This crate executes [`qap_plan::QueryDag`]s — both single-host
//! logical plans and the distributed physical plans produced by
//! `qap-optimizer` — over real tuple streams, with the tumbling-window
//! semantics of Section 3.1:
//!
//! - **aggregation** unblocks by flushing a window's groups the moment
//!   its temporal grouping attribute advances past the window;
//! - **join** buffers per-epoch hash tables on both inputs and fires an
//!   epoch pairing once both sides have moved past it, honouring epoch
//!   offsets (`S1.tb = S2.tb + 1`);
//! - **merge** (stream union) aligns its inputs on the temporal
//!   attribute so downstream windows never close early — the union of
//!   independently-progressing partitions stays bucket-ordered.
//!
//! The [`Engine`] is deterministic and counts per-operator tuple flow
//! (`tuples_in`/`tuples_out`), which the cluster simulator turns into
//! the CPU and network loads of the paper's figures. Internally tuples
//! move in batches of lanes (see [`BatchConfig`]); counters stay
//! per-tuple accurate, so every figure series is independent of batch
//! size. [`run_logical`] is the reference model the engine is held to:
//! a brute-force evaluator that shares no operator code with it.

mod bind;
mod engine;
mod error;
mod fx;
mod ops;
mod reference;
#[cfg(test)]
mod tests;

pub use engine::{BatchConfig, Engine, OpCounters};
pub use error::{ExecError, ExecResult, FailureCause, HostFailure};
// Re-exported so engine users can consume [`Engine::metrics`] without
// depending on `qap-obs` directly.
pub use qap_obs::{Histogram, OpMetrics};
pub use reference::run_logical;
