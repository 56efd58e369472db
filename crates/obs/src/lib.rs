#![warn(missing_docs)]

//! **qap-obs** — the observability layer of the qap workspace.
//!
//! Large-scale stream monitors live or die on cheap, always-on
//! telemetry: the paper's whole search procedure ranks partitionings by
//! *estimated* per-node load, and only measurement closes the loop on
//! whether the estimate was right. This crate provides the measurement
//! substrate the rest of the workspace threads through its hot paths:
//!
//! - [`OpMetrics`] — per-operator flow counters (tuples/bytes/batches
//!   in and out), a power-of-two [`Histogram`] of delivered batch
//!   occupancy, window-flush latency, and group-table slot/probe
//!   telemetry;
//! - [`HostMetrics`] — per-host cluster gauges: cross-process traffic
//!   shipped and received (both derived estimates and measured frame
//!   counts), boundary-queue peak depth, accounted work and CPU share;
//! - [`EdgeEntry`] — per-boundary-edge *measured* frame transport
//!   (frames/tuples/encoded bytes a producing node actually shipped);
//! - [`SharedGauge`] — a lock-free (relaxed-atomic) up/down gauge with
//!   peak tracking, for state that genuinely crosses threads (the
//!   threaded runner's boundary channel depth);
//! - [`MetricsRegistry`] — the snapshot container, exporting
//!   [JSON](MetricsRegistry::to_json) and
//!   [Prometheus text](MetricsRegistry::to_prometheus) formats.
//!
//! # Hot-path discipline
//!
//! Nothing here takes a lock on a per-tuple path. Operators and engines
//! own their counters as plain integers (an engine is single-threaded
//! by construction; the threaded cluster runner gives every host its
//! own engine and merges snapshots after the run). The only shared
//! mutable state is [`SharedGauge`], which uses relaxed atomics — a
//! `fetch_add` and a `fetch_max`, no CAS loops, no locks. Snapshot
//! assembly (`MetricsRegistry`) happens once per run, off the hot path.
//!
//! Per-tuple byte accounting would be a real cost (`encoded_len` walks
//! the tuple), so bytes are *derived*: every operator's output schema
//! is fixed, hence `bytes = tuples × qap_types::estimated_tuple_size`
//! of its arity — the same 2 + 9·arity estimator the Section 4.2.1 cost
//! model uses, which is exactly what makes measured bytes comparable to
//! predicted bytes in the cost-model validation harness.

mod export;
mod histogram;
mod registry;

pub use histogram::{Histogram, HISTOGRAM_BUCKETS};
pub use registry::{
    EdgeEntry, HostMetrics, MetricsRegistry, OpEntry, OpMetrics, SharedGauge, KERNEL_LANES,
    KERNEL_LANE_LABELS,
};
