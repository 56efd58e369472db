//! The snapshot container: per-operator and per-host metric records.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use crate::Histogram;

/// Number of kernel lane types the per-lane kernel counters track.
/// Mirrors `qap_expr::LANE_KINDS` (the engines assign the compiler's
/// fixed-size tallies straight into [`OpMetrics`], so a mismatch is a
/// compile error there, not a silent truncation here).
pub const KERNEL_LANES: usize = 4;

/// Exporter labels for the kernel lane types, indexed like the
/// `kernel_lane_*` arrays (mirrors `qap_expr::LaneKind::label`).
pub const KERNEL_LANE_LABELS: [&str; KERNEL_LANES] = ["uint", "int", "bool", "str"];

/// Per-operator telemetry. Tuple counts are batch-size-invariant
/// (semantic flow); batch counts, occupancy and latency describe the
/// mechanics of one particular run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpMetrics {
    /// Tuples delivered to the operator.
    pub tuples_in: u64,
    /// Tuples the operator emitted.
    pub tuples_out: u64,
    /// Estimated wire bytes delivered (producer-schema sized).
    pub bytes_in: u64,
    /// Estimated wire bytes emitted (own-schema sized).
    pub bytes_out: u64,
    /// Input batches delivered.
    pub batches_in: u64,
    /// Output batches emitted (non-empty routed outputs).
    pub batches_out: u64,
    /// Tuples dropped for arriving behind the operator's window.
    pub late_dropped: u64,
    /// Occupancy (tuples per delivered input batch).
    pub batch_occupancy: Histogram,
    /// Column evaluations (predicate filters, projections, key passes).
    pub kernel_hits: u64,
    /// Always 0: no operator runs a row interpreter. Kept because
    /// `bench_e2e` reports it, until ROADMAP item 1 drops it.
    pub kernel_fallbacks: u64,
    /// Column evaluations per lane type they read, indexed per
    /// [`KERNEL_LANE_LABELS`] (one evaluation may credit several lane
    /// types).
    pub kernel_lane_hits: [u64; KERNEL_LANES],
    /// Window flushes performed (aggregation operators).
    pub flushes: u64,
    /// Total wall-clock nanoseconds spent inside window flushes.
    pub flush_ns: u64,
    /// Open-addressed index slots across the operator's group tables.
    pub group_slots: u64,
    /// Total slot inspections across all group-table lookups — the
    /// collision indicator (≈ lookups when probe runs stay short).
    pub group_probes: u64,
    /// Groups created across the run.
    pub group_inserts: u64,
}

impl OpMetrics {
    /// Folds another operator's metrics into this one (threaded runs
    /// merge per-host snapshots into a per-plan-node view).
    pub fn merge(&mut self, other: &OpMetrics) {
        self.tuples_in += other.tuples_in;
        self.tuples_out += other.tuples_out;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.batches_in += other.batches_in;
        self.batches_out += other.batches_out;
        self.late_dropped += other.late_dropped;
        self.batch_occupancy.merge(&other.batch_occupancy);
        self.kernel_hits += other.kernel_hits;
        self.kernel_fallbacks += other.kernel_fallbacks;
        for (a, b) in self
            .kernel_lane_hits
            .iter_mut()
            .zip(other.kernel_lane_hits.iter())
        {
            *a += b;
        }
        self.flushes += other.flushes;
        self.flush_ns += other.flush_ns;
        self.group_slots += other.group_slots;
        self.group_probes += other.group_probes;
        self.group_inserts += other.group_inserts;
    }
}

/// One operator's row in a [`MetricsRegistry`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpEntry {
    /// Plan node id.
    pub node: usize,
    /// Operator kind (`scan`, `select`, `aggregate`, `join`, `merge`).
    pub op: String,
    /// Executing host.
    pub host: usize,
    /// The measurements.
    pub metrics: OpMetrics,
}

/// Per-host cluster gauges.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HostMetrics {
    /// Tuples received over process-to-process transfers.
    pub rx_tuples: u64,
    /// Estimated wire bytes received over transfers.
    pub rx_bytes: u64,
    /// Tuples shipped to other processes.
    pub tx_tuples: u64,
    /// Estimated wire bytes shipped.
    pub tx_bytes: u64,
    /// Peak boundary-queue depth observed (in-flight frames; 0 in the
    /// deterministic simulator, live channel depth in threaded runs).
    pub queue_peak: u64,
    /// Boundary frames shipped from this host (measured frame path; 0
    /// in the deterministic simulator).
    pub frames_tx: u64,
    /// Measured encoded bytes shipped from this host, including frame
    /// headers.
    pub frame_bytes_tx: u64,
    /// Boundary frames received by this host.
    pub frames_rx: u64,
    /// Measured encoded bytes received by this host, including frame
    /// headers.
    pub frame_bytes_rx: u64,
    /// Failure records attributed to this host (worker panics, decode
    /// faults on frames it produced, timeouts it observed). Always 0 on
    /// the clean path.
    pub failures: u64,
    /// Corrupt boundary frames this host detected, recorded, and
    /// discarded (partial-results mode). Always 0 on the clean path.
    pub frames_corrupt_dropped: u64,
    /// Accounted work units.
    pub work_units: f64,
    /// CPU load percentage.
    pub cpu_pct: f64,
}

/// One boundary edge's measured transport in a snapshot: the frame
/// stream of one producing plan node into its consuming unit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EdgeEntry {
    /// Global plan-node id of the producing operator.
    pub producer: usize,
    /// Host executing the producer.
    pub from_host: usize,
    /// Frames shipped over this edge.
    pub frames: u64,
    /// Tuples carried by those frames.
    pub tuples: u64,
    /// Encoded payload bytes carried (excluding frame headers).
    pub bytes: u64,
    /// Bounded-backoff retries the producer performed against a full
    /// channel on this edge.
    pub retries: u64,
}

/// A completed snapshot of one run: per-operator rows, per-host gauges
/// and run-level scalars, exportable as JSON or Prometheus text.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    /// Per-operator rows, in plan-node order.
    pub ops: Vec<OpEntry>,
    /// Per-host gauges, indexed by host.
    pub hosts: Vec<HostMetrics>,
    /// Measured boundary-transport edges, in producer order (empty for
    /// deterministic simulator runs).
    pub edges: Vec<EdgeEntry>,
    /// Run-level scalar gauges, in registration order (e.g.
    /// `duration_secs`, `total_transfers`).
    pub gauges: Vec<(String, f64)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Appends one operator's row.
    pub fn record_op(&mut self, node: usize, op: impl Into<String>, host: usize, m: OpMetrics) {
        self.ops.push(OpEntry {
            node,
            op: op.into(),
            host,
            metrics: m,
        });
    }

    /// Mutable per-host gauges, growing the vector on demand.
    pub fn host_mut(&mut self, host: usize) -> &mut HostMetrics {
        if host >= self.hosts.len() {
            self.hosts.resize(host + 1, HostMetrics::default());
        }
        &mut self.hosts[host]
    }

    /// Appends one boundary edge's measured transport.
    pub fn record_edge(&mut self, edge: EdgeEntry) {
        self.edges.push(edge);
    }

    /// Sets (or overwrites) a run-level scalar gauge.
    pub fn set_gauge(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        if let Some(slot) = self.gauges.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.gauges.push((name, value));
        }
    }

    /// Total tuples delivered across all operators.
    pub fn total_tuples_in(&self) -> u64 {
        self.ops.iter().map(|o| o.metrics.tuples_in).sum()
    }
}

/// A lock-free up/down gauge with peak tracking, safe to share across
/// threads. Uses relaxed atomics only — one `fetch_add` per adjustment
/// and a `fetch_max` to advance the peak; no CAS loops, no locks —
/// so it can sit directly on the threaded runner's channel send/receive
/// path.
#[derive(Debug, Default)]
pub struct SharedGauge {
    value: AtomicI64,
    peak: AtomicU64,
}

impl SharedGauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        SharedGauge::default()
    }

    /// Increments the gauge, advancing the peak.
    pub fn inc(&self) {
        let now = self.value.fetch_add(1, Ordering::Relaxed) + 1;
        if now > 0 {
            self.peak.fetch_max(now as u64, Ordering::Relaxed);
        }
    }

    /// Decrements the gauge.
    pub fn dec(&self) {
        self.value.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current value (racy by nature; exact once threads quiesce).
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Highest value ever observed by an incrementer.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_grows_hosts_and_overwrites_gauges() {
        let mut r = MetricsRegistry::new();
        r.host_mut(2).rx_tuples = 7;
        assert_eq!(r.hosts.len(), 3);
        assert_eq!(r.hosts[2].rx_tuples, 7);
        r.set_gauge("duration_secs", 1.0);
        r.set_gauge("duration_secs", 2.0);
        assert_eq!(r.gauges, vec![("duration_secs".to_string(), 2.0)]);
    }

    #[test]
    fn op_metrics_merge_sums_everything() {
        let mut a = OpMetrics {
            tuples_in: 1,
            flushes: 2,
            ..OpMetrics::default()
        };
        a.batch_occupancy.record(4);
        let mut b = OpMetrics {
            tuples_in: 10,
            group_probes: 5,
            ..OpMetrics::default()
        };
        b.batch_occupancy.record(8);
        a.merge(&b);
        assert_eq!(a.tuples_in, 11);
        assert_eq!(a.flushes, 2);
        assert_eq!(a.group_probes, 5);
        assert_eq!(a.batch_occupancy.count(), 2);
        assert_eq!(a.batch_occupancy.max(), 8);
    }

    #[test]
    fn shared_gauge_tracks_peak_across_threads() {
        let g = SharedGauge::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        g.inc();
                        g.dec();
                    }
                });
            }
        });
        assert_eq!(g.get(), 0);
        let p = g.peak();
        assert!((1..=4).contains(&p), "peak {p}");
    }
}
