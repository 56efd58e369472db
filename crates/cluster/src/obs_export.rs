//! Assembling a [`MetricsRegistry`] snapshot from a finished run.
//!
//! The engine and the accounting layer each own half the picture: the
//! engine's per-node [`qap_exec::OpMetrics`] describe operator flow and
//! mechanics, the simulator's [`crate::ClusterMetrics`] describe the
//! cluster (per-host traffic, work, CPU). This module joins them into
//! the one snapshot container `qapctl --metrics` exports as JSON or
//! Prometheus text.

use qap_obs::MetricsRegistry;
use qap_optimizer::DistributedPlan;
use qap_plan::LogicalNode;

use crate::SimResult;

/// Short operator-kind label for a plan node, used as the `op` label in
/// exported metrics.
pub fn op_kind(node: &LogicalNode) -> &'static str {
    match node {
        LogicalNode::Source { .. } => "scan",
        LogicalNode::SelectProject { .. } => "select",
        LogicalNode::Aggregate { .. } => "aggregate",
        LogicalNode::Join { .. } => "join",
        LogicalNode::Merge { .. } => "merge",
    }
}

/// Builds the full metrics snapshot of one run: one operator row per
/// plan node (labelled with its kind and executing host), per-host
/// cluster gauges, and run-level scalars.
pub fn metrics_registry(plan: &DistributedPlan, result: &SimResult) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    for id in plan.dag.topo_order() {
        reg.record_op(
            id,
            op_kind(plan.dag.node(id)),
            plan.host[id],
            result.node_metrics[id].clone(),
        );
    }
    let m = &result.metrics;
    for h in 0..m.hosts {
        let hm = reg.host_mut(h);
        hm.rx_tuples = m.host_rx_tuples[h];
        hm.rx_bytes = (m.host_rx_bytes_per_sec[h] * m.duration_secs).round() as u64;
        hm.tx_tuples = m.host_tx_tuples[h];
        hm.tx_bytes = (m.host_tx_bytes_per_sec[h] * m.duration_secs).round() as u64;
        hm.work_units = m.work[h];
        hm.cpu_pct = m.cpu_pct[h];
    }
    // The boundary queue is a single cluster-wide channel draining at
    // the aggregator; report its peak there.
    let agg = plan.partitioning.aggregator_host;
    reg.host_mut(agg).queue_peak = m.boundary_queue_peak;
    // Measured frame transport (threaded runs only; the deterministic
    // simulator ships no frames and leaves these at zero). Every frame
    // drains at the aggregator host, so rx accumulates there.
    let t = &m.transport;
    for e in &t.edges {
        let header_bytes = qap_types::FRAME_HEADER_LEN as u64 * e.frames;
        let tx = reg.host_mut(e.from_host);
        tx.frames_tx += e.frames;
        tx.frame_bytes_tx += e.bytes + header_bytes;
        let rx = reg.host_mut(agg);
        rx.frames_rx += e.frames;
        rx.frame_bytes_rx += e.bytes + header_bytes;
        reg.record_edge(qap_obs::EdgeEntry {
            producer: e.producer,
            from_host: e.from_host,
            frames: e.frames,
            tuples: e.tuples,
            bytes: e.bytes,
            retries: e.retries,
        });
    }
    // Fault-tolerance telemetry: failure records attribute to the host
    // named in each record; corrupt frames are detected and discarded
    // at the consuming (aggregator) host. All zero on the clean path —
    // CI asserts exactly that on the exported artifact.
    for f in &result.failures {
        reg.host_mut(f.host).failures += 1;
    }
    reg.host_mut(agg).frames_corrupt_dropped = t.frames_corrupt_dropped;
    reg.set_gauge("duration_secs", m.duration_secs);
    reg.set_gauge("hosts", m.hosts as f64);
    reg.set_gauge("partitions", m.partitions as f64);
    reg.set_gauge("total_transfers", m.total_transfers as f64);
    reg.set_gauge("late_dropped", m.late_dropped as f64);
    reg.set_gauge("aggregator_rx_tps", m.aggregator_rx_tps);
    reg.set_gauge("aggregator_rx_bytes_per_sec", m.aggregator_rx_bytes_per_sec);
    reg.set_gauge("aggregator_cpu_pct", m.aggregator_cpu_pct);
    // Transport gauges: zero/default for simulator runs, measured for
    // threaded runs. channel_capacity/frame_batch echo the knobs so an
    // exported snapshot is self-describing.
    reg.set_gauge("transport_frames", t.frames as f64);
    reg.set_gauge("transport_frame_bytes", t.frame_bytes as f64);
    reg.set_gauge(
        "transport_backpressure_stalls",
        t.backpressure_stalls as f64,
    );
    reg.set_gauge("transport_queue_peak", t.queue_peak as f64);
    reg.set_gauge("transport_channel_capacity", t.channel_capacity as f64);
    reg.set_gauge("transport_frame_batch", t.frame_batch as f64);
    reg.set_gauge("transport_retries", t.retries as f64);
    reg.set_gauge("transport_frames_dropped", t.frames_dropped as f64);
    reg.set_gauge(
        "transport_frames_corrupt_dropped",
        t.frames_corrupt_dropped as f64,
    );
    reg.set_gauge("host_failures", result.failures.len() as f64);
    // Adaptive re-partitioning telemetry. Static runs report the
    // identity values (imbalance 1.0, zero repartitions) so dashboards
    // can chart static and adaptive runs on the same axes.
    reg.set_gauge("load_imbalance", m.load_imbalance);
    reg.set_gauge("repartitions", m.repartitions as f64);
    reg.set_gauge("migrated_keys", m.migrated_keys as f64);
    reg.set_gauge("migration_pause_ms", m.migration_pause_ms);
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_distributed, SimConfig};
    use qap_optimizer::{optimize, OptimizerConfig, Partitioning};
    use qap_partition::PartitionSet;
    use qap_sql::QuerySetBuilder;
    use qap_trace::{generate, TraceConfig};
    use qap_types::Catalog;

    #[test]
    fn registry_covers_every_node_and_host() {
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.add_query(
            "flows",
            "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
             GROUP BY time/60 as tb, srcIP, destIP",
        )
        .unwrap();
        let dag = b.build();
        let plan = optimize(
            &dag,
            &Partitioning::hash(PartitionSet::from_columns(["srcIP", "destIP"]), 3),
            &OptimizerConfig::full(),
        )
        .unwrap();
        let trace = generate(&TraceConfig::tiny(55));
        let result = run_distributed(&plan, &trace, &SimConfig::default()).unwrap();
        let reg = metrics_registry(&plan, &result);
        assert_eq!(reg.ops.len(), plan.dag.len());
        assert_eq!(reg.hosts.len(), 3);
        // Scans deliver the whole trace (every tuple reaches one scan).
        let scanned: u64 = reg
            .ops
            .iter()
            .filter(|o| o.op == "scan")
            .map(|o| o.metrics.tuples_in)
            .sum();
        assert_eq!(scanned, trace.len() as u64);
        // The aggregator host receives the leaf tier's transfers.
        let agg = plan.partitioning.aggregator_host;
        assert_eq!(
            reg.hosts[agg].rx_tuples,
            result.metrics.aggregator_rx_tuples
        );
        // Exports render without panicking and mention both formats'
        // anchors. The simulator's units frame the boundary like every
        // runner's: the edge list carries the shipped edges, and nothing
        // stalls.
        assert!(reg.to_json().contains("\"duration_secs\""));
        assert!(result.metrics.transport.frames > 0);
        assert_eq!(reg.edges.len(), result.metrics.transport.edges.len());
        assert!(reg.to_prometheus().contains("qap_run_duration_secs"));
        assert!(reg
            .to_prometheus()
            .contains("qap_run_transport_backpressure_stalls 0"));
        // Static runs export the adaptive gauges at their identity
        // values — the series exists either way.
        let p = reg.to_prometheus();
        assert!(p.contains("qap_run_load_imbalance 1"));
        assert!(p.contains("qap_run_repartitions 0"));
        assert!(p.contains("qap_run_migrated_keys 0"));
        assert!(p.contains("qap_run_migration_pause_ms 0"));
    }

    #[test]
    fn adaptive_runs_export_rebalance_gauges() {
        let (plan, trace, rebalance) = crate::sim::tests::skew_case();
        let mut cfg = SimConfig::default();
        cfg.transport.rebalance = rebalance;
        let result = run_distributed(&plan, &trace, &cfg).unwrap();
        assert!(result.metrics.repartitions >= 1, "skew ramp must trigger");
        let reg = metrics_registry(&plan, &result);
        let p = reg.to_prometheus();
        assert!(p.contains("qap_run_repartitions"));
        assert!(p.contains("qap_run_migrated_keys"));
        assert!(reg.to_json().contains("\"load_imbalance\""));
        // The exported gauge carries the measured peak, not the static
        // identity value.
        assert!(result.metrics.load_imbalance > 1.0);
    }

    #[test]
    fn threaded_runs_export_measured_frame_transport() {
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.add_query(
            "flows",
            "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
             GROUP BY time/60 as tb, srcIP, destIP",
        )
        .unwrap();
        let dag = b.build();
        let plan = optimize(
            &dag,
            &Partitioning::hash(PartitionSet::from_columns(["srcIP", "destIP"]), 3),
            &OptimizerConfig::full(),
        )
        .unwrap();
        let trace = generate(&TraceConfig::tiny(55));
        let result = crate::run_distributed_threaded(&plan, &trace, &SimConfig::default()).unwrap();
        let reg = metrics_registry(&plan, &result);
        let t = &result.metrics.transport;
        assert!(t.frames > 0, "threaded run ships frames");
        assert_eq!(reg.edges.len(), t.edges.len());
        // Host tx/rx frame counters reconcile with the edge list.
        let tx_frames: u64 = reg.hosts.iter().map(|h| h.frames_tx).sum();
        let rx_frames: u64 = reg.hosts.iter().map(|h| h.frames_rx).sum();
        assert_eq!(tx_frames, t.frames);
        assert_eq!(rx_frames, t.frames);
        let tx_bytes: u64 = reg.hosts.iter().map(|h| h.frame_bytes_tx).sum();
        assert_eq!(tx_bytes, t.frame_bytes);
        let agg = plan.partitioning.aggregator_host;
        assert_eq!(reg.hosts[agg].frames_rx, t.frames);
        // Exports carry the measured series.
        let j = reg.to_json();
        assert!(j.contains("\"frames_tx\""));
        assert!(j.contains("\"producer\""));
        let p = reg.to_prometheus();
        assert!(p.contains("qap_edge_frames{"));
        assert!(p.contains("qap_run_transport_frame_batch"));
    }
}
