//! Golden-snapshot tests for the metrics exporters.
//!
//! The JSON and Prometheus renderings are deterministic by
//! construction (insertion order, no whitespace, shortest-roundtrip
//! floats), which makes byte-for-byte golden files meaningful: any
//! change to the export format — intended or not — shows up as a diff
//! against `tests/golden/`. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test metrics_export` and review the
//! diff like any other code change.
//!
//! A second set of tests exercises the exporters on a *real* cluster
//! run, checking the structural invariants a scraper relies on
//! (complete families, cumulative buckets, stable output) without
//! pinning run-dependent numbers.

use qap::exec::OpMetrics;
use qap::prelude::*;

mod golden;
use golden::compare_golden;

/// A small, fully deterministic registry covering every export feature:
/// two operators (one empty, one busy), two hosts, histogram samples in
/// distinct buckets, and run gauges including a value needing name
/// sanitization.
fn sample_registry() -> MetricsRegistry {
    let mut r = MetricsRegistry::new();
    r.record_op(0, "scan", 0, OpMetrics::default());
    let mut agg = OpMetrics {
        tuples_in: 1000,
        tuples_out: 40,
        bytes_in: 38_000,
        bytes_out: 1_520,
        batches_in: 3,
        batches_out: 1,
        late_dropped: 2,
        flushes: 4,
        flush_ns: 125_000,
        group_slots: 64,
        group_probes: 1_311,
        group_inserts: 40,
        ..OpMetrics::default()
    };
    agg.batch_occupancy.record(1);
    agg.batch_occupancy.record(512);
    agg.batch_occupancy.record(487);
    r.record_op(3, "aggregate", 1, agg);
    r.host_mut(0).tx_tuples = 40;
    r.host_mut(0).tx_bytes = 1_520;
    r.host_mut(0).work_units = 812.5;
    r.host_mut(1).rx_tuples = 40;
    r.host_mut(1).rx_bytes = 1_520;
    r.host_mut(1).queue_peak = 7;
    r.host_mut(1).cpu_pct = 23.9;
    // Measured frame transport: host 0 shipped one edge's frames, all
    // drained at host 1 (5 frames × 8-byte headers over 1520 payload).
    r.host_mut(0).frames_tx = 5;
    r.host_mut(0).frame_bytes_tx = 1_560;
    r.host_mut(1).frames_rx = 5;
    r.host_mut(1).frame_bytes_rx = 1_560;
    r.record_edge(qap::obs::EdgeEntry {
        producer: 3,
        from_host: 0,
        frames: 5,
        tuples: 40,
        bytes: 1_520,
        retries: 2,
    });
    r.set_gauge("duration_secs", 120.0);
    r.set_gauge("hosts", 2.0);
    r.set_gauge("bytes/sec", 12.5); // '/' must sanitize to '_'
                                    // Adaptive re-partitioning gauges, as a closed-loop run sets them.
    r.set_gauge("load_imbalance", 1.875);
    r.set_gauge("repartitions", 2.0);
    r.set_gauge("migrated_keys", 37.0);
    r.set_gauge("migration_pause_ms", 4.25);
    r
}

#[test]
fn json_matches_golden() {
    compare_golden(&sample_registry().to_json(), "registry.json");
}

#[test]
fn prometheus_matches_golden() {
    compare_golden(&sample_registry().to_prometheus(), "registry.prom");
}

/// Builds the metrics registry of one simulator run of the Section 6.1
/// plan, with the only wall-clock field zeroed so reruns compare equal.
fn real_registry() -> MetricsRegistry {
    let trace = generate(&TraceConfig::tiny(4242));
    let plan = Scenario::SimpleAgg.plan("Partitioned", 3);
    let mut result = run_distributed(&plan, &trace, &SimConfig::default()).expect("runs");
    for m in &mut result.node_metrics {
        m.flush_ns = 0;
    }
    metrics_registry(&plan, &result)
}

#[test]
fn real_run_exports_are_reproducible() {
    // Same trace, same plan, same simulator: byte-identical snapshots.
    // (flush_ns, the one wall-clock quantity, is zeroed above.)
    let a = real_registry();
    let b = real_registry();
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.to_prometheus(), b.to_prometheus());
}

#[test]
fn prometheus_families_are_complete_and_cumulative() {
    let reg = real_registry();
    let text = reg.to_prometheus();
    let ops = reg.ops.len();
    let hosts = reg.hosts.len();
    assert!(ops > 0 && hosts == 3);
    // Every per-op counter family carries one sample per operator.
    for family in [
        "qap_op_tuples_in",
        "qap_op_tuples_out",
        "qap_op_bytes_in",
        "qap_op_bytes_out",
        "qap_op_batches_in",
        "qap_op_batches_out",
        "qap_op_late_dropped",
        "qap_op_flushes",
        "qap_op_group_probes",
    ] {
        let n = text
            .lines()
            .filter(|l| l.starts_with(&format!("{family}{{")))
            .count();
        assert_eq!(n, ops, "{family}");
    }
    // Host families carry one sample per host.
    for family in [
        "qap_host_rx_bytes",
        "qap_host_cpu_pct",
        "qap_host_queue_peak",
    ] {
        let n = text
            .lines()
            .filter(|l| l.starts_with(&format!("{family}{{")))
            .count();
        assert_eq!(n, hosts, "{family}");
    }
    // Histogram buckets are cumulative and end at +Inf == _count.
    let mut last: Option<u64> = None;
    let mut inf_total = 0u64;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("qap_op_batch_occupancy_bucket{") {
            let v: u64 = rest.rsplit(' ').next().unwrap().parse().unwrap();
            if rest.contains("le=\"+Inf\"") {
                inf_total += v;
                last = None;
            } else {
                assert!(last.is_none_or(|p| v >= p), "non-cumulative bucket: {line}");
                last = Some(v);
            }
        }
    }
    let count_total: u64 = text
        .lines()
        .filter(|l| l.starts_with("qap_op_batch_occupancy_count{"))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(inf_total, count_total);
    // Run gauges exist — including the adaptive re-partitioning
    // series, which static runs export at identity values.
    assert!(text.contains("qap_run_duration_secs "));
    assert!(text.contains("qap_run_aggregator_rx_bytes_per_sec "));
    assert!(text.contains("qap_run_load_imbalance 1"));
    assert!(text.contains("qap_run_repartitions 0"));
    assert!(text.contains("qap_run_migrated_keys 0"));
}

#[test]
fn json_totals_agree_with_counters() {
    // The exported JSON is assembled from the same OpMetrics the
    // registry holds; spot-check a closed-form total survives the
    // round through text.
    let reg = real_registry();
    let json = reg.to_json();
    let total: u64 = reg.total_tuples_in();
    // Sum every "tuples_in": field occurrence back out of the text.
    let parsed: u64 = json
        .match_indices("\"tuples_in\":")
        .map(|(i, k)| {
            json[i + k.len()..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse::<u64>()
                .unwrap()
        })
        .sum();
    assert_eq!(parsed, total);
}
