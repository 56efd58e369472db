//! Flow conservation: every tuple an operator emits is delivered to
//! every one of its consumers, and nothing else arrives.
//!
//! The metrics layer counts tuples independently at both ends of every
//! edge — `tuples_out` at the producer when a batch is routed,
//! `tuples_in` at the consumer when the batch is popped — so the
//! invariant `tuples_in(n) == Σ_{child edges} tuples_out(child)` is a
//! genuine cross-check of the dataflow core, not an identity. A
//! self-join contributes its shared child twice (two edges). The checks
//! run over the logical engine, the cluster simulator and the threaded
//! runner, at batch sizes spanning the per-tuple and vectorized paths,
//! and also assert byte-level conservation (each edge carries
//! `tuples × wire(producer)` bytes) and batch-size invariance of the
//! tuple counts.

use qap::exec::OpMetrics;
use qap::prelude::*;
use qap::types::ColumnBatch;

const BATCH_SIZES: [usize; 4] = [1, 7, 256, 1024];

fn trace() -> Vec<Tuple> {
    generate(&TraceConfig {
        epochs: 2,
        flows_per_epoch: 200,
        hosts: 90,
        max_flow_packets: 16,
        seed: 977,
        ..TraceConfig::default()
    })
}

/// Asserts tuple and byte conservation over every edge of `dag` given
/// the per-node metrics of one run.
fn assert_conserves(dag: &QueryDag, metrics: &[OpMetrics], label: &str) {
    for id in dag.topo_order() {
        let children = dag.node(id).children();
        if children.is_empty() {
            continue; // Sources are fed externally.
        }
        let expected_tuples: u64 = children.iter().map(|&c| metrics[c].tuples_out).sum();
        let expected_bytes: u64 = children.iter().map(|&c| metrics[c].bytes_out).sum();
        assert_eq!(
            metrics[id].tuples_in, expected_tuples,
            "{label}: node {id} tuples_in vs children tuples_out"
        );
        assert_eq!(
            metrics[id].bytes_in, expected_bytes,
            "{label}: node {id} bytes_in vs children bytes_out"
        );
    }
}

/// Runs the logical plan through the engine at one batch size and
/// returns the per-node metrics.
fn logical_metrics(dag: &QueryDag, trace: &[Tuple], batch: usize) -> Vec<OpMetrics> {
    let mut engine = Engine::new(dag).expect("engine builds");
    for s in engine.source_nodes() {
        for chunk in trace.chunks(batch) {
            let mut cols = ColumnBatch::from_rows(chunk);
            engine.push_columns(s, &mut cols).expect("push");
        }
    }
    engine.finish().expect("finish");
    engine.metrics()
}

#[test]
fn logical_engine_conserves_flow() {
    let trace = trace();
    for scenario in [Scenario::SimpleAgg, Scenario::QuerySet, Scenario::Complex] {
        let dag = scenario.dag();
        let mut reference: Option<Vec<(u64, u64)>> = None;
        for batch in BATCH_SIZES {
            let metrics = logical_metrics(&dag, &trace, batch);
            assert_conserves(&dag, &metrics, &format!("{scenario:?} batch {batch}"));
            // The single source sees the whole trace.
            let scanned: u64 = dag
                .topo_order()
                .filter(|&id| dag.node(id).children().is_empty())
                .map(|id| metrics[id].tuples_in)
                .sum();
            assert_eq!(scanned, trace.len() as u64);
            // Tuple counts are batch-size-invariant even though batch
            // counts are not.
            let shape: Vec<(u64, u64)> = metrics
                .iter()
                .map(|m| (m.tuples_in, m.tuples_out))
                .collect();
            match &reference {
                None => reference = Some(shape),
                Some(r) => assert_eq!(&shape, r, "{scenario:?} batch {batch}"),
            }
        }
    }
}

#[test]
fn simulator_conserves_flow() {
    let trace = trace();
    for (scenario, config) in [
        (Scenario::SimpleAgg, "Partitioned"),
        (Scenario::SimpleAgg, "Naive"),
        (Scenario::Complex, "Partitioned (full)"),
        (Scenario::QuerySet, "Partitioned (optimal)"),
    ] {
        let plan = scenario.plan(config, 3);
        for batch in BATCH_SIZES {
            let sim = SimConfig {
                batch: BatchConfig::new(batch),
                ..SimConfig::default()
            };
            let result = run_distributed(&plan, &trace, &sim).expect("runs");
            assert_conserves(
                &plan.dag,
                &result.node_metrics,
                &format!("sim {scenario:?}/{config} batch {batch}"),
            );
            // The splitter delivers every tuple to exactly one scan.
            let scanned: u64 = plan
                .dag
                .topo_order()
                .filter(|&id| plan.dag.node(id).children().is_empty())
                .map(|id| result.node_metrics[id].tuples_in)
                .sum();
            assert_eq!(scanned, trace.len() as u64);
        }
    }
}

#[test]
fn threaded_runner_conserves_flow() {
    // The threaded runner splits the dataflow across one engine per
    // host with real channels on the boundary; conservation across the
    // stitched global metrics proves no tuple is lost or duplicated in
    // flight.
    let trace = trace();
    for (scenario, config) in [
        (Scenario::SimpleAgg, "Partitioned"),
        (Scenario::Complex, "Partitioned (full)"),
    ] {
        let plan = scenario.plan(config, 3);
        for batch in [1usize, 256] {
            let sim = SimConfig {
                batch: BatchConfig::new(batch),
                ..SimConfig::default()
            };
            let result = run_distributed_threaded(&plan, &trace, &sim).expect("runs");
            assert_conserves(
                &plan.dag,
                &result.node_metrics,
                &format!("threaded {scenario:?}/{config} batch {batch}"),
            );
            let scanned: u64 = plan
                .dag
                .topo_order()
                .filter(|&id| plan.dag.node(id).children().is_empty())
                .map(|id| result.node_metrics[id].tuples_in)
                .sum();
            assert_eq!(scanned, trace.len() as u64);
        }
    }
}

#[test]
fn self_join_counts_its_shared_child_twice() {
    // Complex's flow_pairs is a self-join over heavy_flows: one child
    // node, two edges. The engine delivers the shared stream once per
    // edge, so the join's tuples_in must be exactly twice its child's
    // tuples_out — the case a naive per-node (rather than per-edge)
    // conservation check would miss.
    let trace = trace();
    let dag = Scenario::Complex.dag();
    let metrics = logical_metrics(&dag, &trace, 256);
    let join = dag
        .topo_order()
        .find(|&id| {
            let c = dag.node(id).children();
            c.len() == 2 && c[0] == c[1]
        })
        .expect("complex scenario has a self-join");
    let child = dag.node(join).children()[0];
    assert!(metrics[child].tuples_out > 0);
    assert_eq!(metrics[join].tuples_in, 2 * metrics[child].tuples_out);
}
