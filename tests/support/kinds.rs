//! Kind checks shared by the suites that hold lanes to the plan's
//! types: every lane a node outputs, and every value the model outputs,
//! has the kind the node's schema declares for its column.

use qap::optimizer::SplitStrategy;
use qap::prelude::*;
use qap::types::ColumnBatch;

/// Asserts that every typed lane of `lanes` has its field's kind in
/// node `id`'s schema (an untyped, all-NULL lane has none).
pub fn assert_lanes_typed(label: &str, dag: &QueryDag, id: usize, lanes: &ColumnBatch) {
    for (c, f) in lanes.columns().iter().zip(dag.schema(id).fields()) {
        assert!(
            c.data_type().is_none_or(|t| t == f.data_type()),
            "{label}: node {id} ({}) column {}: a {:?} lane for a {} field",
            dag.node(id).label(),
            f.name(),
            c.data_type(),
            f.data_type()
        );
    }
}

/// One engine running all of `plan`'s DAG, every node a sink, fed
/// `trace` 64 rows at a time, each row at the partition scan the plan's
/// splitter routes it to: every typed lane every node outputs has the
/// kind the node's schema declares.
pub fn assert_plan_lanes_typed(label: &str, plan: &DistributedPlan, trace: &[Tuple]) {
    let dag = &plan.dag;
    let m = plan.partitioning.partitions;
    let mut scan_of = vec![0; m];
    for id in dag.topo_order() {
        if let LogicalNode::Source {
            partition: Some(p), ..
        } = dag.node(id)
        {
            scan_of[*p as usize] = id;
        }
    }
    let hash = match &plan.partitioning.strategy {
        SplitStrategy::RoundRobin => None,
        SplitStrategy::Hash(set) => {
            Some(HashPartitioner::new(set, dag.schema(scan_of[0]), m).expect("the set binds"))
        }
    };
    let route = |i: usize, t: &Tuple| hash.as_ref().map_or(i % m, |h| h.partition(t));
    let all: Vec<usize> = dag.topo_order().collect();
    let mut engine = Engine::with_sinks(dag, &all).expect("engine builds");
    let check = |engine: &mut Engine| {
        for &id in &all {
            if let Some(lanes) = engine.drain_boundary(id) {
                assert_lanes_typed(label, dag, id, &lanes);
            }
        }
    };
    for (n, chunk) in trace.chunks(64).enumerate() {
        let mut parts = vec![Vec::new(); m];
        for (i, t) in chunk.iter().enumerate() {
            parts[route(n * 64 + i, t)].push(t.clone());
        }
        for (p, rows) in parts.iter().enumerate() {
            if !rows.is_empty() {
                let mut cols = ColumnBatch::from_rows(rows);
                engine.push_columns(scan_of[p], &mut cols).expect("push");
            }
        }
        check(&mut engine);
    }
    engine.finish().expect("finish");
    check(&mut engine);
}

/// Every non-NULL value of the model's outputs on `dag`'s roots has
/// the kind the root's schema declares for its column.
pub fn assert_model_values_typed(label: &str, dag: &QueryDag, trace: &[Tuple]) {
    for (id, rows) in run_logical(dag, trace.iter().cloned()).expect("model runs") {
        assert_values_typed(label, dag, id, &rows);
    }
}

/// Every non-NULL value of `rows`, node `id`'s output, has its field's
/// kind.
pub fn assert_values_typed(label: &str, dag: &QueryDag, id: usize, rows: &[Tuple]) {
    for t in rows {
        for (v, f) in t.values().iter().zip(dag.schema(id).fields()) {
            assert!(
                v.data_type().is_none_or(|k| k == f.data_type()),
                "{label}: node {id} column {}: {v:?} for a {} field",
                f.name(),
                f.data_type()
            );
        }
    }
}
