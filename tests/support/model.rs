//! The reference model's answer for the suites that hold a runner to it.

use qap::prelude::*;

/// `rows` in value order, so two row sets compare whatever order their
/// runners emitted them in.
pub fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort_by(|a, b| {
        for (x, y) in a.values().iter().zip(b.values()) {
            let ord = x.total_cmp(y);
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    rows
}

/// `run_logical`'s rows over `trace` for each output of `plan`, in value
/// order, or `None` when the query set `dag` reads more than one
/// source, which the model does not take.
pub fn model_outputs(
    dag: &QueryDag,
    plan: &DistributedPlan,
    trace: &[Tuple],
) -> Option<Vec<Vec<Tuple>>> {
    let sources = dag.topo_order().filter(|&id| dag.node(id).is_source());
    if sources.count() != 1 {
        return None;
    }
    let logical = run_logical(dag, trace.iter().cloned()).expect("the model runs");
    let rows = plan.outputs.iter().map(|o| {
        let (_, rows) = (logical.iter().find(|(id, _)| *id == o.logical))
            .expect("every plan output is a logical root");
        sorted(rows.clone())
    });
    Some(rows.collect())
}

/// Asserts that `outputs` (a runner's, one per output of `plan`) are the
/// model's rows, wherever the model takes `dag`.
pub fn assert_model_outputs(
    label: &str,
    dag: &QueryDag,
    plan: &DistributedPlan,
    trace: &[Tuple],
    outputs: &[(String, Vec<Tuple>)],
) {
    let Some(model) = model_outputs(dag, plan, trace) else {
        return;
    };
    assert_eq!(outputs.len(), model.len(), "{label}: outputs");
    for ((name, rows), want) in outputs.iter().zip(&model) {
        assert_eq!(
            &sorted(rows.clone()),
            want,
            "{label}: output {name} vs the model"
        );
    }
}
