//! Cost-model validation: predicted vs. measured per-host network load.
//!
//! The paper's search procedure (Section 4.2) ranks candidate
//! partitioning sets by the Section 4.2.1 cost model — *estimated*
//! bytes/sec received over the network per node. This module closes the
//! loop: drive the cost model with measured selectivities
//! ([`crate::measure_stats`]), lower the same plan onto the same
//! partitioning, execute it for real ([`crate::run_distributed_threaded`])
//! and compare the measured per-host receive load against the
//! prediction. The regression suite asserts agreement within
//! [`DEFAULT_TOLERANCE`], turning the paper's central claim into a test.
//!
//! # What exactly is compared
//!
//! The cost model charges each *central consumer* for the pushed inputs
//! it receives; the physical lowering, however, shares **one** collecting
//! merge per pushed producer among all its central consumers (and a
//! self-join consumes the same collected stream twice without shipping
//! it twice). The per-host prediction therefore counts every pushed
//! node whose output crosses the partitioned/central frontier **once**,
//! charging its output rate to the aggregator host — the byte-for-byte
//! mirror of what the runners' per-host accounting measures. Both sides
//! use the same wire-size estimator (`2 + 9·arity`), the same measured
//! selectivities, and the same trace duration, so the residual error is
//! only float accumulation — the 5% default tolerance is generous.
//!
//! The physical plan is lowered with partial aggregation *disabled*:
//! the Section 5.2.2 sub/super split deliberately changes what crosses
//! the network (partials instead of raw tuples), which the Section 4.2.1
//! model does not describe.

use std::collections::HashSet;

use qap_exec::{ExecError, ExecResult};
use qap_optimizer::{optimize, DistributedPlan, OptimizerConfig, Partitioning};
use qap_partition::{node_compatibilities_with, node_rates, plan_cost, CostModel, StatsProvider};
use qap_plan::QueryDag;
use qap_types::Tuple;

use crate::{measure_stats, run_distributed_threaded, SimConfig};

/// Documented agreement tolerance of the validation harness: maximum
/// relative error between predicted and measured per-host network load.
/// Prediction and measurement share estimators and selectivities (see
/// the module docs), so the true residual is float noise; 5% leaves
/// headroom without ever masking a modelling bug.
pub const DEFAULT_TOLERANCE: f64 = 0.05;

/// The outcome of one prediction-vs-measurement comparison.
#[derive(Debug, Clone)]
pub struct CostValidation {
    /// Predicted network receive load per host, bytes/sec (Section
    /// 4.2.1 cost model under measured selectivities).
    pub predicted_bytes_per_sec: Vec<f64>,
    /// Measured network receive load per host, bytes/sec (threaded run).
    pub measured_bytes_per_sec: Vec<f64>,
    /// Source rate driving the model, tuples/sec (trace length over
    /// trace duration).
    pub source_rate: f64,
    /// Maximum over hosts of `|predicted - measured| / max(predicted,
    /// measured)` (0 when both sides are 0).
    pub max_rel_error: f64,
    /// The tolerance the comparison was asked to meet.
    pub tolerance: f64,
}

impl CostValidation {
    /// Whether every host's relative error is within tolerance.
    pub fn within_tolerance(&self) -> bool {
        self.max_rel_error <= self.tolerance
    }

    /// Renders one row per host: `host, predicted, measured, rel_error`.
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("host,predicted_bytes_per_sec,measured_bytes_per_sec,rel_err\n");
        for (h, (p, m)) in self
            .predicted_bytes_per_sec
            .iter()
            .zip(&self.measured_bytes_per_sec)
            .enumerate()
        {
            let _ = writeln!(out, "{h},{p:.1},{m:.1},{:.4}", rel_error(*p, *m));
        }
        out
    }
}

/// Relative disagreement between a predicted and a measured value,
/// normalized by the larger of the two (0 when both vanish).
fn rel_error(p: f64, m: f64) -> f64 {
    let denom = p.max(m);
    if denom <= 1e-9 {
        0.0
    } else {
        (p - m).abs() / denom
    }
}

/// Predicts the per-host network receive load of `dag` deployed on
/// `partitioning`, in bytes/sec, under the Section 4.2.1 cost model.
///
/// Every pushed node whose output crosses the partitioned/central
/// frontier — it feeds a central consumer, or it is a collected root —
/// ships its output to the aggregator host exactly once (the lowering
/// shares one collecting merge per producer). Leaf hosts receive
/// nothing: the splitter's feed is not process-to-process traffic.
pub fn predict_host_load(
    dag: &QueryDag,
    partitioning: &Partitioning,
    stats: &dyn StatsProvider,
    model: &CostModel,
    analysis: qap_partition::AnalysisOptions,
) -> Vec<f64> {
    let compat = node_compatibilities_with(dag, analysis);
    let ps = partitioning.strategy.effective_set();
    let report = plan_cost(dag, &compat, &ps, stats, model);
    let mut predicted = vec![0.0f64; partitioning.hosts];
    for id in dag.topo_order() {
        if !report.pushed[id] {
            continue;
        }
        let parents = dag.parents(id);
        let crosses = parents.iter().any(|&p| !report.pushed[p])
            || (parents.is_empty() && !dag.node(id).is_source());
        if crosses {
            let size = stats.stats(dag, id).out_tuple_size;
            predicted[partitioning.aggregator_host] += report.out_tuples[id] * size;
        }
    }
    predicted
}

/// Predicts per-host network receive load from the *extracted physical
/// plan* rather than the logical frontier: every central node charges,
/// to its executing host, the output rate of each **distinct logical
/// origin** among its partitioned-tier children (the lowering shares one
/// collecting merge per pushed producer, so distinct-origin counting is
/// exactly once-per-crossing). This prices what the planner actually
/// emitted — if the planner and the emitter ever disagreed about the
/// frontier, this prediction would diverge from [`predict_host_load`]
/// and the regression suite would catch it.
///
/// Like the Section 4.2.1 model, this does not describe the sub/super
/// partial-aggregation rewrite (partials cross at a different width);
/// callers disable partial aggregation before comparing.
pub fn predict_host_load_for_plan(
    plan: &DistributedPlan,
    logical: &QueryDag,
    stats: &dyn StatsProvider,
    model: &CostModel,
) -> Vec<f64> {
    let rates = node_rates(logical, stats, model);
    let mut predicted = vec![0.0f64; plan.partitioning.hosts];
    let mut charged: HashSet<usize> = HashSet::new();
    for id in plan.dag.topo_order() {
        if !plan.central[id] {
            continue;
        }
        for c in plan.dag.node(id).children() {
            if plan.central[c] {
                continue;
            }
            let origin = plan
                .dag
                .origin(c)
                .expect("lowering stamps an origin on every physical node");
            if charged.insert(origin) {
                predicted[plan.host[id]] += rates.out_bytes[origin];
            }
        }
    }
    predicted
}

/// Runs the full validation loop for one plan and partitioning:
/// measure selectivities on the trace, execute the lowered plan
/// threaded, predict per-host load, and compare. See the module docs for the
/// exact correspondence.
///
/// The plan must read a single base stream (the threaded runner's
/// constraint).
pub fn validate_cost_model(
    dag: &QueryDag,
    partitioning: &Partitioning,
    trace: &[Tuple],
    cfg: &SimConfig,
    tolerance: f64,
) -> ExecResult<CostValidation> {
    // 1. Observed selectivities from a centralized run over the trace.
    let stats = measure_stats(dag, trace)?;

    // 2. Lower (partial aggregation off: the model does not describe
    //    the sub/super rewrite) and execute the deployment for real.
    let opt_cfg = OptimizerConfig {
        partial_aggregation: false,
        ..OptimizerConfig::full()
    };
    let plan = optimize(dag, partitioning, &opt_cfg)
        .map_err(|e| ExecError::BadPlan(format!("lowering failed: {e}")))?;
    let metrics = run_distributed_threaded(&plan, trace, cfg)?.metrics;

    // 3. Predict from the extracted plan. The model's source rate is the
    //    trace's own rate over the span the run measured, so predicted
    //    and measured bytes/sec share a denominator.
    let source_rate = trace.len() as f64 / metrics.duration_secs;
    let model = CostModel { source_rate };
    let predicted = predict_host_load_for_plan(&plan, dag, &stats, &model);
    let measured = metrics.host_rx_bytes_per_sec;

    // 4. Compare.
    let max_rel_error = predicted
        .iter()
        .zip(&measured)
        .map(|(&p, &m)| rel_error(p, m))
        .fold(0.0f64, f64::max);

    Ok(CostValidation {
        predicted_bytes_per_sec: predicted,
        measured_bytes_per_sec: measured,
        source_rate,
        max_rel_error,
        tolerance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qap_partition::PartitionSet;
    use qap_sql::QuerySetBuilder;
    use qap_trace::{generate, TraceConfig};
    use qap_types::Catalog;

    #[test]
    fn simple_agg_prediction_matches_measurement() {
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.add_query(
            "flows",
            "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
             GROUP BY time/60 as tb, srcIP, destIP",
        )
        .unwrap();
        let dag = b.build();
        let trace = generate(&TraceConfig::tiny(71));
        let v = validate_cost_model(
            &dag,
            &Partitioning::hash(PartitionSet::from_columns(["srcIP", "destIP"]), 3),
            &trace,
            &SimConfig::default(),
            DEFAULT_TOLERANCE,
        )
        .unwrap();
        assert!(
            v.within_tolerance(),
            "max rel error {} over tolerance {}\n{}",
            v.max_rel_error,
            v.tolerance,
            v.to_table()
        );
        // The aggregator actually receives something.
        assert!(v.measured_bytes_per_sec[0] > 0.0);
    }

    #[test]
    fn plan_based_and_frontier_predictions_agree() {
        // The physical-plan predictor walks the extracted plan's
        // origins; the frontier predictor re-derives the crossing set
        // from the logical DAG. They must price the same bytes.
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.add_query(
            "flows",
            "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
             GROUP BY time/60 as tb, srcIP, destIP",
        )
        .unwrap();
        b.add_query(
            "heavy",
            "SELECT tb, srcIP, MAX(cnt) as mx FROM flows GROUP BY tb, srcIP",
        )
        .unwrap();
        let dag = b.build();
        let stats = qap_partition::UniformStats::default();
        let model = CostModel::default();
        let analysis = qap_partition::AnalysisOptions::default();
        for set in [
            PartitionSet::from_columns(["srcIP"]),
            PartitionSet::from_columns(["srcIP", "destIP"]),
            PartitionSet::empty(),
        ] {
            let partitioning = Partitioning::hash(set, 3);
            let cfg = OptimizerConfig {
                partial_aggregation: false,
                analysis,
                ..OptimizerConfig::full()
            };
            let plan = optimize(&dag, &partitioning, &cfg).unwrap();
            let by_plan = predict_host_load_for_plan(&plan, &dag, &stats, &model);
            let by_frontier = predict_host_load(&dag, &partitioning, &stats, &model, analysis);
            for (a, b) in by_plan.iter().zip(&by_frontier) {
                assert!((a - b).abs() < 1e-6, "{by_plan:?} vs {by_frontier:?}");
            }
        }
    }
}
