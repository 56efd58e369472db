//! Measured statistics: driving the cost model with observed
//! selectivities instead of class-based guesses.
//!
//! The paper notes its approach is "not as reliant on the quality of the
//! cost model" as physical-design tooling — but the cost model still
//! ranks candidate partitionings by estimated rates. In a Gigascope
//! deployment the natural source of those estimates is a short run over
//! a trace sample; this module implements exactly that: execute the
//! *centralized* logical plan over a sample, read each operator's
//! tuples-out/tuples-in ratio, and return a [`UniformStats`] with
//! per-node overrides.

use qap_exec::{Engine, ExecResult};
use qap_partition::{NodeStats, UniformStats};
use qap_plan::{LogicalNode, QueryDag};
use qap_types::{estimated_tuple_size, ColumnBatch, Tuple};

/// Executes the logical plan over a sample and returns measured
/// per-node statistics (selectivity and mean output tuple size).
///
/// The sample should be time-ordered and representative; a few epochs
/// suffice since the cost model only consumes rate *ratios*.
pub fn measure_stats(dag: &QueryDag, sample: &[Tuple]) -> ExecResult<UniformStats> {
    let mut engine = Engine::new(dag)?;
    // Feed every source the sample (the analyzer's single-input-schema
    // assumption: all sources see the same feed), as lanes.
    for s in engine.source_nodes() {
        for chunk in sample.chunks(1024) {
            engine.push_columns(s, &mut ColumnBatch::from_rows(chunk))?;
        }
    }
    engine.finish()?;

    let counters = engine.counters();
    let mut stats = UniformStats::default();
    for id in dag.topo_order() {
        if matches!(dag.node(id), LogicalNode::Source { .. }) {
            continue;
        }
        let c = counters[id];
        if c.tuples_in == 0 {
            continue;
        }
        let selectivity = c.tuples_out as f64 / c.tuples_in as f64;
        // Estimate the wire size from the output schema arity (the cost
        // model's default estimator; an exact mean would require
        // retaining output tuples).
        let out_tuple_size = estimated_tuple_size(dag.schema(id).arity());
        stats = stats.with_override(
            id,
            NodeStats {
                selectivity,
                out_tuple_size,
            },
        );
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qap_partition::{
        choose_partitioning, node_compatibilities, plan_cost, CostModel, PartitionSet,
    };
    use qap_sql::QuerySetBuilder;
    use qap_trace::{generate, TraceConfig};
    use qap_types::Catalog;

    fn flows_dag() -> QueryDag {
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.add_query(
            "flows",
            "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
             GROUP BY time/60 as tb, srcIP, destIP",
        )
        .unwrap();
        b.build()
    }

    #[test]
    fn measured_selectivity_matches_observed_reduction() {
        let dag = flows_dag();
        let trace = generate(&TraceConfig::tiny(33));
        let stats = measure_stats(&dag, &trace).unwrap();
        let flows = dag.query_node("flows").unwrap();
        use qap_partition::StatsProvider;
        let s = stats.stats(&dag, flows);
        // The aggregation reduces packets to flow-epoch rows; the exact
        // ratio is trace-dependent but must be strictly in (0, 1).
        assert!(
            s.selectivity > 0.0 && s.selectivity < 1.0,
            "{}",
            s.selectivity
        );
        // Cross-check against a direct run.
        let outputs = qap_exec::run_logical(&dag, trace.clone()).unwrap();
        let expected = outputs[0].1.len() as f64 / trace.len() as f64;
        assert!((s.selectivity - expected).abs() < 1e-9);
    }

    #[test]
    fn measured_stats_drive_the_analyzer() {
        let dag = flows_dag();
        let trace = generate(&TraceConfig::tiny(34));
        let stats = measure_stats(&dag, &trace).unwrap();
        let analysis = choose_partitioning(&dag, &stats, &CostModel::default());
        assert_eq!(
            analysis.recommended,
            PartitionSet::from_columns(["srcIP", "destIP"])
        );
        // With measured selectivity the cost of the recommended plan is
        // consistent with a manual evaluation.
        let compat = node_compatibilities(&dag);
        let report = plan_cost(
            &dag,
            &compat,
            &analysis.recommended,
            &stats,
            &CostModel::default(),
        );
        assert!((report.max_cost - analysis.report.max_cost).abs() < 1e-9);
    }

    #[test]
    fn selection_measures_predicate_pass_rate() {
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.add_query("web", "SELECT time, srcIP FROM TCP WHERE destPort = 80")
            .unwrap();
        let dag = b.build();
        let trace = generate(&TraceConfig::tiny(35));
        let stats = measure_stats(&dag, &trace).unwrap();
        use qap_partition::StatsProvider;
        let s = stats.stats(&dag, dag.query_node("web").unwrap());
        // destPort=80 is one of five generator choices: ~20%.
        assert!(
            s.selectivity > 0.05 && s.selectivity < 0.5,
            "{}",
            s.selectivity
        );
    }
}
