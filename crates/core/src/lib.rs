#![warn(missing_docs)]

//! **qap** — Query-Aware Partitioning for Monitoring Massive Network
//! Data Streams.
//!
//! A Rust implementation of Johnson, Muthukrishnan, Shkapenyuk and
//! Spatscheck's query-aware data stream partitioning (2008), together
//! with every substrate it runs on: a GSQL parser, a tumbling-window
//! streaming engine in the spirit of AT&T's Gigascope, a partition-aware
//! distributed query optimizer, a synthetic packet-trace generator and a
//! cluster simulator with CPU/network accounting.
//!
//! # The idea
//!
//! A single server cannot keep up with backbone links; the stream must
//! be *split once, in hardware*, across a cluster. Splitting
//! round-robin wastes the cluster: every host then holds fragments of
//! every flow, and the node merging partial results melts down. The
//! paper's insight is to analyze the *entire query set* and pick the
//! one hash-partitioning under which as many queries as possible can
//! run to completion on each partition independently — with a
//! reconciliation algebra for conflicting requirements and a cost model
//! choosing which queries to sacrifice when no common set exists.
//!
//! # Quickstart
//!
//! ```
//! use qap::prelude::*;
//!
//! // 1. Define a query set over the TCP packet stream.
//! let mut queries = QuerySetBuilder::new(Catalog::with_network_schemas());
//! queries
//!     .add_query(
//!         "flows",
//!         "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
//!          GROUP BY time/60 as tb, srcIP, destIP",
//!     )
//!     .unwrap();
//! let dag = queries.build();
//!
//! // 2. Ask the analyzer for the optimal partitioning.
//! let analysis = choose_partitioning(&dag, &UniformStats::default(), &CostModel::default());
//! assert_eq!(analysis.recommended.to_string(), "{destIP, srcIP}");
//!
//! // 3. Lower onto a 4-host cluster and run over a synthetic trace.
//! let plan = optimize(
//!     &dag,
//!     &Partitioning::hash(analysis.recommended.clone(), 4),
//!     &OptimizerConfig::full(),
//! )
//! .unwrap();
//! let trace = generate(&TraceConfig::tiny(1));
//! let result = run_distributed(&plan, &trace, &SimConfig::default()).unwrap();
//! assert!(!result.outputs[0].1.is_empty());
//! ```
//!
//! # Crate map
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`types`] | `qap-types` | values, tuples, schemas, catalogs |
//! | [`expr`] | `qap-expr` | scalar expressions, aggregates, transform analysis |
//! | [`sql`] | `qap-sql` | GSQL parser → logical query DAGs |
//! | [`plan`] | `qap-plan` | plan DAG, schema inference, provenance |
//! | [`partition`] | `qap-partition` | compatibility, reconciliation, cost model, search |
//! | [`planner`] | `qap-planner` | e-graph planner: saturate + cost extraction |
//! | [`optimizer`] | `qap-optimizer` | decision-driven distributed lowering |
//! | [`exec`] | `qap-exec` | tumbling-window streaming engine |
//! | [`obs`] | `qap-obs` | metrics registry, histograms, exporters |
//! | [`trace`] | `qap-trace` | synthetic packet traces |
//! | [`cluster`] | `qap-cluster` | cluster simulator + the paper's experiments |

pub use qap_cluster as cluster;
pub use qap_exec as exec;
pub use qap_expr as expr;
pub use qap_obs as obs;
pub use qap_optimizer as optimizer;
pub use qap_partition as partition;
pub use qap_plan as plan;
pub use qap_planner as planner;
pub use qap_sql as sql;
pub use qap_trace as trace;
pub use qap_types as types;

/// The working set of names for typical use.
pub mod prelude {
    pub use qap_cluster::experiments::{
        calibrate_budget, run_point, run_series, ExperimentPoint, Scenario,
    };
    pub use qap_cluster::{
        connect_with_backoff, measure_stats, metrics_registry, predict_host_load,
        predict_host_load_for_plan, remote_host_count, run_distributed, run_distributed_multi,
        run_distributed_remote, run_distributed_threaded, serve_host, validate_cost_model,
        ClusterMetrics, CostConstants, CostValidation, FailureCause, FaultPlan, HostAddr,
        HostFailure, HostListener, HostServerConfig, MetricsRegistry, RebalanceConfig, SimConfig,
        SimResult, TransportConfig, TransportKind, TransportMetrics, DEFAULT_SEND_TIMEOUT_MS,
        DEFAULT_TOLERANCE,
    };
    pub use qap_exec::{run_logical, BatchConfig, Engine, OpCounters};
    pub use qap_expr::{AggKind, ColumnTransform, ScalarExpr};
    pub use qap_optimizer::{
        agnostic_plan, optimize, optimize_explained, plan_partitioning, DistributedPlan,
        NodeDecision, OptimizerConfig, PartialAggScope, Partitioning, PlanExplanation,
        SplitStrategy,
    };
    pub use qap_partition::{
        choose_partitioning, choose_partitioning_with, compatible_set, node_compatibilities,
        plan_cost, reconcile_partition_sets, AnalysisOptions, Compatibility, CostModel,
        HashPartitioner, PartitionAnalysis, PartitionSet, UniformStats,
    };
    pub use qap_plan::{render_dag, render_dag_annotated, LogicalNode, QueryDag};
    pub use qap_planner::{PlannerInput, PlannerOutcome};
    pub use qap_sql::QuerySetBuilder;
    pub use qap_trace::{
        generate, generate_skew_ramp, read_trace, stats, write_trace, SkewRampConfig, TraceConfig,
        TraceStats, SUSPICIOUS_PATTERN,
    };
    pub use qap_types::{Catalog, Schema, Tuple, Value};
}

#[cfg(test)]
mod facade_tests {
    use crate::prelude::*;

    #[test]
    fn prelude_supports_the_full_pipeline() {
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.add_query(
            "flows",
            "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
             GROUP BY time/60 as tb, srcIP, destIP",
        )
        .unwrap();
        let dag = b.build();
        let analysis = choose_partitioning(&dag, &UniformStats::default(), &CostModel::default());
        let plan = optimize(
            &dag,
            &Partitioning::hash(analysis.recommended.clone(), 2),
            &OptimizerConfig::full(),
        )
        .unwrap();
        let trace = generate(&TraceConfig::tiny(99));
        let result = run_distributed(&plan, &trace, &SimConfig::default()).unwrap();
        assert_eq!(result.outputs.len(), 1);
        assert!(result.metrics.aggregator_cpu_pct >= 0.0);
    }
}
