//! Planner correctness against the reference: whatever the planner
//! decides, the distributed plan must compute what the logical DAG
//! computes.
//!
//! Per Section 6 scenario and deployment:
//!
//! 1. **Reference-identical results** — the plan, executed through the
//!    simulated *and* the threaded runner, produces exactly the rows
//!    `run_logical` produces on the logical DAG, for every root query
//!    (order-insensitive).
//! 2. **Never worse than no rewrite** — the plan's predicted network
//!    cost is at most the partition-agnostic plan's (the all-central
//!    realization is always in the e-graph, so extraction can only
//!    improve on it). The chosen plans themselves are pinned by
//!    `tests/golden_plans.rs`.
//!
//! Plus a property test: random valid query DAGs never panic the
//! planner, every extracted plan is accepted by the executor, and its
//! rows are the reference's — as are the rows of one engine running the
//! logical DAG, fed lanes cut at random points. Every lane the plan's
//! nodes output, and every value the model outputs, has the kind its
//! schema declares.

use proptest::prelude::*;
use qap::prelude::*;
use qap::types::ColumnBatch;

#[path = "support/kinds.rs"]
mod kinds;

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
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

fn sorted_outputs(outputs: &[(String, Vec<Tuple>)]) -> Vec<(String, Vec<Tuple>)> {
    let mut out: Vec<(String, Vec<Tuple>)> = outputs
        .iter()
        .map(|(n, rows)| (n.clone(), sorted(rows.clone())))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Names each root's rows after its query.
fn named(dag: &QueryDag, outputs: Vec<(usize, Vec<Tuple>)>) -> Vec<(String, Vec<Tuple>)> {
    let names = dag.named_queries();
    outputs
        .into_iter()
        .map(|(id, rows)| {
            let (name, _) = names.iter().find(|(_, n)| *n == id).expect("named root");
            (name.to_string(), rows)
        })
        .collect()
}

/// The reference: the model's evaluation of the logical DAG, in the
/// shape of [`sorted_outputs`].
fn reference_outputs(dag: &QueryDag, trace: &[Tuple]) -> Vec<(String, Vec<Tuple>)> {
    sorted_outputs(&named(dag, run_logical(dag, trace.to_vec()).unwrap()))
}

/// One engine running the logical DAG, fed `trace` as lane batches cut
/// after `cuts[i] + 1` tuples (cycling), in the shape of
/// [`sorted_outputs`] — sorted only because the reference it is
/// compared with is shared with the distributed run.
fn engine_outputs(dag: &QueryDag, trace: &[Tuple], cuts: &[usize]) -> Vec<(String, Vec<Tuple>)> {
    let mut engine = Engine::new(dag).unwrap();
    let source = engine.source_nodes()[0];
    let (mut at, mut i) = (0, 0);
    while at < trace.len() {
        let end = trace.len().min(at + cuts[i % cuts.len()] + 1);
        let mut cols = ColumnBatch::from_rows(&trace[at..end]);
        engine.push_columns(source, &mut cols).unwrap();
        (at, i) = (end, i + 1);
    }
    engine.finish().unwrap();
    let outputs = dag
        .roots()
        .into_iter()
        .map(|r| (r, engine.output(r)))
        .collect();
    sorted_outputs(&named(dag, outputs))
}

#[test]
fn section_6_deployments_agree_bit_identically_and_egraph_never_costs_more() {
    let cases: &[(Scenario, &str)] = &[
        (Scenario::SimpleAgg, "Partitioned"),
        (Scenario::SimpleAgg, "Naive"),
        (Scenario::QuerySet, "Partitioned (optimal)"),
        (Scenario::QuerySet, "Partitioned (suboptimal)"),
        (Scenario::Complex, "Partitioned (full)"),
        (Scenario::Complex, "Partitioned (partial)"),
    ];
    let stats = UniformStats::default();
    let model = CostModel::default();
    let trace = generate(&TraceConfig::tiny(4242));
    let sim = SimConfig::default();

    for &(scenario, config) in cases {
        let dag = scenario.dag();
        let reference = reference_outputs(&dag, &trace);
        for hosts in 2..=4usize {
            let (partitioning, cfg) = scenario.deployment(config, hosts);
            let plan = optimize(&dag, &partitioning, &cfg).unwrap();

            // Never worse: the all-central plan is one of the
            // realizations extraction chose among.
            let cost = |p: &DistributedPlan| -> f64 {
                predict_host_load_for_plan(p, &dag, &stats, &model)
                    .iter()
                    .sum()
            };
            let planned = cost(&plan);
            let central = cost(&agnostic_plan(&dag, &partitioning).unwrap());
            assert!(
                planned <= central + 1e-6,
                "{} / {config} / {hosts} hosts: planned {planned} > all-central {central}",
                scenario.name()
            );

            // Reference-identical results through both runners.
            let simulated = run_distributed(&plan, &trace, &sim).unwrap();
            assert_eq!(
                sorted_outputs(&simulated.outputs),
                reference,
                "{} / {config} / {hosts} hosts diverged from the reference (simulated)",
                scenario.name()
            );
            let threaded = run_distributed_threaded(&plan, &trace, &sim).unwrap();
            assert_eq!(
                sorted_outputs(&threaded.outputs),
                reference,
                "{} / {config} / {hosts} hosts diverged from the reference (threaded)",
                scenario.name()
            );
        }
    }
}

/// One random pipeline layer: aggregate (with a column subset, an
/// aggregate kind and an optional HAVING) or select (with a predicate
/// choice).
#[derive(Debug, Clone, Copy)]
struct Layer {
    is_agg: bool,
    bits: u8,
    kind: u8,
    having: bool,
}

/// Builds a random-but-valid GSQL pipeline over TCP: a chain of
/// aggregates and selections whose column sets stay consistent by
/// construction.
fn build_random(layers: &[Layer]) -> QueryDag {
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    let mut prev = "TCP".to_string();
    // Groupable columns and the numeric column feeding SUM/MAX/AVG.
    let mut cols: Vec<String> = ["srcIP", "destIP", "srcPort"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut val = "len".to_string();
    let mut has_tb = false;
    for (i, layer) in layers.iter().enumerate() {
        let name = format!("q{i}");
        let sql = if layer.is_agg {
            let mut subset: Vec<String> = cols
                .iter()
                .enumerate()
                .filter(|(j, _)| layer.bits & (1 << j) != 0)
                .map(|(_, c)| c.clone())
                .collect();
            if subset.is_empty() {
                subset.push(cols[0].clone());
            }
            let tb_expr = if has_tb { "tb" } else { "time/60 as tb" };
            let (call, floor) = match layer.kind % 4 {
                0 => ("COUNT(*)".to_string(), 1),
                1 => (format!("SUM({val})"), 100),
                2 => (format!("MAX({val})"), 100),
                _ => (format!("AVG({val})"), 100),
            };
            let group_cols = subset.join(", ");
            let having = if layer.having {
                format!(" HAVING {call} > {floor}")
            } else {
                String::new()
            };
            let sql = format!(
                "SELECT tb, {group_cols}, {call} as v FROM {prev} \
                 GROUP BY {tb_expr}, {group_cols}{having}"
            );
            cols = subset;
            val = "v".to_string();
            has_tb = true;
            sql
        } else {
            let pred_col = &cols[(layer.bits as usize) % cols.len()];
            let pred = match layer.kind % 3 {
                0 => format!("{val} > 0"),
                1 => format!("{pred_col} > 1000"),
                _ => format!("{val} > 2"),
            };
            let mut projected: Vec<String> = Vec::new();
            if has_tb {
                projected.push("tb".to_string());
            } else {
                projected.push("time".to_string());
            }
            projected.extend(cols.iter().cloned());
            projected.push(val.clone());
            format!("SELECT {} FROM {prev} WHERE {pred}", projected.join(", "))
        };
        b.add_query(&name, &sql).unwrap();
        prev = name;
    }
    b.build()
}

fn arb_layer() -> impl Strategy<Value = Layer> {
    (any::<bool>(), 0u8..=255, 0u8..=255, any::<bool>()).prop_map(|(is_agg, bits, kind, having)| {
        Layer {
            is_agg,
            bits,
            kind,
            having,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random valid DAGs never panic the planner, extraction always
    /// yields a plan the executor accepts, and its rows are the
    /// reference's on whatever the generator produced — as are one
    /// engine's at random batch cuts.
    #[test]
    fn random_dags_plan_and_execute(
        layers in proptest::collection::vec(arb_layer(), 1..4),
        set_bits in 0u8..8,
        partial in any::<bool>(),
        agnostic in any::<bool>(),
        cuts in proptest::collection::vec(0usize..700, 1..4),
    ) {
        let dag = build_random(&layers);

        let all_cols = ["srcIP", "destIP", "srcPort"];
        let set_cols: Vec<&str> = all_cols
            .iter()
            .enumerate()
            .filter(|(j, _)| set_bits & (1 << j) != 0)
            .map(|(_, c)| *c)
            .collect();
        let set = PartitionSet::from_columns(set_cols.iter().copied());
        let partitioning = if set.is_empty() {
            Partitioning::round_robin(2)
        } else {
            Partitioning::hash(set.clone(), 2)
        };

        // The planner itself never panics and never fails on a valid DAG.
        let outcome = qap::planner::plan(&qap::planner::PlannerInput {
            dag: &dag,
            deployed: &set,
            agnostic,
            partial_aggregation: partial,
            scope: qap::planner::SubScope::PerPartition,
            analysis: AnalysisOptions::default(),
        });
        prop_assert!(outcome.is_ok(), "planner failed: {:?}", outcome.err());
        prop_assert!(outcome.unwrap().extracted_net.is_finite());

        // Every extracted plan is executor-accepted and computes the
        // reference's rows.
        let trace = generate(&TraceConfig::tiny(7));
        let cfg = OptimizerConfig {
            agnostic,
            partial_aggregation: partial,
            ..OptimizerConfig::naive()
        };
        let plan = optimize(&dag, &partitioning, &cfg);
        prop_assert!(plan.is_ok(), "lowering failed: {:?}", plan.err());
        let plan = plan.unwrap();
        kinds::assert_plan_lanes_typed("random DAG", &plan, &trace);
        kinds::assert_model_values_typed("random DAG", &dag, &trace);
        let run = run_distributed(&plan, &trace, &SimConfig::default());
        prop_assert!(run.is_ok(), "execution rejected the plan: {:?}", run.err());
        let reference = reference_outputs(&dag, &trace);
        prop_assert_eq!(sorted_outputs(&run.unwrap().outputs), reference.clone());
        prop_assert_eq!(engine_outputs(&dag, &trace, &cuts), reference);
    }
}
