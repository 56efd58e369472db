//! The central correctness property of the whole system: every
//! distributed plan the optimizer produces is *semantically equivalent*
//! to the centralized logical plan — "the output of the query is equal
//! to a stream union of the output of Q running on all partitions"
//! (Section 3.4), extended through every transformation of Section 5.

use qap::prelude::*;

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

/// Runs the logical plan centrally and the distributed plan under every
/// listed deployment, asserting identical (order-insensitive) results
/// for every named root query.
fn assert_equivalent(
    queries: &[(&str, &str)],
    deployments: &[(Partitioning, OptimizerConfig)],
    trace_seed: u64,
) {
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    for (name, sql) in queries {
        b.add_query(name, sql).unwrap();
    }
    let dag = b.build();
    let trace = generate(&TraceConfig::tiny(trace_seed));

    // Ground truth: centralized execution.
    let reference: Vec<(usize, Vec<Tuple>)> = run_logical(&dag, trace.clone())
        .unwrap()
        .into_iter()
        .map(|(id, rows)| (id, sorted(rows)))
        .collect();

    for (partitioning, config) in deployments {
        let plan = optimize(&dag, partitioning, config).unwrap();
        let result = run_distributed(&plan, &trace, &SimConfig::default()).unwrap();
        assert_eq!(result.metrics.late_dropped, 0, "no late drops expected");
        for output in &plan.outputs {
            let (_, rows) = result
                .outputs
                .iter()
                .find(|(n, _)| {
                    output
                        .name
                        .as_deref()
                        .is_some_and(|on| on.eq_ignore_ascii_case(n))
                })
                .unwrap_or_else(|| &result.outputs[0]);
            let (_, ref_rows) = reference
                .iter()
                .find(|(id, _)| *id == output.logical)
                .expect("root present in reference");
            assert_eq!(
                &sorted(rows.clone()),
                ref_rows,
                "deployment {:?}/{:?} diverged on {:?}",
                partitioning.strategy,
                config.partial_agg_scope,
                output.name
            );
        }
    }
}

fn all_deployments(
    compatible_set: PartitionSet,
    hosts: usize,
) -> Vec<(Partitioning, OptimizerConfig)> {
    vec![
        (Partitioning::round_robin(hosts), OptimizerConfig::naive()),
        (Partitioning::round_robin(hosts), OptimizerConfig::full()),
        (
            Partitioning::round_robin(hosts),
            OptimizerConfig {
                agnostic: true,
                ..OptimizerConfig::default()
            },
        ),
        (
            Partitioning::hash(compatible_set.clone(), hosts),
            OptimizerConfig::full(),
        ),
        (
            Partitioning::hash(compatible_set, hosts),
            OptimizerConfig::naive(),
        ),
    ]
}

#[test]
fn simple_aggregation_equivalent_under_all_deployments() {
    for hosts in [1, 2, 4] {
        assert_equivalent(
            &[(
                "flows",
                "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
                 GROUP BY time/60 as tb, srcIP, destIP",
            )],
            &all_deployments(PartitionSet::from_columns(["srcIP", "destIP"]), hosts),
            hosts as u64,
        );
    }
}

#[test]
fn having_query_equivalent_under_all_deployments() {
    assert_equivalent(
        &[(
            "suspicious",
            "SELECT tb, srcIP, destIP, srcPort, destPort, OR_AGGR(flags) as orflag, \
             COUNT(*) as cnt FROM TCP \
             GROUP BY time/60 as tb, srcIP, destIP, srcPort, destPort \
             HAVING OR_AGGR(flags) = 0x29",
        )],
        &all_deployments(
            PartitionSet::from_columns(["srcIP", "destIP", "srcPort", "destPort"]),
            3,
        ),
        7,
    );
}

#[test]
fn stacked_aggregations_equivalent() {
    assert_equivalent(
        &[
            (
                "flows",
                "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
                 GROUP BY time/60 as tb, srcIP, destIP",
            ),
            (
                "heavy_flows",
                "SELECT tb, srcIP, MAX(cnt) as max_cnt FROM flows GROUP BY tb, srcIP",
            ),
        ],
        &all_deployments(PartitionSet::from_columns(["srcIP"]), 3),
        11,
    );
}

#[test]
fn self_join_equivalent() {
    assert_equivalent(
        &[
            (
                "flows",
                "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
                 GROUP BY time/60 as tb, srcIP, destIP",
            ),
            (
                "heavy_flows",
                "SELECT tb, srcIP, MAX(cnt) as max_cnt FROM flows GROUP BY tb, srcIP",
            ),
            (
                "flow_pairs",
                "SELECT S1.tb, S1.srcIP, S1.max_cnt, S2.max_cnt \
                 FROM heavy_flows S1, heavy_flows S2 \
                 WHERE S1.srcIP = S2.srcIP and S1.tb = S2.tb+1",
            ),
        ],
        &all_deployments(PartitionSet::from_columns(["srcIP"]), 4),
        13,
    );
}

#[test]
fn partially_compatible_deployment_equivalent() {
    // (srcIP, destIP) is compatible with flows only; heavy_flows and
    // flow_pairs exercise the sub/super + central-join path.
    assert_equivalent(
        &[
            (
                "flows",
                "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
                 GROUP BY time/60 as tb, srcIP, destIP",
            ),
            (
                "heavy_flows",
                "SELECT tb, srcIP, MAX(cnt) as max_cnt FROM flows GROUP BY tb, srcIP",
            ),
            (
                "flow_pairs",
                "SELECT S1.tb, S1.srcIP, S1.max_cnt, S2.max_cnt \
                 FROM heavy_flows S1, heavy_flows S2 \
                 WHERE S1.srcIP = S2.srcIP and S1.tb = S2.tb+1",
            ),
        ],
        &[(
            Partitioning::hash(PartitionSet::from_columns(["srcIP", "destIP"]), 3),
            OptimizerConfig::full(),
        )],
        17,
    );
}

#[test]
fn masked_grouping_equivalent() {
    assert_equivalent(
        &[(
            "subnet_stats",
            "SELECT tb, subnet, destIP, COUNT(*) as cnt, SUM(len) as bytes FROM TCP \
             GROUP BY time/60 as tb, srcIP & 0xFFF0 as subnet, destIP",
        )],
        &all_deployments(
            PartitionSet::from_exprs([
                &ScalarExpr::col("srcIP").mask(0xFFF0),
                &ScalarExpr::col("destIP"),
            ]),
            3,
        ),
        19,
    );
}

#[test]
fn avg_equivalent_through_sum_count_split() {
    assert_equivalent(
        &[(
            "mean_len",
            "SELECT tb, srcIP, AVG(len) as mean_len, COUNT(*) as cnt FROM TCP \
             GROUP BY time/60 as tb, srcIP",
        )],
        &all_deployments(PartitionSet::from_columns(["srcIP"]), 3),
        23,
    );
}

#[test]
fn where_predicate_equivalent() {
    assert_equivalent(
        &[(
            "web_flows",
            "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP WHERE destPort = 80 \
             GROUP BY time/60 as tb, srcIP, destIP",
        )],
        &all_deployments(PartitionSet::from_columns(["srcIP", "destIP"]), 2),
        29,
    );
}

#[test]
fn selection_projection_equivalent() {
    assert_equivalent(
        &[(
            "small_pkts",
            "SELECT time, srcIP, destIP, len FROM TCP WHERE len < 100",
        )],
        &all_deployments(PartitionSet::from_columns(["srcIP"]), 3),
        31,
    );
}

#[test]
fn two_independent_roots_equivalent() {
    assert_equivalent(
        &[
            (
                "by_src",
                "SELECT tb, srcIP, COUNT(*) as c FROM TCP GROUP BY time/60 as tb, srcIP",
            ),
            (
                "by_dst",
                "SELECT tb, destIP, COUNT(*) as c FROM TCP GROUP BY time/60 as tb, destIP",
            ),
        ],
        &[
            (Partitioning::round_robin(3), OptimizerConfig::naive()),
            (
                Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 3),
                OptimizerConfig::full(),
            ),
        ],
        37,
    );
}

#[test]
fn stream_union_equivalent() {
    // A user-level UNION of two filtered aggregations, further
    // aggregated — exercises the optimizer's partitioned-merge path
    // (partition i of the union = union of the inputs' partition i).
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    b.add_query(
        "web",
        "SELECT tb, srcIP, COUNT(*) as c FROM TCP WHERE destPort = 80 \
         GROUP BY time/60 as tb, srcIP",
    )
    .unwrap();
    b.add_query(
        "dns",
        "SELECT tb, srcIP, COUNT(*) as c FROM TCP WHERE destPort = 53 \
         GROUP BY time/60 as tb, srcIP",
    )
    .unwrap();
    b.add_union("monitored", &["web", "dns"]).unwrap();
    b.add_query(
        "combined",
        "SELECT tb, srcIP, SUM(c) as total FROM monitored GROUP BY tb, srcIP",
    )
    .unwrap();
    let dag = b.build();
    let trace = generate(&TraceConfig::tiny(43));
    let reference: Vec<(usize, Vec<Tuple>)> = run_logical(&dag, trace.clone())
        .unwrap()
        .into_iter()
        .map(|(id, rows)| (id, sorted(rows)))
        .collect();

    for (part, cfg) in [
        (
            Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 3),
            OptimizerConfig::full(),
        ),
        (Partitioning::round_robin(2), OptimizerConfig::naive()),
    ] {
        let plan = optimize(&dag, &part, &cfg).unwrap();
        let result = run_distributed(&plan, &trace, &SimConfig::default()).unwrap();
        let combined = dag.query_node("combined").unwrap();
        let (_, ref_rows) = reference.iter().find(|(id, _)| *id == combined).unwrap();
        let rows = result
            .outputs
            .iter()
            .find(|(n, _)| n == "combined")
            .unwrap()
            .1
            .clone();
        assert_eq!(&sorted(rows), ref_rows, "{:?}", part.strategy);
    }
}

// ---------------------------------------------------------------------
// Batched vs tuple-at-a-time execution. The batched dataflow core must
// be invisible: identical sink outputs AND identical per-node
// OpCounters at every batch size, so every figure series derived from
// the counters is independent of the batching knob.
// ---------------------------------------------------------------------

/// The Section 3.2 query set: aggregation, super-aggregation, and the
/// epoch-offset self-join.
fn section_3_2_queries() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "flows",
            "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
             GROUP BY time/60 as tb, srcIP, destIP",
        ),
        (
            "heavy_flows",
            "SELECT tb, srcIP, MAX(cnt) as max_cnt FROM flows GROUP BY tb, srcIP",
        ),
        (
            "flow_pairs",
            "SELECT S1.tb, S1.srcIP, S1.max_cnt, S2.max_cnt \
             FROM heavy_flows S1, heavy_flows S2 \
             WHERE S1.srcIP = S2.srcIP and S1.tb = S2.tb+1",
        ),
    ]
}

fn build_dag(queries: &[(&str, &str)]) -> QueryDag {
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    for (name, sql) in queries {
        b.add_query(name, sql).unwrap();
    }
    b.build()
}

/// One engine over the whole logical plan, fed the trace as lane
/// batches of `batch` rows: each root's output, in emission order.
fn run_lanes(dag: &QueryDag, trace: &[Tuple], batch: usize) -> Vec<(usize, Vec<Tuple>)> {
    let mut engine = Engine::new(dag).unwrap();
    engine.set_batch_config(BatchConfig::new(batch));
    let source = engine.source_nodes()[0];
    for chunk in trace.chunks(batch) {
        let mut cols = qap::types::ColumnBatch::from_rows(chunk);
        engine.push_columns(source, &mut cols).unwrap();
    }
    engine.finish().unwrap();
    dag.roots()
        .into_iter()
        .map(|r| (r, engine.output(r)))
        .collect()
}

/// Single-source logical plans are *bit-identical* (same rows, same
/// order) at every batch size — batching never reorders a plan without
/// a merge of independently-progressing inputs — and equal to the
/// reference model's.
#[test]
fn logical_plan_bit_identical_across_batch_sizes() {
    let dag = build_dag(&section_3_2_queries());
    let trace = generate(&TraceConfig::tiny(47));
    let per_tuple = run_lanes(&dag, &trace, 1);
    assert_eq!(per_tuple, run_logical(&dag, trace.clone()).unwrap());
    for batch in [2usize, 7, 64, 1024, 1 << 20] {
        let batched = run_lanes(&dag, &trace, batch);
        assert_eq!(per_tuple, batched, "batch size {batch} diverged");
    }
}

/// Distributed plans (RR and hash, simulator runner) produce the same
/// result multisets and the exact same per-node OpCounters at every
/// batch size.
#[test]
fn distributed_counters_and_outputs_batch_invariant() {
    let dag = build_dag(&section_3_2_queries());
    let trace = generate(&TraceConfig::tiny(53));
    for (part, cfg) in [
        (Partitioning::round_robin(3), OptimizerConfig::naive()),
        (Partitioning::round_robin(4), OptimizerConfig::full()),
        (
            Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 3),
            OptimizerConfig::full(),
        ),
        (
            Partitioning::hash(PartitionSet::from_columns(["srcIP", "destIP"]), 2),
            OptimizerConfig::full(),
        ),
    ] {
        let plan = optimize(&dag, &part, &cfg).unwrap();
        let base_cfg = SimConfig {
            batch: BatchConfig::per_tuple(),
            ..SimConfig::default()
        };
        let base = run_distributed(&plan, &trace, &base_cfg).unwrap();
        for batch in [3usize, 256, 4096] {
            let sim_cfg = SimConfig {
                batch: BatchConfig::new(batch),
                ..SimConfig::default()
            };
            let run = run_distributed(&plan, &trace, &sim_cfg).unwrap();
            assert_eq!(
                base.counters, run.counters,
                "{:?}: per-node counters diverged at batch {batch}",
                part.strategy
            );
            assert_eq!(
                base.metrics.aggregator_rx_tuples, run.metrics.aggregator_rx_tuples,
                "{:?}: accounted network traffic diverged at batch {batch}",
                part.strategy
            );
            for ((name, rows), (bname, brows)) in base.outputs.iter().zip(run.outputs.iter()) {
                assert_eq!(name, bname);
                assert_eq!(
                    sorted(rows.clone()),
                    sorted(brows.clone()),
                    "{:?}: output {name} diverged at batch {batch}",
                    part.strategy
                );
            }
        }
    }
}

/// The threaded runner agrees with the per-tuple simulator under
/// batching too — counters included, despite host engines running
/// concurrently on moved batches.
#[test]
fn threaded_batched_matches_per_tuple_simulator() {
    let dag = build_dag(&section_3_2_queries());
    let trace = generate(&TraceConfig::tiny(59));
    let plan = optimize(
        &dag,
        &Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 3),
        &OptimizerConfig::full(),
    )
    .unwrap();
    let reference = run_distributed(
        &plan,
        &trace,
        &SimConfig {
            batch: BatchConfig::per_tuple(),
            ..SimConfig::default()
        },
    )
    .unwrap();
    for batch in [1usize, 128] {
        let threaded = run_distributed_threaded(
            &plan,
            &trace,
            &SimConfig {
                batch: BatchConfig::new(batch),
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            reference.counters, threaded.counters,
            "threaded counters diverged at batch {batch}"
        );
        for ((name, rows), (tname, trows)) in reference.outputs.iter().zip(threaded.outputs.iter())
        {
            assert_eq!(name, tname);
            assert_eq!(
                sorted(rows.clone()),
                sorted(trows.clone()),
                "threaded output {name} diverged at batch {batch}"
            );
        }
    }
}

#[test]
fn outer_join_equivalent() {
    assert_equivalent(
        &[
            (
                "by_src",
                "SELECT tb, srcIP, COUNT(*) as c FROM TCP GROUP BY time/60 as tb, srcIP",
            ),
            (
                "by_dst",
                "SELECT tb, destIP, COUNT(*) as c FROM TCP GROUP BY time/60 as tb, destIP",
            ),
            (
                "talkers",
                "SELECT A.tb, A.srcIP, A.c as sent, B.c as received \
                 FROM by_src A LEFT OUTER JOIN by_dst B \
                 WHERE A.tb = B.tb and A.srcIP = B.destIP",
            ),
        ],
        &[
            (Partitioning::round_robin(2), OptimizerConfig::full()),
            (
                // srcIP = destIP equates different columns: under the
                // shared-set assumption the join is incompatible and
                // runs centrally; results must still agree.
                Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 2),
                OptimizerConfig::full(),
            ),
        ],
        41,
    );
}
