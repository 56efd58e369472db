//! Optimizer transformation tests, organized around the paper's figures.

use qap_partition::PartitionSet;
use qap_plan::{LogicalNode, QueryDag};
use qap_sql::QuerySetBuilder;
use qap_types::Catalog;

use crate::{
    agnostic_plan, optimize, DistributedPlan, OptError, OptimizerConfig, PartialAggScope,
    Partitioning,
};

fn build(queries: &[(&str, &str)]) -> QueryDag {
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    for (name, sql) in queries {
        b.add_query(name, sql).unwrap();
    }
    b.build()
}

fn flows_set() -> QueryDag {
    build(&[(
        "flows",
        "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
         GROUP BY time/60 as tb, srcIP, destIP",
    )])
}

fn section_3_2_set() -> QueryDag {
    build(&[
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
    ])
}

fn count_kind(plan: &DistributedPlan, pred: impl Fn(&LogicalNode) -> bool) -> usize {
    plan.dag
        .topo_order()
        .filter(|&id| pred(plan.dag.node(id)))
        .count()
}

fn count_aggs(plan: &DistributedPlan) -> usize {
    count_kind(plan, |n| matches!(n, LogicalNode::Aggregate { .. }))
}

fn count_merges(plan: &DistributedPlan) -> usize {
    count_kind(plan, |n| matches!(n, LogicalNode::Merge { .. }))
}

fn count_joins(plan: &DistributedPlan) -> usize {
    count_kind(plan, |n| matches!(n, LogicalNode::Join { .. }))
}

#[test]
fn figure_3_agnostic_plan_shape() {
    // Per-partition scans, one central merge, one central aggregate.
    let dag = flows_set();
    let part = Partitioning::round_robin(3);
    let plan = agnostic_plan(&dag, &part).unwrap();
    assert_eq!(
        count_kind(&plan, |n| matches!(n, LogicalNode::Source { .. })),
        6
    );
    assert_eq!(count_merges(&plan), 1);
    assert_eq!(count_aggs(&plan), 1);
    // All non-scan work on the aggregator.
    for id in plan.dag.topo_order() {
        if !plan.dag.node(id).is_source() {
            assert_eq!(plan.host[id], 0);
        }
    }
}

#[test]
fn figure_4_compatible_aggregation_pushes_down() {
    let dag = flows_set();
    let part = Partitioning::hash(PartitionSet::from_columns(["srcIP", "destIP"]), 4);
    let plan = optimize(&dag, &part, &OptimizerConfig::full()).unwrap();
    // One complete aggregate per partition, one collecting merge.
    assert_eq!(count_aggs(&plan), 8);
    assert_eq!(count_merges(&plan), 1);
    // Replicas run on the partition's host.
    let mut per_host = vec![0usize; 4];
    for id in plan.dag.topo_order() {
        if matches!(plan.dag.node(id), LogicalNode::Aggregate { .. }) {
            per_host[plan.host[id]] += 1;
        }
    }
    assert_eq!(per_host, vec![2, 2, 2, 2]);
}

#[test]
fn figure_5_incompatible_aggregation_splits_sub_super() {
    let dag = flows_set();
    // Round-robin: nothing compatible; per-host partial aggregation.
    let part = Partitioning::round_robin(3);
    let cfg = OptimizerConfig {
        partial_aggregation: true,
        partial_agg_scope: PartialAggScope::PerHost,
        ..OptimizerConfig::default()
    };
    let plan = optimize(&dag, &part, &cfg).unwrap();
    // 3 per-host subs + 1 super.
    assert_eq!(count_aggs(&plan), 4);
    // Per-host merges (3, of 2 partitions each) + central partial merge.
    assert_eq!(count_merges(&plan), 4);
    // Sub-aggregates carry no HAVING; the output schema is unchanged.
    let out = plan.outputs[0].node;
    assert_eq!(plan.dag.schema(out).arity(), 4);
}

#[test]
fn naive_splits_per_partition() {
    let dag = flows_set();
    let part = Partitioning::round_robin(3);
    let plan = optimize(&dag, &part, &OptimizerConfig::naive()).unwrap();
    // 6 per-partition subs + 1 super.
    assert_eq!(count_aggs(&plan), 7);
    // Only the central merge of partials (no per-host merges).
    assert_eq!(count_merges(&plan), 1);
}

#[test]
fn having_stays_at_super_aggregate_where_pushed_to_subs() {
    let dag = build(&[(
        "suspicious",
        "SELECT tb, srcIP, destIP, OR_AGGR(flags) as orflag, COUNT(*) as cnt FROM TCP \
         WHERE protocol = 6 \
         GROUP BY time as tb, srcIP, destIP \
         HAVING OR_AGGR(flags) = 0x29",
    )]);
    let part = Partitioning::round_robin(2);
    let plan = optimize(&dag, &part, &OptimizerConfig::naive()).unwrap();
    let mut sub_count = 0;
    let mut super_count = 0;
    for id in plan.dag.topo_order() {
        if let LogicalNode::Aggregate {
            predicate, having, ..
        } = plan.dag.node(id)
        {
            if having.is_some() {
                super_count += 1;
                assert!(predicate.is_none(), "WHERE must not run at the super");
            } else {
                sub_count += 1;
                assert!(predicate.is_some(), "WHERE must push into the subs");
            }
        }
    }
    assert_eq!(sub_count, 4);
    assert_eq!(super_count, 1);
}

#[test]
fn figure_7_compatible_join_goes_pairwise() {
    let dag = section_3_2_set();
    let part = Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 4);
    let plan = optimize(&dag, &part, &OptimizerConfig::full()).unwrap();
    // Everything pushed: 8 joins, one per partition.
    assert_eq!(count_joins(&plan), 8);
    // flows + heavy_flows aggregates, replicated: 16.
    assert_eq!(count_aggs(&plan), 16);
    // Single collecting merge at the root.
    assert_eq!(count_merges(&plan), 1);
    assert_eq!(plan.outputs.len(), 1);
    assert_eq!(plan.outputs[0].name.as_deref(), Some("flow_pairs"));
}

#[test]
fn figure_12_partially_compatible_partitioning() {
    // Under (srcIP, destIP) only flows is compatible; heavy_flows gets
    // the sub/super treatment and flow_pairs runs centrally.
    let dag = section_3_2_set();
    let part = Partitioning::hash(PartitionSet::from_columns(["srcIP", "destIP"]), 4);
    let plan = optimize(&dag, &part, &OptimizerConfig::full()).unwrap();
    // flows pushed (8 complete) + heavy subs (4 per-host) + heavy super.
    assert_eq!(count_aggs(&plan), 13);
    // Central join only.
    assert_eq!(count_joins(&plan), 1);
    let join_id = plan
        .dag
        .topo_order()
        .find(|&id| matches!(plan.dag.node(id), LogicalNode::Join { .. }))
        .unwrap();
    assert_eq!(plan.host[join_id], 0);
}

#[test]
fn figure_2_constrained_hardware_destip() {
    // Hardware can only split on destIP: flows (grouping srcIP, destIP)
    // still pushes; the srcIP-keyed layers run centrally.
    let dag = section_3_2_set();
    let part = Partitioning::hash(PartitionSet::from_columns(["destIP"]), 4);
    let plan = optimize(&dag, &part, &OptimizerConfig::full()).unwrap();
    let flows_pushed = plan
        .dag
        .topo_order()
        .filter(|&id| {
            matches!(plan.dag.node(id), LogicalNode::Aggregate { group_by, .. } if group_by.len() == 3)
        })
        .count();
    assert_eq!(flows_pushed, 8, "flows replicates onto all partitions");
    assert_eq!(count_joins(&plan), 1, "join stays central");
}

#[test]
fn avg_split_recombines_through_projection() {
    let dag = build(&[(
        "mean_len",
        "SELECT tb, srcIP, AVG(len) as mean_len FROM TCP GROUP BY time/60 as tb, srcIP",
    )]);
    let part = Partitioning::round_robin(2);
    let plan = optimize(&dag, &part, &OptimizerConfig::naive()).unwrap();
    // Output schema recovers the original shape despite the SUM/COUNT
    // decomposition.
    let out = plan.outputs[0].node;
    let schema = plan.dag.schema(out);
    assert_eq!(
        schema.fields().iter().map(|f| f.name()).collect::<Vec<_>>(),
        vec!["tb", "srcIP", "mean_len"]
    );
    // Sub-aggregates emit the decomposed columns.
    let any_sub_has_partials = plan.dag.topo_order().any(|id| {
        matches!(plan.dag.node(id), LogicalNode::Aggregate { aggregates, .. }
            if aggregates.iter().any(|a| a.name == "mean_len__sum"))
    });
    assert!(any_sub_has_partials);
}

#[test]
fn partial_aggregation_disabled_centralizes() {
    let dag = flows_set();
    let part = Partitioning::round_robin(2);
    let cfg = OptimizerConfig {
        partial_aggregation: false,
        ..OptimizerConfig::default()
    };
    let plan = optimize(&dag, &part, &cfg).unwrap();
    assert_eq!(count_aggs(&plan), 1);
    assert_eq!(count_merges(&plan), 1);
}

#[test]
fn shared_subplan_collected_once() {
    // flow_pairs consumes heavy_flows twice; a central representation
    // must not duplicate the collecting merge.
    let dag = section_3_2_set();
    let part = Partitioning::round_robin(2);
    let cfg = OptimizerConfig {
        partial_aggregation: false,
        ..OptimizerConfig::default()
    };
    let plan = optimize(&dag, &part, &cfg).unwrap();
    // One merge for the scans; aggregates central; join reads heavy
    // twice without extra merges.
    assert_eq!(count_merges(&plan), 1);
    assert_eq!(count_joins(&plan), 1);
}

#[test]
fn render_by_host_mentions_aggregator_and_outputs() {
    let dag = flows_set();
    let part = Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 2);
    let plan = optimize(&dag, &part, &OptimizerConfig::full()).unwrap();
    let rendered = plan.render_by_host();
    assert!(rendered.contains("(aggregator)"), "{rendered}");
    assert!(rendered.contains("flows ->"), "{rendered}");
    assert!(rendered.contains("SOURCE TCP[0]"), "{rendered}");
}

#[test]
fn select_project_always_pushes() {
    let dag = build(&[(
        "dns",
        "SELECT time, srcIP, len FROM TCP WHERE destPort = 53",
    )]);
    // Even round-robin partitioning pushes σ/π (Section 5.4).
    let part = Partitioning::round_robin(3);
    let plan = optimize(&dag, &part, &OptimizerConfig::full()).unwrap();
    let pushed = plan
        .dag
        .topo_order()
        .filter(|&id| matches!(plan.dag.node(id), LogicalNode::SelectProject { .. }))
        .count();
    assert_eq!(pushed, 6);
}

#[test]
fn outputs_cover_all_roots() {
    let dag = build(&[
        (
            "a",
            "SELECT tb, srcIP, COUNT(*) as c FROM TCP GROUP BY time/60 as tb, srcIP",
        ),
        (
            "b",
            "SELECT tb, destIP, COUNT(*) as c FROM TCP GROUP BY time/60 as tb, destIP",
        ),
    ]);
    let part = Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 2);
    let plan = optimize(&dag, &part, &OptimizerConfig::full()).unwrap();
    assert_eq!(plan.outputs.len(), 2);
    let names: Vec<_> = plan
        .outputs
        .iter()
        .map(|o| o.name.clone().unwrap())
        .collect();
    assert!(names.contains(&"a".to_string()) && names.contains(&"b".to_string()));
}

#[test]
fn invalid_partitioning_rejected() {
    let dag = flows_set();
    let mut part = Partitioning::round_robin(2);
    part.partitions = 1;
    assert!(optimize(&dag, &part, &OptimizerConfig::full()).is_err());
}

#[test]
fn unresolved_partitioning_set_is_rejected_before_planning() {
    // The splitter could not compile this set, so no plan may be costed
    // for it either.
    let dag = flows_set();
    let part = Partitioning::hash(PartitionSet::from_columns(["nosuchcol"]), 3);
    let err = optimize(&dag, &part, &OptimizerConfig::full()).unwrap_err();
    assert!(
        matches!(&err, OptError::BadPartitioning(m) if m.contains("nosuchcol")),
        "{err}"
    );
    // A masked column of the stream resolves and plans.
    let masked = qap_expr::ScalarExpr::col("srcIP").mask(0xFFF0);
    let part = Partitioning::hash(PartitionSet::from_exprs([&masked]), 3);
    optimize(&dag, &part, &OptimizerConfig::full()).unwrap();
}
