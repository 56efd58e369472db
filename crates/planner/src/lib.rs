#![warn(missing_docs)]

//! The cost-driven planner: one e-graph over plan terms decides where
//! every operator of a logical DAG runs *under the deployed
//! partitioning set* (Section 5). Choosing that set is the analyzer's
//! job (`qap_partition::choose_partitioning`, Section 4.2.2).
//!
//! The pipeline is build → saturate → extract:
//!
//! 1. **Build** ([`plan`]): every logical node seeds its *central*
//!    realization `Central(op, …)`; sources seed `Collect(Part(src))`,
//!    split by the deployed partitioning set.
//! 2. **Saturate**: the rewrite catalog of [`rules`] (Sections 5.1–5.4
//!    as e-graph rules, guarded by the `qap-partition` compatibility
//!    lattice) runs to a fixpoint, so every sound placement of every
//!    operator coexists in the e-graph.
//! 3. **Extract**: [`cost::NetCost`] — the Section 4.2.1 network charge
//!    over [`qap_partition::node_rates`] — picks the cheapest
//!    realization per class; ties break toward fewer central operators,
//!    so maximal push-down wins exact byte ties.
//!
//! The planner's output is a [`NodeDecision`] per logical node plus a
//! [`PlanExplanation`]; `qap-optimizer` lowers decisions into the
//! physical [`qap_plan::QueryDag`].

use std::fmt;

use egg::{EGraph, Extractor, Id, Rewrite, Runner};
use qap_partition::{
    node_compatibilities_with, AnalysisOptions, CostModel, PartitionSet, UniformStats,
};
use qap_plan::{LogicalNode, NodeId, QueryDag};

pub mod cost;
pub mod explain;
pub mod partial;
pub mod rules;
pub mod term;

pub use cost::{NetCost, PlanCost};
pub use explain::{AltExplain, NodeExplain, PlanExplanation};
pub use term::{OpId, PlanExpr, SubScope};

use rules::{PairwiseJoin, PushAggregate, PushMerge, PushSelect, RuleCtx, SubSuperSplit};

/// How one logical node is realized physically. The optimizer's
/// emitter consumes these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeDecision {
    /// Replicated per partition below the collecting merge
    /// (Figure 4 / Figure 7 / Section 5.4).
    Push,
    /// Split into per-partition sub-aggregates and a central
    /// super-aggregate (Figure 5).
    SubSuper,
    /// Evaluated centrally over collected inputs.
    Central,
}

impl NodeDecision {
    /// Short human description.
    pub fn describe(&self) -> &'static str {
        match self {
            NodeDecision::Push => "pushed per partition",
            NodeDecision::SubSuper => "sub/super split",
            NodeDecision::Central => "centralized",
        }
    }
}

/// Planner failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlannerError {
    /// No feasible realization was extractable for a logical node's
    /// stream (cannot happen for a well-formed DAG: the central
    /// fallback always exists).
    Infeasible(NodeId),
}

impl fmt::Display for PlannerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlannerError::Infeasible(id) => {
                write!(
                    f,
                    "no feasible plan term extractable for logical node #{id}"
                )
            }
        }
    }
}

impl std::error::Error for PlannerError {}

/// Input of one planning run.
#[derive(Clone, Copy)]
pub struct PlannerInput<'a> {
    /// The logical DAG to plan.
    pub dag: &'a QueryDag,
    /// The partitioning set the splitter actually deploys (empty for
    /// round-robin).
    pub deployed: &'a PartitionSet,
    /// Partition-agnostic mode: no rewrites, everything central
    /// (Section 5.1 / Figure 3).
    pub agnostic: bool,
    /// Whether the Figure 5 sub/super split is available.
    pub partial_aggregation: bool,
    /// Where sub-aggregates run.
    pub scope: SubScope,
    /// Compatibility-analysis knobs.
    pub analysis: AnalysisOptions,
}

/// Output of one planning run.
#[derive(Debug, Clone)]
pub struct PlannerOutcome {
    /// Per-logical-node realization decision (sources are always
    /// `Push`: the splitter partitions them by construction).
    pub decisions: Vec<NodeDecision>,
    /// The costed account of every alternative, for `--explain`.
    pub explanation: PlanExplanation,
    /// Total extracted network cost over all roots, bytes/sec
    /// (additive; shared subtrees charged once per consuming root).
    pub extracted_net: f64,
    /// Saturation iterations.
    pub iterations: usize,
    /// Whether rewriting reached a fixpoint.
    pub saturated: bool,
}

/// Plans under the default statistics ([`UniformStats`]) and cost
/// model — what `optimize()` uses, keeping its decisions
/// deterministic.
pub fn plan(input: &PlannerInput<'_>) -> Result<PlannerOutcome, PlannerError> {
    let dag = input.dag;
    let compat = node_compatibilities_with(dag, input.analysis);
    let rates = qap_partition::node_rates(dag, &UniformStats::default(), &CostModel::default());
    let sub_bytes = cost::sub_partial_bytes(dag, &rates);
    let splittable = splittable_nodes(dag);

    // Build: seed central realizations for every node, the deployed
    // split for every source.
    let mut eg: EGraph<PlanExpr> = EGraph::new();
    let mut central_class: Vec<Id> = Vec::with_capacity(dag.len());
    for id in dag.topo_order() {
        let class = match dag.node(id) {
            LogicalNode::Source { .. } => {
                let p = eg.add(PlanExpr::Part { op: id as OpId });
                eg.add(PlanExpr::Collect { child: [p] })
            }
            node => {
                let children = node.children().iter().map(|&c| central_class[c]).collect();
                eg.add(PlanExpr::Central {
                    op: id as OpId,
                    children,
                })
            }
        };
        central_class.push(class);
    }
    eg.rebuild();

    let ctx = RuleCtx {
        dag,
        compat: &compat,
        splittable: &splittable,
        partial_aggregation: input.partial_aggregation,
        scope: input.scope,
        deployed: input.deployed,
    };

    // Saturate: the agnostic configuration runs no rewrites at all, so
    // only the seeded central realization exists.
    let (iterations, saturated) = if input.agnostic {
        (0, true)
    } else {
        let select = PushSelect(&ctx);
        let agg = PushAggregate(&ctx);
        let join = PairwiseJoin(&ctx);
        let merge = PushMerge(&ctx);
        let split = SubSuperSplit(&ctx);
        let rules: [&dyn Rewrite<PlanExpr>; 5] = [&select, &agg, &join, &merge, &split];
        let report = Runner::default().run(&mut eg, &rules);
        (report.iterations, report.saturated)
    };

    // Extract.
    let mut extractor = Extractor::new(
        &eg,
        NetCost {
            rates: &rates,
            sub_bytes: &sub_bytes,
        },
    );
    let decisions = derive_decisions(dag, &central_class, &extractor)?;
    let mut extracted_net = 0.0;
    for root in dag.roots() {
        let c = extractor
            .best_cost(central_class[root])
            .ok_or(PlannerError::Infeasible(root))?;
        extracted_net += c.net;
    }

    // Per-node alternative account for --explain.
    let mut nodes = Vec::new();
    for id in dag.topo_order() {
        if dag.node(id).is_source() {
            continue;
        }
        let class = central_class[id];
        let best = extractor.best_node(class).cloned();
        let mut alternatives: Vec<AltExplain> = extractor
            .alternatives(class)
            .into_iter()
            .map(|(node, c)| AltExplain {
                summary: summarize(&eg, &node),
                rule: eg.reason(node.clone()),
                net: c.as_ref().map(|c| c.net),
                central_ops: c.as_ref().map(|c| c.central_ops),
                chosen: best.as_ref() == Some(&node),
            })
            .collect();
        // An e-class lists its nodes in hash order; the report lists
        // them cheapest first, the unextractable last.
        alternatives.sort_by(|a, b| {
            (a.net.is_none().cmp(&b.net.is_none()))
                .then(a.net.unwrap_or(0.0).total_cmp(&b.net.unwrap_or(0.0)))
                .then(a.central_ops.cmp(&b.central_ops))
                .then_with(|| (&a.summary, a.rule).cmp(&(&b.summary, b.rule)))
        });
        nodes.push(NodeExplain {
            node: id,
            label: dag.node(id).label(),
            requirement: compat[id].to_string(),
            decision: decisions[id],
            alternatives,
        });
    }
    let explanation = PlanExplanation {
        deployed: input.deployed.to_string(),
        iterations,
        saturated,
        nodes,
    };

    Ok(PlannerOutcome {
        decisions,
        explanation,
        extracted_net,
        iterations,
        saturated,
    })
}

/// Per-node: is it an aggregate whose aggregate list fully splits?
fn splittable_nodes(dag: &QueryDag) -> Vec<bool> {
    dag.topo_order()
        .map(|id| match dag.node(id) {
            LogicalNode::Aggregate { aggregates, .. } => partial::all_splittable(dag, aggregates),
            _ => false,
        })
        .collect()
}

/// Reads the extraction result back into per-logical-node decisions.
/// The winning e-node of each central-stream class tells the story:
/// `Collect(Lift …)` means the operator was pushed, `Super(…)` means it
/// was split, `Central(…)` means it stays on the aggregator.
fn derive_decisions(
    dag: &QueryDag,
    central_class: &[Id],
    extractor: &Extractor<'_, PlanExpr, NetCost<'_>>,
) -> Result<Vec<NodeDecision>, PlannerError> {
    let mut out = vec![NodeDecision::Central; dag.len()];
    for id in dag.topo_order() {
        if dag.node(id).is_source() {
            out[id] = NodeDecision::Push;
            continue;
        }
        let best = extractor
            .best_node(central_class[id])
            .ok_or(PlannerError::Infeasible(id))?;
        out[id] = match best {
            PlanExpr::Central { .. } => NodeDecision::Central,
            PlanExpr::Super { .. } => NodeDecision::SubSuper,
            PlanExpr::Collect { child } => match extractor.best_node(child[0]) {
                Some(PlanExpr::Lift { .. }) | Some(PlanExpr::Part { .. }) => NodeDecision::Push,
                Some(PlanExpr::Sub { .. }) => NodeDecision::SubSuper,
                _ => NodeDecision::Central,
            },
            // Partition-sorted terms never live in a central class.
            _ => NodeDecision::Central,
        };
    }
    Ok(out)
}

/// Human summary of one realization alternative.
fn summarize(eg: &EGraph<PlanExpr>, node: &PlanExpr) -> String {
    match node {
        PlanExpr::Central { .. } => "centralize over collected inputs".to_string(),
        PlanExpr::Super { .. } => "super-aggregate over collected partials".to_string(),
        PlanExpr::Collect { child } => {
            let nodes = &eg.class(child[0]).nodes;
            if nodes.iter().any(|n| matches!(n, PlanExpr::Sub { .. })) {
                "collect sub-aggregate partials".to_string()
            } else if nodes.iter().any(|n| matches!(n, PlanExpr::Lift { .. })) {
                "push down, collect per-partition outputs".to_string()
            } else {
                "collect raw partitions".to_string()
            }
        }
        other => format!("{other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qap_sql::QuerySetBuilder;
    use qap_types::Catalog;

    fn build(queries: &[(&str, &str)]) -> QueryDag {
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        for (name, sql) in queries {
            b.add_query(name, sql).unwrap();
        }
        b.build()
    }

    fn section_3_2_dag() -> QueryDag {
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

    fn plan_under(dag: &QueryDag, set: &PartitionSet, partial: bool) -> PlannerOutcome {
        plan(&PlannerInput {
            dag,
            deployed: set,
            agnostic: false,
            partial_aggregation: partial,
            scope: SubScope::PerPartition,
            analysis: AnalysisOptions::default(),
        })
        .unwrap()
    }

    #[test]
    fn srcip_pushes_the_whole_section_3_2_plan() {
        let dag = section_3_2_dag();
        let out = plan_under(&dag, &PartitionSet::from_columns(["srcIP"]), false);
        for id in dag.topo_order() {
            assert_eq!(
                out.decisions[id],
                NodeDecision::Push,
                "node {id} should push under (srcIP)"
            );
        }
        assert!(out.saturated);
        // Only the root's collected output crosses the network.
        let root = dag.query_node("flow_pairs").unwrap();
        let rates =
            qap_partition::node_rates(&dag, &UniformStats::default(), &CostModel::default());
        assert!((out.extracted_net - rates.out_bytes[root]).abs() < 1e-6);
    }

    #[test]
    fn partial_set_pushes_flows_centralizes_heavy() {
        let dag = section_3_2_dag();
        let set = PartitionSet::from_columns(["srcIP", "destIP"]);
        let out = plan_under(&dag, &set, false);
        let flows = dag.query_node("flows").unwrap();
        let heavy = dag.query_node("heavy_flows").unwrap();
        let pairs = dag.query_node("flow_pairs").unwrap();
        assert_eq!(out.decisions[flows], NodeDecision::Push);
        assert_eq!(out.decisions[heavy], NodeDecision::Central);
        assert_eq!(out.decisions[pairs], NodeDecision::Central);
    }

    #[test]
    fn partial_aggregation_splits_incompatible_aggregate() {
        let dag = section_3_2_dag();
        let set = PartitionSet::from_columns(["srcIP", "destIP"]);
        let out = plan_under(&dag, &set, true);
        let heavy = dag.query_node("heavy_flows").unwrap();
        assert_eq!(
            out.decisions[heavy],
            NodeDecision::SubSuper,
            "MAX splits into sub/super under an incompatible set"
        );
        // The split is cheaper than full centralization: cost must not
        // exceed the no-split plan.
        let no_split = plan_under(&dag, &set, false);
        assert!(out.extracted_net <= no_split.extracted_net + 1e-9);
    }

    #[test]
    fn agnostic_mode_centralizes_everything() {
        let dag = section_3_2_dag();
        let out = plan(&PlannerInput {
            dag: &dag,
            deployed: &PartitionSet::from_columns(["srcIP"]),
            agnostic: true,
            partial_aggregation: false,
            scope: SubScope::PerPartition,
            analysis: AnalysisOptions::default(),
        })
        .unwrap();
        for id in dag.topo_order() {
            if dag.node(id).is_source() {
                continue;
            }
            assert_eq!(out.decisions[id], NodeDecision::Central);
        }
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn round_robin_still_pushes_selections() {
        // Under the empty (round-robin) set, σ/π pushes (Section 5.4)
        // but aggregation cannot.
        let dag = build(&[
            (
                "web",
                "SELECT time, srcIP, destIP FROM TCP WHERE destPort = 80",
            ),
            (
                "cnt",
                "SELECT tb, srcIP, COUNT(*) as c FROM TCP GROUP BY time/60 as tb, srcIP",
            ),
        ]);
        let out = plan_under(&dag, &PartitionSet::empty(), false);
        let web = dag.query_node("web").unwrap();
        let cnt = dag.query_node("cnt").unwrap();
        assert_eq!(out.decisions[web], NodeDecision::Push);
        assert_eq!(out.decisions[cnt], NodeDecision::Central);
    }

    #[test]
    fn explanation_lists_alternatives_with_provenance() {
        let dag = section_3_2_dag();
        let out = plan_under(&dag, &PartitionSet::from_columns(["srcIP"]), false);
        let text = out.explanation.render();
        assert!(text.contains("deployed set {srcIP}"), "{text}");
        assert!(text.contains(rules::RULE_PUSH_AGG), "{text}");
        assert!(text.contains(rules::RULE_PAIRWISE_JOIN), "{text}");
        assert!(text.contains("pushed per partition"), "{text}");
        // The flows node shows both the central and the pushed form.
        let flows = dag.query_node("flows").unwrap();
        let flows_explain = out
            .explanation
            .nodes
            .iter()
            .find(|n| n.node == flows)
            .unwrap();
        assert!(flows_explain.alternatives.len() >= 2);
        assert_eq!(
            flows_explain
                .alternatives
                .iter()
                .filter(|a| a.chosen)
                .count(),
            1
        );
    }
}
