//! Decision-driven lowering of logical DAGs into host-annotated
//! physical plans.
//!
//! This module does not decide *where* operators run — that is the
//! planner's job ([`qap_planner::plan`]). It only *emits*: one
//! bottom-up pass turns a [`qap_planner::NodeDecision`] per logical node
//! into physical nodes with host assignments.

use std::collections::HashMap;
use std::fmt::Write as _;

use qap_expr::ScalarExpr;
use qap_plan::{render_dag_annotated, LogicalNode, NamedAgg, NamedExpr, NodeId, QueryDag};
use qap_planner::{partial, NodeDecision, PlanExplanation, PlannerInput};

use crate::{OptError, OptResult, OptimizerConfig, PartialAggScope, Partitioning};

/// One consumable result stream of a distributed plan.
#[derive(Debug, Clone)]
pub struct PlanOutput {
    /// Query name, when the logical root was named.
    pub name: Option<String>,
    /// The logical node this output implements.
    pub logical: NodeId,
    /// The physical node producing the final (collected) stream.
    pub node: NodeId,
}

/// A physical, host-annotated plan: a [`QueryDag`] whose leaves are
/// per-partition scans, plus the host executing every node.
#[derive(Debug, Clone)]
pub struct DistributedPlan {
    /// The physical DAG. Every physical node records the logical node
    /// it implements via [`QueryDag::origin`].
    pub dag: QueryDag,
    /// Executing host of each physical node (parallel to `dag`).
    pub host: Vec<usize>,
    /// Whether each physical node is *central* (runs in the aggregator
    /// tier) as opposed to a partitioned-tier replica. The cluster
    /// simulator uses this to decide which edges are process-to-process
    /// transfers.
    pub central: Vec<bool>,
    /// Final outputs, one per logical root.
    pub outputs: Vec<PlanOutput>,
    /// The partitioning the plan was built for.
    pub partitioning: Partitioning,
    /// What [`optimize`] planned from, when text can say it: with the
    /// catalog and the partitioning, enough to plan again in another
    /// process. `None` for a DAG without [`QueryDag::gsql`] and for
    /// [`crate::plan_partitioning`]'s plans.
    pub source: Option<PlanSource>,
}

/// The logical side of an [`optimize`] call, as text and knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanSource {
    /// The logical query set ([`QueryDag::gsql`]).
    pub gsql: String,
    /// The optimizer knobs.
    pub config: OptimizerConfig,
}

impl DistributedPlan {
    /// The full rendering: the physical DAG with every expression, each
    /// node's id, host and tier, then the output list. Planning is
    /// deterministic, so this text pins a plan in golden files and
    /// fingerprints it across processes.
    pub fn render(&self) -> String {
        let mut out = render_dag_annotated(&self.dag, &|id| {
            let tier = if self.central[id] { "central" } else { "leaf" };
            Some(format!("#{id} host {} {tier}", self.host[id]))
        });
        let _ = writeln!(out, "Outputs:");
        for o in &self.outputs {
            let name = o.name.as_deref().unwrap_or("<unnamed>");
            let _ = writeln!(out, "  {name} -> #{} (logical #{})", o.node, o.logical);
        }
        out
    }

    /// Renders the plan grouped by host, in the spirit of the paper's
    /// Figures 2–7 and 12.
    pub fn render_by_host(&self) -> String {
        let mut out = String::new();
        for h in 0..self.partitioning.hosts {
            let _ = writeln!(
                out,
                "Host {h}{}:",
                if h == self.partitioning.aggregator_host {
                    " (aggregator)"
                } else {
                    ""
                }
            );
            for id in self.dag.topo_order() {
                if self.host[id] != h {
                    continue;
                }
                let children = self.dag.node(id).children();
                let kids = if children.is_empty() {
                    String::new()
                } else {
                    format!(
                        " <- [{}]",
                        children
                            .iter()
                            .map(|c| c.to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                };
                let _ = writeln!(out, "  #{id} {}{kids}", self.dag.node(id).label());
            }
        }
        let _ = writeln!(out, "Outputs:");
        for o in &self.outputs {
            let name = o.name.as_deref().unwrap_or("<unnamed>");
            let _ = writeln!(out, "  {name} -> #{}", o.node);
        }
        out
    }
}

/// How a logical node is realized physically.
#[derive(Debug, Clone)]
enum Repr {
    /// One replica per partition, indexed by partition.
    Partitioned(Vec<NodeId>),
    /// A single node on the aggregator host.
    Central(NodeId),
}

struct Lowering<'a> {
    logical: &'a QueryDag,
    cfg: &'a OptimizerConfig,
    part: &'a Partitioning,
    dag: QueryDag,
    host: Vec<usize>,
    central: Vec<bool>,
    repr: Vec<Option<Repr>>,
    /// Cache of the central merge collecting a partitioned repr.
    collected: HashMap<NodeId, NodeId>,
}

impl Lowering<'_> {
    fn add(
        &mut self,
        node: LogicalNode,
        host: usize,
        central: bool,
        origin: NodeId,
    ) -> OptResult<NodeId> {
        let id = self.dag.add_node(node)?;
        debug_assert_eq!(id, self.host.len());
        self.host.push(host);
        self.central.push(central);
        self.dag.set_origin(id, origin);
        Ok(id)
    }

    /// A single physical node carrying the logical node's full stream:
    /// the central node itself, or a collecting merge over the replicas
    /// (created once, on the aggregator host).
    fn central(&mut self, logical_id: NodeId) -> OptResult<NodeId> {
        let repr = self.repr[logical_id].clone().expect("child lowered first");
        match repr {
            Repr::Central(id) => Ok(id),
            Repr::Partitioned(replicas) => {
                if let Some(&m) = self.collected.get(&logical_id) {
                    return Ok(m);
                }
                let m = self.add(
                    LogicalNode::Merge { inputs: replicas },
                    self.part.aggregator_host,
                    true,
                    logical_id,
                )?;
                self.collected.insert(logical_id, m);
                Ok(m)
            }
        }
    }
}

/// Lowers a logical DAG onto a deployed partitioning: the planner
/// decides operator placement, the emitter builds the physical plan. See
/// the crate docs for the rule set.
pub fn optimize(
    logical: &QueryDag,
    partitioning: &Partitioning,
    config: &OptimizerConfig,
) -> OptResult<DistributedPlan> {
    Ok(optimize_explained(logical, partitioning, config)?.0)
}

/// [`optimize`] plus the planner's costed account of how it decided —
/// the payload behind `qapctl --explain`.
pub fn optimize_explained(
    logical: &QueryDag,
    partitioning: &Partitioning,
    config: &OptimizerConfig,
) -> OptResult<(DistributedPlan, PlanExplanation)> {
    partitioning.validate_for(logical)?;
    let set = partitioning.strategy.effective_set();

    let outcome = qap_planner::plan(&PlannerInput {
        dag: logical,
        deployed: &set,
        agnostic: config.agnostic,
        partial_aggregation: config.partial_aggregation,
        scope: config.partial_agg_scope,
        analysis: config.analysis,
    })
    .map_err(|e| OptError::Planner(e.to_string()))?;

    let plan = emit(logical, partitioning, config, &outcome.decisions)?;
    Ok((plan, outcome.explanation))
}

/// The partition-agnostic plan of Section 5.1 / Figure 3: per-partition
/// scans merged centrally, all query processing on the aggregator.
pub fn agnostic_plan(
    logical: &QueryDag,
    partitioning: &Partitioning,
) -> OptResult<DistributedPlan> {
    let cfg = OptimizerConfig {
        agnostic: true,
        ..OptimizerConfig::default()
    };
    optimize(logical, partitioning, &cfg)
}

/// The emitter: turns per-node decisions into physical nodes. A
/// `Push`/`SubSuper` decision over a child that was lowered centrally
/// falls back to the central form (the planner never produces such
/// decisions for well-formed DAGs; the fallback keeps arbitrary
/// decision vectors safe to emit).
fn emit(
    logical: &QueryDag,
    partitioning: &Partitioning,
    config: &OptimizerConfig,
    decisions: &[NodeDecision],
) -> OptResult<DistributedPlan> {
    let mut lw = Lowering {
        logical,
        cfg: config,
        part: partitioning,
        dag: QueryDag::new(logical.catalog().clone()),
        host: Vec::new(),
        central: Vec::new(),
        repr: vec![None; logical.len()],
        collected: HashMap::new(),
    };

    for id in logical.topo_order() {
        let repr = lower_node(&mut lw, id, decisions[id])?;
        lw.repr[id] = Some(repr);
    }

    // Collect every logical root into a consumable output stream.
    let names: HashMap<NodeId, String> = logical
        .named_queries()
        .into_iter()
        .map(|(n, id)| (id, n.to_string()))
        .collect();
    let mut outputs = Vec::new();
    for root in logical.roots() {
        let node = lw.central(root)?;
        outputs.push(PlanOutput {
            name: names.get(&root).cloned(),
            logical: root,
            node,
        });
    }

    Ok(DistributedPlan {
        dag: lw.dag,
        host: lw.host,
        central: lw.central,
        outputs,
        partitioning: partitioning.clone(),
        source: logical.gsql().map(|gsql| PlanSource {
            gsql: gsql.to_string(),
            config: *config,
        }),
    })
}

/// The partitioned replicas of a child, when its decision pushed it.
fn partitioned(lw: &Lowering<'_>, child: NodeId) -> Option<Vec<NodeId>> {
    match lw.repr[child].as_ref().expect("child lowered") {
        Repr::Partitioned(v) => Some(v.clone()),
        Repr::Central(_) => None,
    }
}

fn lower_node(lw: &mut Lowering<'_>, id: NodeId, decision: NodeDecision) -> OptResult<Repr> {
    let agg_host = lw.part.aggregator_host;
    match lw.logical.node(id).clone() {
        LogicalNode::Source { stream, .. } => {
            let mut scans = Vec::with_capacity(lw.part.partitions);
            for p in 0..lw.part.partitions {
                let scan = lw.dag.add_partition_source(&stream, p as u32)?;
                debug_assert_eq!(scan, lw.host.len());
                lw.host.push(lw.part.host_of_partition(p));
                lw.central.push(false);
                lw.dag.set_origin(scan, id);
                scans.push(scan);
            }
            Ok(Repr::Partitioned(scans))
        }

        LogicalNode::SelectProject {
            input,
            predicate,
            projections,
        } => {
            // Figure 4 shape for σ/π (Section 5.4): replicate below the
            // merge when the planner pushed it.
            match partitioned(lw, input) {
                Some(replicas) if decision == NodeDecision::Push => {
                    let mut out = Vec::with_capacity(replicas.len());
                    for (p, &r) in replicas.iter().enumerate() {
                        let n = lw.add(
                            LogicalNode::SelectProject {
                                input: r,
                                predicate: predicate.clone(),
                                projections: projections.clone(),
                            },
                            lw.part.host_of_partition(p),
                            false,
                            id,
                        )?;
                        out.push(n);
                    }
                    Ok(Repr::Partitioned(out))
                }
                _ => {
                    let c = lw.central(input)?;
                    let n = lw.add(
                        LogicalNode::SelectProject {
                            input: c,
                            predicate,
                            projections,
                        },
                        agg_host,
                        true,
                        id,
                    )?;
                    Ok(Repr::Central(n))
                }
            }
        }

        LogicalNode::Aggregate {
            input,
            predicate,
            group_by,
            aggregates,
            having,
        } => {
            match (decision, partitioned(lw, input)) {
                // Figure 4: compatible aggregation pushed below the merge
                // runs complete per partition.
                (NodeDecision::Push, Some(replicas)) => {
                    let mut out = Vec::with_capacity(replicas.len());
                    for (p, &r) in replicas.iter().enumerate() {
                        let n = lw.add(
                            LogicalNode::Aggregate {
                                input: r,
                                predicate: predicate.clone(),
                                group_by: group_by.clone(),
                                aggregates: aggregates.clone(),
                                having: having.clone(),
                            },
                            lw.part.host_of_partition(p),
                            false,
                            id,
                        )?;
                        out.push(n);
                    }
                    Ok(Repr::Partitioned(out))
                }
                // Figure 5: sub-aggregates feeding a central
                // super-aggregate.
                (NodeDecision::SubSuper, Some(replicas)) => {
                    lower_partial_agg(lw, id, &replicas, predicate, &group_by, &aggregates, having)
                }
                // Complete aggregate over the centrally merged input.
                _ => {
                    let c = lw.central(input)?;
                    let n = lw.add(
                        LogicalNode::Aggregate {
                            input: c,
                            predicate,
                            group_by,
                            aggregates,
                            having,
                        },
                        agg_host,
                        true,
                        id,
                    )?;
                    Ok(Repr::Central(n))
                }
            }
        }

        LogicalNode::Join {
            left,
            right,
            left_alias,
            right_alias,
            join_type,
            temporal,
            equi,
            residual,
            projections,
        } => {
            let lrep = partitioned(lw, left);
            let rrep = partitioned(lw, right);
            match (decision, lrep, rrep) {
                // Figure 7: pairwise per-partition joins. Both inputs
                // carry the same partitioning, so partition i on the left
                // matches exactly partition i on the right — the paper's
                // unmatched-partition NULL-padding path only arises for
                // unequal partition counts, which a single splitter never
                // produces.
                (NodeDecision::Push, Some(ls), Some(rs)) if ls.len() == rs.len() => {
                    let mut out = Vec::with_capacity(ls.len());
                    for p in 0..ls.len() {
                        let n = lw.add(
                            LogicalNode::Join {
                                left: ls[p],
                                right: rs[p],
                                left_alias: left_alias.clone(),
                                right_alias: right_alias.clone(),
                                join_type,
                                temporal: temporal.clone(),
                                equi: equi.clone(),
                                residual: residual.clone(),
                                projections: projections.clone(),
                            },
                            lw.part.host_of_partition(p),
                            false,
                            id,
                        )?;
                        out.push(n);
                    }
                    Ok(Repr::Partitioned(out))
                }
                _ => {
                    let lc = lw.central(left)?;
                    let rc = lw.central(right)?;
                    let n = lw.add(
                        LogicalNode::Join {
                            left: lc,
                            right: rc,
                            left_alias,
                            right_alias,
                            join_type,
                            temporal,
                            equi,
                            residual,
                            projections,
                        },
                        agg_host,
                        true,
                        id,
                    )?;
                    Ok(Repr::Central(n))
                }
            }
        }

        LogicalNode::Merge { inputs } => {
            // A pushed union stays partitioned: partition i unions the
            // inputs' partition i.
            let vecs: Option<Vec<Vec<NodeId>>> =
                inputs.iter().map(|&i| partitioned(lw, i)).collect();
            match (decision, vecs) {
                (NodeDecision::Push, Some(vecs))
                    if !vecs.is_empty() && vecs.iter().all(|v| v.len() == lw.part.partitions) =>
                {
                    let mut out = Vec::with_capacity(lw.part.partitions);
                    for p in 0..lw.part.partitions {
                        let slice: Vec<NodeId> = vecs.iter().map(|v| v[p]).collect();
                        let n = lw.add(
                            LogicalNode::Merge { inputs: slice },
                            lw.part.host_of_partition(p),
                            false,
                            id,
                        )?;
                        out.push(n);
                    }
                    Ok(Repr::Partitioned(out))
                }
                _ => {
                    let mut central_inputs = Vec::with_capacity(inputs.len());
                    for &i in &inputs {
                        central_inputs.push(lw.central(i)?);
                    }
                    let n = lw.add(
                        LogicalNode::Merge {
                            inputs: central_inputs,
                        },
                        agg_host,
                        true,
                        id,
                    )?;
                    Ok(Repr::Central(n))
                }
            }
        }
    }
}

/// The Section 5.2.2 transformation: sub-aggregates (per partition or
/// per host) feeding a central super-aggregate. WHERE is pushed into the
/// subs; HAVING stays at the super (it "needs complete aggregate
/// values"); AVG decomposes into SUM and COUNT partials recombined by a
/// finishing projection. The decomposition itself lives in
/// [`qap_planner::partial`] — the same slots the planner's cost
/// extraction priced.
fn lower_partial_agg(
    lw: &mut Lowering<'_>,
    id: NodeId,
    replicas: &[NodeId],
    predicate: Option<ScalarExpr>,
    group_by: &[NamedExpr],
    aggregates: &[NamedAgg],
    having: Option<ScalarExpr>,
) -> OptResult<Repr> {
    let agg_host = lw.part.aggregator_host;

    let slots = partial::split_aggregates(aggregates);
    let sub_aggs = partial::sub_agg_list(&slots);

    // Inputs of the sub-aggregates, per the configured scope.
    let sub_inputs: Vec<(NodeId, usize)> = match lw.cfg.partial_agg_scope {
        PartialAggScope::PerPartition => replicas
            .iter()
            .enumerate()
            .map(|(p, &r)| (r, lw.part.host_of_partition(p)))
            .collect(),
        PartialAggScope::PerHost => {
            let mut per_host: Vec<(NodeId, usize)> = Vec::with_capacity(lw.part.hosts);
            for h in 0..lw.part.hosts {
                let mine: Vec<NodeId> = lw
                    .part
                    .partitions_of_host(h)
                    .into_iter()
                    .map(|p| replicas[p])
                    .collect();
                if mine.is_empty() {
                    continue;
                }
                let input = if mine.len() == 1 {
                    mine[0]
                } else {
                    lw.add(LogicalNode::Merge { inputs: mine }, h, false, id)?
                };
                per_host.push((input, h));
            }
            per_host
        }
    };

    let mut subs = Vec::with_capacity(sub_inputs.len());
    for (input, host) in sub_inputs {
        let n = lw.add(
            LogicalNode::Aggregate {
                input,
                predicate: predicate.clone(),
                group_by: group_by.to_vec(),
                aggregates: sub_aggs.clone(),
                having: None,
            },
            host,
            false,
            id,
        )?;
        subs.push(n);
    }

    // Central merge of partials, then the super-aggregate.
    let merged = lw.add(LogicalNode::Merge { inputs: subs }, agg_host, true, id)?;
    let super_group: Vec<NamedExpr> = group_by
        .iter()
        .map(|g| NamedExpr::passthrough(g.name.clone()))
        .collect();
    let super_aggs = partial::super_agg_list(&slots);

    let needs_finish = partial::needs_finish(&slots);
    let super_having = if needs_finish { None } else { having.clone() };
    let mut node = lw.add(
        LogicalNode::Aggregate {
            input: merged,
            predicate: None,
            group_by: super_group.clone(),
            aggregates: super_aggs,
            having: super_having,
        },
        agg_host,
        true,
        id,
    )?;

    if needs_finish {
        // Recombine AVG partials and restore the original column set.
        let mut projections: Vec<NamedExpr> = super_group
            .iter()
            .map(|g| NamedExpr::passthrough(g.name.clone()))
            .collect();
        for s in &slots {
            match s.finish {
                qap_expr::FinishOp::First => {
                    projections.push(NamedExpr::passthrough(s.partials[0].name.clone()));
                }
                qap_expr::FinishOp::DivSumCount => {
                    projections.push(NamedExpr::new(
                        s.name.clone(),
                        ScalarExpr::col(s.partials[0].name.clone()).binary(
                            qap_expr::BinOp::Div,
                            ScalarExpr::col(s.partials[1].name.clone()),
                        ),
                    ));
                }
            }
        }
        node = lw.add(
            LogicalNode::SelectProject {
                input: node,
                predicate: None,
                projections,
            },
            agg_host,
            true,
            id,
        )?;
        if let Some(h) = having {
            let all: Vec<NamedExpr> = lw
                .dag
                .schema(node)
                .fields()
                .iter()
                .map(|f| NamedExpr::passthrough(f.name()))
                .collect();
            node = lw.add(
                LogicalNode::SelectProject {
                    input: node,
                    predicate: Some(h),
                    projections: all,
                },
                agg_host,
                true,
                id,
            )?;
        }
    }

    Ok(Repr::Central(node))
}
