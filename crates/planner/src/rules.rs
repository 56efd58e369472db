//! The rewrite catalog: the Section 5.1–5.4 plan transforms as e-graph
//! rules over [`PlanExpr`].
//!
//! Every rule matches a *central* realization `Central(op, …)` whose
//! children admit a `Collect(x)` form, and proposes an equivalent
//! central term that pushes `op` below the collecting merge:
//!
//! ```text
//! Central(op, Collect(x), …)  ≡  Collect(Lift(op, x, …))      (push)
//! Central(γ, Collect(x))      ≡  Super(γ, Collect(Sub(γ, x)))  (split)
//! ```
//!
//! Every source is split by the one deployed set, so every partitioned
//! term carries it and a rule's guard is the `qap-partition` lattice
//! asked once ([`Compatibility::allows`] on the deployed set); the rules
//! never union two partitioned terms, so the term sorts of
//! [`crate::term`] are preserved.

use egg::{EGraph, Id, Match, Rewrite, Template};
use qap_partition::{Compatibility, PartitionSet};
use qap_plan::{LogicalNode, QueryDag};

use crate::term::{OpId, PlanExpr, SubScope};

/// Rule names double as provenance labels in `--explain` output; keep
/// the paper cross-references in them.
pub const RULE_PUSH_SELECT: &str = "sigma-pi-push (Section 5.4)";
/// Figure 4 compatible aggregation push-down.
pub const RULE_PUSH_AGG: &str = "compatible-push-down (Figure 4)";
/// Figure 7 pairwise per-partition join.
pub const RULE_PAIRWISE_JOIN: &str = "pairwise-join (Figure 7)";
/// Compatible union push-down (a union of partitioned streams stays
/// partitioned).
pub const RULE_PUSH_MERGE: &str = "merge-push-down (Section 5.1)";
/// Figure 5 sub/super aggregate split.
pub const RULE_SUB_SUPER: &str = "sub-super-split (Figure 5)";

/// Shared, immutable-during-search context for every rule.
pub struct RuleCtx<'a> {
    /// The logical DAG being planned.
    pub dag: &'a QueryDag,
    /// Per-node compatibility (indexed by logical node id).
    pub compat: &'a [Compatibility],
    /// Per-node: whether all its aggregates split into sub/super parts.
    pub splittable: &'a [bool],
    /// Whether the Figure 5 split is enabled.
    pub partial_aggregation: bool,
    /// Where sub-aggregates run.
    pub scope: SubScope,
    /// The partitioning set the splitter deploys: every source is split
    /// by it, so every partitioned term carries it.
    pub deployed: &'a PartitionSet,
}

impl RuleCtx<'_> {
    /// Whether logical node `op` tolerates the deployed set (the
    /// compat-lattice rewrite guard).
    pub fn allows(&self, op: OpId) -> bool {
        self.compat[op as usize].allows(self.deployed)
    }
}

/// The partitioned realizations (`x` of `Collect(x)`) available in a
/// central-stream class.
fn collected_children(eg: &EGraph<PlanExpr>, class: Id) -> Vec<Id> {
    let mut out = Vec::new();
    for node in &eg.class(eg.find(class)).nodes {
        if let PlanExpr::Collect { child } = node {
            let x = eg.find(child[0]);
            if !out.contains(&x) {
                out.push(x);
            }
        }
    }
    out
}

/// The push match: `class ≡ Collect(Lift(op, xs…))` — `op` replicated
/// per partition over the partitioned realizations `xs` of its inputs,
/// below the collecting merge.
fn pushed(class: Id, op: OpId, xs: &[Id]) -> Match<PlanExpr> {
    let mut t = Template::new();
    let children = xs.iter().map(|&x| t.class(x)).collect();
    let l = t.node(PlanExpr::Lift { op, children });
    t.node(PlanExpr::Collect { child: [l] });
    Match { class, template: t }
}

/// Matches `Central(op, …)` nodes of one logical kind, handing each to
/// `f` along with its canonical class.
fn for_each_central<F>(eg: &EGraph<PlanExpr>, mut f: F)
where
    F: FnMut(Id, OpId, &[Id]),
{
    for class in eg.classes() {
        for node in &class.nodes {
            if let PlanExpr::Central { op, children } = node {
                f(class.id, *op, children);
            }
        }
    }
}

/// σ/π push-down (Section 5.4): selections and projections are
/// compatible with any partitioning, so they always admit a per-
/// partition replica below the merge.
pub struct PushSelect<'a>(pub &'a RuleCtx<'a>);

impl Rewrite<PlanExpr> for PushSelect<'_> {
    fn name(&self) -> &'static str {
        RULE_PUSH_SELECT
    }

    fn search(&self, eg: &EGraph<PlanExpr>) -> Vec<Match<PlanExpr>> {
        let ctx = self.0;
        let mut out = Vec::new();
        for_each_central(eg, |class, op, children| {
            if !matches!(ctx.dag.node(op as usize), LogicalNode::SelectProject { .. }) {
                return;
            }
            for x in collected_children(eg, children[0]) {
                out.push(pushed(class, op, &[x]));
            }
        });
        out
    }
}

/// Figure 4: an aggregation compatible with the deployed set runs
/// complete per partition, below the collecting merge.
pub struct PushAggregate<'a>(pub &'a RuleCtx<'a>);

impl Rewrite<PlanExpr> for PushAggregate<'_> {
    fn name(&self) -> &'static str {
        RULE_PUSH_AGG
    }

    fn search(&self, eg: &EGraph<PlanExpr>) -> Vec<Match<PlanExpr>> {
        let ctx = self.0;
        let mut out = Vec::new();
        for_each_central(eg, |class, op, children| {
            if !matches!(ctx.dag.node(op as usize), LogicalNode::Aggregate { .. })
                || !ctx.allows(op)
            {
                return;
            }
            for x in collected_children(eg, children[0]) {
                out.push(pushed(class, op, &[x]));
            }
        });
        out
    }
}

/// Figure 5: an aggregation whose aggregates all split runs partial
/// sub-aggregates per partition (or per host) and a central super-
/// aggregate over the collected partials. No compatibility guard: the
/// split is always sound; extraction decides whether it beats
/// centralization or a full push.
pub struct SubSuperSplit<'a>(pub &'a RuleCtx<'a>);

impl Rewrite<PlanExpr> for SubSuperSplit<'_> {
    fn name(&self) -> &'static str {
        RULE_SUB_SUPER
    }

    fn search(&self, eg: &EGraph<PlanExpr>) -> Vec<Match<PlanExpr>> {
        let ctx = self.0;
        if !ctx.partial_aggregation {
            return Vec::new();
        }
        let mut out = Vec::new();
        for_each_central(eg, |class, op, children| {
            if !matches!(ctx.dag.node(op as usize), LogicalNode::Aggregate { .. })
                || !ctx.splittable[op as usize]
            {
                return;
            }
            for x in collected_children(eg, children[0]) {
                let mut t = Template::new();
                let xi = t.class(x);
                let sub = t.node(PlanExpr::Sub {
                    op,
                    scope: ctx.scope,
                    child: [xi],
                });
                let coll = t.node(PlanExpr::Collect { child: [sub] });
                t.node(PlanExpr::Super { op, child: [coll] });
                out.push(Match { class, template: t });
            }
        });
        out
    }
}

/// Figure 7: a join whose key set tolerates the deployed partitioning
/// runs pairwise per partition — partition `i` of the left joins
/// partition `i` of the right.
pub struct PairwiseJoin<'a>(pub &'a RuleCtx<'a>);

impl Rewrite<PlanExpr> for PairwiseJoin<'_> {
    fn name(&self) -> &'static str {
        RULE_PAIRWISE_JOIN
    }

    fn search(&self, eg: &EGraph<PlanExpr>) -> Vec<Match<PlanExpr>> {
        let ctx = self.0;
        let mut out = Vec::new();
        for_each_central(eg, |class, op, children| {
            if !matches!(ctx.dag.node(op as usize), LogicalNode::Join { .. }) || !ctx.allows(op) {
                return;
            }
            let rs = collected_children(eg, children[1]);
            for lx in collected_children(eg, children[0]) {
                for &rx in &rs {
                    out.push(pushed(class, op, &[lx, rx]));
                }
            }
        });
        out
    }
}

/// Union push-down: a merge whose inputs are all partitioned merges
/// partition-wise and stays partitioned.
pub struct PushMerge<'a>(pub &'a RuleCtx<'a>);

impl Rewrite<PlanExpr> for PushMerge<'_> {
    fn name(&self) -> &'static str {
        RULE_PUSH_MERGE
    }

    fn search(&self, eg: &EGraph<PlanExpr>) -> Vec<Match<PlanExpr>> {
        let ctx = self.0;
        let mut out = Vec::new();
        for_each_central(eg, |class, op, children| {
            if !matches!(ctx.dag.node(op as usize), LogicalNode::Merge { .. }) {
                return;
            }
            let Some(first) = children.first() else {
                return;
            };
            // Every other input must offer a partitioned realization too.
            let rest: Option<Vec<Id>> = children[1..]
                .iter()
                .map(|&c| collected_children(eg, c).first().copied())
                .collect();
            let Some(rest) = rest else {
                return;
            };
            for x0 in collected_children(eg, *first) {
                let mut picks = vec![x0];
                picks.extend(&rest);
                out.push(pushed(class, op, &picks));
            }
        });
        out
    }
}
