//! Plan explanation: the winning rewrite chain and the costed
//! alternatives of every logical node, rendered for `qapctl --explain`.

use std::fmt::Write as _;

use qap_plan::NodeId;

use crate::NodeDecision;

/// One realization alternative of a logical node, with its extraction
/// cost and the rewrite that introduced it.
#[derive(Debug, Clone)]
pub struct AltExplain {
    /// Human summary of the realization shape.
    pub summary: String,
    /// Rewrite rule that introduced the term (None for the seeded
    /// central form).
    pub rule: Option<&'static str>,
    /// Predicted network bytes/sec of the subtree, when extractable.
    pub net: Option<f64>,
    /// Central operators in the subtree, when extractable.
    pub central_ops: Option<u32>,
    /// Whether extraction picked this alternative.
    pub chosen: bool,
}

/// The account of one logical node.
#[derive(Debug, Clone)]
pub struct NodeExplain {
    /// Logical node id.
    pub node: NodeId,
    /// Operator label (γ, σ/π, ⋈, ∪).
    pub label: String,
    /// Compatibility requirement of the node.
    pub requirement: String,
    /// The decision extraction made.
    pub decision: NodeDecision,
    /// Every alternative the e-graph held for this node's stream.
    pub alternatives: Vec<AltExplain>,
}

/// The full planner account of one `optimize()` call.
#[derive(Debug, Clone)]
pub struct PlanExplanation {
    /// Display form of the deployed partitioning set.
    pub deployed: String,
    /// Saturation iterations.
    pub iterations: usize,
    /// Whether rewriting reached a fixpoint.
    pub saturated: bool,
    /// Per-node accounts, in topological order (sources omitted — the
    /// splitter partitions them by construction).
    pub nodes: Vec<NodeExplain>,
}

impl PlanExplanation {
    /// Renders the explanation as an indented text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Planner: deployed set {} ({} iterations, {})",
            self.deployed,
            self.iterations,
            if self.saturated {
                "saturated"
            } else {
                "iteration limit"
            }
        );
        for n in &self.nodes {
            let _ = writeln!(
                out,
                "  #{} {:<4} requires {:<28} -> {}",
                n.node,
                n.label,
                n.requirement,
                n.decision.describe()
            );
            for a in &n.alternatives {
                let cost = match (a.net, a.central_ops) {
                    (Some(net), Some(ops)) => format!("{net:.0} B/s net, {ops} central ops"),
                    _ => "not extractable".to_string(),
                };
                let rule = a.rule.map(|r| format!("  [{r}]")).unwrap_or_default();
                let _ = writeln!(
                    out,
                    "      {} {:<44} {cost}{rule}",
                    if a.chosen { "*" } else { " " },
                    a.summary,
                );
            }
        }
        out
    }
}
