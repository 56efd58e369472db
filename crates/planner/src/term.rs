//! The planner's term language: logical operators *and* their
//! partition/placement annotations in one IR.
//!
//! Every logical node of the input [`qap_plan::QueryDag`] is referenced
//! by its stable [`qap_plan::NodeId`] (as `op`); the e-graph reasons about *how*
//! each operator is realized, not *what* it computes. Terms are sorted
//! by construction into two families:
//!
//! - **partitioned streams** — [`PlanExpr::Part`] (a source split by the
//!   deployed partitioning set), [`PlanExpr::Lift`] (an operator replicated per
//!   partition: Figure 4 compatible push-down, Figure 7 pairwise join,
//!   Section 5.4 σ/π push), and [`PlanExpr::Sub`] (the sub-aggregate of
//!   the Figure 5 split);
//! - **central streams** — [`PlanExpr::Collect`] (the merge that ships a
//!   partitioned stream to the aggregator host), [`PlanExpr::Central`]
//!   (an operator over collected inputs), and [`PlanExpr::Super`] (the
//!   super-aggregate over collected partials).
//!
//! Rewrites only ever union central-sorted terms, so a class never mixes
//! the two families and the per-partition structure stays acyclic.

use egg::{Id, Language};

/// Logical node id inside the source DAG (fits `qap_plan::NodeId`).
pub type OpId = u32;

/// Where incompatible aggregations compute their partial (sub-)
/// aggregates (`qap-optimizer` re-exports this as `PartialAggScope`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SubScope {
    /// One sub-aggregate per partition — what a query-independent
    /// box-splitting DSMS does (the paper's *Naive* configuration).
    #[default]
    PerPartition,
    /// One sub-aggregate per host, merging the host's partitions first —
    /// the paper's *Optimized* configuration (Figure 5).
    PerHost,
}

/// One e-node of the plan-term language.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PlanExpr {
    /// A base source split by the deployed partitioning set.
    /// Partition-sorted.
    Part {
        /// Logical source node.
        op: OpId,
    },
    /// An operator replicated across every partition of its (already
    /// partitioned) children. Partition-sorted.
    Lift {
        /// Logical node being replicated.
        op: OpId,
        /// Partitioned child streams.
        children: Vec<Id>,
    },
    /// The sub-aggregate of the Section 5.2.2 split, running over a
    /// partitioned child. Partition-sorted.
    Sub {
        /// Logical aggregate node being split.
        op: OpId,
        /// Where the subs run.
        scope: SubScope,
        /// Partitioned child stream.
        child: [Id; 1],
    },
    /// The collecting merge shipping a partitioned stream to the
    /// aggregator host. Central-sorted.
    Collect {
        /// Partitioned child stream.
        child: [Id; 1],
    },
    /// An operator evaluated centrally over collected children.
    /// Central-sorted.
    Central {
        /// Logical node.
        op: OpId,
        /// Central child streams.
        children: Vec<Id>,
    },
    /// The super-aggregate folding collected partials (Figure 5).
    /// Central-sorted.
    Super {
        /// Logical aggregate node being finished.
        op: OpId,
        /// Collected sub-aggregate stream.
        child: [Id; 1],
    },
}

impl Language for PlanExpr {
    fn children(&self) -> &[Id] {
        match self {
            PlanExpr::Part { .. } => &[],
            PlanExpr::Lift { children, .. } | PlanExpr::Central { children, .. } => children,
            PlanExpr::Sub { child, .. }
            | PlanExpr::Collect { child }
            | PlanExpr::Super { child, .. } => child,
        }
    }

    fn children_mut(&mut self) -> &mut [Id] {
        match self {
            PlanExpr::Part { .. } => &mut [],
            PlanExpr::Lift { children, .. } | PlanExpr::Central { children, .. } => children,
            PlanExpr::Sub { child, .. }
            | PlanExpr::Collect { child }
            | PlanExpr::Super { child, .. } => child,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_cover_every_variant() {
        let part = PlanExpr::Part { op: 0 };
        assert!(part.children().is_empty());

        let lift = PlanExpr::Lift {
            op: 1,
            children: vec![Id::from(0usize), Id::from(1usize)],
        };
        assert_eq!(lift.children().len(), 2);

        let collect = PlanExpr::Collect {
            child: [Id::from(0usize)],
        };
        assert_eq!(collect.children(), &[Id::from(0usize)]);

        let sup = PlanExpr::Super {
            op: 3,
            child: [Id::from(2usize)],
        };
        assert_eq!(sup.children().len(), 1);
    }
}
