//! Logical plan node types.

use std::fmt;

use qap_expr::{AggCall, ColumnRef, ScalarExpr};

use crate::dag::NodeId;

/// A named output column computed by a scalar expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NamedExpr {
    /// Output column name.
    pub name: String,
    /// Defining expression over the input schema.
    pub expr: ScalarExpr,
}

impl NamedExpr {
    /// Creates a named expression.
    pub fn new(name: impl Into<String>, expr: ScalarExpr) -> Self {
        NamedExpr {
            name: name.into(),
            expr,
        }
    }

    /// Pass-through column: `name` projects input column `name`.
    pub fn passthrough(name: impl Into<String>) -> Self {
        let name = name.into();
        NamedExpr {
            expr: ScalarExpr::col(name.clone()),
            name,
        }
    }
}

impl fmt::Display for NamedExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let ScalarExpr::Column(c) = &self.expr {
            if c.qualifier.is_none() && c.name.eq_ignore_ascii_case(&self.name) {
                return write!(f, "{}", self.name);
            }
        }
        write!(f, "{} as {}", self.expr, self.name)
    }
}

/// A named aggregate output column.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NamedAgg {
    /// Output column name.
    pub name: String,
    /// The aggregate call.
    pub call: AggCall,
}

impl NamedAgg {
    /// Creates a named aggregate.
    pub fn new(name: impl Into<String>, call: AggCall) -> Self {
        NamedAgg {
            name: name.into(),
            call,
        }
    }
}

impl fmt::Display for NamedAgg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} as {}", self.call, self.name)
    }
}

/// Join flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinType {
    /// Inner equi-join.
    Inner,
    /// Left outer join (unmatched left rows padded with NULLs).
    LeftOuter,
    /// Right outer join.
    RightOuter,
    /// Full outer join.
    FullOuter,
}

impl fmt::Display for JoinType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JoinType::Inner => "JOIN",
            JoinType::LeftOuter => "LEFT OUTER JOIN",
            JoinType::RightOuter => "RIGHT OUTER JOIN",
            JoinType::FullOuter => "FULL OUTER JOIN",
        };
        f.write_str(s)
    }
}

/// The temporal alignment predicate of a tumbling-window join:
/// `left.column = right.column + offset` on epoch-valued ordered
/// attributes. `flow_pairs`' `S1.tb = S2.tb + 1` has `offset = 1`,
/// meaning each left epoch `e` joins right epoch `e - 1`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TemporalJoin {
    /// Ordered attribute on the left input.
    pub left: ColumnRef,
    /// Ordered attribute on the right input.
    pub right: ColumnRef,
    /// Epoch offset: left epoch = right epoch + offset.
    pub offset: i64,
}

impl fmt::Display for TemporalJoin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.offset == 0 {
            write!(f, "{} = {}", self.left, self.right)
        } else if self.offset > 0 {
            write!(f, "{} = {} + {}", self.left, self.right, self.offset)
        } else {
            write!(f, "{} = {} - {}", self.left, self.right, -self.offset)
        }
    }
}

/// A basic streaming query node (Section 4.2: "each query node is a
/// basic streaming query — selection/projection, union, aggregation,
/// and join").
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalNode {
    /// A base stream read (leaf). In a *logical* plan `partition` is
    /// `None` (the whole stream); the distributed optimizer lowers each
    /// source into one `Source { partition: Some(i) }` scan per split
    /// produced by the partitioning hardware (Section 5.1).
    Source {
        /// Catalog name of the stream.
        stream: String,
        /// Partition index this scan consumes, when partitioned.
        partition: Option<u32>,
    },
    /// Filter + projection (σ/π). Always partition-compatible.
    SelectProject {
        /// Input node.
        input: NodeId,
        /// Conjunctive filter over the input schema, if any.
        predicate: Option<ScalarExpr>,
        /// Output columns.
        projections: Vec<NamedExpr>,
    },
    /// Tumbling-window aggregation (γ).
    Aggregate {
        /// Input node.
        input: NodeId,
        /// WHERE predicate over the *input* schema (pushable to
        /// sub-aggregates, Section 5.2.2).
        predicate: Option<ScalarExpr>,
        /// Grouping expressions; at least one must be temporal.
        group_by: Vec<NamedExpr>,
        /// Aggregate output columns.
        aggregates: Vec<NamedAgg>,
        /// HAVING predicate over the *output* schema (group columns and
        /// aggregate results); must be evaluated on complete aggregates.
        having: Option<ScalarExpr>,
    },
    /// Tumbling-window two-way equi-join (⋈).
    Join {
        /// Left input node.
        left: NodeId,
        /// Right input node.
        right: NodeId,
        /// FROM-clause alias of the left input (qualifier resolution).
        left_alias: String,
        /// FROM-clause alias of the right input.
        right_alias: String,
        /// Join flavor.
        join_type: JoinType,
        /// Temporal alignment predicate (required, Section 3.1).
        temporal: TemporalJoin,
        /// Non-temporal equality predicates: `(left expr, right expr)`
        /// pairs, each side a scalar expression over one input.
        equi: Vec<(ScalarExpr, ScalarExpr)>,
        /// Residual predicates over the concatenated schema.
        residual: Option<ScalarExpr>,
        /// Output columns over the concatenated (qualified) schema.
        projections: Vec<NamedExpr>,
    },
    /// Stream union (∪) of same-schema inputs. Inserted by the
    /// distributed optimizer; also expressible directly in a query set.
    Merge {
        /// Input nodes (non-empty, schemas must match in arity/types).
        inputs: Vec<NodeId>,
    },
}

impl LogicalNode {
    /// Child node ids in evaluation order.
    pub fn children(&self) -> Vec<NodeId> {
        match self {
            LogicalNode::Source { .. } => vec![],
            LogicalNode::SelectProject { input, .. } | LogicalNode::Aggregate { input, .. } => {
                vec![*input]
            }
            LogicalNode::Join { left, right, .. } => vec![*left, *right],
            LogicalNode::Merge { inputs } => inputs.clone(),
        }
    }

    /// Short operator label for plan rendering (γ, σ, ⋈, ∪).
    pub fn label(&self) -> String {
        match self {
            LogicalNode::Source { stream, partition } => match partition {
                Some(p) => format!("SOURCE {stream}[{p}]"),
                None => format!("SOURCE {stream}"),
            },
            LogicalNode::SelectProject { .. } => "σ/π".to_string(),
            LogicalNode::Aggregate { .. } => "γ".to_string(),
            LogicalNode::Join { join_type, .. } => match join_type {
                JoinType::Inner => "⋈".to_string(),
                _ => format!("⋈ ({join_type})"),
            },
            LogicalNode::Merge { .. } => "∪".to_string(),
        }
    }

    /// Whether this node is a leaf query node: a non-source node all of
    /// whose inputs are sources. The optimal-partitioning search seeds
    /// its candidates from these (Section 4.2.2's first heuristic).
    pub fn is_source(&self) -> bool {
        matches!(self, LogicalNode::Source { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn named_expr_display_elides_trivial_alias() {
        assert_eq!(NamedExpr::passthrough("srcIP").to_string(), "srcIP");
        let e = NamedExpr::new("tb", ScalarExpr::col("time").div(60));
        assert_eq!(e.to_string(), "time / 60 as tb");
    }

    #[test]
    fn temporal_join_display() {
        let tj = TemporalJoin {
            left: ColumnRef::qualified("S1", "tb"),
            right: ColumnRef::qualified("S2", "tb"),
            offset: 1,
        };
        assert_eq!(tj.to_string(), "S1.tb = S2.tb + 1");
        let tj0 = TemporalJoin {
            offset: 0,
            ..tj.clone()
        };
        assert_eq!(tj0.to_string(), "S1.tb = S2.tb");
        let tjn = TemporalJoin { offset: -2, ..tj };
        assert_eq!(tjn.to_string(), "S1.tb = S2.tb - 2");
    }

    #[test]
    fn children_per_node_kind() {
        let src = LogicalNode::Source {
            stream: "TCP".into(),
            partition: None,
        };
        assert!(src.children().is_empty());
        let agg = LogicalNode::Aggregate {
            input: 0,
            predicate: None,
            group_by: vec![],
            aggregates: vec![NamedAgg::new("cnt", AggCall::count_star())],
            having: None,
        };
        assert_eq!(agg.children(), vec![0]);
        let merge = LogicalNode::Merge { inputs: vec![1, 2] };
        assert_eq!(merge.children(), vec![1, 2]);
    }
}
