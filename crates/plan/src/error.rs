//! Plan-construction errors.

use std::fmt;

use qap_expr::ExprError;
use qap_types::TypeError;

/// Errors raised while assembling or validating a query DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A node referenced a child id that does not exist (or would create
    /// a cycle — children must precede parents).
    BadChild {
        /// The offending child id.
        child: usize,
        /// Number of nodes currently in the DAG.
        len: usize,
    },
    /// A named query was registered twice.
    DuplicateQueryName(String),
    /// A projection/grouping produced an invalid output schema.
    Schema(TypeError),
    /// An expression failed to resolve against its input schema.
    Expr(ExprError),
    /// An aggregation query without any temporal grouping attribute: the
    /// tumbling window would never close.
    NoWindow {
        /// Name of the offending query (or node description).
        query: String,
    },
    /// A join without a temporal equality predicate (Section 3.1: a join
    /// "must contain a join predicate ... which relates a timestamp field
    /// from R to one in S").
    NoTemporalJoinPredicate {
        /// Name of the offending query.
        query: String,
    },
    /// A merge node with no inputs.
    EmptyMerge,
    /// A merge input whose columns are not the first input's in number
    /// and type: a union carries one schema.
    MergeMismatch {
        /// The input's node id.
        input: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::BadChild { child, len } => {
                write!(f, "child node {child} out of range (DAG has {len} nodes)")
            }
            PlanError::DuplicateQueryName(name) => {
                write!(f, "query '{name}' already defined")
            }
            PlanError::Schema(e) => write!(f, "schema error: {e}"),
            PlanError::Expr(e) => write!(f, "expression error: {e}"),
            PlanError::NoWindow { query } => {
                write!(
                    f,
                    "query '{query}' aggregates without a temporal group-by attribute; \
                     the tumbling window would never close"
                )
            }
            PlanError::NoTemporalJoinPredicate { query } => {
                write!(
                    f,
                    "join query '{query}' lacks a temporal equality predicate relating \
                     ordered attributes of its inputs"
                )
            }
            PlanError::EmptyMerge => write!(f, "merge node requires at least one input"),
            PlanError::MergeMismatch { input } => write!(
                f,
                "merge input node {input} differs from the first input in column count or type"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<TypeError> for PlanError {
    fn from(e: TypeError) -> Self {
        PlanError::Schema(e)
    }
}

impl From<ExprError> for PlanError {
    fn from(e: ExprError) -> Self {
        PlanError::Expr(e)
    }
}

/// Result alias for this crate.
pub type PlanResult<T> = Result<T, PlanError>;
