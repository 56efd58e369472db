#![warn(missing_docs)]

//! Logical streaming query plans.
//!
//! A *query set* (Section 4 of the paper) is a DAG of basic streaming
//! query nodes — selection/projection, aggregation, join, and merge
//! (stream union) — rooted at one or more named queries and reading from
//! base stream sources. "Even though most real systems also use more
//! complicated streaming operators, we can always express them using a
//! combination of basic query nodes."
//!
//! The DAG here is the *logical* plan: what to compute, with expressions
//! still in named (unbound) form. The partition analyzer
//! (`qap-partition`) reads it to infer compatible partitioning sets; the
//! distributed optimizer (`qap-optimizer`) lowers it to a physical,
//! host-annotated plan.

mod dag;
mod display;
mod error;
mod node;
mod provenance;

pub use dag::{infer_type, NodeId, QueryDag};
pub use display::{render_dag, render_dag_annotated};
pub use error::{PlanError, PlanResult};
pub use node::{JoinType, LogicalNode, NamedAgg, NamedExpr, TemporalJoin};
pub use provenance::{source_expr, source_exprs_for_node};
