#![warn(missing_docs)]

//! Scalar expressions, aggregate functions, and the expression analysis
//! underpinning query-aware partitioning.
//!
//! Three concerns live here:
//!
//! 1. **Representation & evaluation** ([`ScalarExpr`], [`BoundExpr`]):
//!    the expression language of GSQL's SELECT / WHERE / GROUP BY /
//!    HAVING clauses, bound against a schema into position-resolved
//!    form. The engine evaluates it a batch at a time over typed lanes
//!    ([`Filter`], [`Projection`]); `BoundExpr::eval`, one tuple at a
//!    time, is the reference model's.
//! 2. **Transform analysis** ([`ColumnTransform`], [`analyze_transform`]):
//!    recognizing expressions of the shapes the paper's
//!    `Reconcile_Partn_Sets` reasons about — `col`, `col / k`,
//!    `col & mask` and their compositions — so two partitioning
//!    requirements can be merged into their least common coarsening
//!    (Section 4.1: `time/60` ⊓ `time/90` = `time/180`,
//!    `srcIP` ⊓ `srcIP & 0xFFF0` = `srcIP & 0xFFF0`).
//! 3. **Aggregates** ([`AggKind`], [`Accumulator`], [`WordAgg`],
//!    [`split_agg`]): the built-in aggregate functions including the
//!    paper's `OR_AGGR`, the reference [`Accumulator`] the model runs,
//!    every built-in's state as `u64` words for the engine's group
//!    tables, and the sub/super-aggregate decomposition used by the
//!    optimizer's partial-aggregation transformation (Section 5.2.2).

mod agg;
mod analysis;
mod bound;
mod error;
mod kernel;
mod scalar;

pub use agg::{
    agg_output_type, make_accumulator, split_agg, state_width, Accumulator, AggCall, AggFunc,
    AggKind, FinishOp, SplitAgg, WordAgg,
};
pub use analysis::{analyze_transform, AnalyzedExpr, ColumnTransform};
pub use bound::{bind, bind_with, BoundExpr, Resolver};
pub use error::{ExprError, ExprResult};
pub use kernel::{Filter, KernelScratch, LaneKind, Projection, LANE_KINDS};
pub use scalar::{BinOp, ColumnRef, ScalarExpr, UnOp};
// Re-exported so downstream crates keep a single import path for the
// aggregate machinery.
pub use qap_types::{Udaf, UdafRegistry, UdafState};
