//! Binding a logical node's expressions to input positions: the one
//! compile step the engine's operators and the reference model
//! ([`crate::run_logical`]) share. Nothing here evaluates a tuple.

use std::sync::Arc;

use qap_expr::{
    bind, bind_with, AggFunc, AggKind, BoundExpr, ColumnRef, ExprError, ScalarExpr, Udaf,
};
use qap_plan::{JoinType, LogicalNode, NodeId, QueryDag};
use qap_types::{DataType, Field, Schema, Temporality, Value};

use crate::{ExecError, ExecResult};

/// How to create fresh per-group aggregate state.
pub(crate) enum AccFactory {
    /// Built-in aggregate.
    Builtin(AggKind),
    /// User-defined aggregate (resolved against the catalog).
    Udaf(Arc<dyn Udaf>),
}

/// One aggregate slot: state factory + optional argument (`None` is
/// `COUNT(*)`) + whether inputs are *partials* to merge (UDAF
/// super-aggregates, Section 5.2.2) rather than raw values to fold, and
/// whether the slot emits its mergeable partial state rather than its
/// finalized value (UDAF sub-aggregates). Built-in supers keep
/// `merge = false` because the optimizer rewrites their kinds so the fold
/// equals the partial merge. `out` is the plan's type for the slot's
/// value: the kind a `SUM` or an `AVG` finalizes to, and the kind of a
/// `MIN`'s or a `MAX`'s extreme.
pub(crate) struct AggSlot {
    pub(crate) factory: AccFactory,
    pub(crate) arg: Option<BoundExpr>,
    pub(crate) merge: bool,
    pub(crate) emit_partial: bool,
    pub(crate) out: DataType,
}

impl AggSlot {
    /// The kinds of the slot's migration state values: a `SUM`'s and an
    /// `AVG`'s words are unsigned, any other state value has the slot's
    /// kind.
    fn state_types(&self) -> impl Iterator<Item = DataType> {
        match self.factory {
            AccFactory::Builtin(k @ (AggKind::Sum | AggKind::Avg)) => {
                std::iter::repeat_n(DataType::UInt, qap_expr::state_width(k))
            }
            _ => std::iter::repeat_n(self.out, 1),
        }
    }

    /// A UDAF's value — final or partial — as the slot's: the plan types
    /// every UDAF `uint`, so a value of another kind is a typed error at
    /// the slot, never a lane of another kind.
    pub(crate) fn udaf_value(&self, v: Value) -> ExecResult<Value> {
        match (&self.factory, v) {
            (AccFactory::Udaf(u), v @ (Value::Int(_) | Value::Bool(_) | Value::Str(_))) => {
                Err(ExecError::Expr(ExprError::TypeMismatch {
                    op: "UDAF",
                    detail: format!("{} returned {v:?}, which the plan types uint", u.name()),
                }))
            }
            (_, v) => Ok(v),
        }
    }
}

/// The most group keys a γ, or equi-keys a ⋈, takes: a key read as
/// words flags each NULL key in one mask word.
pub(crate) const MAX_GROUP_KEYS: usize = 64;

/// A bound tumbling-window aggregation (γ).
pub(crate) struct BoundAggregate {
    /// WHERE over the input row.
    pub(crate) predicate: Option<BoundExpr>,
    /// Group-key expressions over the input row.
    pub(crate) group_by: Vec<BoundExpr>,
    /// Position within the group key of the window attribute: the first
    /// temporal group column of the output schema.
    pub(crate) temporal_idx: usize,
    pub(crate) slots: Vec<AggSlot>,
    /// HAVING over the output row (group key, then one value per slot).
    pub(crate) having: Option<BoundExpr>,
    /// The columns of a migration state row: the group key's, then
    /// each slot's state values, named after the slot.
    pub(crate) state_fields: Vec<Field>,
}

/// A bound epoch equi-join (⋈): left epoch = right epoch + `offset`.
pub(crate) struct BoundJoin {
    /// Temporal attribute position in each side's schema.
    pub(crate) left_temporal: usize,
    pub(crate) right_temporal: usize,
    /// Equi-key expressions over each side's schema, pairwise equal.
    pub(crate) left_key: Vec<BoundExpr>,
    pub(crate) right_key: Vec<BoundExpr>,
    pub(crate) offset: i64,
    pub(crate) join_type: JoinType,
    /// Residual and projections over the concatenated (left ++ right)
    /// row.
    pub(crate) residual: Option<BoundExpr>,
    pub(crate) projections: Vec<BoundExpr>,
    pub(crate) left_arity: usize,
    pub(crate) right_arity: usize,
}

/// One logical node with its expressions bound.
pub(crate) enum BoundNode {
    Source,
    Select {
        predicate: Option<BoundExpr>,
        projections: Vec<BoundExpr>,
    },
    Aggregate(BoundAggregate),
    Join(BoundJoin),
    /// ∪ of `ports` same-schema inputs, aligned on the temporal
    /// attribute at `temporal_idx`.
    Merge {
        ports: usize,
        temporal_idx: usize,
    },
}

/// Binds node `id` of `dag`.
pub(crate) fn bind_node(dag: &QueryDag, id: NodeId) -> ExecResult<BoundNode> {
    Ok(match dag.node(id) {
        LogicalNode::Source { .. } => BoundNode::Source,
        LogicalNode::SelectProject {
            input,
            predicate,
            projections,
        } => {
            let in_schema = dag.schema(*input);
            BoundNode::Select {
                predicate: predicate.as_ref().map(|p| bind(p, in_schema)).transpose()?,
                projections: projections
                    .iter()
                    .map(|ne| bind(&ne.expr, in_schema))
                    .collect::<Result<_, _>>()?,
            }
        }
        LogicalNode::Aggregate {
            input,
            predicate,
            group_by,
            aggregates,
            having,
        } => {
            let in_schema = dag.schema(*input);
            let out_schema = dag.schema(id);
            if group_by.len() > MAX_GROUP_KEYS {
                return Err(ExecError::BadPlan(format!(
                    "aggregate node {id} has {} group keys, more than {MAX_GROUP_KEYS}",
                    group_by.len()
                )));
            }
            let temporal_idx = out_schema.fields()[..group_by.len()]
                .iter()
                .position(|f| f.temporality() != Temporality::None)
                .ok_or_else(|| {
                    ExecError::BadPlan(format!(
                        "aggregate node {id} has no temporal group attribute"
                    ))
                })?;
            let slots: Vec<AggSlot> = aggregates
                .iter()
                .zip(&out_schema.fields()[group_by.len()..])
                .map(|(a, field)| {
                    let factory = match &a.call.func {
                        AggFunc::Builtin(kind) => AccFactory::Builtin(*kind),
                        AggFunc::Udaf(name) => {
                            let udaf = dag.catalog().udafs().get(name).ok_or_else(|| {
                                ExecError::Expr(qap_expr::ExprError::UnknownUdaf(name.clone()))
                            })?;
                            AccFactory::Udaf(udaf.clone())
                        }
                    };
                    Ok(AggSlot {
                        factory,
                        arg: a
                            .call
                            .arg
                            .as_ref()
                            .map(|e| bind(e, in_schema))
                            .transpose()?,
                        merge: a.call.merge,
                        emit_partial: a.call.emit_partial,
                        out: field.data_type(),
                    })
                })
                .collect::<ExecResult<_>>()?;
            let (key_fields, slot_fields) = out_schema.fields().split_at(group_by.len());
            let state_fields = key_fields.iter().cloned().chain(
                (slots.iter().zip(slot_fields))
                    .flat_map(|(s, f)| s.state_types().map(|t| Field::new(f.name(), t))),
            );
            let state_fields = state_fields.collect();
            BoundNode::Aggregate(BoundAggregate {
                predicate: predicate.as_ref().map(|p| bind(p, in_schema)).transpose()?,
                group_by: group_by
                    .iter()
                    .map(|g| bind(&g.expr, in_schema))
                    .collect::<Result<_, _>>()?,
                temporal_idx,
                slots,
                having: having.as_ref().map(|h| bind(h, out_schema)).transpose()?,
                state_fields,
            })
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
            let ls = dag.schema(*left);
            let rs = dag.schema(*right);
            if equi.len() > MAX_GROUP_KEYS {
                return Err(ExecError::BadPlan(format!(
                    "join node {id} has {} equi-keys, more than {MAX_GROUP_KEYS}",
                    equi.len()
                )));
            }
            let temporal_of = |c: &ColumnRef, schema: &Schema, alias: &str| {
                resolve_in(c, schema, alias)
                    .ok_or_else(|| ExecError::BadPlan(format!("temporal column {c} unresolved")))
            };
            let concat = |c: &ColumnRef| -> Option<usize> {
                match &c.qualifier {
                    Some(q) if q.eq_ignore_ascii_case(left_alias) => ls.index_of(&c.name),
                    Some(q) if q.eq_ignore_ascii_case(right_alias) => {
                        rs.index_of(&c.name).map(|i| ls.arity() + i)
                    }
                    Some(_) => None,
                    None => match (ls.index_of(&c.name), rs.index_of(&c.name)) {
                        (Some(i), _) => Some(i),
                        (None, Some(i)) => Some(ls.arity() + i),
                        (None, None) => None,
                    },
                }
            };
            BoundNode::Join(BoundJoin {
                left_temporal: temporal_of(&temporal.left, ls, left_alias)?,
                right_temporal: temporal_of(&temporal.right, rs, right_alias)?,
                left_key: equi
                    .iter()
                    .map(|(le, _)| bind_side(le, ls, left_alias))
                    .collect::<ExecResult<_>>()?,
                right_key: equi
                    .iter()
                    .map(|(_, re)| bind_side(re, rs, right_alias))
                    .collect::<ExecResult<_>>()?,
                offset: temporal.offset,
                join_type: *join_type,
                residual: residual
                    .as_ref()
                    .map(|r| bind_with(r, &concat))
                    .transpose()?,
                projections: projections
                    .iter()
                    .map(|ne| bind_with(&ne.expr, &concat))
                    .collect::<Result<_, _>>()?,
                left_arity: ls.arity(),
                right_arity: rs.arity(),
            })
        }
        LogicalNode::Merge { inputs } => BoundNode::Merge {
            ports: inputs.len(),
            temporal_idx: dag
                .schema(id)
                .fields()
                .iter()
                .position(|f| f.temporality() != Temporality::None)
                .ok_or_else(|| {
                    ExecError::BadPlan(format!("merge node {id} lacks a temporal attribute"))
                })?,
        },
    })
}

/// Resolves a (possibly alias-qualified) column in one side's schema.
fn resolve_in(c: &ColumnRef, schema: &Schema, alias: &str) -> Option<usize> {
    match &c.qualifier {
        Some(q) if q.eq_ignore_ascii_case(alias) => schema.index_of(&c.name),
        Some(_) => None,
        None => schema.index_of(&c.name),
    }
}

/// Binds a one-sided join expression against that side's schema,
/// accepting the side's alias as qualifier.
fn bind_side(e: &ScalarExpr, schema: &Schema, alias: &str) -> ExecResult<BoundExpr> {
    Ok(bind_with(e, &|c: &ColumnRef| resolve_in(c, schema, alias))?)
}
