//! Semantic analysis: lowering parsed SELECTs into plan-DAG nodes.

use qap_expr::{AggCall, AggKind, ColumnRef, ScalarExpr};
use qap_plan::{
    infer_type, JoinType, LogicalNode, NamedAgg, NamedExpr, NodeId, QueryDag, TemporalJoin,
};
use qap_types::Catalog;
use qap_types::Schema;

use crate::ast::{AstExpr, SelectStmt};
use crate::{SqlError, SqlResult};

/// Lowers a parsed statement into `dag`, returning the node implementing
/// it. `name`, when given, registers the node as a named query that
/// later FROM clauses can reference.
pub(crate) fn analyze_into(
    dag: &mut QueryDag,
    name: Option<&str>,
    stmt: &SelectStmt,
) -> SqlResult<NodeId> {
    let node = match stmt.from.len() {
        1 => analyze_single_source(dag, stmt)?,
        2 => analyze_join(dag, stmt)?,
        n => {
            return Err(SqlError::Analyze(format!(
                "FROM lists {n} sources; 1 or 2 supported"
            )))
        }
    };
    if let Some(name) = name {
        dag.name_query(name, node)?;
    }
    Ok(node)
}

/// Resolves a FROM name to a node: a previously defined named query, or
/// a base stream from the catalog.
fn resolve_from(dag: &mut QueryDag, name: &str) -> SqlResult<NodeId> {
    if let Some(id) = dag.query_node(name) {
        return Ok(id);
    }
    if dag.catalog().contains(name) {
        return Ok(dag.add_source(name)?);
    }
    Err(SqlError::Analyze(format!(
        "FROM references '{name}', which is neither a base stream nor a defined query"
    )))
}

// ---------------------------------------------------------------------
// single-source queries (selection/projection and aggregation)
// ---------------------------------------------------------------------

fn analyze_single_source(dag: &mut QueryDag, stmt: &SelectStmt) -> SqlResult<NodeId> {
    let input = resolve_from(dag, &stmt.from[0].name)?;
    let has_aggs = stmt.items.iter().any(|i| i.expr.contains_agg())
        || stmt.having.as_ref().is_some_and(|h| h.contains_agg());
    if stmt.group_by.is_empty() && !has_aggs {
        if stmt.having.is_some() {
            return Err(SqlError::Analyze("HAVING requires GROUP BY".into()));
        }
        return analyze_select_project(dag, input, stmt);
    }
    analyze_aggregation(dag, input, stmt)
}

fn analyze_select_project(
    dag: &mut QueryDag,
    input: NodeId,
    stmt: &SelectStmt,
) -> SqlResult<NodeId> {
    let predicate = stmt.where_clause.as_ref().map(to_scalar).transpose()?;
    let mut names = NameDeduper::default();
    let projections = stmt
        .items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let expr = to_scalar(&item.expr)?;
            let name = names.pick(output_name(&item.alias, &item.expr, i));
            Ok(NamedExpr::new(name, expr))
        })
        .collect::<SqlResult<Vec<_>>>()?;
    Ok(dag.add_node(LogicalNode::SelectProject {
        input,
        predicate,
        projections,
    })?)
}

fn analyze_aggregation(dag: &mut QueryDag, input: NodeId, stmt: &SelectStmt) -> SqlResult<NodeId> {
    if stmt.group_by.is_empty() {
        return Err(SqlError::Analyze(
            "streaming aggregation requires GROUP BY with a temporal attribute \
             (an unwindowed aggregate would block forever)"
                .into(),
        ));
    }
    let predicate = stmt.where_clause.as_ref().map(to_scalar).transpose()?;

    // Group-by entries, named by alias / bare column / synthesized.
    let mut group_by: Vec<NamedExpr> = Vec::with_capacity(stmt.group_by.len());
    for (i, g) in stmt.group_by.iter().enumerate() {
        let expr = to_scalar(&g.expr)?;
        let name = match (&g.alias, &expr) {
            (Some(a), _) => a.clone(),
            (None, ScalarExpr::Column(c)) => c.name.clone(),
            (None, _) => format!("gb{i}"),
        };
        group_by.push(NamedExpr::new(name, expr));
    }

    // SELECT list: each item is an aggregate call or a grouping column.
    let mut aggregates: Vec<NamedAgg> = Vec::new();
    let mut output: Vec<String> = Vec::new(); // SELECT-order output column names
    let mut names = NameDeduper::default();
    for (i, item) in stmt.items.iter().enumerate() {
        if item.expr.contains_agg() {
            let AstExpr::Agg { name: fname, arg } = &item.expr else {
                return Err(SqlError::Analyze(format!(
                    "select item {i}: arithmetic over aggregates is not supported; \
                     alias the aggregate and compute in a consuming query"
                )));
            };
            let call = make_agg_call(dag.catalog(), fname, arg.as_deref())?;
            let base = match &item.alias {
                Some(a) => a.clone(),
                None => fname.to_ascii_lowercase(),
            };
            if group_by.iter().any(|g| g.name.eq_ignore_ascii_case(&base)) {
                return Err(SqlError::Analyze(format!(
                    "aggregate alias '{base}' collides with a GROUP BY column name"
                )));
            }
            let col_name = names.pick(base);
            aggregates.push(NamedAgg::new(col_name.clone(), call));
            output.push(col_name);
        } else {
            let expr = to_scalar(&item.expr)?;
            let group = match_group(&group_by, &expr).ok_or_else(|| {
                SqlError::Analyze(format!(
                    "select item '{expr}' is neither an aggregate nor a GROUP BY expression"
                ))
            })?;
            let col_name = item.alias.clone().unwrap_or_else(|| group.to_string());
            if !col_name.eq_ignore_ascii_case(group) {
                return Err(SqlError::Analyze(format!(
                    "select alias '{col_name}' conflicts with GROUP BY alias '{group}'; \
                     alias the expression in GROUP BY instead"
                )));
            }
            output.push(group.to_string());
        }
    }

    // HAVING: hoist aggregate calls into (possibly hidden) output slots.
    let having = match &stmt.having {
        Some(h) => Some(hoist_having(dag.catalog(), h, &mut aggregates)?),
        None => None,
    };

    let agg_node = dag.add_node(LogicalNode::Aggregate {
        input,
        predicate,
        group_by: group_by.clone(),
        aggregates: aggregates.clone(),
        having,
    })?;

    // Natural output is groups ++ aggregates; add a projection wrapper
    // only when SELECT asks for a different shape (dropped group
    // columns, reordering, or hidden HAVING aggregates to remove).
    let natural: Vec<String> = group_by
        .iter()
        .map(|g| g.name.clone())
        .chain(aggregates.iter().map(|a| a.name.clone()))
        .collect();
    if natural == output {
        return Ok(agg_node);
    }
    let projections = output.into_iter().map(NamedExpr::passthrough).collect();
    Ok(dag.add_node(LogicalNode::SelectProject {
        input: agg_node,
        predicate: None,
        projections,
    })?)
}

/// Finds the group-by entry a SELECT scalar item refers to, returning
/// its output name. Matches by structural expression equality or by
/// bare-column reference to the group alias.
fn match_group<'a>(group_by: &'a [NamedExpr], expr: &ScalarExpr) -> Option<&'a str> {
    for g in group_by {
        if g.expr == *expr {
            return Some(&g.name);
        }
        if let ScalarExpr::Column(c) = expr {
            if c.qualifier.is_none() && c.name.eq_ignore_ascii_case(&g.name) {
                return Some(&g.name);
            }
        }
    }
    None
}

/// Rewrites a HAVING expression, replacing each aggregate call with a
/// column reference to a matching aggregate output — appending hidden
/// `__h{i}` aggregates for calls not already in the SELECT list.
fn hoist_having(
    catalog: &Catalog,
    expr: &AstExpr,
    aggregates: &mut Vec<NamedAgg>,
) -> SqlResult<ScalarExpr> {
    match expr {
        AstExpr::Agg { name, arg } => {
            let call = make_agg_call(catalog, name, arg.as_deref())?;
            if let Some(existing) = aggregates.iter().find(|a| a.call == call) {
                return Ok(ScalarExpr::col(existing.name.clone()));
            }
            let mut n = aggregates.len();
            let hidden = loop {
                let candidate = format!("__h{n}");
                if !aggregates
                    .iter()
                    .any(|a| a.name.eq_ignore_ascii_case(&candidate))
                {
                    break candidate;
                }
                n += 1;
            };
            aggregates.push(NamedAgg::new(hidden.clone(), call));
            Ok(ScalarExpr::col(hidden))
        }
        AstExpr::Binary { op, lhs, rhs } => Ok(ScalarExpr::Binary {
            op: *op,
            lhs: Box::new(hoist_having(catalog, lhs, aggregates)?),
            rhs: Box::new(hoist_having(catalog, rhs, aggregates)?),
        }),
        AstExpr::Unary { op, expr } => Ok(ScalarExpr::Unary {
            op: *op,
            expr: Box::new(hoist_having(catalog, expr, aggregates)?),
        }),
        other => to_scalar(other),
    }
}

fn make_agg_call(catalog: &Catalog, name: &str, arg: Option<&AstExpr>) -> SqlResult<AggCall> {
    if let Some(kind) = AggKind::from_name(name) {
        return match arg {
            None => {
                if kind == AggKind::Count {
                    Ok(AggCall::count_star())
                } else {
                    Err(SqlError::Analyze(format!(
                        "{name}(*) is only valid for COUNT"
                    )))
                }
            }
            Some(a) => Ok(AggCall::new(kind, to_scalar(a)?)),
        };
    }
    // Not a built-in: resolve against the catalog's UDAF registry.
    if catalog.udafs().get(name).is_some() {
        let a =
            arg.ok_or_else(|| SqlError::Analyze(format!("{name}(*) is only valid for COUNT")))?;
        return Ok(AggCall::udaf(name, to_scalar(a)?));
    }
    Err(SqlError::Analyze(format!(
        "unknown aggregate function '{name}'"
    )))
}

// ---------------------------------------------------------------------
// join queries
// ---------------------------------------------------------------------

/// Classified WHERE conjunct of a join.
enum JoinConjunct {
    Temporal(TemporalJoin),
    Equi(ScalarExpr, ScalarExpr),
    Residual(ScalarExpr),
}

fn analyze_join(dag: &mut QueryDag, stmt: &SelectStmt) -> SqlResult<NodeId> {
    if !stmt.group_by.is_empty() || stmt.items.iter().any(|i| i.expr.contains_agg()) {
        return Err(SqlError::Analyze(
            "aggregation directly over a join is not supported; \
             name the join as a query and aggregate over it"
                .into(),
        ));
    }
    if stmt.having.is_some() {
        return Err(SqlError::Analyze(
            "HAVING on a join query is not supported (joins have no aggregates); \
             filter in WHERE, or aggregate over the join in a consuming query"
                .into(),
        ));
    }
    let left = resolve_from(dag, &stmt.from[0].name)?;
    let right = resolve_from(dag, &stmt.from[1].name)?;
    let left_alias = stmt.from[0].effective_alias().to_string();
    let right_alias = stmt.from[1].effective_alias().to_string();
    if left_alias.eq_ignore_ascii_case(&right_alias) {
        return Err(SqlError::Analyze(format!(
            "both join inputs resolve to alias '{left_alias}'; alias them distinctly"
        )));
    }
    let join_type = stmt.join.map(|j| j.join_type).unwrap_or(JoinType::Inner);

    let ls = dag.schema(left).clone();
    let rs = dag.schema(right).clone();
    let ctx = JoinCtx {
        ls: &ls,
        rs: &rs,
        la: &left_alias,
        ra: &right_alias,
    };

    let where_expr = stmt.where_clause.as_ref().ok_or_else(|| {
        SqlError::Analyze(
            "join requires a WHERE clause with a temporal equality predicate (Section 3.1)".into(),
        )
    })?;
    let mut temporal: Option<TemporalJoin> = None;
    let mut equi: Vec<(ScalarExpr, ScalarExpr)> = Vec::new();
    let mut residual: Option<ScalarExpr> = None;
    for conjunct in split_conjuncts(where_expr) {
        match classify_conjunct(&conjunct, &ctx)? {
            JoinConjunct::Temporal(tj) if temporal.is_none() => temporal = Some(tj),
            // A second temporal equality is kept as a residual filter.
            JoinConjunct::Temporal(tj) => {
                let expr = ScalarExpr::Column(tj.left.clone()).eq(if tj.offset == 0 {
                    ScalarExpr::Column(tj.right.clone())
                } else {
                    ScalarExpr::Column(tj.right.clone())
                        .binary(qap_expr::BinOp::Add, ScalarExpr::lit(tj.offset))
                });
                residual = Some(and_opt(residual, expr));
            }
            JoinConjunct::Equi(l, r) => equi.push((l, r)),
            JoinConjunct::Residual(e) => residual = Some(and_opt(residual, e)),
        }
    }
    let temporal = temporal.ok_or_else(|| {
        SqlError::Analyze(
            "join WHERE clause lacks a temporal equality predicate relating ordered \
             attributes of the two inputs (e.g. S1.tb = S2.tb + 1)"
                .into(),
        )
    })?;

    let mut names = NameDeduper::default();
    let projections = stmt
        .items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let expr = to_scalar(&item.expr)?;
            let name = names.pick(output_name(&item.alias, &item.expr, i));
            Ok(NamedExpr::new(name, expr))
        })
        .collect::<SqlResult<Vec<_>>>()?;

    Ok(dag.add_node(LogicalNode::Join {
        left,
        right,
        left_alias,
        right_alias,
        join_type,
        temporal,
        equi,
        residual,
        projections,
    })?)
}

struct JoinCtx<'a> {
    ls: &'a Schema,
    rs: &'a Schema,
    la: &'a str,
    ra: &'a str,
}

/// Which input an expression's columns all belong to.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Side {
    Left,
    Right,
    Mixed,
    None,
}

impl JoinCtx<'_> {
    fn side_of_column(&self, c: &ColumnRef) -> SqlResult<Side> {
        match &c.qualifier {
            Some(q) if q.eq_ignore_ascii_case(self.la) => Ok(Side::Left),
            Some(q) if q.eq_ignore_ascii_case(self.ra) => Ok(Side::Right),
            Some(q) => Err(SqlError::Analyze(format!(
                "qualifier '{q}' matches neither join input ('{}', '{}')",
                self.la, self.ra
            ))),
            None => match (self.ls.index_of(&c.name), self.rs.index_of(&c.name)) {
                // Ambiguous unqualified names resolve to the left input,
                // matching the paper's `SELECT time, ...` self-joins.
                (Some(_), _) => Ok(Side::Left),
                (None, Some(_)) => Ok(Side::Right),
                (None, None) => Err(SqlError::Analyze(format!(
                    "column '{}' not found in either join input",
                    c.name
                ))),
            },
        }
    }

    fn side_of_expr(&self, e: &ScalarExpr) -> SqlResult<Side> {
        let mut side = Side::None;
        let mut err = None;
        e.visit_columns(&mut |c| {
            if err.is_some() {
                return;
            }
            match self.side_of_column(c) {
                Ok(s) => {
                    side = match (side, s) {
                        (Side::None, s) => s,
                        (cur, s) if cur == s => cur,
                        _ => Side::Mixed,
                    };
                }
                Err(e) => err = Some(e),
            }
        });
        match err {
            Some(e) => Err(e),
            None => Ok(side),
        }
    }

    fn is_temporal(&self, c: &ColumnRef, side: Side) -> bool {
        let schema = match side {
            Side::Left => self.ls,
            Side::Right => self.rs,
            _ => return false,
        };
        schema
            .field(&c.name)
            .is_some_and(|f| f.temporality().is_temporal())
    }
}

fn split_conjuncts(expr: &AstExpr) -> Vec<AstExpr> {
    match expr {
        AstExpr::Binary {
            op: qap_expr::BinOp::And,
            lhs,
            rhs,
        } => {
            let mut v = split_conjuncts(lhs);
            v.extend(split_conjuncts(rhs));
            v
        }
        other => vec![other.clone()],
    }
}

fn classify_conjunct(conjunct: &AstExpr, ctx: &JoinCtx<'_>) -> SqlResult<JoinConjunct> {
    if let AstExpr::Binary {
        op: qap_expr::BinOp::Eq,
        lhs,
        rhs,
    } = conjunct
    {
        let l = to_scalar(lhs)?;
        let r = to_scalar(rhs)?;
        let (ls, rs) = (ctx.side_of_expr(&l)?, ctx.side_of_expr(&r)?);
        // Normalize so the left expression is on the left input.
        let (le, re) = match (ls, rs) {
            (Side::Left, Side::Right) => (l, r),
            (Side::Right, Side::Left) => (r, l),
            _ => return Ok(JoinConjunct::Residual(to_scalar(conjunct)?)),
        };
        // Temporal alignment: col [+/- k] = col [+/- k] over ordered attrs.
        if let (Some((lc, lo)), Some((rc, ro))) = (col_plus_offset(&le), col_plus_offset(&re)) {
            if ctx.is_temporal(&lc, Side::Left) && ctx.is_temporal(&rc, Side::Right) {
                // lc + lo = rc + ro  ⇒  lc = rc + (ro - lo)
                return Ok(JoinConjunct::Temporal(TemporalJoin {
                    left: lc,
                    right: rc,
                    offset: ro - lo,
                }));
            }
        }
        // An equi-key pairs equal values of one kind; `=` across kinds
        // (`uint` against `int`) compares numerically, as it does in a
        // WHERE, so it stays a residual.
        let kind = |e: &ScalarExpr, s: &Schema| {
            infer_type(e, &|c: &ColumnRef| s.field(&c.name).map(|f| f.data_type()))
        };
        if kind(&le, ctx.ls) != kind(&re, ctx.rs) {
            return Ok(JoinConjunct::Residual(to_scalar(conjunct)?));
        }
        return Ok(JoinConjunct::Equi(le, re));
    }
    Ok(JoinConjunct::Residual(to_scalar(conjunct)?))
}

/// Matches `col`, `col + k`, `col - k`, `k + col` and returns
/// (column, offset).
fn col_plus_offset(e: &ScalarExpr) -> Option<(ColumnRef, i64)> {
    match e {
        ScalarExpr::Column(c) => Some((c.clone(), 0)),
        ScalarExpr::Binary { op, lhs, rhs } => {
            let k_of = |e: &ScalarExpr| match e {
                ScalarExpr::Literal(v) => v.as_i64(),
                _ => None,
            };
            match op {
                qap_expr::BinOp::Add => match (&**lhs, &**rhs) {
                    (ScalarExpr::Column(c), k) => Some((c.clone(), k_of(k)?)),
                    (k, ScalarExpr::Column(c)) => Some((c.clone(), k_of(k)?)),
                    _ => None,
                },
                qap_expr::BinOp::Sub => match (&**lhs, &**rhs) {
                    (ScalarExpr::Column(c), k) => Some((c.clone(), -k_of(k)?)),
                    _ => None,
                },
                _ => None,
            }
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------
// shared helpers
// ---------------------------------------------------------------------

/// Converts a (scalar-only) AST expression; aggregate calls error.
/// Exposed to the parser for standalone-expression parsing.
pub(crate) fn ast_to_scalar(e: &AstExpr) -> SqlResult<ScalarExpr> {
    to_scalar(e)
}

fn to_scalar(e: &AstExpr) -> SqlResult<ScalarExpr> {
    match e {
        AstExpr::Column(c) => Ok(ScalarExpr::Column(c.clone())),
        AstExpr::Number(n) => Ok(ScalarExpr::lit(*n)),
        AstExpr::Str(s) => Ok(ScalarExpr::lit(s.as_str())),
        AstExpr::Bool(b) => Ok(ScalarExpr::lit(*b)),
        AstExpr::Null => Ok(ScalarExpr::Literal(qap_types::Value::Null)),
        AstExpr::Binary { op, lhs, rhs } => Ok(ScalarExpr::Binary {
            op: *op,
            lhs: Box::new(to_scalar(lhs)?),
            rhs: Box::new(to_scalar(rhs)?),
        }),
        AstExpr::Unary { op, expr } => Ok(ScalarExpr::Unary {
            op: *op,
            expr: Box::new(to_scalar(expr)?),
        }),
        AstExpr::Agg { name, .. } => Err(SqlError::Analyze(format!(
            "aggregate {name}() not allowed here"
        ))),
    }
}

fn output_name(alias: &Option<String>, expr: &AstExpr, idx: usize) -> String {
    if let Some(a) = alias {
        return a.clone();
    }
    match expr {
        AstExpr::Column(c) => c.name.clone(),
        _ => format!("col{idx}"),
    }
}

fn and_opt(acc: Option<ScalarExpr>, e: ScalarExpr) -> ScalarExpr {
    match acc {
        Some(a) => a.and(e),
        None => e,
    }
}

/// Makes output column names unique by suffixing `_1`, `_2`, ...
#[derive(Default)]
struct NameDeduper {
    taken: Vec<String>,
}

impl NameDeduper {
    fn pick(&mut self, base: String) -> String {
        let mut candidate = base.clone();
        let mut i = 0;
        while self
            .taken
            .iter()
            .any(|t| t.eq_ignore_ascii_case(&candidate))
        {
            i += 1;
            candidate = format!("{base}_{i}");
        }
        self.taken.push(candidate.clone());
        candidate
    }
}
