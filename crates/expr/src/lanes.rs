//! The total lane API: a [`Filter`] and a [`Projection`] over a
//! [`ColumnBatch`], which answer for every batch.
//!
//! Each runs the compiled kernel ([`PredicateKernel`], [`NumKernel`])
//! when the expression has one and it does not bail, and otherwise the
//! crate's one row-at-a-time evaluator, which materializes each row and
//! calls [`BoundExpr::eval`]. Across a projection list that evaluator
//! runs row-major: for each row, every expression the kernels did not
//! answer. A kernel that finishes met no error on any row, so the first
//! error row-major among the rest is the first error the interpreter
//! would reach over the whole list. Either way the caller sees lanes
//! and an [`ExprResult`]; which engine ran is only a tally ([`Ran`]).

use qap_types::{Column, ColumnBatch, SelectionVector, Tuple, Value};

use crate::{BoundExpr, ExprResult, KernelScratch, NumKernel, PredicateKernel};

/// Which engine answered a lane evaluation: what operators tally as
/// kernel hits and fallbacks. Two evaluations together ran as the
/// greater of the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Ran {
    /// Nothing was computed: every output is a bare input column.
    Moved,
    /// Compiled kernels computed every value.
    Kernel,
    /// At least one expression went through the row-at-a-time
    /// interpreter.
    Rows,
}

/// The crate's one row-at-a-time evaluator: for each row of `rows` in
/// order, materialized once, every expression of `exprs` in order,
/// handing `f` the expression's index, the row and the value. Stops at
/// the first error.
fn eval_rows(
    exprs: &[&BoundExpr],
    batch: &ColumnBatch,
    rows: impl IntoIterator<Item = u32>,
    mut f: impl FnMut(usize, u32, Value),
) -> ExprResult<()> {
    let mut tuple = Tuple::default();
    for r in rows {
        batch.write_row_into(r as usize, &mut tuple);
        for (j, e) in exprs.iter().enumerate() {
            f(j, r, e.eval(&tuple)?);
        }
    }
    Ok(())
}

/// A predicate over lanes, compiled once.
pub struct Filter {
    expr: BoundExpr,
    kernel: Option<PredicateKernel>,
}

impl Filter {
    /// Compiles `expr` when it is inside the kernel domain.
    pub fn new(expr: BoundExpr) -> Filter {
        let kernel = PredicateKernel::compile(&expr);
        Filter { expr, kernel }
    }

    /// Refines `sel` to the rows of `batch` the predicate keeps (NULL
    /// keeps none). On an error `sel` holds no meaningful rows.
    pub fn apply(
        &self,
        batch: &ColumnBatch,
        sel: &mut SelectionVector,
        scratch: &mut KernelScratch,
    ) -> ExprResult<Ran> {
        if let Some(k) = &self.kernel {
            if k.filter(batch, sel, scratch) {
                return Ok(Ran::Kernel);
            }
        }
        let candidates = std::mem::take(sel.raw_mut());
        eval_rows(&[&self.expr], batch, candidates, |_, r, v| {
            if v.as_bool().unwrap_or(false) {
                sel.push(r);
            }
        })?;
        Ok(Ran::Rows)
    }
}

/// How one projection evaluates, classified once.
enum Proj {
    /// A bare column: the output is the input column, moved on its last
    /// use in the list and cloned before.
    Col { pos: usize, take: bool },
    /// A compiled numeric kernel, column-at-a-time.
    Kernel(NumKernel),
    /// Outside the kernel domain: row at a time.
    Rows,
}

/// A projection list over lanes, compiled once.
pub struct Projection {
    exprs: Vec<BoundExpr>,
    plan: Vec<Proj>,
}

impl Projection {
    /// Classifies each expression: a bare column, a kernel, or rows.
    pub fn new(exprs: Vec<BoundExpr>) -> Projection {
        let mut plan: Vec<Proj> = exprs
            .iter()
            .map(|e| match e {
                BoundExpr::Column(i) => Proj::Col {
                    pos: *i,
                    take: false,
                },
                e => NumKernel::compile(e).map_or(Proj::Rows, Proj::Kernel),
            })
            .collect();
        // The last use of each position may move the column out of the
        // input; earlier uses clone it. Everything that reads the input
        // runs before the first move.
        let mut seen: Vec<usize> = Vec::new();
        for p in plan.iter_mut().rev() {
            if let Proj::Col { pos, take } = p {
                if !seen.contains(pos) {
                    seen.push(*pos);
                    *take = true;
                }
            }
        }
        Projection { exprs, plan }
    }

    /// The projected expressions.
    pub fn exprs(&self) -> &[BoundExpr] {
        &self.exprs
    }

    /// Projects `batch` into a new batch, moving the input's columns out
    /// (the caller clears it). On an error `batch` is untouched.
    pub fn project(
        &self,
        batch: &mut ColumnBatch,
        scratch: &mut KernelScratch,
    ) -> ExprResult<(ColumnBatch, Ran)> {
        let (mut cols, ran) = self.compute(batch, scratch)?;
        let rows = batch.rows();
        for (c, p) in cols.iter_mut().zip(&self.plan) {
            if let Proj::Col { pos, take } = *p {
                *c = match take {
                    true => batch.take_column(pos),
                    false => batch.column(pos).clone(),
                };
            }
        }
        Ok((ColumnBatch::from_columns_with_rows(cols, rows), ran))
    }

    /// Evaluates the list over `batch` into one column per expression,
    /// cloning bare columns.
    pub fn columns(
        &self,
        batch: &ColumnBatch,
        scratch: &mut KernelScratch,
    ) -> ExprResult<(Vec<Column>, Ran)> {
        let (mut cols, ran) = self.compute(batch, scratch)?;
        for (c, p) in cols.iter_mut().zip(&self.plan) {
            if let Proj::Col { pos, .. } = *p {
                *c = batch.column(pos).clone();
            }
        }
        Ok((cols, ran))
    }

    /// Every output but the bare columns (left empty): kernels first,
    /// then the row-major fallback over the expressions they did not
    /// answer.
    fn compute(
        &self,
        batch: &ColumnBatch,
        scratch: &mut KernelScratch,
    ) -> ExprResult<(Vec<Column>, Ran)> {
        let (mut ran, mut rows) = (Ran::Moved, Vec::new());
        let mut out: Vec<Column> = (self.plan.iter().enumerate())
            .map(|(j, p)| {
                let col = match p {
                    Proj::Kernel(k) => k.eval_column(batch, scratch),
                    Proj::Rows => None,
                    Proj::Col { .. } => return Column::new(),
                };
                ran = ran.max(col.as_ref().map_or(Ran::Rows, |_| Ran::Kernel));
                col.unwrap_or_else(|| {
                    rows.push(j);
                    Column::new()
                })
            })
            .collect();
        if !rows.is_empty() {
            let exprs: Vec<&BoundExpr> = rows.iter().map(|&j| &self.exprs[j]).collect();
            eval_rows(&exprs, batch, 0..batch.rows() as u32, |i, _, v| {
                out[rows[i]].push(&v)
            })?;
        }
        Ok((out, ran))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinOp, ExprError};

    fn col(i: usize) -> BoundExpr {
        BoundExpr::Column(i)
    }

    fn bin(op: BinOp, l: BoundExpr, r: BoundExpr) -> BoundExpr {
        BoundExpr::Binary {
            op,
            lhs: Box::new(l),
            rhs: Box::new(r),
        }
    }

    fn lit(v: Value) -> BoundExpr {
        BoundExpr::Literal(v)
    }

    fn batch(cols: &[&[Value]]) -> ColumnBatch {
        ColumnBatch::from_columns(cols.iter().map(|c| Column::from_values(c)).collect())
    }

    /// A kernel that finished, a kernel that bailed and an expression no
    /// kernel covers: the error is the first one row-major, although a
    /// later expression errs on an earlier row than the first does.
    #[test]
    fn projection_errors_row_major() {
        let u = |x: u64| Value::UInt(x);
        let mut b = batch(&[&[u(1), u(2), u(0)], &[u(5), u(0), u(7)]]);
        let p = Projection::new(vec![
            bin(BinOp::Add, col(0), col(1)),
            // Row 2 divides by zero: the kernel bails.
            bin(BinOp::Div, lit(u(6)), col(0)),
            // Row 1 divides by zero, and no kernel takes a string.
            bin(BinOp::Div, col(0), col(1)),
            lit(Value::from("s")),
        ]);
        let err = p.project(&mut b, &mut KernelScratch::new()).unwrap_err();
        assert_eq!(err, ExprError::DivisionByZero);
        // With no error, the outputs are the interpreter's, and the
        // bare column moves.
        let mut ok = batch(&[&[u(1), u(2)], &[u(5), u(3)]]);
        let p = Projection::new(vec![bin(BinOp::Sub, col(1), col(0)), col(0)]);
        let (out, ran) = p.project(&mut ok, &mut KernelScratch::new()).unwrap();
        assert_eq!(ran, Ran::Kernel);
        assert_eq!(out.row(0).values(), &[Value::Int(4), u(1)]);
        let mut ok = batch(&[&[u(1), u(2)], &[u(5), u(3)]]);
        let p = Projection::new(vec![lit(Value::from("s")), col(1)]);
        let (out, ran) = p.project(&mut ok, &mut KernelScratch::new()).unwrap();
        assert_eq!(ran, Ran::Rows);
        assert_eq!(out.row(1).values(), &[Value::from("s"), u(3)]);
    }

    #[test]
    fn filter_falls_back_to_rows() {
        let s = |x: &str| Value::from(x);
        let b = batch(&[&[s("a"), Value::Null, s("b")]]);
        let f = Filter::new(bin(BinOp::Lt, col(0), lit(s("b"))));
        let mut sel = SelectionVector::identity(3);
        let ran = f.apply(&b, &mut sel, &mut KernelScratch::new()).unwrap();
        assert_ne!(ran, Ran::Moved);
        assert_eq!(sel.as_slice(), &[0]);
        // A NOT over a string is outside the kernels: rows, and an error.
        let not = BoundExpr::Unary {
            op: crate::UnOp::Not,
            expr: Box::new(col(0)),
        };
        let mut sel = SelectionVector::identity(3);
        let f = Filter::new(not);
        assert!(f.apply(&b, &mut sel, &mut KernelScratch::new()).is_err());
    }
}
