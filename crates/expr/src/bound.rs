//! Position-resolved expressions and their evaluator.

use qap_types::{Schema, Tuple, Value};

use crate::{BinOp, ColumnRef, ExprError, ExprResult, ScalarExpr, UnOp};

/// Resolves a column reference to a tuple position.
pub type Resolver<'a> = dyn Fn(&ColumnRef) -> Option<usize> + 'a;

/// A scalar expression with column references resolved to tuple
/// positions; the form the execution engine evaluates per tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// Tuple position.
    Column(usize),
    /// Constant.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<BoundExpr>,
        /// Right operand.
        rhs: Box<BoundExpr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<BoundExpr>,
    },
}

/// Binds an expression against a single schema.
pub fn bind(expr: &ScalarExpr, schema: &Schema) -> ExprResult<BoundExpr> {
    bind_with(expr, &|c: &ColumnRef| schema.index_of(&c.name))
}

/// Binds an expression using a custom resolver (e.g. the concatenated
/// left+right schema of a join, qualified by FROM aliases).
pub fn bind_with(expr: &ScalarExpr, resolve: &Resolver<'_>) -> ExprResult<BoundExpr> {
    match expr {
        ScalarExpr::Column(c) => resolve(c)
            .map(BoundExpr::Column)
            .ok_or_else(|| ExprError::UnresolvedColumn(c.to_string())),
        ScalarExpr::Literal(v) => Ok(BoundExpr::Literal(v.clone())),
        ScalarExpr::Binary { op, lhs, rhs } => Ok(BoundExpr::Binary {
            op: *op,
            lhs: Box::new(bind_with(lhs, resolve)?),
            rhs: Box::new(bind_with(rhs, resolve)?),
        }),
        ScalarExpr::Unary { op, expr } => Ok(BoundExpr::Unary {
            op: *op,
            expr: Box::new(bind_with(expr, resolve)?),
        }),
    }
}

impl BoundExpr {
    /// Evaluates the expression against a tuple.
    ///
    /// NULL propagates through arithmetic and comparisons (three-valued
    /// logic for AND/OR), matching SQL semantics; predicates treat a NULL
    /// result as not-satisfied.
    pub fn eval(&self, tuple: &Tuple) -> ExprResult<Value> {
        match self {
            BoundExpr::Column(i) => Ok(tuple.get(*i).clone()),
            BoundExpr::Literal(v) => Ok(v.clone()),
            BoundExpr::Binary { op, lhs, rhs } => {
                // Short-circuit three-valued AND/OR.
                if matches!(op, BinOp::And | BinOp::Or) {
                    return eval_logical(*op, lhs, rhs, tuple);
                }
                let l = lhs.eval(tuple)?;
                let r = rhs.eval(tuple)?;
                eval_binary(*op, &l, &r)
            }
            BoundExpr::Unary { op, expr } => {
                let v = expr.eval(tuple)?;
                eval_unary(*op, &v)
            }
        }
    }

    /// Evaluates the expression as a predicate: true only when the result
    /// is a definite boolean/numeric truth; NULL counts as false.
    pub fn eval_predicate(&self, tuple: &Tuple) -> ExprResult<bool> {
        Ok(self.eval(tuple)?.as_bool().unwrap_or(false))
    }
}

fn eval_logical(op: BinOp, lhs: &BoundExpr, rhs: &BoundExpr, tuple: &Tuple) -> ExprResult<Value> {
    let l = lhs.eval(tuple)?;
    let lb = l.as_bool();
    match (op, lb) {
        (BinOp::And, Some(false)) => return Ok(Value::Bool(false)),
        (BinOp::Or, Some(true)) => return Ok(Value::Bool(true)),
        _ => {}
    }
    let r = rhs.eval(tuple)?;
    let rb = r.as_bool();
    let out = match op {
        BinOp::And => match (lb, rb) {
            (Some(true), Some(true)) => Value::Bool(true),
            (Some(false), _) | (_, Some(false)) => Value::Bool(false),
            _ => Value::Null,
        },
        BinOp::Or => match (lb, rb) {
            (Some(false), Some(false)) => Value::Bool(false),
            (Some(true), _) | (_, Some(true)) => Value::Bool(true),
            _ => Value::Null,
        },
        _ => unreachable!("eval_logical called with non-logical op"),
    };
    Ok(out)
}

/// Exposed to the kernel compiler (`crate::kernel`), which precomputes
/// comparison tables (per Bool lane value, per constant-vs-lane-kind)
/// by invoking the interpreter itself — the
/// tables are exact by construction rather than by a hand-rolled copy
/// of these semantics.
pub(crate) fn eval_binary(op: BinOp, l: &Value, r: &Value) -> ExprResult<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match op {
        BinOp::Eq => Ok(Value::Bool(values_eq(l, r))),
        BinOp::Ne => Ok(Value::Bool(!values_eq(l, r))),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let ord = l.total_cmp(r);
            let out = match op {
                BinOp::Lt => ord.is_lt(),
                BinOp::Le => ord.is_le(),
                BinOp::Gt => ord.is_gt(),
                BinOp::Ge => ord.is_ge(),
                _ => unreachable!(),
            };
            Ok(Value::Bool(out))
        }
        _ => eval_arith(op, l, r),
    }
}

fn values_eq(l: &Value, r: &Value) -> bool {
    // Numeric equality across UInt/Int; everything else structural.
    if let (Some(a), Some(b)) = (l.as_u64(), r.as_u64()) {
        return a == b;
    }
    if let (Some(a), Some(b)) = (l.as_i64(), r.as_i64()) {
        return a == b;
    }
    l == r
}

fn eval_arith(op: BinOp, l: &Value, r: &Value) -> ExprResult<Value> {
    // Prefer unsigned arithmetic (the native domain); fall back to signed
    // when either side is a negative Int.
    if let (Some(a), Some(b)) = (l.as_u64(), r.as_u64()) {
        return arith_u64(op, a, b);
    }
    if let (Some(a), Some(b)) = (l.as_i64(), r.as_i64()) {
        return arith_i64(op, a, b);
    }
    Err(ExprError::TypeMismatch {
        op: op.symbol(),
        detail: format!("{l} {} {r}", op.symbol()),
    })
}

fn arith_u64(op: BinOp, a: u64, b: u64) -> ExprResult<Value> {
    let v = match op {
        BinOp::Add => a.checked_add(b).ok_or(ExprError::Overflow("+"))?,
        BinOp::Sub => match a.checked_sub(b) {
            Some(v) => v,
            // Borrow: switch to signed to model e.g. `len - hdr` underflow.
            None => {
                let (a, b) = (
                    i64::try_from(a).map_err(|_| ExprError::Overflow("-"))?,
                    i64::try_from(b).map_err(|_| ExprError::Overflow("-"))?,
                );
                return Ok(Value::Int(a - b));
            }
        },
        BinOp::Mul => a.checked_mul(b).ok_or(ExprError::Overflow("*"))?,
        BinOp::Div => a.checked_div(b).ok_or(ExprError::DivisionByZero)?,
        BinOp::Mod => a.checked_rem(b).ok_or(ExprError::DivisionByZero)?,
        BinOp::BitAnd => a & b,
        BinOp::BitOr => a | b,
        BinOp::BitXor => a ^ b,
        BinOp::Shl => a
            .checked_shl(b.min(u64::from(u32::MAX)) as u32)
            .unwrap_or(0),
        BinOp::Shr => a
            .checked_shr(b.min(u64::from(u32::MAX)) as u32)
            .unwrap_or(0),
        _ => unreachable!("non-arith op in arith_u64"),
    };
    Ok(Value::UInt(v))
}

fn arith_i64(op: BinOp, a: i64, b: i64) -> ExprResult<Value> {
    let v = match op {
        BinOp::Add => a.checked_add(b).ok_or(ExprError::Overflow("+"))?,
        BinOp::Sub => a.checked_sub(b).ok_or(ExprError::Overflow("-"))?,
        BinOp::Mul => a.checked_mul(b).ok_or(ExprError::Overflow("*"))?,
        BinOp::Div => {
            if b == 0 {
                return Err(ExprError::DivisionByZero);
            }
            a.div_euclid(b)
        }
        BinOp::Mod => {
            if b == 0 {
                return Err(ExprError::DivisionByZero);
            }
            a.rem_euclid(b)
        }
        BinOp::BitAnd => a & b,
        BinOp::BitOr => a | b,
        BinOp::BitXor => a ^ b,
        BinOp::Shl => a
            .checked_shl(b.clamp(0, i64::from(u32::MAX)) as u32)
            .unwrap_or(0),
        BinOp::Shr => a
            .checked_shr(b.clamp(0, i64::from(u32::MAX)) as u32)
            .unwrap_or(0),
        _ => unreachable!("non-arith op in arith_i64"),
    };
    Ok(Value::Int(v))
}

fn eval_unary(op: UnOp, v: &Value) -> ExprResult<Value> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    match op {
        UnOp::Neg => v
            .as_i64()
            .and_then(|x| x.checked_neg())
            .map(Value::Int)
            .ok_or(ExprError::Overflow("-")),
        UnOp::Not => v
            .as_bool()
            .map(|b| Value::Bool(!b))
            .ok_or_else(|| ExprError::TypeMismatch {
                op: "NOT",
                detail: v.to_string(),
            }),
        UnOp::BitNot => {
            v.as_u64()
                .map(|x| Value::UInt(!x))
                .ok_or_else(|| ExprError::TypeMismatch {
                    op: "~",
                    detail: v.to_string(),
                })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qap_types::{tuple, DataType, Field, Temporality};

    fn schema() -> Schema {
        Schema::new(
            "T",
            vec![
                Field::temporal("time", DataType::UInt, Temporality::Increasing),
                Field::new("srcIP", DataType::UInt),
                Field::new("len", DataType::UInt),
            ],
        )
        .unwrap()
    }

    fn eval(expr: ScalarExpr, t: &Tuple) -> Value {
        bind(&expr, &schema()).unwrap().eval(t).unwrap()
    }

    #[test]
    fn epoch_bucketing() {
        let t = tuple![125u64, 0xC0A80001u64, 64u64];
        assert_eq!(eval(ScalarExpr::col("time").div(60), &t), Value::UInt(2));
    }

    #[test]
    fn subnet_masking() {
        let t = tuple![0u64, 0xC0A8_01FFu64, 64u64];
        assert_eq!(
            eval(ScalarExpr::col("srcIP").mask(0xFFFF_FF00), &t),
            Value::UInt(0xC0A8_0100)
        );
    }

    #[test]
    fn unresolved_column_errors() {
        let err = bind(&ScalarExpr::col("nosuch"), &schema()).unwrap_err();
        assert!(matches!(err, ExprError::UnresolvedColumn(_)));
    }

    #[test]
    fn division_by_zero_errors() {
        let t = tuple![1u64, 2u64, 3u64];
        let e = bind(&ScalarExpr::col("len").div(0), &schema()).unwrap();
        assert_eq!(e.eval(&t).unwrap_err(), ExprError::DivisionByZero);
    }

    #[test]
    fn subtraction_borrows_into_signed() {
        let t = tuple![1u64, 2u64, 3u64];
        let e = ScalarExpr::col("time").binary(BinOp::Sub, ScalarExpr::col("len"));
        assert_eq!(eval(e, &t), Value::Int(-2));
    }

    #[test]
    fn null_propagates_through_arith() {
        let t = Tuple::new(vec![Value::Null, Value::UInt(2), Value::UInt(3)]);
        assert_eq!(eval(ScalarExpr::col("time").div(60), &t), Value::Null);
    }

    #[test]
    fn three_valued_and_or() {
        let t = Tuple::new(vec![Value::Null, Value::UInt(1), Value::UInt(0)]);
        // NULL AND false = false
        let e = ScalarExpr::col("time").and(ScalarExpr::col("len"));
        assert_eq!(eval(e, &t), Value::Bool(false));
        // NULL AND true = NULL
        let e = ScalarExpr::col("time").and(ScalarExpr::col("srcIP"));
        assert_eq!(eval(e, &t), Value::Null);
        // NULL OR true = true
        let e = ScalarExpr::col("time").binary(BinOp::Or, ScalarExpr::col("srcIP"));
        assert_eq!(eval(e, &t), Value::Bool(true));
    }

    #[test]
    fn predicate_treats_null_as_false() {
        let t = Tuple::new(vec![Value::Null, Value::UInt(1), Value::UInt(0)]);
        let e = bind(
            &ScalarExpr::col("time").eq(ScalarExpr::lit(5u64)),
            &schema(),
        )
        .unwrap();
        assert!(!e.eval_predicate(&t).unwrap());
    }

    #[test]
    fn comparisons() {
        let t = tuple![10u64, 20u64, 30u64];
        let lt = ScalarExpr::col("time").binary(BinOp::Lt, ScalarExpr::col("srcIP"));
        assert_eq!(eval(lt, &t), Value::Bool(true));
        let ge = ScalarExpr::col("len").binary(BinOp::Ge, ScalarExpr::lit(30u64));
        assert_eq!(eval(ge, &t), Value::Bool(true));
    }

    #[test]
    fn cross_type_numeric_equality() {
        assert_eq!(
            eval_binary(BinOp::Eq, &Value::UInt(5), &Value::Int(5)).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn mod_and_shifts() {
        let t = tuple![7u64, 1u64, 2u64];
        assert_eq!(
            eval(
                ScalarExpr::col("time").binary(BinOp::Mod, ScalarExpr::lit(4u64)),
                &t
            ),
            Value::UInt(3)
        );
        assert_eq!(
            eval(
                ScalarExpr::col("srcIP").binary(BinOp::Shl, ScalarExpr::col("len")),
                &t
            ),
            Value::UInt(4)
        );
    }

    #[test]
    fn unary_ops() {
        let t = tuple![7u64, 1u64, 2u64];
        let neg = ScalarExpr::Unary {
            op: UnOp::Neg,
            expr: Box::new(ScalarExpr::col("time")),
        };
        assert_eq!(eval(neg, &t), Value::Int(-7));
        let not = ScalarExpr::Unary {
            op: UnOp::Not,
            expr: Box::new(ScalarExpr::col("srcIP")),
        };
        assert_eq!(eval(not, &t), Value::Bool(false));
        let bnot = ScalarExpr::Unary {
            op: UnOp::BitNot,
            expr: Box::new(ScalarExpr::lit(0u64)),
        };
        assert_eq!(eval(bnot, &t), Value::UInt(u64::MAX));
    }
}
