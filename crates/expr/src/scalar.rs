//! The scalar expression AST.

use std::fmt;

use qap_types::Value;

/// A (possibly qualified) column reference such as `srcIP` or `S1.tb`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// FROM-clause alias or stream name qualifier, when written.
    pub qualifier: Option<String>,
    /// Column name.
    pub name: String,
}

impl ColumnRef {
    /// Unqualified reference.
    pub fn bare(name: impl Into<String>) -> Self {
        ColumnRef {
            qualifier: None,
            name: name.into(),
        }
    }

    /// Qualified reference.
    pub fn qualified(qualifier: impl Into<String>, name: impl Into<String>) -> Self {
        ColumnRef {
            qualifier: Some(qualifier.into()),
            name: name.into(),
        }
    }

    /// Case-insensitive equality of two references.
    pub fn same_as(&self, other: &ColumnRef) -> bool {
        self.name.eq_ignore_ascii_case(&other.name)
            && match (&self.qualifier, &other.qualifier) {
                (Some(a), Some(b)) => a.eq_ignore_ascii_case(b),
                (None, None) => true,
                _ => false,
            }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

/// Binary operators of the GSQL expression language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (integer division — the workhorse of epoch bucketing `time/60`)
    Div,
    /// `%`
    Mod,
    /// `&` (bit-and — subnet masking `srcIP & 0xFFF0`)
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinOp {
    /// Whether the operator yields a boolean.
    pub fn is_predicate(self) -> bool {
        matches!(
            self,
            BinOp::Eq
                | BinOp::Ne
                | BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::And
                | BinOp::Or
        )
    }

    /// Surface syntax for display.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical NOT.
    Not,
    /// Bitwise complement.
    BitNot,
}

impl UnOp {
    /// Surface syntax for display.
    pub fn symbol(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Not => "NOT ",
            UnOp::BitNot => "~",
        }
    }
}

/// A scalar expression over stream attributes.
///
/// This is the *unbound* form: column references are names, resolved
/// against schemas at plan-compile time into [`crate::BoundExpr`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ScalarExpr {
    /// Column reference.
    Column(ColumnRef),
    /// Literal constant.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<ScalarExpr>,
        /// Right operand.
        rhs: Box<ScalarExpr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<ScalarExpr>,
    },
}

impl ScalarExpr {
    /// Column reference by bare name.
    pub fn col(name: impl Into<String>) -> Self {
        ScalarExpr::Column(ColumnRef::bare(name))
    }

    /// Column reference with qualifier.
    pub fn qcol(qualifier: impl Into<String>, name: impl Into<String>) -> Self {
        ScalarExpr::Column(ColumnRef::qualified(qualifier, name))
    }

    /// Literal from anything convertible to [`Value`].
    pub fn lit(v: impl Into<Value>) -> Self {
        ScalarExpr::Literal(v.into())
    }

    /// Builds `self op rhs`.
    pub fn binary(self, op: BinOp, rhs: ScalarExpr) -> Self {
        ScalarExpr::Binary {
            op,
            lhs: Box::new(self),
            rhs: Box::new(rhs),
        }
    }

    /// Builds `self / k` — the epoch-bucketing idiom.
    #[allow(clippy::should_implement_trait)] // builder sugar, not Div
    pub fn div(self, k: u64) -> Self {
        self.binary(BinOp::Div, ScalarExpr::lit(k))
    }

    /// Builds `self & mask` — the subnet-masking idiom.
    pub fn mask(self, mask: u64) -> Self {
        self.binary(BinOp::BitAnd, ScalarExpr::lit(mask))
    }

    /// Builds `self = rhs`.
    pub fn eq(self, rhs: ScalarExpr) -> Self {
        self.binary(BinOp::Eq, rhs)
    }

    /// Builds `self AND rhs`.
    pub fn and(self, rhs: ScalarExpr) -> Self {
        self.binary(BinOp::And, rhs)
    }

    /// Collects every column referenced by the expression.
    pub fn columns(&self) -> Vec<&ColumnRef> {
        let mut out = Vec::new();
        self.visit_columns(&mut |c| out.push(c));
        out
    }

    /// Visits every column reference.
    pub fn visit_columns<'a>(&'a self, f: &mut impl FnMut(&'a ColumnRef)) {
        match self {
            ScalarExpr::Column(c) => f(c),
            ScalarExpr::Literal(_) => {}
            ScalarExpr::Binary { lhs, rhs, .. } => {
                lhs.visit_columns(f);
                rhs.visit_columns(f);
            }
            ScalarExpr::Unary { expr, .. } => expr.visit_columns(f),
        }
    }

    /// Whether the expression references exactly one distinct column.
    pub fn single_column(&self) -> Option<&ColumnRef> {
        let cols = self.columns();
        let first = cols.first()?;
        if cols.iter().all(|c| c.same_as(first)) {
            Some(first)
        } else {
            None
        }
    }

    /// Rewrites every column reference through `f`, producing a new
    /// expression. Used to translate derived-column expressions down to
    /// source-stream attributes during provenance analysis.
    pub fn map_columns(
        &self,
        f: &mut impl FnMut(&ColumnRef) -> Option<ScalarExpr>,
    ) -> Option<ScalarExpr> {
        match self {
            ScalarExpr::Column(c) => f(c),
            ScalarExpr::Literal(v) => Some(ScalarExpr::Literal(v.clone())),
            ScalarExpr::Binary { op, lhs, rhs } => Some(ScalarExpr::Binary {
                op: *op,
                lhs: Box::new(lhs.map_columns(f)?),
                rhs: Box::new(rhs.map_columns(f)?),
            }),
            ScalarExpr::Unary { op, expr } => Some(ScalarExpr::Unary {
                op: *op,
                expr: Box::new(expr.map_columns(f)?),
            }),
        }
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Column(c) => write!(f, "{c}"),
            ScalarExpr::Literal(v) => write!(f, "{v}"),
            ScalarExpr::Binary { op, lhs, rhs } => {
                let lhs_atomic = matches!(**lhs, ScalarExpr::Column(_) | ScalarExpr::Literal(_));
                let rhs_atomic = matches!(**rhs, ScalarExpr::Column(_) | ScalarExpr::Literal(_));
                if lhs_atomic {
                    write!(f, "{lhs}")?;
                } else {
                    write!(f, "({lhs})")?;
                }
                write!(f, " {} ", op.symbol())?;
                if rhs_atomic {
                    write!(f, "{rhs}")
                } else {
                    write!(f, "({rhs})")
                }
            }
            ScalarExpr::Unary { op, expr } => write!(f, "{}({expr})", op.symbol()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let e = ScalarExpr::col("time").div(60);
        assert_eq!(e.to_string(), "time / 60");
        let m = ScalarExpr::col("srcIP").mask(0xFFF0);
        assert_eq!(m.to_string(), "srcIP & 65520");
    }

    #[test]
    fn qualified_display() {
        let e = ScalarExpr::qcol("S1", "tb")
            .eq(ScalarExpr::qcol("S2", "tb").binary(BinOp::Add, ScalarExpr::lit(1u64)));
        assert_eq!(e.to_string(), "S1.tb = (S2.tb + 1)");
    }

    #[test]
    fn single_column_detection() {
        let e = ScalarExpr::col("time").div(60).div(2);
        assert_eq!(e.single_column().unwrap().name, "time");
        let two = ScalarExpr::col("a").binary(BinOp::Add, ScalarExpr::col("b"));
        assert!(two.single_column().is_none());
        assert!(ScalarExpr::lit(1u64).single_column().is_none());
    }

    #[test]
    fn same_as_respects_qualifier() {
        assert!(ColumnRef::bare("a").same_as(&ColumnRef::bare("A")));
        assert!(!ColumnRef::bare("a").same_as(&ColumnRef::qualified("S", "a")));
        assert!(ColumnRef::qualified("s", "a").same_as(&ColumnRef::qualified("S", "A")));
    }

    #[test]
    fn map_columns_rewrites() {
        let e = ScalarExpr::col("tb").div(2);
        let rewritten = e
            .map_columns(&mut |c| {
                if c.name == "tb" {
                    Some(ScalarExpr::col("time").div(60))
                } else {
                    None
                }
            })
            .unwrap();
        assert_eq!(rewritten.to_string(), "(time / 60) / 2");
    }

    #[test]
    fn map_columns_propagates_failure() {
        let e = ScalarExpr::col("cnt").div(2);
        assert!(e.map_columns(&mut |_| None).is_none());
    }
}
