//! Structural analysis of partitioning expressions.
//!
//! The paper's `Reconcile_Partn_Sets` (Section 4.1) merges the
//! partitioning requirements of two queries into the *largest* set both
//! are compatible with. Compatibility boils down to a coarsening
//! relation: a partitioning expression `p` over column `c` is usable for
//! a query grouping on `g(c)` iff `p` is a function of `g` — every value
//! class of `g` maps into a single value class of `p`.
//!
//! For the expression shapes that matter in network monitoring the
//! relation is decidable syntactically:
//!
//! - `c / a` is a function of `c / b` iff `b` divides `a`
//!   (so `time/180` is computable from `time/60`);
//! - `c & a` is a function of `c & b` iff `a`'s bits ⊆ `b`'s bits
//!   (so `srcIP & 0xFF00` is computable from `srcIP & 0xFFF0`... only if
//!   `0xFF00 ⊆ 0xFFF0`, which fails — the analysis catches exactly this);
//! - `c` itself is `c / 1` = `c & !0`: everything is a function of it.
//!
//! Expressions outside these shapes are kept as *opaque*: they reconcile
//! only with structurally identical expressions, which is the paper's
//! "simple analyses ... will suffice for most cases" fallback.

use std::fmt;

use crate::{BinOp, ColumnRef, ScalarExpr};

/// Canonicalized single-column transform.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ColumnTransform {
    /// The column itself.
    Identity,
    /// `col / k` for a constant `k >= 1`.
    Div(u64),
    /// `col & mask`.
    Mask(u64),
    /// Any other single-column expression, kept structurally.
    Opaque(ScalarExpr),
}

impl ColumnTransform {
    /// Reconciles two transforms over the *same* column into the finest
    /// transform that is a function of both (the "least common
    /// denominator" of Section 4.1). Returns `None` when no common
    /// coarsening exists within the analyzable shapes.
    pub fn reconcile(&self, other: &ColumnTransform) -> Option<ColumnTransform> {
        use ColumnTransform::*;
        match (self, other) {
            // A zero mask collapses every tuple into one partition:
            // never a usable reconciliation.
            (Mask(0), _) | (_, Mask(0)) => None,
            (Identity, t) | (t, Identity) => Some(t.clone()),
            (Div(a), Div(b)) => {
                let l = lcm(*a, *b)?;
                Some(Div(l))
            }
            (Mask(a), Mask(b)) => {
                let m = a & b;
                if m == 0 {
                    // A zero mask collapses every tuple into one partition:
                    // formally compatible but useless for load spreading.
                    None
                } else {
                    Some(Mask(m))
                }
            }
            (Opaque(a), Opaque(b)) if a == b => Some(Opaque(a.clone())),
            _ => None,
        }
    }

    /// Whether a partitioning by `self` is a function of a grouping by
    /// `other` — i.e. `self` is *at least as coarse* as `other`, so a
    /// query grouping on `other` is compatible with partitioning on
    /// `self` (Section 3.4).
    pub fn coarsens(&self, other: &ColumnTransform) -> bool {
        use ColumnTransform::*;
        match (self, other) {
            // A zero mask is a constant: formally a function of anything,
            // but useless for load spreading — reject it outright.
            (Mask(0), _) => false,
            // Anything else is a function of the raw column.
            (_, Identity) => true,
            (Identity, _) => matches!(other, Identity),
            (Div(a), Div(b)) => *b != 0 && a % b == 0,
            (Mask(a), Mask(b)) => a & b == *a,
            (Opaque(a), Opaque(b)) => a == b,
            _ => false,
        }
    }

    /// Renders the transform applied to a column name.
    pub fn render(&self, column: &str) -> String {
        match self {
            ColumnTransform::Identity => column.to_string(),
            ColumnTransform::Div(k) => format!("{column} / {k}"),
            ColumnTransform::Mask(m) => format!("{column} & {m:#X}"),
            ColumnTransform::Opaque(e) => e.to_string(),
        }
    }

    /// Materializes the transform back into a [`ScalarExpr`] over the
    /// given column (used to build the hash-partitioner's key function).
    pub fn to_expr(&self, column: &ColumnRef) -> ScalarExpr {
        match self {
            ColumnTransform::Identity => ScalarExpr::Column(column.clone()),
            ColumnTransform::Div(k) => ScalarExpr::Column(column.clone()).div(*k),
            ColumnTransform::Mask(m) => ScalarExpr::Column(column.clone()).mask(*m),
            ColumnTransform::Opaque(e) => e.clone(),
        }
    }
}

impl fmt::Display for ColumnTransform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render("_"))
    }
}

/// A single-column expression decomposed into (column, transform).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AnalyzedExpr {
    /// The base column the expression reads.
    pub column: ColumnRef,
    /// The canonicalized transform applied to it.
    pub transform: ColumnTransform,
}

impl AnalyzedExpr {
    /// Renders as GSQL surface syntax.
    pub fn render(&self) -> String {
        self.transform.render(&self.column.to_string())
    }
}

impl fmt::Display for AnalyzedExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Decomposes a scalar expression into a canonical single-column
/// transform. Returns `None` for multi-column or column-free expressions
/// (those can never serve as partitioning expressions).
///
/// Compositions canonicalize: `(time/60)/2` → `Div(120)`,
/// `(srcIP & 0xFF00) & 0xF0F0` → `Mask(0xF000)`. A non-canonical shape
/// over a single column (e.g. `srcIP + 1`, `(srcIP & m) / k`) is kept
/// [`ColumnTransform::Opaque`] — note `col + c` and other bijections are
/// conservatively opaque rather than identity, which only costs
/// reconciliation precision, never correctness.
pub fn analyze_transform(expr: &ScalarExpr) -> Option<AnalyzedExpr> {
    let column = expr.single_column()?.clone();
    let transform = canonicalize(expr).unwrap_or_else(|| ColumnTransform::Opaque(expr.clone()));
    Some(AnalyzedExpr { column, transform })
}

/// Attempts to canonicalize into Identity / Div / Mask.
fn canonicalize(expr: &ScalarExpr) -> Option<ColumnTransform> {
    match expr {
        ScalarExpr::Column(_) => Some(ColumnTransform::Identity),
        ScalarExpr::Binary { op, lhs, rhs } => {
            let k = literal_u64(rhs)?;
            let inner = canonicalize(lhs)?;
            let normalize = |t: ColumnTransform| match t {
                // col/1 and col & !0 are the column itself.
                ColumnTransform::Div(1) | ColumnTransform::Mask(u64::MAX) => {
                    ColumnTransform::Identity
                }
                other => other,
            };
            match (op, inner) {
                (BinOp::Div, ColumnTransform::Identity) if k >= 1 => {
                    Some(normalize(ColumnTransform::Div(k)))
                }
                (BinOp::Div, ColumnTransform::Div(j)) if k >= 1 => {
                    Some(normalize(ColumnTransform::Div(j.checked_mul(k)?)))
                }
                (BinOp::BitAnd, ColumnTransform::Identity) => {
                    Some(normalize(ColumnTransform::Mask(k)))
                }
                (BinOp::BitAnd, ColumnTransform::Mask(m)) => {
                    Some(normalize(ColumnTransform::Mask(m & k)))
                }
                _ => None,
            }
        }
        _ => None,
    }
}

fn literal_u64(expr: &ScalarExpr) -> Option<u64> {
    match expr {
        ScalarExpr::Literal(v) => v.as_u64(),
        _ => None,
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn lcm(a: u64, b: u64) -> Option<u64> {
    if a == 0 || b == 0 {
        return None;
    }
    (a / gcd(a, b)).checked_mul(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(e: &ScalarExpr) -> AnalyzedExpr {
        analyze_transform(e).unwrap()
    }

    #[test]
    fn identity_and_div_and_mask() {
        let id = analyze(&ScalarExpr::col("srcIP"));
        assert_eq!(id.transform, ColumnTransform::Identity);

        let div = analyze(&ScalarExpr::col("time").div(60));
        assert_eq!(div.transform, ColumnTransform::Div(60));

        let mask = analyze(&ScalarExpr::col("srcIP").mask(0xFFF0));
        assert_eq!(mask.transform, ColumnTransform::Mask(0xFFF0));
    }

    #[test]
    fn nested_div_composes() {
        // The paper's compatible-set example: (time/60)/2 partitions flows
        // grouped by time/60.
        let e = ScalarExpr::col("time").div(60).div(2);
        assert_eq!(analyze(&e).transform, ColumnTransform::Div(120));
    }

    #[test]
    fn nested_mask_composes() {
        let e = ScalarExpr::col("srcIP").mask(0xFF00).mask(0xF0F0);
        assert_eq!(analyze(&e).transform, ColumnTransform::Mask(0xF000));
    }

    #[test]
    fn mixed_shapes_go_opaque() {
        let e = ScalarExpr::col("srcIP").mask(0xFF00).div(2);
        assert!(matches!(analyze(&e).transform, ColumnTransform::Opaque(_)));
        let plus = ScalarExpr::col("tb").binary(BinOp::Add, ScalarExpr::lit(1u64));
        assert!(matches!(
            analyze(&plus).transform,
            ColumnTransform::Opaque(_)
        ));
    }

    #[test]
    fn multi_column_rejected() {
        let e = ScalarExpr::col("a").binary(BinOp::Add, ScalarExpr::col("b"));
        assert!(analyze_transform(&e).is_none());
        assert!(analyze_transform(&ScalarExpr::lit(5u64)).is_none());
    }

    #[test]
    fn reconcile_divs_uses_lcm() {
        // The paper's worked example: time/60 ⊓ time/90 = time/180.
        let r = ColumnTransform::Div(60)
            .reconcile(&ColumnTransform::Div(90))
            .unwrap();
        assert_eq!(r, ColumnTransform::Div(180));
    }

    #[test]
    fn reconcile_masks_intersects() {
        // srcIP ⊓ srcIP & 0xFFF0 = srcIP & 0xFFF0.
        let r = ColumnTransform::Identity
            .reconcile(&ColumnTransform::Mask(0xFFF0))
            .unwrap();
        assert_eq!(r, ColumnTransform::Mask(0xFFF0));
        let r2 = ColumnTransform::Mask(0xFF00)
            .reconcile(&ColumnTransform::Mask(0x0FF0))
            .unwrap();
        assert_eq!(r2, ColumnTransform::Mask(0x0F00));
    }

    #[test]
    fn reconcile_disjoint_masks_fails() {
        assert!(ColumnTransform::Mask(0xFF00)
            .reconcile(&ColumnTransform::Mask(0x00FF))
            .is_none());
    }

    #[test]
    fn reconcile_div_vs_mask_fails() {
        assert!(ColumnTransform::Div(60)
            .reconcile(&ColumnTransform::Mask(0xFF))
            .is_none());
    }

    #[test]
    fn reconcile_opaque_requires_equality() {
        let a =
            ColumnTransform::Opaque(ScalarExpr::col("x").binary(BinOp::Add, ScalarExpr::lit(1u64)));
        assert_eq!(a.reconcile(&a.clone()), Some(a.clone()));
        let b =
            ColumnTransform::Opaque(ScalarExpr::col("x").binary(BinOp::Add, ScalarExpr::lit(2u64)));
        assert!(a.reconcile(&b).is_none());
    }

    #[test]
    fn coarsens_relation() {
        use ColumnTransform::*;
        assert!(Div(180).coarsens(&Div(60)));
        assert!(!Div(90).coarsens(&Div(60)));
        assert!(Div(60).coarsens(&Identity));
        assert!(!Identity.coarsens(&Div(60)));
        assert!(Mask(0xF000).coarsens(&Mask(0xFF00)));
        assert!(!Mask(0xFF00).coarsens(&Mask(0xF000)));
        assert!(Mask(0xFFF0).coarsens(&Identity));
        assert!(Identity.coarsens(&Identity));
    }

    #[test]
    fn render_surface_syntax() {
        let a = analyze(&ScalarExpr::col("srcIP").mask(0xFFF0));
        assert_eq!(a.render(), "srcIP & 0xFFF0");
        let d = analyze(&ScalarExpr::col("time").div(60));
        assert_eq!(d.render(), "time / 60");
    }

    #[test]
    fn to_expr_round_trips_through_analysis() {
        for t in [
            ColumnTransform::Identity,
            ColumnTransform::Div(60),
            ColumnTransform::Mask(0xFFF0),
        ] {
            let e = t.to_expr(&ColumnRef::bare("c"));
            assert_eq!(analyze(&e).transform, t);
        }
    }

    #[test]
    fn reconcile_is_commutative_on_samples() {
        let cases = [
            (ColumnTransform::Div(60), ColumnTransform::Div(90)),
            (ColumnTransform::Identity, ColumnTransform::Mask(0xF0)),
            (ColumnTransform::Mask(0xFF), ColumnTransform::Mask(0x0F)),
        ];
        for (a, b) in cases {
            assert_eq!(a.reconcile(&b), b.reconcile(&a));
        }
    }
}
