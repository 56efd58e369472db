//! Partitioning sets and their reconciliation.

use std::fmt;

use qap_expr::{analyze_transform, AnalyzedExpr, ColumnRef, ColumnTransform, ScalarExpr};

/// A partitioning set: a list of scalar expressions over source-stream
/// attributes whose combined hash assigns tuples to partitions
/// (Section 3.3's `(sc_exp1(attr1), ..., sc_expn(attrn))`).
///
/// Each entry is a single-column expression in analyzed (column,
/// transform) form. At most one entry per base column is kept — two
/// transforms of the same column reconcile into one.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct PartitionSet {
    exprs: Vec<AnalyzedExpr>,
}

impl PartitionSet {
    /// The empty set — represents "no compatible non-trivial
    /// partitioning exists".
    pub fn empty() -> Self {
        PartitionSet::default()
    }

    /// Builds a set from analyzed expressions, reconciling duplicates on
    /// the same column. A duplicate that fails to reconcile drops the
    /// column entirely (no single expression serves both requirements).
    pub fn from_analyzed(exprs: impl IntoIterator<Item = AnalyzedExpr>) -> Self {
        let mut out: Vec<AnalyzedExpr> = Vec::new();
        let mut dropped: Vec<ColumnRef> = Vec::new();
        for e in exprs {
            if dropped.iter().any(|c| c.same_as(&e.column)) {
                continue;
            }
            if let Some(existing) = out.iter_mut().find(|x| x.column.same_as(&e.column)) {
                match existing.transform.reconcile(&e.transform) {
                    Some(t) => existing.transform = t,
                    None => {
                        dropped.push(e.column.clone());
                        out.retain(|x| !x.column.same_as(&e.column));
                    }
                }
            } else {
                out.push(e);
            }
        }
        out.sort_by_key(|a| a.column.name.to_ascii_lowercase());
        PartitionSet { exprs: out }
    }

    /// Builds a set by analyzing raw scalar expressions; expressions that
    /// are not single-column are skipped (they cannot be partitioning
    /// expressions).
    pub fn from_exprs<'a>(exprs: impl IntoIterator<Item = &'a ScalarExpr>) -> Self {
        PartitionSet::from_analyzed(exprs.into_iter().filter_map(analyze_transform))
    }

    /// Convenience: a set of identity transforms over named columns.
    pub fn from_columns(cols: impl IntoIterator<Item = &'static str>) -> Self {
        PartitionSet::from_analyzed(cols.into_iter().map(|c| AnalyzedExpr {
            column: ColumnRef::bare(c),
            transform: ColumnTransform::Identity,
        }))
    }

    /// The analyzed expressions, sorted by column name.
    pub fn exprs(&self) -> &[AnalyzedExpr] {
        &self.exprs
    }

    /// Whether the set is empty (no usable partitioning).
    pub fn is_empty(&self) -> bool {
        self.exprs.is_empty()
    }

    /// Number of expressions.
    pub fn len(&self) -> usize {
        self.exprs.len()
    }

    /// Finds the entry over a base column, if any.
    pub fn entry_for(&self, column: &ColumnRef) -> Option<&AnalyzedExpr> {
        self.exprs.iter().find(|e| e.column.same_as(column))
    }

    /// Whether partitioning by `self` keeps together every group of a
    /// query whose per-column grouping transforms are `requirement` —
    /// i.e. every expression of `self` is a coarsening of some
    /// expression in `requirement`. This is the compatibility test of
    /// Section 3.4: any subset of coarsenings of a compatible set is
    /// itself compatible.
    pub fn satisfies(&self, requirement: &PartitionSet) -> bool {
        if self.is_empty() {
            return false;
        }
        self.exprs.iter().all(|p| {
            requirement
                .entry_for(&p.column)
                .is_some_and(|r| p.transform.coarsens(&r.transform))
        })
    }

    /// The scalar expressions of the set (for building hash functions).
    pub fn to_scalar_exprs(&self) -> Vec<ScalarExpr> {
        self.exprs
            .iter()
            .map(|e| e.transform.to_expr(&e.column))
            .collect()
    }
}

impl fmt::Display for PartitionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.exprs.is_empty() {
            return write!(f, "{{}}");
        }
        write!(f, "{{")?;
        for (i, e) in self.exprs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", e.render())?;
        }
        write!(f, "}}")
    }
}

/// `Reconcile_Partn_Sets` (Section 4.1): the largest partitioning set
/// compatible with both inputs. Column-wise: a column present in both
/// sets survives with the least-common-denominator transform; a column
/// present in only one set is dropped (a partitioning expression over it
/// would split the other query's groups); columns whose transforms have
/// no common coarsening are dropped. Returns the empty set when nothing
/// survives.
///
/// Reproduces the paper's examples:
///
/// ```
/// use qap_expr::ScalarExpr;
/// use qap_partition::{reconcile_partition_sets, PartitionSet};
///
/// // {srcIP, destIP} ⊓ {srcIP, destIP, srcPort, destPort} = {srcIP, destIP}
/// let a = PartitionSet::from_columns(["srcIP", "destIP"]);
/// let b = PartitionSet::from_columns(["srcIP", "destIP", "srcPort", "destPort"]);
/// assert_eq!(reconcile_partition_sets(&a, &b), a);
///
/// // {time/60, srcIP} ⊓ {time/90, srcIP & 0xFFF0} = {time/180, srcIP & 0xFFF0}
/// let a = PartitionSet::from_exprs([
///     &ScalarExpr::col("time").div(60),
///     &ScalarExpr::col("srcIP"),
/// ]);
/// let b = PartitionSet::from_exprs([
///     &ScalarExpr::col("time").div(90),
///     &ScalarExpr::col("srcIP").mask(0xFFF0),
/// ]);
/// assert_eq!(
///     reconcile_partition_sets(&a, &b).to_string(),
///     "{srcIP & 0xFFF0, time / 180}"
/// );
/// ```
pub fn reconcile_partition_sets(a: &PartitionSet, b: &PartitionSet) -> PartitionSet {
    let mut out = Vec::new();
    for ea in a.exprs() {
        if let Some(eb) = b.entry_for(&ea.column) {
            if let Some(t) = ea.transform.reconcile(&eb.transform) {
                out.push(AnalyzedExpr {
                    column: ea.column.clone(),
                    transform: t,
                });
            }
        }
    }
    PartitionSet::from_analyzed(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(entries: &[(&str, ColumnTransform)]) -> PartitionSet {
        PartitionSet::from_analyzed(entries.iter().map(|(c, t)| AnalyzedExpr {
            column: ColumnRef::bare(*c),
            transform: t.clone(),
        }))
    }

    #[test]
    fn paper_example_attribute_intersection() {
        let flows5 = PartitionSet::from_columns(["srcIP", "destIP", "srcPort", "destPort"]);
        let flows2 = PartitionSet::from_columns(["srcIP", "destIP"]);
        let r = reconcile_partition_sets(&flows5, &flows2);
        assert_eq!(r, PartitionSet::from_columns(["srcIP", "destIP"]));
    }

    #[test]
    fn paper_example_lcd_transforms() {
        // {time/60, srcIP, destIP} ⊓ {time/90, srcIP & 0xFFF0}
        //   = {time/180, srcIP & 0xFFF0}
        let a = ps(&[
            ("time", ColumnTransform::Div(60)),
            ("srcIP", ColumnTransform::Identity),
            ("destIP", ColumnTransform::Identity),
        ]);
        let b = ps(&[
            ("time", ColumnTransform::Div(90)),
            ("srcIP", ColumnTransform::Mask(0xFFF0)),
        ]);
        let r = reconcile_partition_sets(&a, &b);
        assert_eq!(
            r,
            ps(&[
                ("time", ColumnTransform::Div(180)),
                ("srcIP", ColumnTransform::Mask(0xFFF0)),
            ])
        );
    }

    #[test]
    fn reconcile_disjoint_sets_is_empty() {
        let a = PartitionSet::from_columns(["srcIP"]);
        let b = PartitionSet::from_columns(["destIP"]);
        assert!(reconcile_partition_sets(&a, &b).is_empty());
    }

    #[test]
    fn reconcile_incompatible_transforms_drops_column() {
        let a = ps(&[
            ("time", ColumnTransform::Div(60)),
            ("srcIP", ColumnTransform::Identity),
        ]);
        let b = ps(&[
            ("time", ColumnTransform::Mask(0xFF)),
            ("srcIP", ColumnTransform::Identity),
        ]);
        let r = reconcile_partition_sets(&a, &b);
        assert_eq!(r, PartitionSet::from_columns(["srcIP"]));
    }

    #[test]
    fn satisfies_subset_rule() {
        // Partitioning on a subset of a query's grouping attributes is
        // compatible (Section 3.5.2: "any subset of a compatible
        // partitioning set is also compatible").
        let requirement = PartitionSet::from_columns(["srcIP", "destIP", "srcPort", "destPort"]);
        let p = PartitionSet::from_columns(["srcIP", "destIP"]);
        assert!(p.satisfies(&requirement));
        // But not on a column the query does not group by.
        let bad = PartitionSet::from_columns(["srcIP", "protocol"]);
        assert!(!bad.satisfies(&requirement));
    }

    #[test]
    fn satisfies_respects_coarsening() {
        let requirement = ps(&[
            ("time", ColumnTransform::Div(60)),
            ("srcIP", ColumnTransform::Identity),
        ]);
        // time/180 is a function of time/60: compatible.
        assert!(ps(&[("time", ColumnTransform::Div(180))]).satisfies(&requirement));
        // time/90 is not.
        assert!(!ps(&[("time", ColumnTransform::Div(90))]).satisfies(&requirement));
        // srcIP & mask coarsens srcIP: compatible.
        assert!(ps(&[("srcIP", ColumnTransform::Mask(0xFFF0))]).satisfies(&requirement));
    }

    #[test]
    fn empty_set_satisfies_nothing() {
        let req = PartitionSet::from_columns(["srcIP"]);
        assert!(!PartitionSet::empty().satisfies(&req));
    }

    #[test]
    fn duplicate_columns_reconcile_on_build() {
        let p = ps(&[
            ("srcIP", ColumnTransform::Mask(0xFF00)),
            ("srcIP", ColumnTransform::Mask(0x0FF0)),
        ]);
        assert_eq!(p, ps(&[("srcIP", ColumnTransform::Mask(0x0F00))]));
    }

    #[test]
    fn irreconcilable_duplicates_drop_column() {
        let p = ps(&[
            ("time", ColumnTransform::Div(60)),
            ("time", ColumnTransform::Mask(0xFF)),
            ("srcIP", ColumnTransform::Identity),
        ]);
        assert_eq!(p, PartitionSet::from_columns(["srcIP"]));
    }

    #[test]
    fn from_exprs_skips_multi_column() {
        let exprs = [
            ScalarExpr::col("srcIP").mask(0xFFF0),
            ScalarExpr::col("a").binary(qap_expr::BinOp::Add, ScalarExpr::col("b")),
        ];
        let p = PartitionSet::from_exprs(exprs.iter());
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn display_renders_gsql() {
        let p = ps(&[
            ("srcIP", ColumnTransform::Mask(0xFFF0)),
            ("destIP", ColumnTransform::Identity),
        ]);
        assert_eq!(p.to_string(), "{destIP, srcIP & 0xFFF0}");
        assert_eq!(PartitionSet::empty().to_string(), "{}");
    }

    #[test]
    fn reconcile_commutative_and_idempotent() {
        let a = ps(&[
            ("time", ColumnTransform::Div(60)),
            ("srcIP", ColumnTransform::Identity),
        ]);
        let b = ps(&[("time", ColumnTransform::Div(90))]);
        assert_eq!(
            reconcile_partition_sets(&a, &b),
            reconcile_partition_sets(&b, &a)
        );
        assert_eq!(reconcile_partition_sets(&a, &a), a);
    }
}
