//! Compatible-partitioning-set inference for query nodes
//! (Section 3.5 of the paper).

use std::fmt;

use qap_expr::{analyze_transform, AnalyzedExpr};
use qap_plan::{source_exprs_for_node, LogicalNode, NodeId, QueryDag};
use qap_types::Temporality;

use crate::PartitionSet;

/// What partitionings a query node tolerates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Compatibility {
    /// Compatible with *any* partitioning: selections, projections,
    /// unions and sources (Section 3.5: "Other types of streaming
    /// queries (selection, projection, union) are always compatible with
    /// any partitioning sets").
    Any,
    /// Compatible with coarsenings of subsets of this set. An empty set
    /// means no non-trivial partitioning is compatible (e.g. an
    /// aggregation whose only group-by variables are temporal or
    /// aggregate results).
    Set(PartitionSet),
    /// Compatible only with subsets whose expressions *exactly* match
    /// entries of this set — no coarsening. This is the paper's literal
    /// Section 3.5.3 join rule (and what Gigascope's optimizer
    /// implemented: Section 6.2 declares `(srcIP & 0xFFF0, destIP)`
    /// incompatible with a 5-tuple join, even though a coarsening of the
    /// join key is semantically sound). Produced only under
    /// [`AnalysisOptions::strict_join_compatibility`].
    ExactSet(PartitionSet),
}

impl Compatibility {
    /// Whether partitioning by `ps` is compatible with this node.
    pub fn allows(&self, ps: &PartitionSet) -> bool {
        match self {
            Compatibility::Any => true,
            Compatibility::Set(req) => ps.satisfies(req),
            Compatibility::ExactSet(req) => {
                !ps.is_empty()
                    && ps.exprs().iter().all(|p| {
                        req.entry_for(&p.column)
                            .is_some_and(|r| r.transform == p.transform)
                    })
            }
        }
    }

    /// The requirement set, when constrained.
    pub fn as_set(&self) -> Option<&PartitionSet> {
        match self {
            Compatibility::Any => None,
            Compatibility::Set(s) | Compatibility::ExactSet(s) => Some(s),
        }
    }
}

impl fmt::Display for Compatibility {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Compatibility::Any => write!(f, "any"),
            Compatibility::Set(s) => write!(f, "{s}"),
            Compatibility::ExactSet(s) => write!(f, "exactly {s}"),
        }
    }
}

/// Knobs of the compatibility analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisOptions {
    /// When set, join nodes demand exact-expression matches (the paper's
    /// literal rule) instead of accepting semantically-sound coarsenings
    /// of their join keys. Use this to reproduce the paper's Section 6.2
    /// behaviour, where the masked aggregation set leaves the join
    /// centralized.
    pub strict_join_compatibility: bool,
}

/// Infers the compatible partitioning set of one node.
///
/// - **Aggregation** (Section 3.5.2): the group-by variables that are
///   scalar expressions of source-stream attributes (provenance-lowered),
///   excluding temporal attributes (Section 3.5.1) and aggregate results.
/// - **Join** (Section 3.5.3): from each non-temporal equality predicate
///   `se(l) = se(r)`, the reconciliation of the two sides' lowered
///   transforms when they target the same source attribute (the
///   framework's single-partitioning-set assumption, Section 4).
/// - **σ/π/∪/source**: compatible with anything.
pub fn compatible_set(dag: &QueryDag, id: NodeId) -> Compatibility {
    compatible_set_with(dag, id, AnalysisOptions::default())
}

/// [`compatible_set`] with explicit [`AnalysisOptions`].
pub fn compatible_set_with(dag: &QueryDag, id: NodeId, opts: AnalysisOptions) -> Compatibility {
    match dag.node(id) {
        LogicalNode::Source { .. }
        | LogicalNode::SelectProject { .. }
        | LogicalNode::Merge { .. } => Compatibility::Any,
        LogicalNode::Aggregate {
            input, group_by, ..
        } => {
            let exprs = group_by.iter().filter_map(|g| {
                let lowered = source_exprs_for_node(dag, *input, &g.expr)?;
                let analyzed = analyze_transform(&lowered)?;
                if is_temporal_source(dag, &analyzed) {
                    None
                } else {
                    Some(analyzed)
                }
            });
            Compatibility::Set(PartitionSet::from_analyzed(exprs))
        }
        LogicalNode::Join {
            left, right, equi, ..
        } => {
            let exprs = equi.iter().filter_map(|(le, re)| {
                let ll = source_exprs_for_node(dag, *left, le)?;
                let rl = source_exprs_for_node(dag, *right, re)?;
                let la = analyze_transform(&ll)?;
                let ra = analyze_transform(&rl)?;
                // Under the single shared partitioning set, a partition
                // expression must evaluate equally on both sides of every
                // match. That holds only when both predicate sides lower
                // to the *same* source expression: for asymmetric
                // predicates like `S1.x = S2.x/2`, no coarsening keeps
                // matching pairs collocated (x=3 matches y=6, but any
                // function of the raw attribute sees 3 vs 6).
                if !la.column.same_as(&ra.column) || la.transform != ra.transform {
                    return None;
                }
                if is_temporal_source(dag, &la) {
                    None
                } else {
                    Some(la)
                }
            });
            let set = PartitionSet::from_analyzed(exprs);
            if opts.strict_join_compatibility {
                Compatibility::ExactSet(set)
            } else {
                Compatibility::Set(set)
            }
        }
    }
}

/// Compatible sets for every node of the DAG, indexed by node id.
pub fn node_compatibilities(dag: &QueryDag) -> Vec<Compatibility> {
    node_compatibilities_with(dag, AnalysisOptions::default())
}

/// [`node_compatibilities`] with explicit [`AnalysisOptions`].
pub fn node_compatibilities_with(dag: &QueryDag, opts: AnalysisOptions) -> Vec<Compatibility> {
    dag.topo_order()
        .map(|id| compatible_set_with(dag, id, opts))
        .collect()
}

/// Whether the analyzed source expression reads a temporal attribute of
/// a base stream *this DAG actually scans* (lowered expressions are in
/// bare source-attribute terms; checking unrelated catalog streams would
/// strip same-named non-temporal attributes).
fn is_temporal_source(dag: &QueryDag, e: &AnalyzedExpr) -> bool {
    dag.topo_order().any(|id| {
        let LogicalNode::Source { stream, .. } = dag.node(id) else {
            return false;
        };
        dag.catalog()
            .get(stream)
            .and_then(|s| s.field(&e.column.name))
            .is_some_and(|f| f.temporality() != Temporality::None)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qap_sql::QuerySetBuilder;
    use qap_types::Catalog;

    fn build(queries: &[(&str, &str)]) -> QueryDag {
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        for (name, sql) in queries {
            b.add_query(name, sql).unwrap();
        }
        b.build()
    }

    #[test]
    fn flows_compatible_with_its_nontemporal_group_vars() {
        let dag = build(&[(
            "flows",
            "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
             GROUP BY time/60 as tb, srcIP, destIP",
        )]);
        let id = dag.query_node("flows").unwrap();
        let c = compatible_set(&dag, id);
        // tb = time/60 is temporal and excluded (Section 3.5.1).
        assert_eq!(
            c.as_set().unwrap(),
            &PartitionSet::from_columns(["srcIP", "destIP"])
        );
    }

    #[test]
    fn tcp_flows_five_tuple() {
        let dag = build(&[(
            "tcp_flows",
            "SELECT tb, srcIP, destIP, srcPort, destPort, COUNT(*) as cnt, SUM(len) as bytes \
             FROM TCP GROUP BY time/60 as tb, srcIP, destIP, srcPort, destPort",
        )]);
        let c = compatible_set(&dag, dag.query_node("tcp_flows").unwrap());
        assert_eq!(
            c.as_set().unwrap(),
            &PartitionSet::from_columns(["srcIP", "destIP", "srcPort", "destPort"])
        );
    }

    #[test]
    fn higher_level_aggregation_lowers_through_provenance() {
        let dag = build(&[
            (
                "flows",
                "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
                 GROUP BY time/60 as tb, srcIP, destIP",
            ),
            (
                "heavy_flows",
                "SELECT tb, srcIP, MAX(cnt) as max_cnt FROM flows GROUP BY tb, srcIP",
            ),
        ]);
        let c = compatible_set(&dag, dag.query_node("heavy_flows").unwrap());
        // tb lowers to time/60 (temporal, excluded); srcIP survives.
        assert_eq!(c.as_set().unwrap(), &PartitionSet::from_columns(["srcIP"]));
    }

    #[test]
    fn aggregate_grouping_on_aggregate_result_excluded() {
        let dag = build(&[
            (
                "flows",
                "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
                 GROUP BY time/60 as tb, srcIP, destIP",
            ),
            (
                "by_count",
                "SELECT tb, cnt, COUNT(*) as n FROM flows GROUP BY tb, cnt",
            ),
        ]);
        let c = compatible_set(&dag, dag.query_node("by_count").unwrap());
        // cnt is an aggregate result — no provenance, no partitioning.
        assert!(c.as_set().unwrap().is_empty());
    }

    #[test]
    fn join_infers_from_equality_predicates() {
        let dag = build(&[
            (
                "flows",
                "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
                 GROUP BY time/60 as tb, srcIP, destIP",
            ),
            (
                "heavy_flows",
                "SELECT tb, srcIP, MAX(cnt) as max_cnt FROM flows GROUP BY tb, srcIP",
            ),
            (
                "flow_pairs",
                "SELECT S1.tb, S1.srcIP, S1.max_cnt, S2.max_cnt \
                 FROM heavy_flows S1, heavy_flows S2 \
                 WHERE S1.srcIP = S2.srcIP and S1.tb = S2.tb+1",
            ),
        ]);
        let c = compatible_set(&dag, dag.query_node("flow_pairs").unwrap());
        assert_eq!(c.as_set().unwrap(), &PartitionSet::from_columns(["srcIP"]));
    }

    #[test]
    fn subnet_masked_grouping_survives_with_mask() {
        let dag = build(&[(
            "subnet_stats",
            "SELECT tb, subnet, destIP, COUNT(*) as cnt FROM TCP \
             GROUP BY time/60 as tb, srcIP & 0xFFF0 as subnet, destIP",
        )]);
        let c = compatible_set(&dag, dag.query_node("subnet_stats").unwrap());
        let set = c.as_set().unwrap();
        assert_eq!(set.to_string(), "{destIP, srcIP & 0xFFF0}");
    }

    #[test]
    fn select_project_compatible_with_any() {
        let dag = build(&[(
            "dns",
            "SELECT time, srcIP, len FROM TCP WHERE destPort = 53",
        )]);
        let c = compatible_set(&dag, dag.query_node("dns").unwrap());
        assert_eq!(c, Compatibility::Any);
        assert!(c.allows(&PartitionSet::from_columns(["destIP"])));
        assert!(c.allows(&PartitionSet::empty()));
    }

    #[test]
    fn allows_checks_coarsening() {
        let dag = build(&[(
            "flows",
            "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
             GROUP BY time/60 as tb, srcIP, destIP",
        )]);
        let c = compatible_set(&dag, dag.query_node("flows").unwrap());
        assert!(c.allows(&PartitionSet::from_columns(["srcIP"])));
        assert!(c.allows(&PartitionSet::from_columns(["srcIP", "destIP"])));
        // Masked coarsening of srcIP is fine.
        let masked = PartitionSet::from_exprs([&qap_expr::ScalarExpr::col("srcIP").mask(0xFFF0)]);
        assert!(c.allows(&masked));
        // Partitioning on a non-grouped attribute splits groups.
        assert!(!c.allows(&PartitionSet::from_columns(["srcPort"])));
    }
}
