//! Building query-set DAGs from GSQL text.

use qap_plan::{NodeId, QueryDag};
use qap_types::Catalog;

use crate::analyzer::analyze_into;
use crate::parser::{parse_select, Parser};
use crate::{SelectStmt, SqlResult};

/// Incrementally assembles a [`QueryDag`] from named GSQL queries.
///
/// Mirrors how the paper presents query sets: a sequence of
/// `Query flows: SELECT ...` definitions where later queries read
/// earlier ones by name. Example:
///
/// ```
/// use qap_sql::QuerySetBuilder;
/// use qap_types::Catalog;
///
/// let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
/// b.add_query(
///     "flows",
///     "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
///      GROUP BY time/60 as tb, srcIP, destIP",
/// )
/// .unwrap();
/// b.add_query(
///     "heavy_flows",
///     "SELECT tb, srcIP, MAX(cnt) as max_cnt FROM flows GROUP BY tb, srcIP",
/// )
/// .unwrap();
/// let dag = b.build();
/// assert!(dag.query_node("heavy_flows").is_some());
/// ```
#[derive(Debug)]
pub struct QuerySetBuilder {
    dag: QueryDag,
}

impl QuerySetBuilder {
    /// Starts a query set over a catalog of base streams.
    pub fn new(catalog: Catalog) -> Self {
        QuerySetBuilder {
            dag: QueryDag::new(catalog),
        }
    }

    /// Parses and registers one named query. Later queries may reference
    /// it in their FROM clause.
    pub fn add_query(&mut self, name: &str, sql: &str) -> SqlResult<NodeId> {
        let stmt = parse_select(sql)?;
        let sql = sql.trim();
        let sql = sql.strip_suffix(';').unwrap_or(sql);
        // A `;` that a trailing `--` comment swallows is harmless: the
        // newline ends the comment, and the terminator is optional.
        self.analyze(Some(name), &stmt, &format!("QUERY {name}: {sql};\n"))
    }

    /// Adds one parsed query to the DAG and records `text`, the script
    /// statement that adds it again ([`QueryDag::gsql`]).
    fn analyze(&mut self, name: Option<&str>, stmt: &SelectStmt, text: &str) -> SqlResult<NodeId> {
        let from = self.dag.len();
        let id = analyze_into(&mut self.dag, name, stmt)?;
        self.dag.record_gsql(from, text);
        Ok(id)
    }

    /// Parses a whole script of the form
    /// `QUERY <name>: SELECT ... ; QUERY <name>: SELECT ... ;`.
    /// Bare `SELECT` statements (no `QUERY` prefix) register as unnamed
    /// roots, and `STREAM name(field type [increasing], ...);`
    /// definitions register additional base stream schemas. Returns the
    /// query nodes in definition order.
    pub fn parse_script(&mut self, script: &str) -> SqlResult<Vec<NodeId>> {
        let mut parser = Parser::from_input(script)?;
        let mut nodes = Vec::new();
        while !parser.at_eof() {
            if parser.eat_keyword("STREAM") {
                let schema = parser.stream_def()?;
                parser.eat_symbol(";");
                self.dag.register_stream(schema)?;
                continue;
            }
            let start = parser.peek_pos();
            let name = if parser.eat_keyword("QUERY") {
                let n = parser.expect_ident()?;
                // Accept `QUERY name:` with a colon, as in the paper's prose.
                parser.eat_symbol(":");
                Some(n)
            } else {
                None
            };
            let stmt = parser.select_stmt()?;
            parser.eat_symbol(";");
            // The statement's own text, from its first token to the next
            // statement's (a trailing comment's newline kept).
            let text = format!("{}\n", script[start..parser.peek_pos()].trim_end());
            nodes.push(self.analyze(name.as_deref(), &stmt, &text)?);
        }
        Ok(nodes)
    }

    /// Registers a named stream union (`Merge`) of previously defined
    /// queries or base streams. All inputs must share an output schema
    /// shape; the union is a first-class query node that later queries
    /// can read and the distributed optimizer can keep partitioned
    /// (partition `i` of the union is the union of the inputs'
    /// partition `i`).
    pub fn add_union(&mut self, name: &str, inputs: &[&str]) -> SqlResult<NodeId> {
        let mut ids = Vec::with_capacity(inputs.len());
        for input in inputs {
            let id = match self.dag.query_node(input) {
                Some(id) => id,
                None if self.dag.catalog().contains(input) => self.dag.add_source(input)?,
                None => {
                    return Err(crate::SqlError::Analyze(format!(
                        "union input '{input}' is neither a base stream nor a defined query"
                    )))
                }
            };
            ids.push(id);
        }
        let node = self
            .dag
            .add_node(qap_plan::LogicalNode::Merge { inputs: ids })?;
        self.dag.name_query(name, node)?;
        Ok(node)
    }

    /// Read access to the DAG built so far.
    pub fn dag(&self) -> &QueryDag {
        &self.dag
    }

    /// Finishes, returning the DAG.
    pub fn build(self) -> QueryDag {
        self.dag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qap_plan::{render_dag, LogicalNode};

    fn builder() -> QuerySetBuilder {
        QuerySetBuilder::new(Catalog::with_network_schemas())
    }

    /// The full Section 3.2 query set.
    fn section_3_2(b: &mut QuerySetBuilder) {
        b.add_query(
            "flows",
            "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
             GROUP BY time/60 as tb, srcIP, destIP",
        )
        .unwrap();
        b.add_query(
            "heavy_flows",
            "SELECT tb, srcIP, MAX(cnt) as max_cnt FROM flows GROUP BY tb, srcIP",
        )
        .unwrap();
        b.add_query(
            "flow_pairs",
            "SELECT S1.tb, S1.srcIP, S1.max_cnt, S2.max_cnt \
             FROM heavy_flows S1, heavy_flows S2 \
             WHERE S1.srcIP = S2.srcIP and S1.tb = S2.tb+1",
        )
        .unwrap();
    }

    #[test]
    fn section_3_2_query_set_builds() {
        let mut b = builder();
        section_3_2(&mut b);
        let dag = b.build();
        let fp = dag.query_node("flow_pairs").unwrap();
        assert_eq!(dag.roots(), vec![fp]);
        match dag.node(fp) {
            LogicalNode::Join { temporal, equi, .. } => {
                assert_eq!(temporal.offset, 1);
                assert_eq!(temporal.left.to_string(), "S1.tb");
                assert_eq!(equi.len(), 1);
            }
            other => panic!("expected join, got {other:?}"),
        }
        // Output columns deduplicated: max_cnt, max_cnt_1.
        let s = dag.schema(fp);
        assert!(s.index_of("max_cnt").is_some());
        assert!(s.index_of("max_cnt_1").is_some());
    }

    #[test]
    fn suspicious_flows_query_with_having() {
        let mut b = builder();
        let id = b
            .add_query(
                "suspicious",
                "SELECT tb, srcIP, destIP, srcPort, destPort, \
                 OR_AGGR(flags) as orflag, COUNT(*) as cnt, SUM(len) as bytes \
                 FROM TCP \
                 GROUP BY time as tb, srcIP, destIP, srcPort, destPort \
                 HAVING OR_AGGR(flags) = 0x29",
            )
            .unwrap();
        let dag = b.build();
        match dag.node(id) {
            LogicalNode::Aggregate {
                aggregates, having, ..
            } => {
                // HAVING reuses the selected orflag slot; no hidden agg.
                assert_eq!(aggregates.len(), 3);
                assert!(having.as_ref().unwrap().to_string().contains("orflag"));
            }
            other => panic!("expected aggregate, got {other:?}"),
        }
    }

    #[test]
    fn having_aggregate_not_in_select_gets_hidden_slot() {
        let mut b = builder();
        let id = b
            .add_query(
                "q",
                "SELECT tb, srcIP, COUNT(*) as cnt FROM TCP \
                 GROUP BY time/60 as tb, srcIP HAVING SUM(len) > 1000",
            )
            .unwrap();
        let dag = b.build();
        // A projection wrapper drops the hidden __h aggregate.
        let s = dag.schema(id);
        assert_eq!(
            s.fields().iter().map(|f| f.name()).collect::<Vec<_>>(),
            vec!["tb", "srcIP", "cnt"]
        );
        match dag.node(id) {
            LogicalNode::SelectProject { input, .. } => match dag.node(*input) {
                LogicalNode::Aggregate { aggregates, .. } => {
                    assert_eq!(aggregates.len(), 2);
                    assert_eq!(aggregates[1].name, "__h1");
                }
                other => panic!("expected aggregate below wrapper, got {other:?}"),
            },
            other => panic!("expected wrapper, got {other:?}"),
        }
    }

    #[test]
    fn script_parsing_builds_dag() {
        let mut b = builder();
        let nodes = b
            .parse_script(
                "QUERY flows: SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
                 GROUP BY time/60 as tb, srcIP, destIP;\n\
                 QUERY heavy_flows: SELECT tb, srcIP, MAX(cnt) as max_cnt \
                 FROM flows GROUP BY tb, srcIP;",
            )
            .unwrap();
        assert_eq!(nodes.len(), 2);
        assert!(b.dag().query_node("heavy_flows").is_some());
        let rendered = render_dag(b.dag());
        assert!(rendered.contains("[heavy_flows]"), "{rendered}");
    }

    #[test]
    fn select_project_query() {
        let mut b = builder();
        let id = b
            .add_query(
                "dns",
                "SELECT time, srcIP, len FROM TCP WHERE destPort = 53",
            )
            .unwrap();
        let dag = b.build();
        assert!(matches!(dag.node(id), LogicalNode::SelectProject { .. }));
        assert_eq!(dag.schema(id).arity(), 3);
    }

    #[test]
    fn unknown_stream_rejected() {
        let mut b = builder();
        let err = b.add_query("q", "SELECT x FROM NOSUCH").unwrap_err();
        assert!(err.to_string().contains("NOSUCH"), "{err}");
    }

    #[test]
    fn join_without_temporal_pred_rejected() {
        let mut b = builder();
        b.add_query(
            "flows",
            "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
             GROUP BY time/60 as tb, srcIP, destIP",
        )
        .unwrap();
        let err = b
            .add_query(
                "bad",
                "SELECT S1.cnt FROM flows S1, flows S2 WHERE S1.srcIP = S2.srcIP",
            )
            .unwrap_err();
        assert!(err.to_string().contains("temporal"), "{err}");
    }

    #[test]
    fn ambiguous_unqualified_column_resolves_left() {
        let mut b = builder();
        b.add_query(
            "flows",
            "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
             GROUP BY time/60 as tb, srcIP, destIP",
        )
        .unwrap();
        // srcIP exists in both inputs; it resolves to S1 (the left).
        let id = b
            .add_query(
                "ok",
                "SELECT srcIP, tb FROM flows S1, flows S2 \
                 WHERE S1.tb = S2.tb and S1.srcIP = S2.srcIP",
            )
            .unwrap();
        assert_eq!(b.dag().schema(id).arity(), 2);
    }

    #[test]
    fn tumbling_window_join_on_same_epoch() {
        let mut b = builder();
        // Section 3.1's PKT self-join.
        let id = b
            .add_query(
                "paired",
                "SELECT time, PKT1.srcIP, PKT1.destIP, PKT1.len + PKT2.len as total \
                 FROM PKT AS PKT1 JOIN PKT AS PKT2 \
                 WHERE PKT1.time = PKT2.time and PKT1.srcIP = PKT2.srcIP \
                 and PKT1.destIP = PKT2.destIP",
            )
            .unwrap();
        let dag = b.build();
        match dag.node(id) {
            LogicalNode::Join { temporal, equi, .. } => {
                assert_eq!(temporal.offset, 0);
                assert_eq!(equi.len(), 2);
            }
            other => panic!("expected join, got {other:?}"),
        }
    }

    #[test]
    fn aggregation_without_group_by_rejected() {
        let mut b = builder();
        let err = b.add_query("q", "SELECT COUNT(*) FROM TCP").unwrap_err();
        assert!(err.to_string().contains("GROUP BY"), "{err}");
    }

    #[test]
    fn script_with_stream_definition() {
        let mut b = QuerySetBuilder::new(Catalog::new());
        let nodes = b
            .parse_script(
                "STREAM NETFLOW(ts uint increasing, router uint, iface uint, octets uint);
                 QUERY totals: SELECT tb, router, SUM(octets) as bytes FROM NETFLOW                  GROUP BY ts/300 as tb, router;",
            )
            .unwrap();
        assert_eq!(nodes.len(), 1);
        let dag = b.build();
        assert!(dag.catalog().contains("NETFLOW"));
        let s = dag.schema(nodes[0]);
        assert_eq!(
            s.fields().iter().map(|f| f.name()).collect::<Vec<_>>(),
            vec!["tb", "router", "bytes"]
        );
    }

    #[test]
    fn stream_definition_field_defaults() {
        let mut b = QuerySetBuilder::new(Catalog::new());
        b.parse_script("STREAM S(t increasing, a, b int, label string);")
            .unwrap();
        let dag = b.build();
        let s = dag.catalog().get("S").unwrap();
        use qap_types::{DataType, Temporality};
        assert_eq!(s.field("t").unwrap().temporality(), Temporality::Increasing);
        assert_eq!(s.field("t").unwrap().data_type(), DataType::UInt);
        assert_eq!(s.field("a").unwrap().data_type(), DataType::UInt);
        assert_eq!(s.field("b").unwrap().data_type(), DataType::Int);
        assert_eq!(s.field("label").unwrap().data_type(), DataType::Str);
    }

    #[test]
    fn bad_stream_definition_rejected() {
        let mut b = QuerySetBuilder::new(Catalog::new());
        assert!(b.parse_script("STREAM S(t weird);").is_err());
        assert!(b
            .parse_script("STREAM TCP2(t increasing, t uint);")
            .is_err());
    }

    #[test]
    fn union_of_same_shape_queries() {
        let mut b = builder();
        b.add_query(
            "web",
            "SELECT tb, srcIP, COUNT(*) as c FROM TCP WHERE destPort = 80 \
             GROUP BY time/60 as tb, srcIP",
        )
        .unwrap();
        b.add_query(
            "dns",
            "SELECT tb, srcIP, COUNT(*) as c FROM TCP WHERE destPort = 53 \
             GROUP BY time/60 as tb, srcIP",
        )
        .unwrap();
        let u = b.add_union("monitored", &["web", "dns"]).unwrap();
        // The union can feed a further aggregation.
        let top = b
            .add_query(
                "combined",
                "SELECT tb, srcIP, SUM(c) as total FROM monitored GROUP BY tb, srcIP",
            )
            .unwrap();
        let dag = b.build();
        assert!(matches!(dag.node(u), LogicalNode::Merge { .. }));
        assert_eq!(dag.roots(), vec![top]);
    }

    #[test]
    fn union_leaves_the_dag_without_gsql() {
        let mut b = builder();
        assert_eq!(b.dag().gsql(), Some(""));
        b.add_union("packets", &["TCP"]).unwrap();
        assert_eq!(b.dag().gsql(), None);
        let sql = "SELECT tb, COUNT(*) as c FROM packets GROUP BY time/60 as tb";
        b.add_query("per_epoch", sql).unwrap();
        assert_eq!(b.dag().gsql(), None, "no later text describes the union");
    }

    #[test]
    fn stream_defs_parse_back_to_equal_schemas() {
        use qap_types::{DataType, Field, Schema, Temporality};
        let mut catalog = Catalog::with_network_schemas();
        let fields = vec![
            Field::temporal("ts", DataType::UInt, Temporality::Decreasing),
            Field::new("delta", DataType::Int),
            Field::new("ok", DataType::Bool),
            Field::new("label", DataType::Str),
        ];
        catalog
            .register(Schema::new("FLOWLOG", fields).unwrap())
            .unwrap();
        let mut b = QuerySetBuilder::new(Catalog::new());
        b.parse_script(&catalog.stream_defs()).unwrap();
        let rebuilt = b.build();
        for name in ["TCP", "PKT", "FLOWLOG"] {
            let schema = catalog.get(name).unwrap();
            assert_eq!(rebuilt.catalog().get(name), Some(schema), "{name}");
        }
        assert_eq!(rebuilt.catalog().stream_defs(), catalog.stream_defs());
    }

    #[test]
    fn union_of_unknown_input_rejected() {
        let mut b = builder();
        let err = b.add_union("u", &["nosuch"]).unwrap_err();
        assert!(err.to_string().contains("nosuch"), "{err}");
    }

    #[test]
    fn group_by_subnet_mask() {
        // Section 6.2's aggregation on (srcIP & 0xFFF0, destIP).
        let mut b = builder();
        let id = b
            .add_query(
                "subnet_stats",
                "SELECT tb, subnet, destIP, COUNT(*) as cnt, SUM(len) as bytes FROM TCP \
                 GROUP BY time/60 as tb, srcIP & 0xFFF0 as subnet, destIP",
            )
            .unwrap();
        let dag = b.build();
        match dag.node(id) {
            LogicalNode::Aggregate { group_by, .. } => {
                assert_eq!(group_by[1].expr.to_string(), "srcIP & 65520");
            }
            other => panic!("expected aggregate, got {other:?}"),
        }
    }
}
