//! The query-set DAG container with schema inference.

use std::collections::HashMap;

use qap_expr::{analyze_transform, BinOp, ColumnRef, ColumnTransform, ExprError, ScalarExpr};
use qap_types::{Catalog, DataType, Field, Schema, Temporality, Value};

use crate::{LogicalNode, NamedExpr, PlanError, PlanResult};

/// Index of a node within a [`QueryDag`].
pub type NodeId = usize;

/// A DAG of streaming query nodes over a catalog of base streams.
///
/// Nodes are appended bottom-up, so node ids are already a topological
/// order (children strictly precede parents); every `add_*` method
/// validates expressions against input schemas and computes the node's
/// output schema eagerly, so a fully-constructed DAG is well-typed.
#[derive(Debug, Clone)]
pub struct QueryDag {
    catalog: Catalog,
    nodes: Vec<LogicalNode>,
    schemas: Vec<Schema>,
    /// Reverse adjacency, maintained on insertion: `parents[c]` lists
    /// the nodes consuming `c` (the analysis and lowering layers walk
    /// parent edges in tight loops).
    parents: Vec<Vec<NodeId>>,
    names: HashMap<String, NodeId>,
    source_ids: HashMap<String, NodeId>,
    /// Per-node provenance: which node of an *originating* DAG this node
    /// implements. Physical plans record the logical node each replica,
    /// sub-aggregate, or central operator realizes; purely synthetic
    /// nodes (collecting merges, finishing projections) carry `None`.
    origins: Vec<Option<NodeId>>,
    /// The GSQL of the queries that built the DAG, and how many nodes it
    /// accounts for; `None` once a node was added that no text built.
    gsql: Option<String>,
    gsql_nodes: usize,
}

impl QueryDag {
    /// Creates an empty DAG over a catalog.
    pub fn new(catalog: Catalog) -> Self {
        QueryDag {
            catalog,
            nodes: Vec::new(),
            schemas: Vec::new(),
            parents: Vec::new(),
            names: HashMap::new(),
            source_ids: HashMap::new(),
            origins: Vec::new(),
            gsql: Some(String::new()),
            gsql_nodes: 0,
        }
    }

    /// The GSQL text that rebuilds this DAG over its catalog — every
    /// query in definition order, without `STREAM` statements — while
    /// that text still describes every node. A DAG that gained a node no
    /// query text built (a direct [`QueryDag::add_node`], a union) has
    /// none.
    pub fn gsql(&self) -> Option<&str> {
        self.gsql
            .as_deref()
            .filter(|_| self.gsql_nodes == self.nodes.len())
    }

    /// Appends the text of the query that added nodes `from..` (the DAG
    /// had `from` nodes before it was analyzed). Text recorded after a
    /// node no text built is dropped for good: see [`QueryDag::gsql`].
    pub fn record_gsql(&mut self, from: usize, text: &str) {
        match &mut self.gsql {
            Some(gsql) if self.gsql_nodes == from => {
                gsql.push_str(text);
                self.gsql_nodes = self.nodes.len();
            }
            _ => self.gsql = None,
        }
    }

    /// The catalog of base stream schemas.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Registers an additional base stream schema (sources resolve
    /// lazily, so streams may be added at any point before a query
    /// reads them).
    pub fn register_stream(&mut self, schema: Schema) -> PlanResult<()> {
        self.catalog.register(schema)?;
        Ok(())
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the DAG has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node by id.
    pub fn node(&self, id: NodeId) -> &LogicalNode {
        &self.nodes[id]
    }

    /// Output schema of a node.
    pub fn schema(&self, id: NodeId) -> &Schema {
        &self.schemas[id]
    }

    /// All node ids in topological (construction) order.
    pub fn topo_order(&self) -> impl Iterator<Item = NodeId> {
        0..self.nodes.len()
    }

    /// Ids of nodes that no other node consumes (the query roots).
    pub fn roots(&self) -> Vec<NodeId> {
        let mut consumed = vec![false; self.nodes.len()];
        for n in &self.nodes {
            for c in n.children() {
                consumed[c] = true;
            }
        }
        (0..self.nodes.len()).filter(|&i| !consumed[i]).collect()
    }

    /// Ids of nodes that consume `id` (each consumer listed once, even
    /// when it reads the child on both join ports).
    pub fn parents(&self, id: NodeId) -> Vec<NodeId> {
        self.parents[id].clone()
    }

    /// Records that node `id` implements node `origin` of the logical
    /// DAG this plan was lowered from. Stable across [`Clone`], so
    /// provenance round-trips with the plan.
    pub fn set_origin(&mut self, id: NodeId, origin: NodeId) {
        assert!(id < self.nodes.len(), "origin target out of range");
        self.origins[id] = Some(origin);
    }

    /// The logical node `id` implements, when recorded (see
    /// [`QueryDag::set_origin`]).
    pub fn origin(&self, id: NodeId) -> Option<NodeId> {
        self.origins[id]
    }

    /// Resolves a named query to its node.
    pub fn query_node(&self, name: &str) -> Option<NodeId> {
        self.names.get(&name.to_ascii_lowercase()).copied()
    }

    /// Registered query names with their nodes, sorted by node id.
    pub fn named_queries(&self) -> Vec<(&str, NodeId)> {
        let mut v: Vec<(&str, NodeId)> =
            self.names.iter().map(|(n, &id)| (n.as_str(), id)).collect();
        v.sort_by_key(|&(_, id)| id);
        v
    }

    /// Whether all of the node's children are base-stream sources — a
    /// "leaf query node" in the paper's search heuristic (Section 4.2.2).
    pub fn is_leaf_query(&self, id: NodeId) -> bool {
        let n = &self.nodes[id];
        !n.is_source() && n.children().iter().all(|&c| self.nodes[c].is_source())
    }

    /// Registers a name for a node (the `Query flows:` prefix in the
    /// paper's listings); names are case-insensitive and unique.
    pub fn name_query(&mut self, name: &str, id: NodeId) -> PlanResult<()> {
        let key = name.to_ascii_lowercase();
        if self.names.contains_key(&key) {
            return Err(PlanError::DuplicateQueryName(name.to_string()));
        }
        self.schemas[id] = self.schemas[id].renamed(name);
        self.names.insert(key, id);
        Ok(())
    }

    /// Adds (or reuses) the source node for a base stream.
    pub fn add_source(&mut self, stream: &str) -> PlanResult<NodeId> {
        if let Some(&id) = self.source_ids.get(&stream.to_ascii_lowercase()) {
            return Ok(id);
        }
        let schema = self.catalog.resolve(stream)?.clone();
        let id = self.push(
            LogicalNode::Source {
                stream: schema.name().to_string(),
                partition: None,
            },
            schema,
        );
        self.source_ids.insert(stream.to_ascii_lowercase(), id);
        Ok(id)
    }

    /// Adds a scan over one partition of a base stream (used by the
    /// distributed optimizer when lowering to a physical plan). Unlike
    /// [`QueryDag::add_source`], partition scans are not deduplicated —
    /// each call creates a distinct node.
    pub fn add_partition_source(&mut self, stream: &str, partition: u32) -> PlanResult<NodeId> {
        let schema = self.catalog.resolve(stream)?.clone();
        Ok(self.push(
            LogicalNode::Source {
                stream: schema.name().to_string(),
                partition: Some(partition),
            },
            schema,
        ))
    }

    /// Adds a node, validating its expressions and inferring its schema.
    pub fn add_node(&mut self, node: LogicalNode) -> PlanResult<NodeId> {
        for c in node.children() {
            if c >= self.nodes.len() {
                return Err(PlanError::BadChild {
                    child: c,
                    len: self.nodes.len(),
                });
            }
        }
        let schema = self.infer_schema(&node)?;
        Ok(self.push(node, schema))
    }

    fn push(&mut self, node: LogicalNode, schema: Schema) -> NodeId {
        let id = self.nodes.len();
        let mut children = node.children();
        children.sort_unstable();
        children.dedup();
        for c in children {
            self.parents[c].push(id);
        }
        self.nodes.push(node);
        self.schemas.push(schema);
        self.parents.push(Vec::new());
        self.origins.push(None);
        id
    }

    fn infer_schema(&self, node: &LogicalNode) -> PlanResult<Schema> {
        match node {
            LogicalNode::Source { stream, .. } => Ok(self.catalog.resolve(stream)?.clone()),
            LogicalNode::SelectProject {
                input,
                predicate,
                projections,
            } => {
                let in_schema = &self.schemas[*input];
                if let Some(p) = predicate {
                    validate_columns(p, &single_resolver(in_schema))?;
                }
                let fields = projections
                    .iter()
                    .map(|ne| self.projected_field(ne, in_schema))
                    .collect::<PlanResult<Vec<_>>>()?;
                Ok(Schema::new(format!("node{}", self.nodes.len()), fields)?)
            }
            LogicalNode::Aggregate {
                input,
                predicate,
                group_by,
                aggregates,
                having,
            } => {
                let in_schema = &self.schemas[*input];
                if let Some(p) = predicate {
                    validate_columns(p, &single_resolver(in_schema))?;
                }
                let type_in = |c: &ColumnRef| {
                    let i = in_schema.index_of(&c.name)?;
                    Some(in_schema.fields()[i].data_type())
                };
                let mut fields = Vec::with_capacity(group_by.len() + aggregates.len());
                let mut has_window = false;
                for g in group_by {
                    let f = self.projected_field(g, in_schema)?;
                    has_window |= f.temporality().is_temporal();
                    fields.push(f);
                }
                if !has_window {
                    return Err(PlanError::NoWindow {
                        query: format!("node{}", self.nodes.len()),
                    });
                }
                for a in aggregates {
                    if let Some(arg) = &a.call.arg {
                        validate_columns(arg, &single_resolver(in_schema))?;
                    }
                    let dt = match &a.call.func {
                        qap_expr::AggFunc::Builtin(kind) => {
                            let arg = a.call.arg.as_ref().map(|e| infer_type(e, &type_in));
                            qap_expr::agg_output_type(*kind, arg)
                        }
                        qap_expr::AggFunc::Udaf(name) => {
                            if self.catalog.udafs().get(name).is_none() {
                                return Err(PlanError::Expr(ExprError::UnknownUdaf(name.clone())));
                            }
                            DataType::UInt
                        }
                    };
                    fields.push(Field::new(a.name.clone(), dt));
                }
                let out = Schema::new(format!("node{}", self.nodes.len()), fields)?;
                if let Some(h) = having {
                    validate_columns(h, &single_resolver(&out))?;
                }
                Ok(out)
            }
            LogicalNode::Join {
                left,
                right,
                left_alias,
                right_alias,
                temporal,
                equi,
                residual,
                projections,
                join_type,
            } => {
                let ls = &self.schemas[*left];
                let rs = &self.schemas[*right];
                let resolver = join_resolver(ls, rs, left_alias, right_alias);

                // Temporal predicate columns must resolve and be ordered.
                let (lt_schema, lt_idx) =
                    resolve_side(&temporal.left, ls, rs, left_alias, right_alias)?;
                let (rt_schema, rt_idx) =
                    resolve_side(&temporal.right, ls, rs, left_alias, right_alias)?;
                let lt_temporal = lt_schema.fields()[lt_idx].temporality().is_temporal();
                let rt_temporal = rt_schema.fields()[rt_idx].temporality().is_temporal();
                if !lt_temporal || !rt_temporal {
                    return Err(PlanError::NoTemporalJoinPredicate {
                        query: format!("node{}", self.nodes.len()),
                    });
                }

                for (le, re) in equi {
                    validate_columns(le, &resolver)?;
                    validate_columns(re, &resolver)?;
                }
                if let Some(r) = residual {
                    validate_columns(r, &resolver)?;
                }
                let fields = projections
                    .iter()
                    .map(|ne| self.join_projected_field(ne, ls, rs, left_alias, right_alias))
                    .collect::<PlanResult<Vec<_>>>()?;
                let _ = join_type;
                Ok(Schema::new(format!("node{}", self.nodes.len()), fields)?)
            }
            LogicalNode::Merge { inputs } => {
                let first = *inputs.first().ok_or(PlanError::EmptyMerge)?;
                let types = |id: usize| self.schemas[id].fields().iter().map(Field::data_type);
                if let Some(&input) = inputs.iter().find(|&&i| !types(i).eq(types(first))) {
                    return Err(PlanError::MergeMismatch { input });
                }
                Ok(self.schemas[first].renamed(format!("node{}", self.nodes.len())))
            }
        }
    }

    fn projected_field(&self, ne: &NamedExpr, input: &Schema) -> PlanResult<Field> {
        validate_columns(&ne.expr, &single_resolver(input))?;
        let dt = infer_type(&ne.expr, &|c| {
            input
                .index_of(&c.name)
                .map(|i| input.fields()[i].data_type())
        });
        let temporality = infer_temporality(&ne.expr, &|c| {
            input
                .index_of(&c.name)
                .map(|i| input.fields()[i].temporality())
        });
        Ok(Field::temporal(ne.name.clone(), dt, temporality))
    }

    fn join_projected_field(
        &self,
        ne: &NamedExpr,
        ls: &Schema,
        rs: &Schema,
        la: &str,
        ra: &str,
    ) -> PlanResult<Field> {
        let resolver = join_resolver(ls, rs, la, ra);
        validate_columns(&ne.expr, &resolver)?;
        let type_of = |c: &ColumnRef| {
            resolve_side(c, ls, rs, la, ra)
                .ok()
                .map(|(s, i)| s.fields()[i].data_type())
        };
        let temp_of = |c: &ColumnRef| {
            resolve_side(c, ls, rs, la, ra)
                .ok()
                .map(|(s, i)| s.fields()[i].temporality())
        };
        let dt = infer_type(&ne.expr, &type_of);
        let temporality = infer_temporality(&ne.expr, &temp_of);
        Ok(Field::temporal(ne.name.clone(), dt, temporality))
    }
}

/// Resolver over one schema by bare column name.
fn single_resolver(schema: &Schema) -> impl Fn(&ColumnRef) -> Option<usize> + '_ {
    move |c: &ColumnRef| {
        if c.qualifier
            .as_deref()
            .is_some_and(|q| !q.eq_ignore_ascii_case(schema.name()))
        {
            return None;
        }
        schema.index_of(&c.name)
    }
}

/// Resolver over a join's concatenated (left ++ right) schema.
fn join_resolver<'a>(
    ls: &'a Schema,
    rs: &'a Schema,
    la: &'a str,
    ra: &'a str,
) -> impl Fn(&ColumnRef) -> Option<usize> + 'a {
    move |c: &ColumnRef| match &c.qualifier {
        Some(q) if q.eq_ignore_ascii_case(la) => ls.index_of(&c.name),
        Some(q) if q.eq_ignore_ascii_case(ra) => rs.index_of(&c.name).map(|i| ls.arity() + i),
        Some(_) => None,
        None => {
            // Ambiguous unqualified references resolve to the left input
            // (the paper's listings write `SELECT time, ...` over a
            // self-join where both sides carry `time`).
            match (ls.index_of(&c.name), rs.index_of(&c.name)) {
                (Some(i), _) => Some(i),
                (None, Some(i)) => Some(ls.arity() + i),
                (None, None) => None,
            }
        }
    }
}

/// Resolves a column reference to (schema, index) on one join side.
fn resolve_side<'a>(
    c: &ColumnRef,
    ls: &'a Schema,
    rs: &'a Schema,
    la: &str,
    ra: &str,
) -> PlanResult<(&'a Schema, usize)> {
    let unres = || PlanError::Expr(ExprError::UnresolvedColumn(c.to_string()));
    match &c.qualifier {
        Some(q) if q.eq_ignore_ascii_case(la) => {
            ls.index_of(&c.name).map(|i| (ls, i)).ok_or_else(unres)
        }
        Some(q) if q.eq_ignore_ascii_case(ra) => {
            rs.index_of(&c.name).map(|i| (rs, i)).ok_or_else(unres)
        }
        Some(_) => Err(unres()),
        None => match (ls.index_of(&c.name), rs.index_of(&c.name)) {
            (Some(i), _) => Ok((ls, i)),
            (None, Some(i)) => Ok((rs, i)),
            (None, None) => Err(unres()),
        },
    }
}

fn validate_columns(
    expr: &ScalarExpr,
    resolve: &impl Fn(&ColumnRef) -> Option<usize>,
) -> PlanResult<()> {
    let mut missing: Option<String> = None;
    expr.visit_columns(&mut |c| {
        if resolve(c).is_none() && missing.is_none() {
            missing = Some(c.to_string());
        }
    });
    match missing {
        Some(c) => Err(PlanError::Expr(ExprError::UnresolvedColumn(c))),
        None => Ok(()),
    }
}

/// Static type of an expression: the kind `BoundExpr::eval` gives every
/// non-NULL value of it. Arithmetic over two `UInt`s is `UInt`, except
/// `-`, which is `Int`; an `Int` or `Bool` operand makes it `Int`.
pub fn infer_type(
    expr: &ScalarExpr,
    type_of: &impl Fn(&ColumnRef) -> Option<DataType>,
) -> DataType {
    match expr {
        ScalarExpr::Column(c) => type_of(c).unwrap_or(DataType::UInt),
        ScalarExpr::Literal(v) => match v {
            Value::UInt(_) => DataType::UInt,
            Value::Int(_) => DataType::Int,
            Value::Bool(_) => DataType::Bool,
            Value::Str(_) => DataType::Str,
            Value::Null => DataType::UInt,
        },
        ScalarExpr::Binary { op, lhs, rhs } => {
            if op.is_predicate() {
                DataType::Bool
            } else {
                match (infer_type(lhs, type_of), infer_type(rhs, type_of)) {
                    (DataType::UInt, DataType::UInt) if *op != BinOp::Sub => DataType::UInt,
                    _ => DataType::Int,
                }
            }
        }
        ScalarExpr::Unary { op, expr } => match op {
            qap_expr::UnOp::Neg => DataType::Int,
            qap_expr::UnOp::Not => DataType::Bool,
            qap_expr::UnOp::BitNot => {
                let _ = expr;
                DataType::UInt
            }
        },
    }
}

/// An output column stays temporal only when it is an order-preserving
/// transform of a temporal input: identity or integer division (epoch
/// coarsening). Masking destroys monotonicity, so `srcIP & m` of an
/// ordered attribute is *not* ordered.
fn infer_temporality(
    expr: &ScalarExpr,
    temp_of: &impl Fn(&ColumnRef) -> Option<Temporality>,
) -> Temporality {
    let Some(a) = analyze_transform(expr) else {
        return Temporality::None;
    };
    let base = temp_of(&a.column).unwrap_or(Temporality::None);
    match a.transform {
        ColumnTransform::Identity | ColumnTransform::Div(_) => base,
        ColumnTransform::Mask(_) | ColumnTransform::Opaque(_) => Temporality::None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JoinType, NamedAgg, TemporalJoin};
    use qap_expr::{AggCall, AggKind};

    fn dag() -> QueryDag {
        QueryDag::new(Catalog::with_network_schemas())
    }

    /// A union carries one schema: inputs that differ in column count
    /// or type are refused.
    #[test]
    fn merge_inputs_share_one_schema() {
        let mut d = dag();
        let tcp = d.add_source("TCP").unwrap();
        let pkt = d.add_source("PKT").unwrap();
        let err = d.add_node(LogicalNode::Merge {
            inputs: vec![tcp, pkt],
        });
        assert!(matches!(err, Err(PlanError::MergeMismatch { input }) if input == pkt));
        assert!(d
            .add_node(LogicalNode::Merge {
                inputs: vec![tcp, tcp]
            })
            .is_ok());
    }

    /// Output types are what evaluation gives: `-` of two `uint`s is an
    /// `int`, a `SUM` and a `MIN` take their argument's kind.
    #[test]
    fn result_kinds_follow_the_operand_kinds() {
        let mut d = dag();
        let src = d.add_source("TCP").unwrap();
        let id = d
            .add_node(LogicalNode::Aggregate {
                input: src,
                predicate: None,
                group_by: vec![
                    NamedExpr::new("tb", ScalarExpr::col("time").div(60)),
                    NamedExpr::new(
                        "d",
                        ScalarExpr::col("len").binary(BinOp::Sub, ScalarExpr::col("flags")),
                    ),
                ],
                aggregates: vec![
                    NamedAgg::new("s", AggCall::new(AggKind::Sum, ScalarExpr::col("len"))),
                    NamedAgg::new(
                        "sd",
                        AggCall::new(
                            AggKind::Sum,
                            ScalarExpr::col("len").binary(BinOp::Sub, ScalarExpr::col("flags")),
                        ),
                    ),
                    NamedAgg::new(
                        "m",
                        AggCall::new(
                            AggKind::Min,
                            ScalarExpr::col("len").binary(BinOp::Sub, ScalarExpr::col("flags")),
                        ),
                    ),
                ],
                having: None,
            })
            .unwrap();
        let types: Vec<DataType> = d.schema(id).fields().iter().map(Field::data_type).collect();
        let (u, i) = (DataType::UInt, DataType::Int);
        assert_eq!(types, [u, i, u, i, i]);
    }

    /// Builds the paper's `flows` query:
    /// SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP
    /// GROUP BY time/60 as tb, srcIP, destIP
    fn add_flows(d: &mut QueryDag) -> NodeId {
        let src = d.add_source("TCP").unwrap();
        let id = d
            .add_node(LogicalNode::Aggregate {
                input: src,
                predicate: None,
                group_by: vec![
                    NamedExpr::new("tb", ScalarExpr::col("time").div(60)),
                    NamedExpr::passthrough("srcIP"),
                    NamedExpr::passthrough("destIP"),
                ],
                aggregates: vec![NamedAgg::new("cnt", AggCall::count_star())],
                having: None,
            })
            .unwrap();
        d.name_query("flows", id).unwrap();
        id
    }

    #[test]
    fn source_nodes_dedup() {
        let mut d = dag();
        let a = d.add_source("TCP").unwrap();
        let b = d.add_source("tcp").unwrap();
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn flows_schema_inferred() {
        let mut d = dag();
        let id = add_flows(&mut d);
        let s = d.schema(id);
        assert_eq!(s.name(), "flows");
        assert_eq!(
            s.fields().iter().map(|f| f.name()).collect::<Vec<_>>(),
            vec!["tb", "srcIP", "destIP", "cnt"]
        );
        // tb = time/60 stays increasing; srcIP does not become temporal.
        assert_eq!(
            s.field("tb").unwrap().temporality(),
            Temporality::Increasing
        );
        assert_eq!(s.field("srcIP").unwrap().temporality(), Temporality::None);
    }

    #[test]
    fn aggregate_without_window_rejected() {
        let mut d = dag();
        let src = d.add_source("TCP").unwrap();
        let err = d
            .add_node(LogicalNode::Aggregate {
                input: src,
                predicate: None,
                group_by: vec![NamedExpr::passthrough("srcIP")],
                aggregates: vec![NamedAgg::new("cnt", AggCall::count_star())],
                having: None,
            })
            .unwrap_err();
        assert!(matches!(err, PlanError::NoWindow { .. }));
    }

    #[test]
    fn masked_temporal_loses_ordering() {
        let mut d = dag();
        let src = d.add_source("TCP").unwrap();
        // time & 0xF0 is not monotone, so this has no window attribute.
        let err = d
            .add_node(LogicalNode::Aggregate {
                input: src,
                predicate: None,
                group_by: vec![NamedExpr::new("x", ScalarExpr::col("time").mask(0xF0))],
                aggregates: vec![NamedAgg::new("cnt", AggCall::count_star())],
                having: None,
            })
            .unwrap_err();
        assert!(matches!(err, PlanError::NoWindow { .. }));
    }

    #[test]
    fn heavy_flows_stacks_on_flows() {
        let mut d = dag();
        let flows = add_flows(&mut d);
        let hf = d
            .add_node(LogicalNode::Aggregate {
                input: flows,
                predicate: None,
                group_by: vec![
                    NamedExpr::passthrough("tb"),
                    NamedExpr::passthrough("srcIP"),
                ],
                aggregates: vec![NamedAgg::new(
                    "max_cnt",
                    AggCall::new(AggKind::Max, ScalarExpr::col("cnt")),
                )],
                having: None,
            })
            .unwrap();
        d.name_query("heavy_flows", hf).unwrap();
        assert_eq!(d.schema(hf).arity(), 3);
        assert!(d.is_leaf_query(flows));
        assert!(!d.is_leaf_query(hf));
    }

    #[test]
    fn self_join_flow_pairs() {
        let mut d = dag();
        let flows = add_flows(&mut d);
        let hf = d
            .add_node(LogicalNode::Aggregate {
                input: flows,
                predicate: None,
                group_by: vec![
                    NamedExpr::passthrough("tb"),
                    NamedExpr::passthrough("srcIP"),
                ],
                aggregates: vec![NamedAgg::new(
                    "max_cnt",
                    AggCall::new(AggKind::Max, ScalarExpr::col("cnt")),
                )],
                having: None,
            })
            .unwrap();
        d.name_query("heavy_flows", hf).unwrap();
        let fp = d
            .add_node(LogicalNode::Join {
                left: hf,
                right: hf,
                left_alias: "S1".into(),
                right_alias: "S2".into(),
                join_type: JoinType::Inner,
                temporal: TemporalJoin {
                    left: ColumnRef::qualified("S1", "tb"),
                    right: ColumnRef::qualified("S2", "tb"),
                    offset: 1,
                },
                equi: vec![(
                    ScalarExpr::qcol("S1", "srcIP"),
                    ScalarExpr::qcol("S2", "srcIP"),
                )],
                residual: None,
                projections: vec![
                    NamedExpr::new("tb", ScalarExpr::qcol("S1", "tb")),
                    NamedExpr::new("srcIP", ScalarExpr::qcol("S1", "srcIP")),
                    NamedExpr::new("cnt1", ScalarExpr::qcol("S1", "max_cnt")),
                    NamedExpr::new("cnt2", ScalarExpr::qcol("S2", "max_cnt")),
                ],
            })
            .unwrap();
        d.name_query("flow_pairs", fp).unwrap();
        assert_eq!(d.schema(fp).arity(), 4);
        assert_eq!(d.roots(), vec![fp]);
        assert_eq!(d.parents(hf), vec![fp]);
        // tb projected through the join stays temporal.
        assert_eq!(
            d.schema(fp).field("tb").unwrap().temporality(),
            Temporality::Increasing
        );
    }

    #[test]
    fn join_without_temporal_predicate_rejected() {
        let mut d = dag();
        let flows = add_flows(&mut d);
        let err = d
            .add_node(LogicalNode::Join {
                left: flows,
                right: flows,
                left_alias: "S1".into(),
                right_alias: "S2".into(),
                join_type: JoinType::Inner,
                temporal: TemporalJoin {
                    // srcIP is not an ordered attribute.
                    left: ColumnRef::qualified("S1", "srcIP"),
                    right: ColumnRef::qualified("S2", "srcIP"),
                    offset: 0,
                },
                equi: vec![],
                residual: None,
                projections: vec![NamedExpr::new("tb", ScalarExpr::qcol("S1", "tb"))],
            })
            .unwrap_err();
        assert!(matches!(err, PlanError::NoTemporalJoinPredicate { .. }));
    }

    #[test]
    fn unresolved_column_in_projection_rejected() {
        let mut d = dag();
        let src = d.add_source("TCP").unwrap();
        let err = d
            .add_node(LogicalNode::SelectProject {
                input: src,
                predicate: None,
                projections: vec![NamedExpr::passthrough("bogus")],
            })
            .unwrap_err();
        assert!(matches!(
            err,
            PlanError::Expr(ExprError::UnresolvedColumn(_))
        ));
    }

    #[test]
    fn bad_child_rejected() {
        let mut d = dag();
        let err = d
            .add_node(LogicalNode::Merge { inputs: vec![7] })
            .unwrap_err();
        assert!(matches!(err, PlanError::BadChild { child: 7, .. }));
    }

    #[test]
    fn duplicate_query_name_rejected() {
        let mut d = dag();
        let id = add_flows(&mut d);
        assert!(matches!(
            d.name_query("FLOWS", id).unwrap_err(),
            PlanError::DuplicateQueryName(_)
        ));
    }

    #[test]
    fn having_resolves_against_output_schema() {
        let mut d = dag();
        let src = d.add_source("TCP").unwrap();
        // HAVING references the aggregate output column orflag.
        let ok = d.add_node(LogicalNode::Aggregate {
            input: src,
            predicate: None,
            group_by: vec![
                NamedExpr::new("tb", ScalarExpr::col("time").div(60)),
                NamedExpr::passthrough("srcIP"),
            ],
            aggregates: vec![NamedAgg::new(
                "orflag",
                AggCall::new(AggKind::OrAgg, ScalarExpr::col("flags")),
            )],
            having: Some(ScalarExpr::col("orflag").eq(ScalarExpr::lit(0x29u64))),
        });
        assert!(ok.is_ok());
    }

    #[test]
    fn origins_default_none_and_round_trip() {
        let mut d = dag();
        let flows = add_flows(&mut d);
        assert_eq!(d.origin(flows), None);
        d.set_origin(flows, 3);
        // Provenance survives cloning (plans carry it end to end).
        let copy = d.clone();
        assert_eq!(copy.origin(flows), Some(3));
        assert_eq!(copy.origin(0), None);
    }

    #[test]
    fn merge_takes_child_schema() {
        let mut d = dag();
        let a = add_flows(&mut d);
        let m = d
            .add_node(LogicalNode::Merge { inputs: vec![a, a] })
            .unwrap();
        assert_eq!(d.schema(m).arity(), d.schema(a).arity());
    }
}
