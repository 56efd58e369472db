//! The reference model: [`run_logical`], a brute-force evaluator of a
//! single-source logical plan. It pushes the stream through the DAG one
//! tuple at a time, depth first, keeping operator state as plain rows in
//! maps. It shares only binding, `BoundExpr::eval` and the `qap-expr`
//! accumulators with the engine, so a suite holding the engine to it
//! checks the engine's window, flush, group-table, join-index and merge
//! code instead of restating it.
//!
//! A tuple of another arity than the source schema's, or with a value of
//! another kind than its column declares, is a typed error, as it is on
//! the engine's entry.
//!
//! Semantics (Section 3.1): σπ filters and projects. γ keeps one open
//! window plus the NULL-window groups; a later window emits the open one,
//! an earlier one is late and dropped, and the NULL-window groups emit at
//! end of stream. ⋈ buffers each side per epoch with the same late rule,
//! and pairs left epoch `e` with right epoch `e - offset` once both are
//! closed; keys holding NULL match nothing, and outer joins NULL-pad
//! unmatched rows. ∪ releases every bucket below all inputs' progress.
//!
//! Output order, which the model defines: a γ emits windows ascending,
//! each window's groups in first-arrival order. A ⋈ emits each pairing
//! in nested-loop order (a left row, then its matching right rows in
//! arrival order), then the epoch's unmatched right rows, then its
//! unmatched left rows. Where the engine's order is not part of this
//! contract — when outer-join pads go out relative to other epochs, and
//! the order of ∪ ties across inputs — tests compare multisets.

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use qap_expr::{make_accumulator, Accumulator, BoundExpr, UdafState};
use qap_plan::{JoinType, NodeId, QueryDag};
use qap_types::{Tuple, Value};

use crate::bind::{bind_node, AccFactory, BoundAggregate, BoundJoin, BoundNode};
use crate::{ExecError, ExecResult};

/// Runs a single-source logical plan over a stream ordered by the
/// source's temporal attribute, consumed lazily, returning `(root node,
/// output)` pairs in the order the module doc defines.
///
/// ```
/// use qap_exec::run_logical;
/// use qap_sql::QuerySetBuilder;
/// use qap_types::{tuple, Catalog};
///
/// let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
/// let sums = "SELECT tb, srcIP, SUM(len) as total FROM PKT GROUP BY time/60 as tb, srcIP";
/// b.add_query("sums", sums).unwrap();
/// // PKT(time, srcIP, destIP, len)
/// let trace = vec![tuple![0u64, 1u64, 2u64, 10u64], tuple![5u64, 1u64, 2u64, 30u64]];
/// let outputs = run_logical(&b.build(), trace).unwrap();
/// assert_eq!(outputs[0].1, vec![tuple![0u64, 1u64, 40u64]]);
/// ```
pub fn run_logical(
    dag: &QueryDag,
    tuples: impl IntoIterator<Item = Tuple>,
) -> ExecResult<Vec<(NodeId, Vec<Tuple>)>> {
    let sources: Vec<NodeId> = dag
        .topo_order()
        .filter(|&id| dag.node(id).is_source())
        .collect();
    let [source] = sources[..] else {
        return Err(ExecError::BadPlan(format!(
            "run_logical expects exactly one source, found {}",
            sources.len()
        )));
    };
    let fields = dag.schema(source).fields();
    let mut model = Model {
        nodes: Vec::with_capacity(dag.len()),
        consumers: vec![Vec::new(); dag.len()],
        outputs: vec![Vec::new(); dag.len()],
    };
    for id in dag.topo_order() {
        let inputs = dag.node(id).children();
        for (port, &child) in inputs.iter().enumerate() {
            model.consumers[child].push((id, port));
        }
        model.nodes.push(Node {
            bound: bind_node(dag, id)?,
            progress: vec![None; inputs.len()],
            buffers: vec![BTreeMap::new(); inputs.len()],
            window: None,
            open: Groups::default(),
            null_window: Groups::default(),
        });
    }
    for (row, t) in tuples.into_iter().enumerate() {
        if t.arity() != fields.len() {
            return Err(ExecError::BadPlan(format!(
                "tuple arity {} does not match source {source}'s schema arity {}",
                t.arity(),
                fields.len()
            )));
        }
        for (v, f) in t.values().iter().zip(fields) {
            f.check_kind(row, v.data_type())?;
        }
        model.send(source, Rc::new(t))?;
    }
    // End of stream, in topological order: flushes reach unfinished nodes.
    for id in dag.topo_order() {
        for row in model.nodes[id].finish()? {
            model.send(id, row)?;
        }
    }
    let roots = dag.roots().into_iter();
    Ok(roots
        .map(|r| (r, std::mem::take(&mut model.outputs[r])))
        .collect())
}

struct Model {
    nodes: Vec<Node>,
    /// Per node: the `(consumer, port)` pairs reading its output.
    consumers: Vec<Vec<(NodeId, usize)>>,
    /// Per node: its rows, collected only at roots (nothing consumes them).
    outputs: Vec<Vec<Tuple>>,
}

impl Model {
    /// Delivers a row of node `id` to each consumer, depth first.
    fn send(&mut self, id: NodeId, row: Row) -> ExecResult<()> {
        let n = self.consumers[id].len();
        if n == 0 {
            self.outputs[id].push(Rc::try_unwrap(row).unwrap_or_else(|r| (*r).clone()));
            return Ok(());
        }
        for k in 0..n - 1 {
            let (c, port) = self.consumers[id][k];
            self.push(c, port, row.clone())?;
        }
        let (c, port) = self.consumers[id][n - 1];
        self.push(c, port, row)
    }

    fn push(&mut self, id: NodeId, port: usize, row: Row) -> ExecResult<()> {
        for out in self.nodes[id].push(port, row)? {
            self.send(id, out)?;
        }
        Ok(())
    }
}

/// One node: its bound expressions and the state its operator keeps.
struct Node {
    bound: BoundNode,
    /// Per input port: the latest epoch delivered (⋈ sides, ∪ inputs).
    progress: Vec<Option<i128>>,
    /// Buffered rows per epoch: one map per ⋈ side; ∪ uses the first.
    buffers: Vec<BTreeMap<i128, Vec<Row>>>,
    /// γ: the open window's epoch and groups, and the NULL-window groups.
    window: Option<i128>,
    open: Groups,
    null_window: Groups,
}

/// A row in flight, shared by every consumer that reads it.
type Row = Rc<Tuple>;

/// A window's groups: key → arrival number, and slot states by arrival.
#[derive(Default)]
struct Groups {
    index: HashMap<Vec<Value>, usize>,
    accs: Vec<Acc>,
}

impl Node {
    fn push(&mut self, port: usize, t: Row) -> ExecResult<Vec<Row>> {
        match &self.bound {
            BoundNode::Source => Ok(vec![t]),
            BoundNode::Select {
                predicate,
                projections,
            } => Ok(match passes(predicate, &t)? {
                true => vec![Rc::new(project(projections, &t)?)],
                false => Vec::new(),
            }),
            BoundNode::Aggregate(b) => {
                if !passes(&b.predicate, &t)? {
                    return Ok(Vec::new());
                }
                let key = eval_all(&b.group_by, &t)?;
                let mut out = Vec::new();
                let groups = if key[b.temporal_idx].is_null() {
                    &mut self.null_window
                } else {
                    let e = epoch(&key[b.temporal_idx]);
                    match self.window {
                        Some(w) if e < w => return Ok(out),
                        Some(w) if e > w => out = emit_groups(b, &mut self.open)?,
                        _ => {}
                    }
                    self.window = Some(e);
                    &mut self.open
                };
                let Groups { index, accs } = groups;
                let arrival = index.len();
                let g = *index.entry(key).or_insert_with(|| {
                    accs.extend(b.slots.iter().map(|s| match &s.factory {
                        AccFactory::Builtin(kind) => Acc::Builtin(make_accumulator(*kind)),
                        AccFactory::Udaf(u) => Acc::Udaf(u.init()),
                    }));
                    arrival
                });
                for (slot, acc) in b.slots.iter().zip(&mut accs[g * b.slots.len()..]) {
                    let v = match &slot.arg {
                        Some(e) => e.eval(&t)?,
                        None => Value::Bool(true),
                    };
                    match (acc, slot.merge) {
                        (Acc::Builtin(a), false) => a.update(&v),
                        (Acc::Builtin(a), true) => a.merge(&v),
                        (Acc::Udaf(u), false) => u.update(&v),
                        (Acc::Udaf(u), true) => u.merge(&v),
                    }
                }
                Ok(out)
            }
            BoundNode::Join(b) => {
                let e = epoch(t.get([b.left_temporal, b.right_temporal][port]));
                if self.progress[port].is_some_and(|c| e < c) {
                    return Ok(Vec::new());
                }
                self.progress[port] = Some(e);
                self.buffers[port].entry(e).or_default().push(t);
                fire(b, &self.progress, &mut self.buffers, false)
            }
            BoundNode::Merge { temporal_idx, .. } => {
                let e = epoch(t.get(*temporal_idx));
                self.progress[port] = Some(self.progress[port].map_or(e, |p| p.max(e)));
                self.buffers[0].entry(e).or_default().push(t);
                // `None` sorts first: an input that has delivered nothing
                // yet holds every bucket back.
                Ok(match self.progress.iter().min() {
                    Some(Some(below)) => {
                        let keep = self.buffers[0].split_off(below);
                        let ready = std::mem::replace(&mut self.buffers[0], keep);
                        ready.into_values().flatten().collect()
                    }
                    _ => Vec::new(),
                })
            }
        }
    }

    fn finish(&mut self) -> ExecResult<Vec<Row>> {
        match &self.bound {
            BoundNode::Source | BoundNode::Select { .. } => Ok(Vec::new()),
            BoundNode::Aggregate(b) => {
                let mut out = emit_groups(b, &mut self.open)?;
                out.extend(emit_groups(b, &mut self.null_window)?);
                Ok(out)
            }
            BoundNode::Join(b) => fire(b, &self.progress, &mut self.buffers, true),
            BoundNode::Merge { .. } => {
                let rest = std::mem::take(&mut self.buffers[0]);
                Ok(rest.into_values().flatten().collect())
            }
        }
    }
}

fn passes(predicate: &Option<BoundExpr>, t: &Tuple) -> ExecResult<bool> {
    Ok(match predicate {
        Some(p) => p.eval_predicate(t)?,
        None => true,
    })
}

fn project(exprs: &[BoundExpr], t: &Tuple) -> ExecResult<Tuple> {
    Ok(Tuple::new(eval_all(exprs, t)?))
}

fn eval_all(exprs: &[BoundExpr], t: &Tuple) -> ExecResult<Vec<Value>> {
    Ok(exprs.iter().map(|e| e.eval(t)).collect::<Result<_, _>>()?)
}

/// The epoch a temporal value names; NULL and non-numbers sort lowest.
fn epoch(v: &Value) -> i128 {
    match v {
        Value::UInt(x) => i128::from(*x),
        Value::Int(x) => i128::from(*x),
        Value::Bool(b) => i128::from(*b),
        _ => i128::MIN,
    }
}

/// Empties a window: key, then slot values, per group passing HAVING.
fn emit_groups(b: &BoundAggregate, groups: &mut Groups) -> ExecResult<Vec<Row>> {
    let mut keys: Vec<_> = groups.index.drain().map(|(key, g)| (g, key)).collect();
    keys.sort_unstable_by_key(|(g, _)| *g);
    let accs = std::mem::take(&mut groups.accs);
    let mut out = Vec::new();
    for (g, mut row) in keys {
        row.reserve_exact(b.slots.len());
        for (slot, acc) in b.slots.iter().zip(&accs[g * b.slots.len()..]) {
            row.push(match (acc, slot.emit_partial) {
                (Acc::Builtin(a), _) => a.finalize(slot.out),
                (Acc::Udaf(u), true) => slot.udaf_value(u.partial())?,
                (Acc::Udaf(u), false) => slot.udaf_value(u.finalize())?,
            });
        }
        let row = Tuple::new(row);
        if passes(&b.having, &row)? {
            out.push(Rc::new(row));
        }
    }
    Ok(out)
}

/// One slot's running state: a built-in accumulator, or a UDAF's state.
enum Acc {
    Builtin(Accumulator),
    Udaf(Box<dyn UdafState>),
}

/// Pairs each left epoch whose partner is closed too (its side moved past
/// it, or the stream ended), then pads right epochs left partnerless.
fn fire(
    b: &BoundJoin,
    progress: &[Option<i128>],
    buffers: &mut [BTreeMap<i128, Vec<Row>>],
    finished: bool,
) -> ExecResult<Vec<Row>> {
    let offset = i128::from(b.offset);
    let closed = |port: usize, e: i128| finished || progress[port].is_some_and(|c| c > e);
    let (left, rest) = buffers.split_first_mut().expect("a join has two inputs");
    let right = &mut rest[0];
    let ready: Vec<i128> = left
        .keys()
        .copied()
        .filter(|&e| closed(0, e) && closed(1, e - offset))
        .collect();
    let mut out = Vec::new();
    for e in ready {
        let l = left.remove(&e).unwrap_or_default();
        let r = right.remove(&(e - offset)).unwrap_or_default();
        pair(b, &l, &r, &mut out)?;
    }
    let retired: Vec<i128> = right
        .keys()
        .copied()
        .filter(|&e| closed(0, e + offset) && !left.contains_key(&(e + offset)))
        .collect();
    for e in retired {
        let r = right.remove(&e).unwrap_or_default();
        out.extend(pad(b, &r, &vec![false; r.len()], false)?);
    }
    Ok(out)
}

/// Joins a left epoch with its partner, then pads both sides' unmatched.
fn pair(b: &BoundJoin, left: &[Row], right: &[Row], out: &mut Vec<Row>) -> ExecResult<()> {
    let key = |exprs: &[BoundExpr], t: &Tuple| -> ExecResult<Option<Vec<Value>>> {
        let k = eval_all(exprs, t)?;
        Ok((!k.iter().any(Value::is_null)).then_some(k))
    };
    let mut by_key: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for (i, r) in right.iter().enumerate() {
        if let Some(k) = key(&b.right_key, r)? {
            by_key.entry(k).or_default().push(i);
        }
    }
    let mut lmatched = vec![false; left.len()];
    let mut rmatched = vec![false; right.len()];
    for (li, l) in left.iter().enumerate() {
        let Some(k) = key(&b.left_key, l)? else {
            continue;
        };
        for &ri in by_key.get(&k).into_iter().flatten() {
            let joined = Tuple::new([l.values(), right[ri].values()].concat());
            if passes(&b.residual, &joined)? {
                (lmatched[li], rmatched[ri]) = (true, true);
                out.push(Rc::new(project(&b.projections, &joined)?));
            }
        }
    }
    out.extend(pad(b, right, &rmatched, false)?);
    out.extend(pad(b, left, &lmatched, true)?);
    Ok(())
}

/// NULL-pads one side's unmatched rows if the join type keeps that side.
fn pad(b: &BoundJoin, rows: &[Row], matched: &[bool], left: bool) -> ExecResult<Vec<Row>> {
    let keeps = match b.join_type {
        JoinType::Inner => false,
        JoinType::LeftOuter => left,
        JoinType::RightOuter => !left,
        JoinType::FullOuter => true,
    };
    let nulls = |n| vec![Value::Null; n];
    let unmatched = rows.iter().zip(matched).filter(|(_, &m)| keeps && !m);
    unmatched
        .map(|(row, _)| {
            let (l, r) = match left {
                true => (row.values().to_vec(), nulls(b.right_arity)),
                false => (nulls(b.left_arity), row.values().to_vec()),
            };
            Ok(Rc::new(project(
                &b.projections,
                &Tuple::new([l, r].concat()),
            )?))
        })
        .collect()
}
