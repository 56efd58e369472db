//! Plan compilation and the batch-routing engine.
//!
//! The engine moves tuples through the DAG a *batch* at a time, as
//! lanes: the routing queue holds `(node, port, batch)` entries, each a
//! pooled [`ColumnBatch`], and operator dispatch and counter updates are
//! paid once per batch. Every sink collects lanes, and migration state
//! leaves and enters an operator as lanes too; rows appear only where a
//! single-engine caller reads a query output ([`Engine::output`]
//! transposes on read). Semantics are defined
//! tuple-at-a-time by the reference model ([`crate::run_logical`]),
//! which the equivalence suites hold the engine to; batch size is a pure
//! performance knob, tuned through [`BatchConfig`].

use std::collections::{HashMap, VecDeque};

use qap_obs::OpMetrics;
use qap_plan::{NodeId, QueryDag};
use qap_types::{ColumnBatch, Field, Tuple, Value};

use crate::bind::{bind_node, BoundNode};
use crate::ops::{AggregateOp, JoinOp, MergeOp, Operator, Out, ScanOp, SelectOp};
use crate::{ExecError, ExecResult};

/// Per-operator tuple-flow counters; the raw material of the cluster
/// simulator's CPU and network accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// Tuples delivered to the operator.
    pub tuples_in: u64,
    /// Tuples the operator emitted.
    pub tuples_out: u64,
    /// Tuples dropped for arriving behind the operator's window.
    pub late_dropped: u64,
}

qap_types::wire_struct!(OpCounters {
    tuples_in: u64,
    tuples_out: u64,
    late_dropped: u64,
});

/// Tuning knobs for the engine's batched push path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum tuples per routed batch. Source feeds larger than this
    /// are chunked, and every operator emits batches of at most this
    /// many rows (a window flush as several). `1` reproduces
    /// tuple-at-a-time routing exactly.
    pub max_batch: usize,
}

impl Default for BatchConfig {
    /// 1024 tuples per batch: large enough to amortise dispatch and
    /// queue traffic, small enough to keep in-flight memory modest.
    fn default() -> Self {
        BatchConfig { max_batch: 1024 }
    }
}

impl BatchConfig {
    /// Config with the given batch size (clamped to at least 1).
    pub fn new(max_batch: usize) -> Self {
        BatchConfig {
            max_batch: max_batch.max(1),
        }
    }

    /// Degenerate config routing one tuple per batch, for equivalence
    /// testing.
    pub fn per_tuple() -> Self {
        BatchConfig::new(1)
    }
}

/// Cap on pooled column batches; beyond this they are dropped rather
/// than retained, bounding idle memory.
const POOL_CAP: usize = 32;

/// A compiled, executable plan.
///
/// Feed lanes to source scans with [`Engine::push_columns`] or
/// [`Engine::push_frame`], in non-decreasing order of the stream's
/// temporal attribute, then call [`Engine::finish`]. Every operator
/// takes one input type and writes one output type, a [`ColumnBatch`]
/// of at most `max_batch` rows. A sink collects its node's output as
/// lanes, the first batch moved in and later ones appended lane to lane;
/// they leave through [`Engine::drain_boundary`] at any time (a boundary
/// on its way to the frame encoder, or a unit's query output), or as
/// rows through [`Engine::output`].
pub struct Engine {
    ops: Vec<Box<dyn Operator>>,
    consumers: Vec<Vec<(NodeId, usize)>>,
    /// Each source scan's schema fields, which a feed is checked
    /// against (None for non-sources).
    source_fields: Vec<Option<Vec<Field>>>,
    counters: Vec<OpCounters>,
    sinks: HashMap<NodeId, ColumnBatch>,
    /// Operators finished so far: a prefix of the topological order.
    done: usize,
    batch: BatchConfig,
    /// Recycled column batches: every routed lane batch and operator
    /// output draws from here and returns here, so steady-state lane
    /// routing does no batch allocation.
    col_pool: Vec<ColumnBatch>,
    /// In-flight batches awaiting delivery, FIFO.
    queue: VecDeque<(NodeId, usize, ColumnBatch)>,
    /// What the operator call in progress emitted, in order.
    outs: Vec<ColumnBatch>,
    /// Batch-level telemetry per node (bytes, batch counts, occupancy);
    /// tuple counts and operator-internal stats join in at snapshot
    /// time ([`Engine::metrics`]). Updated once per *batch*, never per
    /// tuple.
    metrics: Vec<OpMetrics>,
    /// Whether the routing path updates `metrics` (on by default; the
    /// overhead guard benches both settings).
    metrics_on: bool,
    /// Estimated wire bytes of one tuple of each node's output schema —
    /// `qap_types::estimated_tuple_size` precomputed per node, so byte
    /// accounting is a multiply per batch rather than an `encoded_len`
    /// walk per tuple.
    wire: Vec<u64>,
}

impl Engine {
    /// Compiles a plan, collecting output at every root.
    pub fn new(dag: &QueryDag) -> ExecResult<Self> {
        let roots = dag.roots();
        Engine::with_sinks(dag, &roots)
    }

    /// Compiles a plan, collecting output at the given sink nodes (a
    /// node named twice is one sink).
    pub fn with_sinks(dag: &QueryDag, sinks: &[NodeId]) -> ExecResult<Self> {
        let n = dag.len();
        let mut ops: Vec<Box<dyn Operator>> = Vec::with_capacity(n);
        for id in dag.topo_order() {
            ops.push(compile(dag, id)?);
        }
        let mut consumers: Vec<Vec<(NodeId, usize)>> = vec![Vec::new(); n];
        for id in dag.topo_order() {
            for (port, child) in dag.node(id).children().into_iter().enumerate() {
                consumers[child].push((id, port));
            }
        }
        let source_fields = dag
            .topo_order()
            .map(|id| {
                dag.node(id)
                    .is_source()
                    .then(|| dag.schema(id).fields().to_vec())
            })
            .collect();
        let wire = dag
            .topo_order()
            .map(|id| qap_types::estimated_tuple_size(dag.schema(id).arity()) as u64)
            .collect();
        Ok(Engine {
            ops,
            consumers,
            source_fields,
            counters: vec![OpCounters::default(); n],
            sinks: (sinks.iter())
                .map(|&s| (s, ColumnBatch::new(dag.schema(s).arity())))
                .collect(),
            done: 0,
            batch: BatchConfig::default(),
            col_pool: Vec::new(),
            queue: VecDeque::new(),
            outs: Vec::new(),
            metrics: vec![OpMetrics::default(); n],
            metrics_on: true,
            wire,
        })
    }

    /// Sets the batch-routing configuration. Affects only chunking of
    /// future [`Engine::push_columns`] feeds, never results.
    pub fn set_batch_config(&mut self, batch: BatchConfig) {
        self.batch = batch;
    }

    fn take_col_buf(&mut self) -> ColumnBatch {
        self.col_pool.pop().unwrap_or_default()
    }

    fn recycle_col(&mut self, mut buf: ColumnBatch) {
        if self.col_pool.len() < POOL_CAP {
            buf.clear();
            self.col_pool.push(buf);
        }
    }

    /// Ids of source scan nodes.
    pub fn source_nodes(&self) -> Vec<NodeId> {
        (0..self.source_fields.len())
            .filter(|&i| self.source_fields[i].is_some())
            .collect()
    }

    /// Delivers a columnar batch to a source scan, draining `cols`
    /// (its buffers are swapped against a pooled batch when the feed
    /// fits one routed batch). The batch stays in SoA form through
    /// every operator; it must produce exactly what the reference model
    /// produces for its rows — the equivalence suites hold the engine to
    /// that. A batch of another arity is a [`ExecError::BadPlan`], and a
    /// lane of another kind than the source schema declares a
    /// [`ExecError::Wire`] [`TypeError::KindMismatch`](qap_types::TypeError::KindMismatch):
    /// this is where lanes enter the plan, so no operator meets a kind
    /// its plan did not give it.
    pub fn push_columns(&mut self, source: NodeId, cols: &mut ColumnBatch) -> ExecResult<()> {
        let Some(Some(fields)) = self.source_fields.get(source) else {
            return Err(ExecError::NotASource(source));
        };
        if cols.rows() == 0 {
            return Ok(());
        }
        let arity = fields.len();
        if cols.arity() != arity {
            return Err(ExecError::BadPlan(format!(
                "column batch arity {} does not match source {source}'s schema arity {arity}",
                cols.arity()
            )));
        }
        cols.check_kinds(fields)?;
        debug_assert!(self.done < self.ops.len(), "push after finish");
        if self.metrics_on {
            self.metrics[source].bytes_in += cols.rows() as u64 * self.wire[source];
        }
        let max = self.batch.max_batch;
        if cols.rows() <= max {
            let mut b = self.take_col_buf();
            std::mem::swap(&mut b, cols);
            self.queue.push_back((source, 0, b));
            return self.run();
        }
        // Oversized feed: `max` rows at a time, each chunk one lane copy
        // into a pooled batch. Rare — boundary transports frame at most
        // `frame_batch` rows per frame.
        for at in (0..cols.rows()).step_by(max) {
            let mut chunk = self.take_col_buf();
            if chunk.arity() != arity {
                chunk = ColumnBatch::new(arity);
            }
            chunk.append_range(cols, at..cols.rows().min(at + max));
            self.queue.push_back((source, 0, chunk));
        }
        cols.clear();
        self.run()
    }

    /// Delivers a lane frame (produced by
    /// [`qap_types::encode_column_batch`]) to a source scan: it decodes
    /// straight into a [`ColumnBatch`] and stays on lanes through the
    /// engine. Returns the number of tuples ingested.
    ///
    /// This is the receive half of the cluster's framed boundary
    /// transport: a damaged frame, one without
    /// [`qap_types::COLUMNAR_FLAG`], or one whose lanes are not of the
    /// source's kinds, is a typed [`ExecError::Wire`] failure that
    /// reaches no operator — never a panic.
    pub fn push_frame(&mut self, source: NodeId, frame: qap_types::Bytes) -> ExecResult<usize> {
        let mut cols = qap_types::decode_column_batch(frame).map_err(ExecError::Wire)?;
        let n = cols.rows();
        self.push_columns(source, &mut cols)?;
        Ok(n)
    }

    /// Drains the routing queue, delivering each in-flight batch.
    fn run(&mut self) -> ExecResult<()> {
        while let Some((id, port, mut batch)) = self.queue.pop_front() {
            let n = batch.rows() as u64;
            debug_assert!(
                batch.rows() <= self.batch.max_batch,
                "node {id} received {n} rows, past max_batch"
            );
            self.counters[id].tuples_in += n;
            if self.metrics_on {
                let m = &mut self.metrics[id];
                m.batches_in += 1;
                m.batch_occupancy.record(n);
            }
            let res = self.call(id, |op, out| op.push_columns(port, &mut batch, out));
            self.recycle_col(batch);
            res?;
        }
        Ok(())
    }

    /// Runs one call of operator `id` and routes what it emitted, in
    /// order; a call that fails routes nothing.
    fn call(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut dyn Operator, &mut Out) -> ExecResult<()>,
    ) -> ExecResult<()> {
        let mut outs = std::mem::take(&mut self.outs);
        let mut out = Out {
            batches: &mut outs,
            pool: &mut self.col_pool,
            max: self.batch.max_batch,
        };
        let res = f(self.ops[id].as_mut(), &mut out);
        let mut more: usize = outs.iter().map(ColumnBatch::rows).sum();
        for b in outs.drain(..) {
            more -= b.rows();
            match res {
                Ok(()) => self.route(id, b, more),
                Err(_) => self.recycle_col(b),
            }
        }
        self.outs = outs;
        res
    }

    /// Records and fans out one operator's output batch, `more` rows of
    /// the same call still to come: a sink takes it whole when it is the
    /// node's only destination and holds nothing yet, else copies it lane
    /// to lane, making room for the rest of the call at once; each
    /// consumer but the last gets a clone, the last gets the batch itself.
    fn route(&mut self, id: NodeId, out: ColumnBatch, more: usize) {
        // An empty output batch has no particular arity: nothing in it
        // to count, collect or deliver.
        if out.is_empty() {
            return self.recycle_col(out);
        }
        self.counters[id].tuples_out += out.rows() as u64;
        if self.metrics_on {
            let bytes = out.rows() as u64 * self.wire[id];
            self.metrics[id].bytes_out += bytes;
            self.metrics[id].batches_out += 1;
            // Each consumer receives a producer-schema-sized copy.
            for &(c, _) in &self.consumers[id] {
                self.metrics[c].bytes_in += bytes;
            }
        }
        if let Some(sink) = self.sinks.get_mut(&id) {
            if sink.is_empty() && self.consumers[id].is_empty() {
                let empty = std::mem::replace(sink, out);
                return self.recycle_col(empty);
            }
            sink.reserve(out.rows() + more);
            sink.append_range(&out, 0..out.rows());
        }
        if self.consumers[id].is_empty() {
            self.recycle_col(out);
            return;
        }
        let n = self.consumers[id].len();
        for k in 0..n - 1 {
            let (c, p) = self.consumers[id][k];
            self.queue.push_back((c, p, out.clone()));
        }
        let (c, p) = self.consumers[id][n - 1];
        self.queue.push_back((c, p, out));
    }

    /// Signals end-of-stream: every operator flushes, in topological
    /// order, with flushed tuples flowing downstream (through the
    /// pooled batch queue) before their consumers finish.
    pub fn finish(&mut self) -> ExecResult<()> {
        debug_assert!(self.done < self.ops.len(), "finish called twice");
        self.finish_through(NodeId::MAX)
    }

    /// [`Engine::finish`] for the operators up to and including `last`
    /// only, skipping those already finished: how a plan cut across
    /// engines ends, one producer at a time, when some of an engine's
    /// sources are fed by another engine's operators.
    pub fn finish_through(&mut self, last: NodeId) -> ExecResult<()> {
        while self.done < self.ops.len() && self.done <= last {
            let id = self.done;
            self.done += 1;
            self.call(id, |op, out| op.finish(out))?;
            // Drain anything still in flight destined at or after `id`.
            self.run()?;
            self.counters[id].late_dropped = self.ops[id].late_dropped();
        }
        Ok(())
    }

    /// Migration drain: force-closes any window at `node` complete
    /// relative to boundary `time`, routing what it flushes downstream.
    /// After this, the node's live state holds at most the one window
    /// the boundary splits — exactly what [`Engine::extract_state`]
    /// ships.
    pub fn flush_before(&mut self, node: NodeId, time: u64) -> ExecResult<()> {
        if node >= self.ops.len() {
            return Err(ExecError::BadPlan(format!("no node {node} to flush")));
        }
        self.call(node, |op, out| op.flush_before(time, out))?;
        self.run()
    }

    /// Migration extract: removes live group state at `node` for keys
    /// the predicate selects, returning one state row per moved group
    /// (group key values, then per-slot lossless accumulator state) in
    /// the order the predicate selected them. A node the engine does
    /// not have is a typed [`ExecError::BadPlan`].
    pub fn extract_state(
        &mut self,
        node: NodeId,
        pred: &mut dyn FnMut(&[Value]) -> bool,
    ) -> ExecResult<ColumnBatch> {
        let op = self.ops.get_mut(node);
        let op = op.ok_or_else(|| ExecError::BadPlan(format!("no node {node} to extract from")))?;
        let mut out = ColumnBatch::default();
        op.extract_state(pred, &mut out)?;
        Ok(out)
    }

    /// Migration absorb: merges state rows previously extracted from an
    /// identically-shaped node on a peer engine into `node`'s live
    /// tables, routing anything the absorbed state flushes. A node the
    /// engine does not have, or one without keyed state, is a typed
    /// [`ExecError::BadPlan`].
    pub fn absorb_state(&mut self, node: NodeId, state: &ColumnBatch) -> ExecResult<()> {
        if node >= self.ops.len() {
            return Err(ExecError::BadPlan(format!("no node {node} to absorb into")));
        }
        self.call(node, |op, out| op.absorb_state(state, out))
            .map_err(|e| match e {
                ExecError::BadPlan(why) => {
                    ExecError::BadPlan(format!("absorb into node {node}: {why}"))
                }
                other => other,
            })?;
        self.run()
    }

    /// Takes what a sink has collected, transposed to result rows (none
    /// for a node that is not one).
    pub fn output(&mut self, node: NodeId) -> Vec<Tuple> {
        self.drain_boundary(node)
            .map_or_else(Vec::new, |lanes| lanes.to_rows())
    }

    /// Moves out what a sink has accumulated since the last drain, as
    /// lanes, leaving it collecting — incremental forwarding of a unit's
    /// boundary while its engine keeps running. `None` when nothing has
    /// arrived (or the node is not a sink).
    pub fn drain_boundary(&mut self, node: NodeId) -> Option<ColumnBatch> {
        let lanes = self.sinks.get_mut(&node)?;
        (!lanes.is_empty()).then(|| lanes.take())
    }

    /// Tuple-flow counters, indexed by node id.
    pub fn counters(&self) -> &[OpCounters] {
        &self.counters
    }

    /// Enables or disables batch-level metrics recording (on by
    /// default). Disabling skips the per-batch histogram/byte updates;
    /// semantic [`OpCounters`] are always maintained.
    pub fn set_metrics_enabled(&mut self, on: bool) {
        self.metrics_on = on;
    }

    /// Snapshot of per-operator metrics, indexed by node id: the
    /// routing path's batch-level telemetry joined with the semantic
    /// tuple counters and each operator's internal runtime stats
    /// (flush latency, group-table occupancy). Assembled on demand —
    /// nothing here runs on the hot path.
    pub fn metrics(&self) -> Vec<OpMetrics> {
        let mut out = self.metrics.clone();
        for (id, m) in out.iter_mut().enumerate() {
            let c = &self.counters[id];
            m.tuples_in = c.tuples_in;
            m.tuples_out = c.tuples_out;
            m.late_dropped = self.ops[id].late_dropped();
            let rt = self.ops[id].runtime_stats();
            m.flushes = rt.flushes;
            m.flush_ns = rt.flush_ns;
            m.group_slots = rt.group_slots;
            m.group_probes = rt.group_probes;
            m.group_inserts = rt.group_inserts;
            m.kernel_hits = rt.kernel_hits;
            // Direct array assignment: `[u64; qap_expr::LANE_KINDS]` to
            // `[u64; qap_obs::KERNEL_LANES]` — a lane-count mismatch
            // between the two crates fails to compile right here.
            m.kernel_lane_hits = rt.kernel_lane_hits;
        }
        out
    }
}

// ---------------------------------------------------------------------
// compilation
// ---------------------------------------------------------------------

fn compile(dag: &QueryDag, id: NodeId) -> ExecResult<Box<dyn Operator>> {
    Ok(match bind_node(dag, id)? {
        BoundNode::Source => Box::new(ScanOp),
        BoundNode::Select {
            predicate,
            projections,
        } => Box::new(SelectOp::new(predicate, projections)),
        BoundNode::Aggregate(a) => Box::new(AggregateOp::new(a)),
        BoundNode::Join(j) => Box::new(JoinOp::new(j)),
        BoundNode::Merge {
            ports,
            temporal_idx,
        } => Box::new(MergeOp::new(ports, temporal_idx)),
    })
}
