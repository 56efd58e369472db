//! Streaming operator implementations.
//!
//! Operators see only lanes. Expressions run through `qap-expr`'s
//! column evaluator ([`qap_expr::Filter`], [`qap_expr::Projection`]),
//! which answers every batch a node at a time over typed lanes; group
//! keys and equi-keys read as words ([`keys::read_words`]). No
//! operator materializes a row or evaluates an expression itself, and
//! neither does the evaluator: the row interpreter is the reference
//! model's alone.

mod aggregate;
mod group_table;
mod join;
mod keys;
mod merge;
mod select;

pub(crate) use aggregate::AggregateOp;
pub(crate) use join::JoinOp;
pub(crate) use merge::MergeOp;
pub(crate) use select::SelectOp;

use qap_expr::LANE_KINDS;
use qap_types::{Column, ColumnBatch, Value};

use crate::{ExecError, ExecResult};

/// Operator-internal runtime telemetry, harvested once per snapshot
/// (off the hot path). Distinct from [`crate::OpCounters`], which is
/// batch-size-invariant semantic flow: these numbers describe the
/// mechanics of one particular run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct OpRuntimeStats {
    /// Window flushes performed.
    pub flushes: u64,
    /// Wall-clock nanoseconds spent inside window flushes.
    pub flush_ns: u64,
    /// Open-addressed index slots across the operator's group tables.
    pub group_slots: u64,
    /// Slot inspections across all group-table lookups.
    pub group_probes: u64,
    /// Groups created across the run.
    pub group_inserts: u64,
    /// Lane evaluations (filters, projections, key passes, folds).
    pub kernel_hits: u64,
    /// Evaluations per lane type they read, indexed by
    /// `qap_expr::LaneKind as usize` (one evaluation may credit several
    /// lane types).
    pub kernel_lane_hits: [u64; LANE_KINDS],
}

/// Where an operator call writes what it emits: batches of at most
/// `max` rows each, which the engine routes in the order they were
/// emitted. A fresh batch ([`Out::batch`]) comes from the engine's pool
/// of recycled batches; a batch the operator already holds moves in
/// whole ([`Out::push`]). No operator concatenates output batches.
pub(crate) struct Out<'a> {
    pub(crate) batches: &'a mut Vec<ColumnBatch>,
    pub(crate) pool: &'a mut Vec<ColumnBatch>,
    /// The most rows one emitted batch may hold: `max_batch`.
    pub(crate) max: usize,
}

impl Out<'_> {
    /// Emits an empty pooled batch of `arity`, to be filled with at
    /// most `max` rows.
    pub(crate) fn batch(&mut self, arity: usize) -> &mut ColumnBatch {
        let at = self.pool.iter().rposition(|b| b.arity() == arity);
        let b = at.map(|i| self.pool.swap_remove(i));
        self.batches
            .push(b.unwrap_or_else(|| ColumnBatch::new(arity)));
        self.batches.last_mut().expect("just pushed")
    }

    /// Emits a whole batch of at most `max` rows.
    pub(crate) fn push(&mut self, b: ColumnBatch) {
        debug_assert!(b.rows() <= self.max, "{} rows past max_batch", b.rows());
        self.batches.push(b);
    }
}

/// A compiled streaming operator, processing input one *batch* of lanes
/// at a time. `push_columns` delivers a [`ColumnBatch`] on an input port
/// (0 for unary operators; joins use 0 = left, 1 = right; merges one port
/// per input) and must drain it, emitting any produced rows to `out`.
/// Every call that can emit — `push_columns`, `finish`, `flush_before`,
/// `absorb_state` — emits [`ColumnBatch`]es of at most
/// `max_batch` rows ([`Out`]). Semantics are defined
/// tuple-at-a-time by the reference model ([`crate::run_logical`]):
/// batching is a mechanical optimisation, never a semantic one. An
/// operator never evaluates a row outside the model's order: a row the
/// model would not evaluate an expression on (filtered out, or late to
/// its window) evaluates none, so an error surfaces exactly when the
/// model meets one. `finish`
/// signals end-of-stream on all ports (the engine calls it in
/// topological order, so every input is already complete).
pub(crate) trait Operator {
    /// Processes one columnar batch, draining `batch` (left cleared)
    /// and emitting produced rows to `out`.
    fn push_columns(
        &mut self,
        port: usize,
        batch: &mut ColumnBatch,
        out: &mut Out,
    ) -> ExecResult<()>;
    /// Flushes remaining state at end-of-stream into `out`. Stateless
    /// operators have nothing to flush.
    fn finish(&mut self, _out: &mut Out) -> ExecResult<()> {
        Ok(())
    }
    /// Tuples dropped for arriving behind the operator's window.
    fn late_dropped(&self) -> u64 {
        0
    }
    /// Migration drain hook: force-closes any window complete relative
    /// to the drain boundary `time` (every tuple at `time` or later
    /// maps to a strictly greater bucket), emitting the flushed rows.
    /// Stateless and non-windowed operators have nothing to close.
    fn flush_before(&mut self, _time: u64, _out: &mut Out) -> ExecResult<()> {
        Ok(())
    }
    /// Migration extract hook: removes live group state for keys the
    /// predicate selects, appending to `out` (an empty batch of no
    /// particular arity) one state row per moved group: the key columns,
    /// then each slot's lossless accumulator state. Operators without
    /// keyed window state ship nothing.
    fn extract_state(
        &mut self,
        _pred: &mut dyn FnMut(&[Value]) -> bool,
        _out: &mut ColumnBatch,
    ) -> ExecResult<()> {
        Ok(())
    }
    /// Migration absorb hook: merges state rows produced by
    /// [`Operator::extract_state`] on an identically-shaped operator
    /// (of any size), emitting any window the absorbed state closes to
    /// `out`. An operator without keyed window state has nowhere to put
    /// it: a typed [`ExecError::BadPlan`], never a silent drop.
    fn absorb_state(&mut self, _state: &ColumnBatch, _out: &mut Out) -> ExecResult<()> {
        Err(ExecError::BadPlan(
            "the operator holds no keyed state".into(),
        ))
    }
    /// Operator-internal runtime telemetry (flush latency, group-table
    /// occupancy). Harvested once per snapshot, never on the hot path;
    /// stateless operators report zeros.
    fn runtime_stats(&self) -> OpRuntimeStats {
        OpRuntimeStats::default()
    }
}

/// Pass-through operator for source scans (the engine routes external
/// batches straight through so counters see them): the whole batch
/// moves out, a pooled one taking its place.
pub(crate) struct ScanOp;

impl Operator for ScanOp {
    fn push_columns(
        &mut self,
        _port: usize,
        batch: &mut ColumnBatch,
        out: &mut Out,
    ) -> ExecResult<()> {
        let spare = out.pool.pop().unwrap_or_default();
        out.push(std::mem::replace(batch, spare));
        Ok(())
    }
}

/// Numeric epoch value of a temporal attribute, for window comparisons.
/// Non-numeric or NULL temporal values map to `i128::MIN` (sorts first,
/// treated as a degenerate epoch).
pub(crate) fn bucket_of(v: &Value) -> i128 {
    match v {
        Value::UInt(x) => i128::from(*x),
        Value::Int(x) => i128::from(*x),
        Value::Bool(b) => i128::from(*b),
        _ => i128::MIN,
    }
}

/// Element-wise sum of two per-lane counter arrays: the evaluator's
/// tallies plus the operator's own key-lane tallies.
pub(crate) fn merge_lanes(a: [u64; LANE_KINDS], b: [u64; LANE_KINDS]) -> [u64; LANE_KINDS] {
    let mut out = a;
    for (o, v) in out.iter_mut().zip(b) {
        *o += v;
    }
    out
}

/// Calls `f(rows, bucket)` for each maximal run of consecutive rows of
/// a temporal column that share a bucket ([`bucket_of`] per row; a
/// non-null unsigned lane compares raw words). Operator inputs are
/// bucket-ordered, so a run is normally a whole epoch.
pub(crate) fn for_each_bucket_run(
    col: &Column,
    mut f: impl FnMut(std::ops::Range<usize>, i128) -> ExecResult<()>,
) -> ExecResult<()> {
    let n = col.len();
    let mut start = 0;
    while start < n {
        let (bucket, len) = match col.uints() {
            Some(lane) if !col.has_nulls() => {
                let x = lane[start];
                let len = lane[start..].iter().take_while(|&&y| y == x).count();
                (i128::from(x), len)
            }
            _ => {
                let b = bucket_of(&col.value(start));
                let len = (start..n)
                    .take_while(|&r| bucket_of(&col.value(r)) == b)
                    .count();
                (b, len)
            }
        };
        f(start..start + len, bucket)?;
        start += len;
    }
    Ok(())
}
