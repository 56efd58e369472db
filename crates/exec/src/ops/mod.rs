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

/// A compiled streaming operator, processing input one *batch* of lanes
/// at a time. `push_columns` delivers a [`ColumnBatch`] on an input port
/// (0 for unary operators; joins use 0 = left, 1 = right; merges one port
/// per input) and must drain it, appending any produced rows to `out`.
/// Every call that can emit — `push_columns`, `finish`, `flush_before`,
/// `absorb_state` — writes one output type: a [`ColumnBatch`] (an empty
/// engine-owned scratch batch of no particular arity, which the
/// operator gives its output arity). Semantics are defined
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
    /// and appending produced rows to `out`.
    fn push_columns(
        &mut self,
        port: usize,
        batch: &mut ColumnBatch,
        out: &mut ColumnBatch,
    ) -> ExecResult<()>;
    /// Flushes remaining state at end-of-stream into `out`. Stateless
    /// operators have nothing to flush.
    fn finish(&mut self, _out: &mut ColumnBatch) -> ExecResult<()> {
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
    fn flush_before(&mut self, _time: u64, _out: &mut ColumnBatch) -> ExecResult<()> {
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
    /// [`Operator::extract_state`] on an identically-shaped operator,
    /// writing any window the absorbed state closes to `out`. An
    /// operator without keyed window state has nowhere to put it: a
    /// typed [`ExecError::BadPlan`], never a silent drop.
    fn absorb_state(&mut self, _state: &ColumnBatch, _out: &mut ColumnBatch) -> ExecResult<()> {
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
/// moves in one swap.
pub(crate) struct ScanOp;

impl Operator for ScanOp {
    fn push_columns(
        &mut self,
        _port: usize,
        batch: &mut ColumnBatch,
        out: &mut ColumnBatch,
    ) -> ExecResult<()> {
        std::mem::swap(out, batch);
        batch.clear();
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

/// Gives an empty output batch the operator's output arity (pooled
/// scratch batches arrive with whatever arity their last user left).
pub(crate) fn reset_arity(out: &mut ColumnBatch, arity: usize) {
    if out.arity() != arity {
        debug_assert!(out.is_empty(), "pooled output batch arrives empty");
        *out = ColumnBatch::new(arity);
    }
}

/// Appends `src` to an output batch, by move when the output is still
/// empty.
pub(crate) fn append_batch(out: &mut ColumnBatch, src: ColumnBatch) {
    if out.is_empty() {
        *out = src;
    } else {
        out.append_range(&src, 0..src.rows());
    }
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
