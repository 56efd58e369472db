//! Streaming operator implementations.

mod aggregate;
mod group_table;
mod join;
mod merge;
mod select;

pub(crate) use aggregate::{AccFactory, AggregateOp};
pub(crate) use join::JoinOp;
pub(crate) use merge::MergeOp;
pub(crate) use select::SelectOp;

use qap_expr::{BoundExpr, LaneKind, LANE_KINDS};
use qap_types::{Column, ColumnBatch, ColumnData, Tuple, Value};

use crate::ExecResult;

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
    /// Compiled-kernel executions (vectorized filters, projections,
    /// columnar key passes) that ran to completion.
    pub kernel_hits: u64,
    /// Columnar evaluations that fell back to the per-tuple
    /// interpreter (non-kernelizable expression or runtime bailout).
    pub kernel_fallbacks: u64,
    /// Completed kernel runs per lane type the run touched, indexed by
    /// `qap_expr::LaneKind as usize` (one run may credit several lane
    /// types).
    pub kernel_lane_hits: [u64; LANE_KINDS],
    /// Kernel bailouts per lane type that forced the fallback, same
    /// indexing.
    pub kernel_lane_fallbacks: [u64; LANE_KINDS],
}

/// A compiled streaming operator, processing input one *batch* at a
/// time, in either representation. `push_batch` delivers a batch of
/// input tuples on an input port (0 for unary operators; joins use
/// 0 = left, 1 = right; merges one port per input) and must drain
/// `batch`, appending any produced tuples to `out`; `push_columns`
/// delivers the same thing as a [`ColumnBatch`] and answers in one.
/// Semantics are defined tuple-at-a-time: `push_batch(p, [t1..tn], out)`
/// must emit exactly the concatenation a per-tuple loop would, in the
/// same order — batching and representation are mechanical
/// optimisations, never semantic ones. The row entry is that definition
/// written plainly (the reference [`crate::run_logical`] runs); the lane
/// entry is the one production runs. `finish` signals end-of-stream on
/// all ports (the engine calls it in topological order, so every input
/// is already complete).
///
/// An operator that has been fed lanes answers in lanes. Only the calls
/// no input drives — `finish` and `flush_before` — take the
/// `(rows_out, cols_out)` pair, and fill `cols_out` exactly when some
/// input arrived as lanes.
pub(crate) trait Operator {
    /// Processes one batch of tuples, draining `batch` and appending
    /// any produced tuples to `out`.
    fn push_batch(
        &mut self,
        port: usize,
        batch: &mut Vec<Tuple>,
        out: &mut Vec<Tuple>,
    ) -> ExecResult<()>;
    /// Flushes remaining state at end-of-stream, into `cols_out` when
    /// the operator has been fed lanes and into `rows_out` otherwise.
    fn finish(&mut self, rows_out: &mut Vec<Tuple>, cols_out: &mut ColumnBatch) -> ExecResult<()>;
    /// Processes one columnar batch, draining `batch` (left cleared)
    /// and appending produced output to `out` (an empty engine-owned
    /// scratch batch of no particular arity). Must emit exactly what
    /// [`Operator::push_batch`] would emit for the batch's row
    /// materialization, in the same order — fallbacks to the per-row
    /// interpreter included.
    fn push_columns(
        &mut self,
        port: usize,
        batch: &mut ColumnBatch,
        out: &mut ColumnBatch,
    ) -> ExecResult<()>;
    /// Tuples dropped for arriving behind the operator's window.
    fn late_dropped(&self) -> u64 {
        0
    }
    /// Migration drain hook: force-closes any window complete relative
    /// to the drain boundary `time` (every tuple at `time` or later
    /// maps to a strictly greater bucket), emitting the flushed rows.
    /// Stateless and non-windowed operators have nothing to close.
    fn flush_before(
        &mut self,
        _time: u64,
        _rows_out: &mut Vec<Tuple>,
        _cols_out: &mut ColumnBatch,
    ) -> ExecResult<()> {
        Ok(())
    }
    /// Migration extract hook: removes live group state for keys the
    /// predicate selects, appending one state row per moved group (key
    /// values, then lossless accumulator state per slot). Operators
    /// without keyed window state ship nothing.
    fn extract_state(&mut self, _pred: &mut dyn FnMut(&[Value]) -> bool, _out: &mut Vec<Tuple>) {}
    /// Migration absorb hook: merges state rows produced by
    /// [`Operator::extract_state`] on an identically-shaped operator,
    /// draining `rows`. Operators without keyed window state drop the
    /// payload (callers gate migration on aggregate leaves).
    fn absorb_state(&mut self, rows: &mut Vec<Tuple>, _out: &mut Vec<Tuple>) -> ExecResult<()> {
        rows.clear();
        Ok(())
    }
    /// Operator-internal runtime telemetry (flush latency, group-table
    /// occupancy). Harvested once per snapshot, never on the hot path;
    /// stateless operators report zeros.
    fn runtime_stats(&self) -> OpRuntimeStats {
        OpRuntimeStats::default()
    }
}

/// Pass-through operator for source scans (the engine routes external
/// tuples straight through so counters see them). The whole batch moves
/// in one swap (or a bulk append when `out` already holds tuples) — no
/// per-tuple work at all.
pub(crate) struct ScanOp;

impl Operator for ScanOp {
    fn push_batch(
        &mut self,
        _port: usize,
        batch: &mut Vec<Tuple>,
        out: &mut Vec<Tuple>,
    ) -> ExecResult<()> {
        if out.is_empty() {
            std::mem::swap(out, batch);
        } else {
            out.append(batch);
        }
        Ok(())
    }

    fn finish(
        &mut self,
        _rows_out: &mut Vec<Tuple>,
        _cols_out: &mut ColumnBatch,
    ) -> ExecResult<()> {
        Ok(())
    }

    fn push_columns(
        &mut self,
        _port: usize,
        batch: &mut ColumnBatch,
        out: &mut ColumnBatch,
    ) -> ExecResult<()> {
        // Column batches pass through by swap, mirroring the row path.
        std::mem::swap(out, batch);
        batch.clear();
        Ok(())
    }
}

/// Where an operator's per-row output goes: the row reference's tuple
/// buffer, or a lane-fed operator's output batch. Lets one per-row
/// algorithm (a window flush, an interpreted projection) answer in the
/// representation its input arrived in.
pub(crate) trait Emit {
    /// Appends `row`. A tuple buffer keeps the tuple, leaving `row` an
    /// empty tuple with room for as many values; a batch copies it into
    /// its lanes (giving an empty batch the row's arity), leaving `row`
    /// to be reused.
    fn emit(&mut self, row: &mut Tuple);
}

impl Emit for Vec<Tuple> {
    fn emit(&mut self, row: &mut Tuple) {
        let next = Tuple::with_capacity(row.arity());
        self.push(std::mem::replace(row, next));
    }
}

impl Emit for ColumnBatch {
    fn emit(&mut self, row: &mut Tuple) {
        reset_arity(self, row.arity());
        self.push_row(row);
    }
}

/// Evaluates `projections` over `input` into `out` (cleared first).
pub(crate) fn project_row(
    projections: &[BoundExpr],
    input: &Tuple,
    out: &mut Tuple,
) -> ExecResult<()> {
    out.clear();
    for e in projections {
        out.push(e.eval(input)?);
    }
    Ok(())
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

/// Whether row `r` is flagged under a possibly-empty mask.
#[inline]
pub(crate) fn masked(m: &[bool], r: usize) -> bool {
    !m.is_empty() && m[r]
}

/// The lane type a column's data would execute as — the label the
/// per-lane kernel counters tally under.
pub(crate) fn column_lane_kind(c: &Column) -> LaneKind {
    match c.data() {
        Some(ColumnData::UInt(_)) | None => LaneKind::Uint,
        Some(ColumnData::Int(_)) => LaneKind::Int,
        Some(ColumnData::Bool(_)) => LaneKind::Bool,
        Some(ColumnData::Str(_)) => LaneKind::Str,
        Some(ColumnData::Dict(_)) => LaneKind::Dict,
        Some(ColumnData::Mixed(_)) => LaneKind::Mixed,
    }
}

/// Element-wise sum of two per-lane counter arrays: a kernel scratch's
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
