//! Tumbling-window hash aggregation (γ).
//!
//! Group state lives in the [`GroupTable`]'s arenas with a layout fixed
//! when the operator is built: every `COUNT`, `SUM`, `AVG`, `OR_AGGR`
//! and `AND_AGGR` slot is a run of `u64` words ([`WordAgg`]) beside its
//! group's other slots, and each `MIN`, `MAX` or UDAF slot an
//! [`AnyAcc`] in the side arena. Folds, window closes, migration
//! extracts and absorbs all read and write that layout directly.

use std::sync::Arc;

use qap_expr::{
    make_accumulator, Accumulator, AggKind, BinOp, BoundExpr, KernelScratch, LaneKind, NumKernel,
    PredicateKernel, UdafState, WordAgg, LANE_KINDS,
};
use qap_types::{
    Column, ColumnBatch, ColumnData, DictLane, SelectionVector, Tuple, Value, DICT_NULL_CODE,
};

use crate::bind::{AccFactory, AggSlot, BoundAggregate};
use crate::fx;
use crate::ExecResult;

use super::group_table::{GroupTable, Window, WindowKeys};
use super::{
    bucket_of, column_lane_kind, emit_row, masked, merge_lanes, reset_arity, OpRuntimeStats,
    Operator,
};

/// Running state of one `MIN`, `MAX` or UDAF slot for one group (every
/// other built-in keeps its state as [`WordAgg`] words). Its lossless
/// migration state is one value, its partial — `MIN`/`MAX`'s extreme, a
/// UDAF's mergeable state by contract — and merges back in.
enum AnyAcc {
    Builtin(Accumulator),
    Udaf(Box<dyn UdafState>),
}

impl AnyAcc {
    fn update(&mut self, v: &Value) {
        match self {
            AnyAcc::Builtin(a) => a.update(v),
            AnyAcc::Udaf(u) => u.update(v),
        }
    }

    fn merge(&mut self, v: &Value) {
        match self {
            AnyAcc::Builtin(a) => a.merge(v),
            AnyAcc::Udaf(u) => u.merge(v),
        }
    }

    fn finalize(&self) -> Value {
        match self {
            AnyAcc::Builtin(a) => a.finalize(),
            AnyAcc::Udaf(u) => u.finalize(),
        }
    }

    /// Serialized mergeable state, for sub-aggregate emission. Built-in
    /// partials coincide with their finalized values.
    fn partial(&self) -> Value {
        match self {
            AnyAcc::Builtin(a) => a.finalize(),
            AnyAcc::Udaf(u) => u.partial(),
        }
    }
}

/// Where one slot keeps its state in a group's payload, fixed when the
/// operator is built.
#[derive(Clone, Copy)]
enum SlotState {
    /// A word kind, at `words[off..off + agg.width()]`.
    Word { agg: WordAgg, off: usize },
    /// A `MIN`, `MAX` or UDAF accumulator, at `side[i]`.
    Side(usize),
}

/// One aggregate slot as the operator runs it: the bound slot, how the
/// lane path reads its argument and where its state lives.
struct Slot {
    bound: AggSlot,
    eval: SlotEval,
    state: SlotState,
}

impl Slot {
    /// Classifies `slots` and lays their state out: word kinds side by
    /// side in slot order, then one side accumulator per other slot.
    /// Returns them with the words and side accumulators per group.
    fn plan(slots: Vec<AggSlot>) -> (Vec<Slot>, usize, usize) {
        let (mut words, mut side) = (0, 0);
        let slots = slots.into_iter().map(|bound| {
            let state = match &bound.factory {
                AccFactory::Builtin(kind) => WordAgg::of(*kind),
                AccFactory::Udaf(_) => None,
            };
            let state = match state {
                Some(agg) => {
                    words += agg.width();
                    SlotState::Word {
                        agg,
                        off: words - agg.width(),
                    }
                }
                None => {
                    side += 1;
                    SlotState::Side(side - 1)
                }
            };
            let eval = SlotEval::classify(&bound);
            Slot { bound, eval, state }
        });
        (slots.collect(), words, side)
    }

    /// A fresh side accumulator, for a slot that keeps one.
    fn fresh_side(&self) -> Option<AnyAcc> {
        let SlotState::Side(_) = self.state else {
            return None;
        };
        Some(match &self.bound.factory {
            AccFactory::Builtin(kind) => AnyAcc::Builtin(make_accumulator(*kind)),
            AccFactory::Udaf(u) => AnyAcc::Udaf(u.init()),
        })
    }

    /// Folds one argument value into a group's state: updated, or
    /// merged when the slot takes partials.
    fn fold_value(&self, words: &mut [u64], side: &mut [AnyAcc], v: &Value) {
        match (self.state, self.bound.merge) {
            (SlotState::Word { agg, off }, false) => agg.update(&mut words[off..], v),
            (SlotState::Word { agg, off }, true) => agg.merge(&mut words[off..], v),
            (SlotState::Side(i), false) => side[i].update(v),
            (SlotState::Side(i), true) => side[i].merge(v),
        }
    }

    /// Folds one input row: the argument's value (every row counts for
    /// `COUNT(*)`).
    fn fold(&self, words: &mut [u64], side: &mut [AnyAcc], row: &Tuple) -> ExecResult<()> {
        let v = match &self.bound.arg {
            Some(e) => e.eval(row)?,
            None => Value::Bool(true),
        };
        self.fold_value(words, side, &v);
        Ok(())
    }

    /// The slot's value for a closing window: its partial when the
    /// slot emits partials (a built-in's is its final value).
    fn close(&self, words: &[u64], side: &[AnyAcc]) -> Value {
        match self.state {
            SlotState::Word { agg, off } => agg.finalize(&words[off..]),
            SlotState::Side(i) if self.bound.emit_partial => side[i].partial(),
            SlotState::Side(i) => side[i].finalize(),
        }
    }

    /// Number of state values the slot ships per group in migration.
    fn state_width(&self) -> usize {
        match &self.bound.factory {
            AccFactory::Builtin(kind) => qap_expr::state_width(*kind),
            AccFactory::Udaf(_) => 1,
        }
    }

    fn state_values(&self, words: &[u64], side: &[AnyAcc], out: &mut Vec<Value>) {
        match self.state {
            SlotState::Word { agg, off } => agg.state_values(&words[off..], out),
            SlotState::Side(i) => out.push(side[i].partial()),
        }
    }

    fn absorb_state(&self, words: &mut [u64], side: &mut [AnyAcc], vals: &[Value]) {
        match (self.state, vals.first()) {
            (SlotState::Word { agg, off }, _) => agg.merge_state(&mut words[off..], vals),
            (SlotState::Side(i), Some(v)) => side[i].merge(v),
            (SlotState::Side(_), None) => {}
        }
    }
}

/// Fresh side accumulators for a new group.
fn fresh_side(slots: &[Slot]) -> impl Iterator<Item = AnyAcc> + '_ {
    slots.iter().filter_map(Slot::fresh_side)
}

/// How the lane path reads one group-key expression, classified once
/// at operator construction: the two shapes every windowed query hits —
/// a plain column and the `time/60` window key — read their lanes
/// directly, and any other numeric key (`srcIP & 0xFFF0`) compiles to a
/// kernel. Each reproduces [`BoundExpr::eval`] exactly; a batch whose
/// lanes fall outside a shape's domain takes the per-row algorithm.
enum KeyEval {
    /// Plain column reference.
    Col(usize),
    /// `column / <positive unsigned literal>` over an unsigned input;
    /// other inputs (NULL, signed, …) take the per-row path. When
    /// `magic` is non-zero (divisor in `2..2^32`), a dividend that fits
    /// 32 bits strength-reduces the hardware division to a
    /// multiply-shift: with `m = ⌊2^64/d⌋ + 1`, `(x·m) >> 64 = ⌊x/d⌋`
    /// exactly for all `x, d < 2^32` (the +1 over-approximation of
    /// `2^64/d` adds under `x·2^-64 < 2^-32` before the floor, and the
    /// true fraction `r/d` sits at least `1/d > 2^-32` below the next
    /// integer).
    DivConst { col: usize, div: u64, magic: u64 },
    /// Any other key inside the numeric kernel domain, evaluated once
    /// per batch into an owned unsigned lane.
    Kernel(NumKernel),
    /// Outside every lane shape: the per-row path evaluates it.
    General,
}

impl KeyEval {
    fn classify(e: &BoundExpr) -> KeyEval {
        match e {
            BoundExpr::Column(i) => KeyEval::Col(*i),
            BoundExpr::Binary {
                op: BinOp::Div,
                lhs,
                rhs,
            } => match (lhs.as_ref(), rhs.as_ref()) {
                (BoundExpr::Column(i), BoundExpr::Literal(Value::UInt(c))) if *c > 0 => {
                    let magic = if (2..1u64 << 32).contains(c) {
                        ((1u128 << 64) / u128::from(*c)) as u64 + 1
                    } else {
                        0
                    };
                    KeyEval::DivConst {
                        col: *i,
                        div: *c,
                        magic,
                    }
                }
                _ => KeyEval::general(e),
            },
            _ => KeyEval::general(e),
        }
    }

    fn general(e: &BoundExpr) -> KeyEval {
        NumKernel::compile(e).map_or(KeyEval::General, KeyEval::Kernel)
    }
}

/// How the lane path reads one aggregate slot's argument, classified
/// once at operator construction (the per-batch [`SlotLane`] refines
/// it).
enum SlotEval {
    /// `COUNT(*)`: an unconditional increment.
    CountStar,
    /// A plain column argument, read off its lane.
    Col(usize),
    /// Evaluate the argument expression, then update or merge.
    General,
}

/// Strength-reduced unsigned division for the window key (see
/// [`KeyEval::DivConst`]).
#[inline]
fn div_q(x: u64, div: u64, magic: u64) -> u64 {
    if magic != 0 && x >> 32 == 0 {
        ((u128::from(x) * u128::from(magic)) >> 64) as u64
    } else {
        x / div
    }
}

impl SlotEval {
    fn classify(slot: &AggSlot) -> SlotEval {
        match (&slot.factory, &slot.arg) {
            (AccFactory::Builtin(AggKind::Count), None) => SlotEval::CountStar,
            (_, Some(BoundExpr::Column(i))) => SlotEval::Col(*i),
            _ => SlotEval::General,
        }
    }
}

/// Hash aggregation over the current tumbling window. State holds only
/// the current window's groups; the window flushes the moment the
/// temporal grouping attribute advances (Section 3.1). Tuples arriving
/// behind the window are dropped and counted, mirroring a DSMS facing
/// out-of-order input.
pub(crate) struct AggregateOp {
    predicate: Option<BoundExpr>,
    group_exprs: Vec<BoundExpr>,
    /// Lane shapes of `group_exprs`, classified once (parallel vector).
    key_evals: Vec<KeyEval>,
    /// Index (within the group key) of the temporal attribute that
    /// defines the window.
    temporal_idx: usize,
    slots: Vec<Slot>,
    having: Option<BoundExpr>,
    /// HAVING compiled against the output schema (None: no HAVING, or
    /// outside the kernel domain), run over each closed window's lanes.
    having_kernel: Option<PredicateKernel>,
    /// The HAVING kernel's own register file: its lane tallies are not
    /// the operator's input-side kernel telemetry.
    having_scratch: KernelScratch,
    /// Reused lanes of the window being closed: one per group key, then
    /// one per aggregate slot (trimmed or extended to that count when a
    /// window that left whole handed back the output's lanes).
    window: Vec<Column>,
    current_bucket: Option<i128>,
    /// Current window's groups, in insertion order (deterministic
    /// flush). Each group's word-kind state sits in one run of the
    /// table's word arena, so the per-tuple fold touches contiguous
    /// words; `MIN`, `MAX` and UDAF slots keep an [`AnyAcc`] each in
    /// its side arena.
    groups: GroupTable<AnyAcc>,
    /// Groups whose temporal attribute is NULL (outer-join padding):
    /// they belong to no window, accumulate for the whole stream, and
    /// flush at finish.
    null_groups: GroupTable<AnyAcc>,
    late: u64,
    /// Window flushes performed (including the end-of-stream flush).
    flushes: u64,
    /// Wall-clock nanoseconds spent inside window flushes. Timed per
    /// flush (once per closed window), never per tuple.
    flush_ns: u64,
    /// Reused group-key buffer: every tuple evaluates its key into this
    /// scratch and probes by slice; a new group drains the scratch into
    /// the table's key arena, so no per-group allocation ever happens.
    key_scratch: Vec<Value>,
    /// Compiled predicate kernel for the columnar path (None: no
    /// predicate, or outside the kernel domain).
    kernel: Option<PredicateKernel>,
    /// Reused kernel register file.
    kscratch: KernelScratch,
    /// Reused selection vector: the columnar filter's, and HAVING's
    /// over a closed window.
    sel: SelectionVector,
    /// Per-row group-key hashes, built column-at-a-time (one fold per
    /// key lane) so the probe loop touches no `Value`s at all.
    hash_scratch: Vec<u64>,
    /// Per-row window-key quotients on the columnar path, one lane per
    /// `DivConst` eval in key order.
    q_lanes: Vec<Vec<u64>>,
    /// Reused row: a columnar fallback's materialization (interpreter
    /// predicates and HAVING, `General` slot folds).
    row_scratch: Tuple,
    /// Recycled surviving-row indices for the interpreter predicate
    /// fallback, so a kernel bailout does not reallocate two index
    /// buffers per batch.
    fallback_keep: Vec<u32>,
    /// Row-major key words for the all-unsigned columnar path (`arity`
    /// words per row, window quotients computed in place). One buffer,
    /// four uses: hash input, probe key ([`GroupTable::upsert_u64`]),
    /// window-bucket source and insert key.
    ukeys_flat: Vec<u64>,
    /// `(group entry << 32) | row` per surviving row of the current
    /// window segment (late rows absent), filled by the probe pass and
    /// consumed by the entry-major fold pass of the all-unsigned
    /// columnar path.
    entry_scratch: Vec<u64>,
    /// Columnar batches whose classified key lanes completed, tallied
    /// by lane type (one batch credits every lane type it read).
    lane_hits: [u64; LANE_KINDS],
    /// Columnar batches bounced to the per-row algorithm, tallied by
    /// the lane type that forced the bounce.
    lane_fallbacks: [u64; LANE_KINDS],
    /// Flattened fold-word sequences of a dictionary key lane's
    /// distinct strings (reused across batches), with
    /// `str_offs[c]..str_offs[c+1]` delimiting code `c`'s words.
    str_words: Vec<u64>,
    str_offs: Vec<u32>,
    kernel_hits: u64,
    kernel_fallbacks: u64,
}

impl AggregateOp {
    pub(crate) fn new(b: BoundAggregate) -> Self {
        let BoundAggregate {
            predicate,
            group_by: group_exprs,
            temporal_idx,
            slots,
            having,
        } = b;
        let kernel = predicate.as_ref().and_then(PredicateKernel::compile);
        let having_kernel = having.as_ref().and_then(PredicateKernel::compile);
        let (slots, words, side) = Slot::plan(slots);
        AggregateOp {
            key_evals: group_exprs.iter().map(KeyEval::classify).collect(),
            predicate,
            group_exprs,
            temporal_idx,
            having,
            having_kernel,
            having_scratch: KernelScratch::new(),
            window: Vec::new(),
            current_bucket: None,
            groups: GroupTable::new(words, side),
            null_groups: GroupTable::new(words, side),
            late: 0,
            flushes: 0,
            flush_ns: 0,
            key_scratch: Vec::new(),
            kernel,
            kscratch: KernelScratch::new(),
            sel: SelectionVector::new(),
            hash_scratch: Vec::new(),
            q_lanes: Vec::new(),
            row_scratch: Tuple::default(),
            fallback_keep: Vec::new(),
            ukeys_flat: Vec::new(),
            entry_scratch: Vec::new(),
            lane_hits: [0; LANE_KINDS],
            lane_fallbacks: [0; LANE_KINDS],
            str_words: Vec::new(),
            str_offs: Vec::new(),
            kernel_hits: 0,
            kernel_fallbacks: 0,
            slots,
        }
    }

    /// Closes the current window: emits its groups into `out` and
    /// empties the table.
    fn flush(&mut self, out: &mut ColumnBatch) -> ExecResult<()> {
        let start = std::time::Instant::now();
        let res = self.emit(false, out);
        self.groups.clear();
        self.flushes += 1;
        self.flush_ns += start.elapsed().as_nanos() as u64;
        res
    }

    /// Emits every group of one table — the current window's, or with
    /// `null_window` the NULL-window groups — as one batch of lanes: a
    /// lane per group key, straight off the table's words while the
    /// window is all-unsigned, then a lane per aggregate slot of its
    /// finalized (or partial) values — `COUNT` and `OR_AGGR` copied off
    /// their state words. HAVING filters that batch — the compiled
    /// kernel, or the interpreter over the same lanes when the kernel
    /// refuses the predicate or bails — and the survivors leave by
    /// `append_gather`. The lanes are reused from flush to flush.
    fn emit(&mut self, null_window: bool, out: &mut ColumnBatch) -> ExecResult<()> {
        let table = if null_window {
            &self.null_groups
        } else {
            &self.groups
        };
        let Window {
            keys,
            words,
            side,
            len: n,
        } = table.window();
        if n == 0 {
            return Ok(());
        }
        let arity = self.group_exprs.len();
        let width = self.slots.len();
        // Each arena holds exactly `n` entries' runs.
        let (words_w, side_w) = (words.len() / n, side.len() / n);
        let mut cols = std::mem::take(&mut self.window);
        cols.resize_with(arity + width, Column::new);
        // An unsigned lane keeps its capacity; any other starts afresh,
        // so the window's lanes are what pushing its values would type.
        for c in &mut cols {
            if c.uints().is_some() {
                c.clear();
            } else {
                *c = Column::new();
            }
        }
        let (key_cols, slot_cols) = cols.split_at_mut(arity);
        for (k, c) in key_cols.iter_mut().enumerate() {
            match keys {
                WindowKeys::Words(w) => c.extend_uints(w[k..].iter().step_by(arity).copied()),
                WindowKeys::Values(v) => v[k..].iter().step_by(arity).for_each(|x| c.push(x)),
            }
        }
        for (slot, c) in self.slots.iter().zip(slot_cols) {
            if let SlotState::Word {
                agg: WordAgg::Count | WordAgg::Or,
                off,
            } = slot.state
            {
                c.extend_uints(words[off..].iter().step_by(words_w).copied());
                continue;
            }
            let mut vals = (0..n).map(|e| {
                let w = &words[e * words_w..(e + 1) * words_w];
                slot.close(w, &side[e * side_w..(e + 1) * side_w])
            });
            // Unsigned values in one extend, up to the first of another
            // kind; that one and the rest are pushed.
            let mut other = None;
            c.extend_uints(vals.by_ref().map_while(|v| match v {
                Value::UInt(x) => Some(x),
                v => {
                    other = Some(v);
                    None
                }
            }));
            for v in other.into_iter().chain(vals) {
                c.push(&v);
            }
        }
        let mut window = ColumnBatch::from_columns_with_rows(cols, n);
        reset_arity(out, arity + width);
        match &self.having {
            // Unfiltered into an empty output, the window *is* the
            // output: it moves out whole, and the output's pooled lanes
            // stage the next window.
            None if out.is_empty() => std::mem::swap(out, &mut window),
            None => out.append_range(&window, 0..n),
            Some(h) => {
                self.sel.fill_identity(n);
                let compiled = self
                    .having_kernel
                    .as_ref()
                    .is_some_and(|k| k.filter(&window, &mut self.sel, &mut self.having_scratch));
                if !compiled {
                    self.sel.clear();
                    for i in 0..n {
                        window.write_row_into(i, &mut self.row_scratch);
                        if h.eval_predicate(&self.row_scratch)? {
                            self.sel.push(i as u32);
                        }
                    }
                }
                out.append_gather(&window, self.sel.as_slice());
            }
        }
        self.window = (0..window.arity()).map(|i| window.take_column(i)).collect();
        Ok(())
    }

    /// Admits a row of window `bucket`: a later window first closes the
    /// current one into `out`; an earlier one is late — counted, and
    /// `false`.
    fn admit(&mut self, bucket: i128, out: &mut ColumnBatch) -> ExecResult<bool> {
        match self.current_bucket {
            Some(cur) if bucket > cur => {
                self.flush(out)?;
                self.current_bucket = Some(bucket);
            }
            Some(cur) if bucket < cur => {
                self.late += 1;
                return Ok(false);
            }
            Some(_) => {}
            None => self.current_bucket = Some(bucket),
        }
        Ok(true)
    }

    /// Finds or creates the group of the key in `key_scratch` (hashed
    /// to `hash`): in the NULL-window table when its window attribute
    /// is NULL (e.g. outer-join padding: no window ever closes over it,
    /// so it accumulates until end-of-stream), else in the current
    /// window once [`AggregateOp::admit`] lets it in. Returns whether
    /// the group is a NULL-window one and its entry, `None` for a late
    /// key.
    fn group_of(&mut self, hash: u64, out: &mut ColumnBatch) -> ExecResult<Option<(bool, usize)>> {
        let temporal = &self.key_scratch[self.temporal_idx];
        let null = temporal.is_null();
        if !null && !self.admit(bucket_of(temporal), out)? {
            return Ok(None);
        }
        let table = if null {
            &mut self.null_groups
        } else {
            &mut self.groups
        };
        let e = table.get_or_insert(hash, &mut self.key_scratch, fresh_side(&self.slots));
        Ok(Some((null, e)))
    }

    /// The per-tuple algorithm (Section 3.1), for a tuple the predicate
    /// has kept: evaluate the group key into the reused scratch —
    /// hashing it in the same pass — find or create its group in the
    /// current window (a later window closes this one first), and fold
    /// the tuple into every slot.
    fn push_one(&mut self, tuple: &Tuple, out: &mut ColumnBatch) -> ExecResult<()> {
        self.key_scratch.clear();
        let mut vh = fx::ValueHash::new();
        for e in &self.group_exprs {
            let v = e.eval(tuple)?;
            vh.add(&v);
            self.key_scratch.push(v);
        }
        let Some((null, e)) = self.group_of(vh.finish(), out)? else {
            return Ok(());
        };
        let table = if null {
            &mut self.null_groups
        } else {
            &mut self.groups
        };
        let (words, side) = table.payload_mut(e);
        for slot in &self.slots {
            slot.fold(words, side, tuple)?;
        }
        Ok(())
    }

    /// Closes every window at end-of-stream, the NULL-window groups
    /// last (their emission folds into the final flush's latency
    /// accounting).
    fn close(&mut self, out: &mut ColumnBatch) -> ExecResult<()> {
        self.flush(out)?;
        let start = std::time::Instant::now();
        let res = self.emit(true, out);
        self.null_groups.clear();
        self.flush_ns += start.elapsed().as_nanos() as u64;
        res?;
        self.current_bucket = None;
        debug_assert!(self.groups.is_empty() && self.null_groups.is_empty());
        Ok(())
    }

    /// Refines `self.sel` to the rows the predicate keeps — compiled
    /// kernel when it applies, per-tuple interpreter otherwise. The
    /// fallback swaps the selection through a recycled index buffer, so
    /// a kernel that bails every batch still allocates nothing in
    /// steady state.
    fn filter_columns(&mut self, batch: &ColumnBatch) -> ExecResult<()> {
        let Some(p) = &self.predicate else {
            return Ok(());
        };
        if let Some(k) = &self.kernel {
            if k.filter(batch, &mut self.sel, &mut self.kscratch) {
                self.kernel_hits += 1;
                return Ok(());
            }
        }
        self.kernel_fallbacks += 1;
        std::mem::swap(self.sel.raw_mut(), &mut self.fallback_keep);
        self.sel.clear();
        for &i in &self.fallback_keep {
            batch.write_row_into(i as usize, &mut self.row_scratch);
            if p.eval_predicate(&self.row_scratch)? {
                self.sel.push(i);
            }
        }
        Ok(())
    }

    /// Folds row `r` into a group's state. The per-batch [`SlotLane`]
    /// classification hoists the lane resolution out of the row loop:
    /// `Count` increments, `Word` folds straight off its captured
    /// unsigned lane, and everything else takes [`fold_row`].
    #[inline(always)]
    fn fold_lanes(
        slots: &[Slot],
        slot_lanes: &[SlotLane<'_>],
        words: &mut [u64],
        side: &mut [AnyAcc],
        batch: &ColumnBatch,
        r: usize,
        row: &mut Tuple,
    ) -> ExecResult<()> {
        for (slot, lane) in slots.iter().zip(slot_lanes) {
            match *lane {
                SlotLane::Count(off) => words[off] += 1,
                SlotLane::Word {
                    agg,
                    merge,
                    off,
                    lane,
                } => agg.fold_uint(&mut words[off..], lane[r], merge),
                SlotLane::Row => fold_row(slot, words, side, batch, r, row)?,
            }
        }
        Ok(())
    }

    /// Entry-major fold over one window segment of the all-unsigned fast
    /// path: each `ents` word packs `(group entry << 32) | row` (late
    /// rows absent). One pass touches each row's group once and folds
    /// all of its slots together — a group's state words sit side by
    /// side in the word arena — and each accumulator sees its rows in
    /// row order, so any order-sensitive UDAF state observes the update
    /// sequence the row path produces.
    fn fold_segment(
        slots: &[Slot],
        slot_lanes: &[SlotLane<'_>],
        table: &mut GroupTable<AnyAcc>,
        ents: &[u64],
        batch: &ColumnBatch,
        row_scratch: &mut Tuple,
    ) -> ExecResult<()> {
        // Up to four slots, the width is a constant of the loop, so the
        // slot loop unrolls and each slot's dispatch stays in registers.
        let fold = match slots.len() {
            1 => Self::fold_entries::<1>,
            2 => Self::fold_entries::<2>,
            3 => Self::fold_entries::<3>,
            4 => Self::fold_entries::<4>,
            _ => Self::fold_entries::<0>,
        };
        fold(slots, slot_lanes, table, ents, batch, row_scratch)
    }

    /// [`AggregateOp::fold_segment`]'s loop for `W` slots (`0`: any).
    fn fold_entries<const W: usize>(
        slots: &[Slot],
        slot_lanes: &[SlotLane<'_>],
        table: &mut GroupTable<AnyAcc>,
        ents: &[u64],
        batch: &ColumnBatch,
        row_scratch: &mut Tuple,
    ) -> ExecResult<()> {
        let width = if W == 0 { slots.len() } else { W };
        let (slots, slot_lanes) = (&slots[..width], &slot_lanes[..width]);
        for &er in ents {
            let (words, side) = table.payload_mut((er >> 32) as usize);
            let r = er as u32 as usize;
            Self::fold_lanes(slots, slot_lanes, words, side, batch, r, row_scratch)?;
        }
        Ok(())
    }
}

/// The per-row fold of a [`SlotLane::Row`] slot, shared by both lane
/// folds: a column argument folds straight off its lane, anything else
/// evaluates against row `r` materialized into `row`.
#[inline(never)]
fn fold_row(
    slot: &Slot,
    words: &mut [u64],
    side: &mut [AnyAcc],
    batch: &ColumnBatch,
    r: usize,
    row: &mut Tuple,
) -> ExecResult<()> {
    match slot.eval {
        SlotEval::Col(i) => {
            slot.fold_value(words, side, &batch.column(i).value(r));
            Ok(())
        }
        SlotEval::CountStar | SlotEval::General => {
            batch.write_row_into(r, row);
            slot.fold(words, side, row)
        }
    }
}

/// Walks one group table, shipping every group whose key satisfies
/// `pred` as a state row (key values, then each slot's lossless
/// accumulator state) and re-inserting the keepers. The table's probe
/// structure is rebuilt for the keepers; migration is an epoch-boundary
/// event, so the rebuild is off every hot path.
fn extract_from_table(
    table: &mut GroupTable<AnyAcc>,
    slots: &[Slot],
    arity: usize,
    pred: &mut dyn FnMut(&[Value]) -> bool,
    out: &mut ColumnBatch,
) {
    if table.is_empty() {
        return;
    }
    let (keys, words, side, n) = table.take_entries();
    let (words_w, side_w) = (words.len() / n, side.len() / n);
    let mut key_iter = keys.into_iter();
    let mut side_iter = side.into_iter();
    let mut scratch: Vec<Value> = Vec::with_capacity(arity);
    let mut accs: Vec<AnyAcc> = Vec::with_capacity(side_w);
    for e in 0..n {
        let w = &words[e * words_w..(e + 1) * words_w];
        scratch.clear();
        scratch.extend(key_iter.by_ref().take(arity));
        accs.extend(side_iter.by_ref().take(side_w));
        if pred(&scratch) {
            for slot in slots {
                slot.state_values(w, &accs, &mut scratch);
            }
            accs.clear();
            let row = Tuple::new(std::mem::take(&mut scratch));
            emit_row(out, &row);
            scratch = row.into_values();
        } else {
            let mut vh = fx::ValueHash::new();
            for v in &scratch {
                vh.add(v);
            }
            let e = table.insert_new(vh.finish(), &mut scratch, accs.drain(..));
            table.payload_mut(e).0.copy_from_slice(w);
        }
    }
}

/// One group-key expression's source for the current batch, classified
/// once per batch so the per-row loop (hash, probe, materialize) reads
/// raw lanes — no `Column` dispatch per row per probe.
enum KeyLane<'a> {
    /// Non-null unsigned lane.
    U(&'a [u64]),
    /// Unsigned lane with a null mask.
    UNull(&'a [u64], &'a [bool]),
    /// Signed lane (empty mask = no NULLs).
    I(&'a [i64], &'a [bool]),
    /// Boolean lane (empty mask = no NULLs).
    B(&'a [bool], &'a [bool]),
    /// Dictionary-encoded strings; NULL rows carry [`DICT_NULL_CODE`].
    D(&'a DictLane),
    /// Untyped all-NULL column.
    AllNull,
    /// Window quotient: the divisor's source lane, materialized into
    /// `q_lanes[idx]` by the hash pass.
    Q {
        src: &'a [u64],
        div: u64,
        magic: u64,
        idx: usize,
    },
}

/// The lane type a classified key lane reads — `None` for the untyped
/// all-NULL lane, which belongs to no tally.
fn key_lane_kind(lane: &KeyLane<'_>) -> Option<LaneKind> {
    Some(match lane {
        KeyLane::U(_) | KeyLane::UNull(..) | KeyLane::Q { .. } => LaneKind::Uint,
        KeyLane::I(..) => LaneKind::Int,
        KeyLane::B(..) => LaneKind::Bool,
        KeyLane::D(_) => LaneKind::Dict,
        KeyLane::AllNull => return None,
    })
}

/// Classifies every key eval's source lane, or the blocking lane type
/// when some shape keeps the batch off the columnar path: a `Mixed` or
/// plain-`Str` lane (entry normalization dictionary-encodes strings, so
/// plain `Str` means a demoted recycle), a `General` eval (tallied as
/// `Mixed` — no single lane to blame), a window divisor over anything
/// but a non-null unsigned lane, or a temporal lane that is not
/// non-null unsigned — NULL windows and kind-ranked buckets stay on the
/// exact row path. `computed` holds this batch's kernel-evaluated keys,
/// one column per `Kernel` eval in key order.
fn classify_key_lanes<'a>(
    key_evals: &[KeyEval],
    temporal_idx: usize,
    batch: &'a ColumnBatch,
    computed: &'a [Column],
) -> Result<Vec<KeyLane<'a>>, LaneKind> {
    let mut lanes = Vec::with_capacity(key_evals.len());
    let mut n_divs = 0;
    let mut computed = computed.iter();
    for ev in key_evals {
        lanes.push(match ev {
            KeyEval::Col(i) => {
                let c = batch.column(*i);
                let m = c.null_mask();
                match c.data() {
                    Some(ColumnData::UInt(l)) if m.is_empty() => KeyLane::U(l),
                    Some(ColumnData::UInt(l)) => KeyLane::UNull(l, m),
                    Some(ColumnData::Int(l)) => KeyLane::I(l, m),
                    Some(ColumnData::Bool(l)) => KeyLane::B(l, m),
                    Some(ColumnData::Dict(d)) => KeyLane::D(d),
                    None => KeyLane::AllNull,
                    Some(ColumnData::Str(_)) => return Err(LaneKind::Str),
                    Some(ColumnData::Mixed(_)) => return Err(LaneKind::Mixed),
                }
            }
            KeyEval::DivConst { col, div, magic } => {
                let c = batch.column(*col);
                let (Some(src), false) = (c.uints(), c.has_nulls()) else {
                    return Err(column_lane_kind(c));
                };
                let idx = n_divs;
                n_divs += 1;
                KeyLane::Q {
                    src,
                    div: *div,
                    magic: *magic,
                    idx,
                }
            }
            KeyEval::Kernel(_) => match computed.next().map(|c| (c.uints(), c.null_mask())) {
                Some((Some(l), [])) => KeyLane::U(l),
                Some((Some(l), m)) => KeyLane::UNull(l, m),
                _ => return Err(LaneKind::Uint),
            },
            KeyEval::General => return Err(LaneKind::Mixed),
        });
    }
    match lanes[temporal_idx] {
        KeyLane::U(_) | KeyLane::Q { .. } => Ok(lanes),
        ref l => Err(key_lane_kind(l).unwrap_or(LaneKind::Mixed)),
    }
}

/// Builds the row-major key-word buffer for the all-unsigned fast path
/// — `arity` words per row, filled lane-at-a-time (plain lanes copy,
/// window quotients compute in place) — folding each word into the
/// per-row hash in the same sweep. Each row's word slice *is* its
/// group key: the words equal the `Value::UInt` payloads the row path
/// would materialize, and because lanes fill in key order, the hash
/// folds words in row order and reproduces [`fx::ValueHash`] exactly
/// (the `UInt` tag is zero).
fn build_flat_words(
    lanes: &[KeyLane<'_>],
    rows: usize,
    flat: &mut Vec<u64>,
    hashes: &mut Vec<u64>,
) {
    let arity = lanes.len();
    flat.clear();
    flat.resize(rows * arity, 0);
    for (k, lane) in lanes.iter().enumerate() {
        match lane {
            KeyLane::U(l) => {
                for (row, &x) in flat.chunks_exact_mut(arity).zip(*l) {
                    row[k] = x;
                }
            }
            KeyLane::Q {
                src, div, magic, ..
            } => {
                for (row, &x) in flat.chunks_exact_mut(arity).zip(*src) {
                    row[k] = div_q(x, *div, *magic);
                }
            }
            _ => unreachable!("caller gates on all-unsigned lanes"),
        }
    }
    hashes.clear();
    hashes.extend(
        flat.chunks_exact(arity)
            .map(|key| key.iter().fold(0u64, |h, &w| fx::fold_word(h, w))),
    );
}

/// The vectorized key pass: one fold per key lane per row into the
/// per-row hash vector, quotient lanes computed in the same sweep. The
/// hash agrees bit-for-bit with the row path's [`fx::ValueHash`] over
/// the same key values — every lane kind folds exactly the word(s)
/// `ValueHash::add` would — so row-pushed and column-pushed tuples
/// probe identical table slots. Dictionary lanes flatten each
/// *distinct* string to its word sequence once (into
/// `str_words`/`str_offs`) and replay the words per row.
fn hash_key_lanes(
    lanes: &[KeyLane<'_>],
    rows: usize,
    hashes: &mut Vec<u64>,
    q_lanes: &mut Vec<Vec<u64>>,
    str_words: &mut Vec<u64>,
    str_offs: &mut Vec<u32>,
) {
    hashes.clear();
    hashes.resize(rows, 0);
    let n_divs = lanes
        .iter()
        .filter(|l| matches!(l, KeyLane::Q { .. }))
        .count();
    q_lanes.resize_with(n_divs, Vec::new);
    for lane in lanes {
        match lane {
            KeyLane::U(l) => {
                for (h, &x) in hashes.iter_mut().zip(*l) {
                    *h = fx::fold_word(*h, x);
                }
            }
            KeyLane::UNull(l, m) => {
                for ((h, &x), &n) in hashes.iter_mut().zip(*l).zip(*m) {
                    *h = fx::fold_word(*h, if n { fx::NULL_WORD } else { x });
                }
            }
            KeyLane::I(l, m) => {
                for (r, (h, &x)) in hashes.iter_mut().zip(*l).enumerate() {
                    let w = if masked(m, r) {
                        fx::NULL_WORD
                    } else {
                        fx::int_word(x)
                    };
                    *h = fx::fold_word(*h, w);
                }
            }
            KeyLane::B(l, m) => {
                for (r, (h, &b)) in hashes.iter_mut().zip(*l).enumerate() {
                    let w = if masked(m, r) {
                        fx::NULL_WORD
                    } else {
                        fx::bool_word(b)
                    };
                    *h = fx::fold_word(*h, w);
                }
            }
            KeyLane::AllNull => {
                for h in hashes.iter_mut() {
                    *h = fx::fold_word(*h, fx::NULL_WORD);
                }
            }
            KeyLane::D(d) => {
                str_words.clear();
                str_offs.clear();
                str_offs.push(0);
                for v in d.values() {
                    fx::str_value_words(v, str_words);
                    str_offs.push(str_words.len() as u32);
                }
                for (h, &c) in hashes.iter_mut().zip(d.codes()) {
                    if c == DICT_NULL_CODE {
                        *h = fx::fold_word(*h, fx::NULL_WORD);
                    } else {
                        let span = str_offs[c as usize] as usize..str_offs[c as usize + 1] as usize;
                        for &w in &str_words[span] {
                            *h = fx::fold_word(*h, w);
                        }
                    }
                }
            }
            KeyLane::Q {
                src,
                div,
                magic,
                idx,
            } => {
                let q = &mut q_lanes[*idx];
                q.clear();
                q.extend(src.iter().map(|&x| div_q(x, *div, *magic)));
                for (h, &qv) in hashes.iter_mut().zip(q.iter()) {
                    *h = fx::fold_word(*h, qv);
                }
            }
        }
    }
}

/// Compares a stored group key against row `r`'s key without
/// materializing the latter, lane-at-a-time. Equality agrees exactly
/// with the `[Value]` comparison (structural: `UInt(5) ≠ Int(5)`)
/// because each arm matches only its lane's exact `Value` kind;
/// dictionary rows short-circuit on pointer equality within a batch and
/// fall back to content comparison across batches.
#[inline]
fn key_matches_lanes(lanes: &[KeyLane<'_>], q_lanes: &[Vec<u64>], r: usize, key: &[Value]) -> bool {
    lanes.iter().zip(key).all(|(lane, kv)| match lane {
        KeyLane::U(l) => matches!(kv, Value::UInt(x) if *x == l[r]),
        KeyLane::UNull(l, m) => {
            if m[r] {
                kv.is_null()
            } else {
                matches!(kv, Value::UInt(x) if *x == l[r])
            }
        }
        KeyLane::I(l, m) => {
            if masked(m, r) {
                kv.is_null()
            } else {
                matches!(kv, Value::Int(x) if *x == l[r])
            }
        }
        KeyLane::B(l, m) => {
            if masked(m, r) {
                kv.is_null()
            } else {
                matches!(kv, Value::Bool(x) if *x == l[r])
            }
        }
        KeyLane::D(d) => {
            if d.codes()[r] == DICT_NULL_CODE {
                kv.is_null()
            } else {
                matches!(kv, Value::Str(s) if {
                    let v = d.get(r);
                    Arc::ptr_eq(s, v) || s == v
                })
            }
        }
        KeyLane::AllNull => kv.is_null(),
        KeyLane::Q { idx, .. } => matches!(kv, Value::UInt(x) if *x == q_lanes[*idx][r]),
    })
}

/// Builds the owned group key for row `r` from classified lanes. Runs
/// only when a new group inserts.
fn materialize_key_lanes(
    lanes: &[KeyLane<'_>],
    q_lanes: &[Vec<u64>],
    r: usize,
    out: &mut Vec<Value>,
) {
    out.clear();
    for lane in lanes {
        out.push(match lane {
            KeyLane::U(l) => Value::UInt(l[r]),
            KeyLane::UNull(l, m) => {
                if m[r] {
                    Value::Null
                } else {
                    Value::UInt(l[r])
                }
            }
            KeyLane::I(l, m) => {
                if masked(m, r) {
                    Value::Null
                } else {
                    Value::Int(l[r])
                }
            }
            KeyLane::B(l, m) => {
                if masked(m, r) {
                    Value::Null
                } else {
                    Value::Bool(l[r])
                }
            }
            KeyLane::D(d) => {
                if d.codes()[r] == DICT_NULL_CODE {
                    Value::Null
                } else {
                    Value::Str(Arc::clone(d.get(r)))
                }
            }
            KeyLane::AllNull => Value::Null,
            KeyLane::Q { idx, .. } => Value::UInt(q_lanes[*idx][r]),
        });
    }
}

/// One aggregate slot's per-batch fold source: the lane-resolved
/// refinement of [`SlotEval`], classified once per batch.
#[derive(Clone, Copy)]
enum SlotLane<'a> {
    /// `COUNT(*)`: the count word at `off` goes up by one.
    Count(usize),
    /// A word kind folded off a non-null unsigned lane:
    /// [`WordAgg::fold_uint`] on the words at `off`.
    Word {
        agg: WordAgg,
        merge: bool,
        off: usize,
        lane: &'a [u64],
    },
    /// Everything else: [`fold_row`].
    Row,
}

fn classify_slot_lanes<'a>(slots: &[Slot], batch: &'a ColumnBatch) -> Vec<SlotLane<'a>> {
    slots
        .iter()
        .map(|slot| match (&slot.eval, slot.state) {
            (SlotEval::CountStar, SlotState::Word { off, .. }) => SlotLane::Count(off),
            (SlotEval::Col(i), SlotState::Word { agg, off }) => {
                let c = batch.column(*i);
                match (c.uints(), c.has_nulls()) {
                    (Some(lane), false) => SlotLane::Word {
                        agg,
                        merge: slot.bound.merge,
                        off,
                        lane,
                    },
                    _ => SlotLane::Row,
                }
            }
            _ => SlotLane::Row,
        })
        .collect()
}

impl Operator for AggregateOp {
    fn push_columns(
        &mut self,
        _port: usize,
        batch: &mut ColumnBatch,
        out: &mut ColumnBatch,
    ) -> ExecResult<()> {
        if batch.rows() == 0 {
            batch.clear();
            return Ok(());
        }
        // Entry normalization: plain string lanes dictionary-encode so
        // string predicates and group keys run as integer compares
        // (no-op for already-typed lanes).
        batch.dict_encode_strings();
        // σ: refine the selection, then compact onto the survivors
        // (skipped entirely when the plan has no predicate).
        if self.predicate.is_some() {
            self.sel.fill_identity(batch.rows());
            self.filter_columns(batch)?;
            if self.sel.is_empty() {
                batch.clear();
                return Ok(());
            }
            batch.compact(&self.sel);
        }
        // Computed keys evaluate once per batch into owned lanes; then
        // key-lane eligibility gates the whole batch. Ineligible shapes
        // (a bailed key kernel, Mixed lanes, General evals, non-unsigned
        // window attributes) run the survivors through the per-tuple
        // algorithm one materialized row at a time; the windows they
        // close still leave as lanes.
        let computed: Option<Vec<Column>> = self
            .key_evals
            .iter()
            .filter_map(|ev| match ev {
                KeyEval::Kernel(k) => Some(k.eval_column(batch, &mut self.kscratch)),
                _ => None,
            })
            .collect();
        let classified = match &computed {
            Some(cols) => classify_key_lanes(&self.key_evals, self.temporal_idx, batch, cols),
            None => Err(LaneKind::Uint),
        };
        let lanes = match classified {
            Ok(lanes) => lanes,
            Err(kind) => {
                self.kernel_fallbacks += 1;
                self.lane_fallbacks[kind as usize] += 1;
                let mut row = std::mem::take(&mut self.row_scratch);
                for r in 0..batch.rows() {
                    batch.write_row_into(r, &mut row);
                    self.push_one(&row, out)?;
                }
                self.row_scratch = row;
                batch.clear();
                return Ok(());
            }
        };
        self.kernel_hits += 1;
        for lane in &lanes {
            if let Some(k) = key_lane_kind(lane) {
                self.lane_hits[k as usize] += 1;
            }
        }
        let arity = self.group_exprs.len();
        let rows = batch.rows();
        let slot_lanes = classify_slot_lanes(&self.slots, batch);
        // All-unsigned keys — the shape of every §6 query — take the
        // word fast path: one row-major word buffer per batch serves as
        // hash input, probe key, window-bucket source, and insert key,
        // so the per-row loop touches no `Value` at all. The table's
        // word arena stays valid throughout: every key this path
        // inserts is all-`UInt`.
        if self.groups.u64_keys_ok()
            && lanes
                .iter()
                .all(|l| matches!(l, KeyLane::U(_) | KeyLane::Q { .. }))
        {
            let mut flat = std::mem::take(&mut self.ukeys_flat);
            let mut hashes = std::mem::take(&mut self.hash_scratch);
            build_flat_words(&lanes, rows, &mut flat, &mut hashes);
            let t_off = self.temporal_idx;
            // Probe pass: one counted walk per row finds-or-inserts the
            // group and records `(entry, row)` packed in one word.
            // Folding is deferred to an entry-major segment pass (slot
            // dispatch classified once per batch), run before every
            // window flush so bucket transitions observe exactly the
            // state the row path would.
            let mut ents = std::mem::take(&mut self.entry_scratch);
            ents.clear();
            // Probe tally lives in a register for the whole batch — a
            // per-row `Cell` update would chain the iterations through
            // memory (see `upsert_u64`).
            let mut walked = 0u64;
            for (r, (key, &hash)) in flat.chunks_exact(arity).zip(hashes.iter()).enumerate() {
                let bucket = i128::from(key[t_off]);
                match self.current_bucket {
                    Some(cur) if bucket > cur => {
                        Self::fold_segment(
                            &self.slots,
                            &slot_lanes,
                            &mut self.groups,
                            &ents,
                            batch,
                            &mut self.row_scratch,
                        )?;
                        ents.clear();
                        self.flush(out)?;
                        self.current_bucket = Some(bucket);
                    }
                    Some(cur) if bucket < cur => {
                        self.late += 1;
                        continue;
                    }
                    Some(_) => {}
                    None => self.current_bucket = Some(bucket),
                }
                let e = self
                    .groups
                    .upsert_u64(hash, key, &mut walked, fresh_side(&self.slots));
                ents.push((e as u64) << 32 | r as u64);
            }
            self.groups.add_probes(walked);
            Self::fold_segment(
                &self.slots,
                &slot_lanes,
                &mut self.groups,
                &ents,
                batch,
                &mut self.row_scratch,
            )?;
            self.entry_scratch = ents;
            self.ukeys_flat = flat;
            self.hash_scratch = hashes;
            batch.clear();
            return Ok(());
        }
        // Vectorized key pass: hash every row's group key lane-at-a-
        // time, computing window quotients in the same sweep.
        hash_key_lanes(
            &lanes,
            rows,
            &mut self.hash_scratch,
            &mut self.q_lanes,
            &mut self.str_words,
            &mut self.str_offs,
        );
        // Temporal source resolved to a raw lane read (the gate
        // guarantees a non-null unsigned temporal lane).
        enum TSrc<'a> {
            U(&'a [u64]),
            Q(usize),
        }
        let tsrc = match &lanes[self.temporal_idx] {
            KeyLane::U(l) => TSrc::U(l),
            KeyLane::Q { idx, .. } => TSrc::Q(*idx),
            _ => unreachable!("gate requires an unsigned temporal lane"),
        };
        // Bulk upsert: per row, probe with an in-place lane comparison
        // (no key materialization on a hit) and fold straight off the
        // lanes. Window flush/late logic runs in row order, so bucket
        // transitions land exactly where the row path puts them.
        for r in 0..rows {
            let hash = self.hash_scratch[r];
            let bucket: i128 = match tsrc {
                TSrc::U(l) => i128::from(l[r]),
                TSrc::Q(d) => i128::from(self.q_lanes[d][r]),
            };
            if !self.admit(bucket, out)? {
                continue;
            }
            let found = {
                let q_lanes = &self.q_lanes;
                self.groups.find_with(hash, arity, |key| {
                    key_matches_lanes(&lanes, q_lanes, r, key)
                })
            };
            let e = found.unwrap_or_else(|| {
                materialize_key_lanes(&lanes, &self.q_lanes, r, &mut self.key_scratch);
                self.groups
                    .insert_new(hash, &mut self.key_scratch, fresh_side(&self.slots))
            });
            let (words, side) = self.groups.payload_mut(e);
            Self::fold_lanes(
                &self.slots,
                &slot_lanes,
                words,
                side,
                batch,
                r,
                &mut self.row_scratch,
            )?;
        }
        batch.clear();
        Ok(())
    }

    fn finish(&mut self, out: &mut ColumnBatch) -> ExecResult<()> {
        self.close(out)
    }

    fn late_dropped(&self) -> u64 {
        self.late
    }

    /// Force-closes the current window when it is complete relative to
    /// the drain boundary `time` — i.e. when every tuple at `time` or
    /// later maps to a strictly greater window bucket. Part of the
    /// migration drain protocol: after the splitter stops feeding at
    /// boundary `time` and this runs, the live table holds at most the
    /// single window the boundary splits, which is exactly the state
    /// [`Operator::extract_state`] ships. A `General` temporal key
    /// is a no-op (callers gate migration eligibility on fast temporal
    /// shapes).
    fn flush_before(&mut self, time: u64, out: &mut ColumnBatch) -> ExecResult<()> {
        let boundary = match &self.key_evals[self.temporal_idx] {
            KeyEval::Col(_) => i128::from(time),
            KeyEval::DivConst { div, .. } => i128::from(time / *div),
            KeyEval::Kernel(_) | KeyEval::General => return Ok(()),
        };
        if let Some(cur) = self.current_bucket {
            if cur < boundary {
                self.flush(out)?;
                // Arm the boundary bucket so anything older than the
                // drain point still counts as late, exactly as if a
                // boundary-bucket tuple had advanced the window.
                self.current_bucket = Some(boundary);
            }
        }
        Ok(())
    }

    /// Extracts live group state (current window and NULL-window
    /// groups) for keys `pred` selects; each state row is the group key
    /// followed by every slot's lossless accumulator state.
    fn extract_state(&mut self, pred: &mut dyn FnMut(&[Value]) -> bool, out: &mut ColumnBatch) {
        let arity = self.group_exprs.len();
        extract_from_table(&mut self.groups, &self.slots, arity, pred, out);
        extract_from_table(&mut self.null_groups, &self.slots, arity, pred, out);
    }

    /// Absorbs state rows extracted from the same operator shape on
    /// another host, merging each shipped group's accumulator state
    /// into the local table (creating the group when absent). A shipped
    /// bucket ahead of the local window flushes it first; behind it
    /// counts as late — neither occurs under the drain protocol, which
    /// aligns both hosts on the boundary bucket before shipping.
    fn absorb_state(&mut self, state: &ColumnBatch, out: &mut ColumnBatch) -> ExecResult<()> {
        let arity = self.group_exprs.len();
        let state_w: usize = self.slots.iter().map(Slot::state_width).sum();
        if state.is_empty() {
            return Ok(());
        }
        if state.arity() != arity + state_w {
            return Err(crate::ExecError::BadPlan(format!(
                "migration state row arity {} does not match key {arity} + state {state_w}",
                state.arity()
            )));
        }
        let (keys, states) = state.columns().split_at(arity);
        let mut vals = Vec::with_capacity(state_w);
        for r in 0..state.rows() {
            self.key_scratch.clear();
            let mut vh = fx::ValueHash::new();
            for c in keys {
                let v = c.value(r);
                vh.add(&v);
                self.key_scratch.push(v);
            }
            let Some((null, e)) = self.group_of(vh.finish(), out)? else {
                continue;
            };
            let table = if null {
                &mut self.null_groups
            } else {
                &mut self.groups
            };
            let (words, side) = table.payload_mut(e);
            vals.clear();
            vals.extend(states.iter().map(|c| c.value(r)));
            let mut off = 0;
            for slot in &self.slots {
                let w = slot.state_width();
                slot.absorb_state(words, side, &vals[off..off + w]);
                off += w;
            }
        }
        Ok(())
    }

    fn runtime_stats(&self) -> OpRuntimeStats {
        OpRuntimeStats {
            flushes: self.flushes,
            flush_ns: self.flush_ns,
            group_slots: self.groups.slot_count() + self.null_groups.slot_count(),
            group_probes: self.groups.probe_count() + self.null_groups.probe_count(),
            group_inserts: self.groups.insert_count() + self.null_groups.insert_count(),
            kernel_hits: self.kernel_hits,
            kernel_fallbacks: self.kernel_fallbacks,
            kernel_lane_hits: merge_lanes(self.kscratch.lane_hits(), self.lane_hits),
            kernel_lane_fallbacks: merge_lanes(self.kscratch.lane_fallbacks(), self.lane_fallbacks),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The strength-reduced window-key division must agree with the
    /// hardware division everywhere the fast path is taken: all
    /// 32-bit dividends, divisors in `2..2^32`.
    #[test]
    fn div_magic_matches_division() {
        let key = BoundExpr::Binary {
            op: BinOp::Div,
            lhs: Box::new(BoundExpr::Column(0)),
            rhs: Box::new(BoundExpr::Literal(Value::UInt(60))),
        };
        let KeyEval::DivConst { div: 60, magic, .. } = KeyEval::classify(&key) else {
            panic!("time/60 classifies as DivConst");
        };
        assert_ne!(magic, 0, "divisor 60 is in the magic domain");
        for d in [2u64, 3, 7, 60, 86_400, (1 << 32) - 1] {
            let m = ((1u128 << 64) / u128::from(d)) as u64 + 1;
            let shifted = |x: u64| ((u128::from(x) * u128::from(m)) >> 64) as u64;
            // Quotient boundaries, domain edges, and a pseudo-random walk.
            for q in [0u64, 1, 2, ((1u64 << 32) - 1) / d] {
                for x in [q * d, q * d + 1, (q + 1) * d - 1] {
                    if x >> 32 == 0 {
                        assert_eq!(shifted(x), x / d, "x={x} d={d}");
                    }
                }
            }
            let mut x = 0x2545_f491u64;
            for _ in 0..1000 {
                x = (x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407))
                    >> 32;
                assert_eq!(shifted(x), x / d, "x={x} d={d}");
            }
        }
    }
}
