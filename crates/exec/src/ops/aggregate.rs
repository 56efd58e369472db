//! Tumbling-window hash aggregation (γ).
//!
//! Every group is keyed by words, laid out by the plan's key kinds when
//! the operator is built ([`GroupTable`]). A batch's group keys are
//! read one of two ways. When every key reads as words ([`read_words`]:
//! a non-null unsigned lane, `time/60` or a kernel key such as
//! `srcIP & 0xFFF0` — every §6 query), the batch folds on words: one
//! probe pass through [`GroupTable::upsert`], then an entry-major fold.
//! Any other batch — a signed, Bool, string, nullable or all-NULL key
//! lane, or an interpreted key — runs the per-row algorithm of Section
//! 3.1 (`push_one`), which encodes each row's key into the same words
//! and upserts it into the same table.
//!
//! Group state lives in the [`GroupTable`]'s arenas with a layout fixed
//! when the operator is built: every built-in slot is a run of `u64`
//! words ([`WordAgg`]) beside its group's other slots — a string
//! `MIN`/`MAX` extreme is an index into the table's string pool — and
//! each UDAF slot a boxed [`UdafState`] in the side arena, which a γ
//! without UDAFs never allocates. Folds, window closes, migration
//! extracts and absorbs all read and write that layout directly.

use qap_expr::{
    AggKind, BoundExpr, KernelScratch, LaneKind, PredicateKernel, UdafState, WordAgg, LANE_KINDS,
};
use qap_types::{ArcStr, Column, ColumnBatch, DataType, Field, SelectionVector, Tuple, Value};

use crate::bind::{AccFactory, AggSlot, BoundAggregate};
use crate::ExecResult;

use super::group_table::{key_hash, GroupTable, Payload, Window};
use super::keys::{read_words, KeyEval};
use super::{bucket_of, emit_row, merge_lanes, reset_arity, OpRuntimeStats, Operator};

/// A UDAF slot's running state for one group: the one kind of state
/// that is not words. Its lossless migration state is its partial,
/// which merges back in.
type Udaf = Box<dyn UdafState>;

/// One group's state in γ's tables.
type Group<'a> = Payload<'a, Udaf>;

/// Where one slot keeps its state in a group's payload, fixed when the
/// operator is built.
#[derive(Clone, Copy)]
enum SlotState {
    /// A built-in, at `words[off..off + agg.width()]`.
    Word { agg: WordAgg, off: usize },
    /// A UDAF, at `side[i]`.
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
    /// Classifies `slots` and lays their state out: built-ins' words
    /// side by side in slot order, then one side payload per UDAF.
    /// Returns them with the words and side payloads per group.
    fn plan(slots: Vec<AggSlot>) -> (Vec<Slot>, usize, usize) {
        let (mut words, mut side) = (0, 0);
        let slots = slots.into_iter().map(|bound| {
            let state = match &bound.factory {
                AccFactory::Builtin(kind) => {
                    let agg = WordAgg::of(*kind);
                    words += agg.width();
                    SlotState::Word {
                        agg,
                        off: words - agg.width(),
                    }
                }
                AccFactory::Udaf(_) => {
                    side += 1;
                    SlotState::Side(side - 1)
                }
            };
            let eval = SlotEval::classify(&bound);
            Slot { bound, eval, state }
        });
        (slots.collect(), words, side)
    }

    /// Folds one argument value into a group's state: updated, or
    /// merged when the slot takes partials.
    fn fold_value(&self, g: &mut Group<'_>, v: &Value) {
        match (self.state, self.bound.merge) {
            (SlotState::Word { agg, off }, false) => agg.update(&mut g.words[off..], v, g.strs),
            (SlotState::Word { agg, off }, true) => agg.merge(&mut g.words[off..], v, g.strs),
            (SlotState::Side(i), false) => g.side[i].update(v),
            (SlotState::Side(i), true) => g.side[i].merge(v),
        }
    }

    /// Folds one input row: the argument's value (every row counts for
    /// `COUNT(*)`).
    fn fold(&self, g: &mut Group<'_>, row: &Tuple) -> ExecResult<()> {
        let v = match &self.bound.arg {
            Some(e) => e.eval(row)?,
            None => Value::Bool(true),
        };
        self.fold_value(g, &v);
        Ok(())
    }

    /// The slot's value for a closing window: its partial when the
    /// slot emits partials (a built-in's is its final value). A UDAF's
    /// is the caller's to hold to the slot's kind.
    fn close(&self, words: &[u64], side: &[Udaf], strs: &[ArcStr]) -> Value {
        match self.state {
            SlotState::Word { agg, off } => agg.finalize(&words[off..], strs, self.bound.out),
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

    fn state_values(
        &self,
        words: &[u64],
        side: &[Udaf],
        strs: &[ArcStr],
        out: &mut Vec<Value>,
    ) -> ExecResult<()> {
        match self.state {
            SlotState::Word { agg, off } => {
                agg.state_values(&words[off..], strs, self.bound.out, out)
            }
            SlotState::Side(i) => out.push(self.bound.udaf_value(side[i].partial())?),
        }
        Ok(())
    }

    fn absorb_state(&self, g: &mut Group<'_>, vals: &[Value]) {
        match (self.state, vals.first()) {
            (SlotState::Word { agg, off }, _) => agg.merge_state(&mut g.words[off..], vals, g.strs),
            (SlotState::Side(i), Some(v)) => g.side[i].merge(v),
            (SlotState::Side(_), None) => {}
        }
    }
}

/// Fresh UDAF states for a new group.
fn fresh_side(slots: &[Slot]) -> impl Iterator<Item = Udaf> + '_ {
    slots.iter().filter_map(|slot| match &slot.bound.factory {
        AccFactory::Udaf(u) => Some(u.init()),
        AccFactory::Builtin(_) => None,
    })
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
    /// How `group_exprs` read as words, classified once (parallel
    /// vector).
    key_evals: Vec<KeyEval>,
    /// Index (within the group key) of the temporal attribute that
    /// defines the window.
    temporal_idx: usize,
    slots: Vec<Slot>,
    having: Option<BoundExpr>,
    /// The columns of a migration state row, which an absorb checks.
    state_fields: Vec<Field>,
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
    /// flush). Each group's built-in state sits in one run of the
    /// table's word arena, so the per-tuple fold touches contiguous
    /// words; UDAF slots keep a boxed state each in its side arena.
    groups: GroupTable<Udaf>,
    /// Groups whose temporal attribute is NULL (outer-join padding):
    /// they belong to no window, accumulate for the whole stream, and
    /// flush at finish.
    null_groups: GroupTable<Udaf>,
    late: u64,
    /// Window flushes performed (including the end-of-stream flush).
    flushes: u64,
    /// Wall-clock nanoseconds spent inside window flushes. Timed per
    /// flush (once per closed window), never per tuple.
    flush_ns: u64,
    /// Reused group-key buffers of the per-row path: every tuple
    /// evaluates its key into the values, encodes them into the words
    /// and upserts by slice, so no per-group allocation ever happens.
    key_scratch: Vec<Value>,
    key_words: Vec<u64>,
    /// Compiled predicate kernel for the columnar path (None: no
    /// predicate, or outside the kernel domain).
    kernel: Option<PredicateKernel>,
    /// Reused kernel register file.
    kscratch: KernelScratch,
    /// Reused selection vector: the columnar filter's, and HAVING's
    /// over a closed window.
    sel: SelectionVector,
    /// Per-row group-key hashes of the word path, the fx fold of each
    /// row's key words.
    hash_scratch: Vec<u64>,
    /// Reused row: a columnar fallback's materialization (interpreter
    /// predicates and HAVING, `General` slot folds).
    row_scratch: Tuple,
    /// Recycled surviving-row indices for the interpreter predicate
    /// fallback, so a kernel bailout does not reallocate two index
    /// buffers per batch.
    fallback_keep: Vec<u32>,
    /// Row-major key words for the word path ([`read_words`]: `arity`
    /// words per row). One buffer, four uses: hash input, probe key
    /// ([`GroupTable::upsert`]), window-bucket source and insert key.
    ukeys_flat: Vec<u64>,
    /// `(group entry << 32) | row` per surviving row of the current
    /// window segment (late rows absent), filled by the probe pass and
    /// consumed by the entry-major fold pass of the word path.
    entry_scratch: Vec<u64>,
    /// Key lanes read as words, tallied under `Uint` (one per key per
    /// batch).
    lane_hits: [u64; LANE_KINDS],
    /// Batches bounced to the per-row algorithm, tallied by the lane
    /// type that forced the bounce.
    lane_fallbacks: [u64; LANE_KINDS],
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
            state_fields,
        } = b;
        let kernel = predicate.as_ref().and_then(PredicateKernel::compile);
        let having_kernel = having.as_ref().and_then(PredicateKernel::compile);
        let (slots, words, side) = Slot::plan(slots);
        let kinds: Vec<DataType> = state_fields[..group_exprs.len()]
            .iter()
            .map(Field::data_type)
            .collect();
        AggregateOp {
            key_evals: group_exprs.iter().map(KeyEval::classify).collect(),
            predicate,
            group_exprs,
            temporal_idx,
            having,
            state_fields,
            having_kernel,
            having_scratch: KernelScratch::new(),
            window: Vec::new(),
            current_bucket: None,
            groups: GroupTable::new(kinds.clone(), words, side),
            null_groups: GroupTable::new(kinds, words, side),
            late: 0,
            flushes: 0,
            flush_ns: 0,
            key_scratch: Vec::new(),
            key_words: Vec::new(),
            kernel,
            kscratch: KernelScratch::new(),
            sel: SelectionVector::new(),
            hash_scratch: Vec::new(),
            row_scratch: Tuple::default(),
            fallback_keep: Vec::new(),
            ukeys_flat: Vec::new(),
            entry_scratch: Vec::new(),
            lane_hits: [0; LANE_KINDS],
            lane_fallbacks: [0; LANE_KINDS],
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
    /// lane per group key, built by its kind from the table's words,
    /// then a lane per aggregate slot of its finalized (or partial)
    /// values — `COUNT` and `OR_AGGR` copied off
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
            words,
            side,
            strs,
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
        cols.iter_mut().for_each(Column::clear);
        let (key_cols, slot_cols) = cols.split_at_mut(arity);
        table.key_lanes(key_cols);
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
                slot.close(w, &side[e * side_w..(e + 1) * side_w], strs)
            });
            if let SlotState::Side(_) = slot.state {
                for v in vals {
                    c.push(&slot.bound.udaf_value(v)?);
                }
                continue;
            }
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

    /// Finds or creates the group of the key in `key_scratch`, encoded
    /// into `key_words`: in the NULL-window table when its window
    /// attribute is NULL (e.g. outer-join padding: no window ever closes
    /// over it, so it accumulates until end-of-stream), else in the
    /// current window once [`AggregateOp::admit`] lets it in. Returns
    /// whether the group is a NULL-window one and its entry, `None` for
    /// a late key.
    fn group_of(&mut self, out: &mut ColumnBatch) -> ExecResult<Option<(bool, usize)>> {
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
        let key = &mut self.key_words;
        let mask = table.encode(&self.key_scratch, key);
        let mut walked = 0;
        let e = table.upsert(
            key_hash(key, mask),
            key,
            mask,
            &mut walked,
            fresh_side(&self.slots),
        );
        table.add_probes(walked);
        Ok(Some((null, e)))
    }

    /// The per-tuple algorithm (Section 3.1), for a tuple the predicate
    /// has kept: evaluate the group key into the reused scratch, find or
    /// create its group in the current window (a later window closes
    /// this one first), and fold the tuple into every slot.
    fn push_one(&mut self, tuple: &Tuple, out: &mut ColumnBatch) -> ExecResult<()> {
        self.key_scratch.clear();
        for e in &self.group_exprs {
            self.key_scratch.push(e.eval(tuple)?);
        }
        let Some((null, e)) = self.group_of(out)? else {
            return Ok(());
        };
        let table = if null {
            &mut self.null_groups
        } else {
            &mut self.groups
        };
        let mut g = table.payload_mut(e);
        for slot in &self.slots {
            slot.fold(&mut g, tuple)?;
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

    /// The word path over a batch whose keys [`read_words`] laid out as
    /// `flat` (`arity` words per row, none NULL) and hashed into
    /// `hashes`: the one buffer serves as hash input, probe key,
    /// window-bucket source and insert key, so the per-row loop touches
    /// no `Value` at all.
    fn push_words(
        &mut self,
        batch: &ColumnBatch,
        flat: &[u64],
        hashes: &[u64],
        out: &mut ColumnBatch,
    ) -> ExecResult<()> {
        let arity = self.group_exprs.len();
        self.kernel_hits += 1;
        self.lane_hits[LaneKind::Uint as usize] += arity as u64;
        let slot_lanes = classify_slot_lanes(&self.slots, batch);
        let t_off = self.temporal_idx;
        // Probe pass: one counted walk per row finds-or-inserts the
        // group and records `(entry, row)` packed in one word. Folding
        // is deferred to an entry-major segment pass (slot dispatch
        // classified once per batch), run before every window flush so
        // bucket transitions observe exactly the state the row path
        // would.
        let mut ents = std::mem::take(&mut self.entry_scratch);
        ents.clear();
        // Probe tally lives in a register for the whole batch — a
        // per-row `Cell` update would chain the iterations through
        // memory (see `upsert`).
        let mut walked = 0u64;
        for (r, (key, &hash)) in flat.chunks_exact(arity).zip(hashes).enumerate() {
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
                .upsert(hash, key, 0, &mut walked, fresh_side(&self.slots));
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
        Ok(())
    }

    /// The per-tuple algorithm over every row of a batch the word path
    /// refused, tallied under the lane type `kind` that forced it.
    fn push_rows(
        &mut self,
        kind: LaneKind,
        batch: &ColumnBatch,
        out: &mut ColumnBatch,
    ) -> ExecResult<()> {
        self.kernel_fallbacks += 1;
        self.lane_fallbacks[kind as usize] += 1;
        let mut row = std::mem::take(&mut self.row_scratch);
        let res = (0..batch.rows()).try_for_each(|r| {
            batch.write_row_into(r, &mut row);
            self.push_one(&row, out)
        });
        self.row_scratch = row;
        res
    }

    /// Entry-major fold over one window segment of the word path: each
    /// `ents` word packs `(group entry << 32) | row` (late rows
    /// absent). One pass touches each row's group once and folds
    /// all of its slots together — a group's state words sit side by
    /// side in the word arena — and each accumulator sees its rows in
    /// row order, so any order-sensitive UDAF state observes the update
    /// sequence the row path produces.
    fn fold_segment(
        slots: &[Slot],
        slot_lanes: &[SlotLane<'_>],
        table: &mut GroupTable<Udaf>,
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
        table: &mut GroupTable<Udaf>,
        ents: &[u64],
        batch: &ColumnBatch,
        row_scratch: &mut Tuple,
    ) -> ExecResult<()> {
        let width = if W == 0 { slots.len() } else { W };
        let (slots, slot_lanes) = (&slots[..width], &slot_lanes[..width]);
        for &er in ents {
            let mut g = table.payload_mut((er >> 32) as usize);
            let r = er as u32 as usize;
            for (slot, lane) in slots.iter().zip(slot_lanes) {
                match *lane {
                    SlotLane::Count(off) => g.words[off] += 1,
                    SlotLane::Word {
                        agg,
                        merge,
                        off,
                        lane,
                    } => agg.fold_uint(&mut g.words[off..], lane[r], merge),
                    SlotLane::Row => fold_row(slot, &mut g, batch, r, row_scratch)?,
                }
            }
        }
        Ok(())
    }
}

/// The per-row fold of a [`SlotLane::Row`] slot: a column argument
/// folds straight off its lane, anything else evaluates against row `r`
/// materialized into `row`.
#[inline(never)]
fn fold_row(
    slot: &Slot,
    g: &mut Group<'_>,
    batch: &ColumnBatch,
    r: usize,
    row: &mut Tuple,
) -> ExecResult<()> {
    match slot.eval {
        SlotEval::Col(i) => {
            slot.fold_value(g, &batch.column(i).value(r));
            Ok(())
        }
        SlotEval::CountStar | SlotEval::General => {
            batch.write_row_into(r, row);
            slot.fold(g, row)
        }
    }
}

/// Walks one group table, shipping every group whose key satisfies
/// `pred` as a state row (key values, then each slot's lossless
/// accumulator state) and re-inserting the keepers with their words.
/// The table's probe structure is rebuilt for the keepers; migration is
/// an epoch-boundary event, so the rebuild is off every hot path.
fn extract_from_table(
    table: &mut GroupTable<Udaf>,
    slots: &[Slot],
    arity: usize,
    pred: &mut dyn FnMut(&[Value]) -> bool,
    out: &mut ColumnBatch,
) -> ExecResult<()> {
    if table.is_empty() {
        return Ok(());
    }
    let (keys, words, side, n) = table.take_entries();
    let (words_w, side_w) = (words.len() / n, side.len() / n);
    let mut side_iter = side.into_iter();
    let mut scratch: Vec<Value> = Vec::with_capacity(arity);
    let mut accs: Vec<Udaf> = Vec::with_capacity(side_w);
    for (e, key) in keys.chunks_exact(arity + 1).enumerate() {
        let w = &words[e * words_w..(e + 1) * words_w];
        scratch.clear();
        scratch.extend((0..arity).map(|k| table.key_value(key, k)));
        accs.extend(side_iter.by_ref().take(side_w));
        if pred(&scratch) {
            for slot in slots {
                slot.state_values(w, &accs, table.window().strs, &mut scratch)?;
            }
            accs.clear();
            let row = Tuple::new(std::mem::take(&mut scratch));
            emit_row(out, &row);
            scratch = row.into_values();
        } else {
            let e = table.put_back(key, accs.drain(..));
            table.payload_mut(e).words.copy_from_slice(w);
        }
    }
    Ok(())
}

/// One aggregate slot's per-batch fold source: the lane-resolved
/// refinement of [`SlotEval`], classified once per batch.
#[derive(Clone, Copy)]
enum SlotLane<'a> {
    /// `COUNT(*)`: the count word at `off` goes up by one.
    Count(usize),
    /// A built-in folded off a non-null unsigned lane:
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
        // The keys read as words — the shape of every §6 query — or the
        // whole batch takes the per-tuple algorithm, one materialized
        // row at a time, into the same table. The windows it closes
        // still leave as lanes.
        let mut flat = std::mem::take(&mut self.ukeys_flat);
        let mut hashes = std::mem::take(&mut self.hash_scratch);
        let read = read_words(
            &self.key_evals,
            batch,
            &mut self.kscratch,
            &mut flat,
            &mut hashes,
        );
        let res = match read {
            Ok(()) => self.push_words(batch, &flat, &hashes, out),
            Err(kind) => self.push_rows(kind, batch, out),
        };
        self.ukeys_flat = flat;
        self.hash_scratch = hashes;
        batch.clear();
        res
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
    fn extract_state(
        &mut self,
        pred: &mut dyn FnMut(&[Value]) -> bool,
        out: &mut ColumnBatch,
    ) -> ExecResult<()> {
        let arity = self.group_exprs.len();
        extract_from_table(&mut self.groups, &self.slots, arity, pred, out)?;
        extract_from_table(&mut self.null_groups, &self.slots, arity, pred, out)
    }

    /// Absorbs state rows extracted from the same operator shape on
    /// another host, merging each shipped group's accumulator state
    /// into the local table (creating the group when absent). A shipped
    /// bucket ahead of the local window flushes it first; behind it
    /// counts as late — neither occurs under the drain protocol, which
    /// aligns both hosts on the boundary bucket before shipping. State
    /// of another shape, or of other kinds, is a typed error.
    fn absorb_state(&mut self, state: &ColumnBatch, out: &mut ColumnBatch) -> ExecResult<()> {
        let arity = self.group_exprs.len();
        let state_w = self.state_fields.len() - arity;
        if state.is_empty() {
            return Ok(());
        }
        if state.arity() != arity + state_w {
            return Err(crate::ExecError::BadPlan(format!(
                "migration state row arity {} does not match key {arity} + state {state_w}",
                state.arity()
            )));
        }
        state.check_kinds(&self.state_fields)?;
        let (keys, states) = state.columns().split_at(arity);
        let mut vals = Vec::with_capacity(state_w);
        for r in 0..state.rows() {
            self.key_scratch.clear();
            self.key_scratch.extend(keys.iter().map(|c| c.value(r)));
            let Some((null, e)) = self.group_of(out)? else {
                continue;
            };
            let table = if null {
                &mut self.null_groups
            } else {
                &mut self.groups
            };
            let mut g = table.payload_mut(e);
            vals.clear();
            vals.extend(states.iter().map(|c| c.value(r)));
            let mut off = 0;
            for slot in &self.slots {
                let w = slot.state_width();
                slot.absorb_state(&mut g, &vals[off..off + w]);
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
    use qap_expr::BinOp;

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
