//! Tumbling-window hash aggregation (γ).
//!
//! Every group is keyed by words, laid out by the plan's key kinds when
//! the operator is built ([`GroupTable`]). Every batch runs one
//! algorithm, the per-tuple one of Section 3.1 taken a batch at a time:
//! the predicate filters the batch ([`Filter`]), [`read_words`] reads
//! every row's keys as words, whatever their kinds, and one probe pass
//! admits each row to its window, closing the window a later row opens
//! and dropping a late row, and finds or creates its group. The rows a
//! window admitted then fold entry-major, each slot reading its
//! argument off a lane: a bare column's own, or one the slots'
//! [`Projection`] evaluates over the admitted rows alone, so a late row
//! never evaluates an argument.
//!
//! A batch whose keys are all non-null and none a string — every §6
//! query — probes with the words as read. Any other batch moves each
//! string key into its table's string pool and routes a row whose
//! window key is NULL to the NULL-window table.
//!
//! Group state lives in the [`GroupTable`]'s arenas with a layout fixed
//! when the operator is built: every built-in slot is a run of `u64`
//! words ([`WordAgg`]) beside its group's other slots — a string
//! `MIN`/`MAX` extreme is an index into the table's string pool — and
//! each UDAF slot a boxed [`UdafState`] in the side arena, which a γ
//! without UDAFs never allocates. Folds, window closes, migration
//! extracts and absorbs all read and write that layout directly.

use qap_expr::{BoundExpr, Filter, KernelScratch, Projection, UdafState, WordAgg, LANE_KINDS};
use qap_types::{ArcStr, Column, ColumnBatch, DataType, Field, SelectionVector, Value};

use crate::bind::{AccFactory, AggSlot, BoundAggregate};
use crate::ExecResult;

use super::group_table::{GroupTable, Payload, Window};
use super::keys::{key_hash, lane_kind, read_words, KeyEval, KeyWords, StrPool};
use super::{append_batch, merge_lanes, reset_arity, OpRuntimeStats, Operator};

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

/// One aggregate slot as the operator runs it: the bound slot, which of
/// the slots' arguments it folds and where its state lives.
struct Slot {
    bound: AggSlot,
    /// Its argument's index in [`Args`] (`None`: no argument, as in
    /// `COUNT(*)`, which folds TRUE).
    arg: Option<usize>,
    state: SlotState,
}

/// The slots' arguments, in slot order.
enum Args {
    /// Every argument is a bare column: read off the batch.
    Cols(Vec<usize>),
    /// Some argument is computed: all of them evaluate over the rows a
    /// window admits.
    Computed(Projection),
}

impl Slot {
    /// Lays the slots' state out — built-ins' words side by side in slot
    /// order, then one side payload per UDAF — and collects their
    /// arguments. Returns them with the words and side payloads per
    /// group.
    fn plan(slots: Vec<AggSlot>) -> (Vec<Slot>, Args, usize, usize) {
        let (mut words, mut side) = (0, 0);
        let mut args: Vec<BoundExpr> = Vec::new();
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
            let arg = bound.arg.as_ref().map(|e| {
                args.push(e.clone());
                args.len() - 1
            });
            Slot { bound, arg, state }
        });
        let slots = slots.collect();
        let cols = args.iter().map(|e| match e {
            BoundExpr::Column(i) => Some(*i),
            _ => None,
        });
        match cols.collect() {
            Some(cols) => (slots, Args::Cols(cols), words, side),
            None => (slots, Args::Computed(Projection::new(args)), words, side),
        }
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

/// The window a temporal key's word names, as the model orders windows:
/// a signed key by its value, a string key in no order at all.
#[inline]
fn bucket(kind: DataType, word: u64) -> i128 {
    match kind {
        DataType::UInt | DataType::Bool => i128::from(word),
        DataType::Int => i128::from(word as i64),
        DataType::Str => i128::MIN,
    }
}

/// The words and hash `table` keys a row by: `key` as read, or — when a
/// key is a string — with its strings moved from the batch's `pool`
/// into the table's, in `buf`.
#[inline]
fn localize<'a>(
    table: &mut GroupTable<Udaf>,
    pool: &StrPool,
    buf: &'a mut Vec<u64>,
    key: &'a [u64],
    mask: u64,
    hash: u64,
) -> (&'a [u64], u64) {
    if !table.has_str_keys() {
        return (key, hash);
    }
    buf.clear();
    buf.extend_from_slice(key);
    table.intern_keys(buf, mask, pool);
    (buf, key_hash(buf, mask))
}

/// Packs a probe's group entry and the row it folds into one word.
#[inline]
fn pack(entry: usize, row: usize) -> u64 {
    (entry as u64) << 32 | row as u64
}

/// Hash aggregation over the current tumbling window. State holds only
/// the current window's groups; the window flushes the moment the
/// temporal grouping attribute advances (Section 3.1). Tuples arriving
/// behind the window are dropped and counted, mirroring a DSMS facing
/// out-of-order input.
pub(crate) struct AggregateOp {
    filter: Option<Filter>,
    /// How the group keys read as words, classified once.
    key_evals: Vec<KeyEval>,
    /// Index (within the group key) of the temporal attribute that
    /// defines the window, and its kind.
    temporal_idx: usize,
    temporal_kind: DataType,
    slots: Vec<Slot>,
    args: Args,
    having: Option<Filter>,
    /// The columns of a migration state row, which an absorb checks.
    state_fields: Vec<Field>,
    /// HAVING's own tallies: they are not the operator's input-side
    /// lane telemetry.
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
    /// The evaluator's input-side lane tallies.
    kscratch: KernelScratch,
    /// Reused selection vector: the filter's, and HAVING's over a
    /// closed window.
    sel: SelectionVector,
    /// The batch's keys as words: one buffer serves as hash input,
    /// probe key, window-bucket source and insert key.
    kw: KeyWords,
    /// The batch's key strings, which its string keys' words index.
    pool: StrPool,
    /// A row's key with its strings moved into a table's pool.
    key_buf: Vec<u64>,
    /// `(group entry << 32) | row` per row the current window segment
    /// admitted, filled by the probe pass and consumed by the
    /// entry-major fold; the NULL window's in `null_entries`.
    entry_scratch: Vec<u64>,
    null_entries: Vec<u64>,
    /// Key lanes read as words, tallied under their lane type (one per
    /// key per batch).
    lane_hits: [u64; LANE_KINDS],
    kernel_hits: u64,
}

impl AggregateOp {
    pub(crate) fn new(b: BoundAggregate) -> Self {
        let BoundAggregate {
            predicate,
            group_by,
            temporal_idx,
            slots,
            having,
            state_fields,
        } = b;
        let (slots, args, words, side) = Slot::plan(slots);
        let kinds: Vec<DataType> = state_fields[..group_by.len()]
            .iter()
            .map(Field::data_type)
            .collect();
        AggregateOp {
            filter: predicate.map(Filter::new),
            key_evals: group_by.iter().map(KeyEval::classify).collect(),
            temporal_idx,
            temporal_kind: kinds[temporal_idx],
            slots,
            args,
            having: having.map(Filter::new),
            state_fields,
            having_scratch: KernelScratch::new(),
            window: Vec::new(),
            current_bucket: None,
            groups: GroupTable::new(kinds.clone(), words, side),
            null_groups: GroupTable::new(kinds, words, side),
            late: 0,
            flushes: 0,
            flush_ns: 0,
            kscratch: KernelScratch::new(),
            sel: SelectionVector::new(),
            kw: KeyWords::default(),
            pool: StrPool::default(),
            key_buf: Vec::new(),
            entry_scratch: Vec::new(),
            null_entries: Vec::new(),
            lane_hits: [0; LANE_KINDS],
            kernel_hits: 0,
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
    /// their state words. HAVING filters that batch and the survivors
    /// leave by `append_gather`. The lanes are reused from flush to
    /// flush.
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
        let arity = self.key_evals.len();
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
                h.apply(&window, &mut self.sel, &mut self.having_scratch)?;
                out.append_gather(&window, self.sel.as_slice());
            }
        }
        self.window = (0..window.arity()).map(|i| window.take_column(i)).collect();
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

    /// The probe pass over rows whose keys `kw` holds: each row is
    /// admitted to its window (a later window first folds and closes
    /// the current one, an earlier one drops the row) and finds or
    /// creates its group, and `fold` folds each window's admitted rows
    /// (with whether they are the NULL window's) before it closes.
    /// Without `GENERAL` no key is NULL or a string, and the words probe
    /// as read — the §6 loop, with no per-row mask or string work.
    fn push_words<const GENERAL: bool>(
        &mut self,
        kw: &KeyWords,
        out: &mut ColumnBatch,
        mut fold: impl FnMut(&mut Self, bool, &mut [u64]) -> ExecResult<()>,
    ) -> ExecResult<()> {
        let (arity, t_off, t_kind) = (self.key_evals.len(), self.temporal_idx, self.temporal_kind);
        let mut ents = std::mem::take(&mut self.entry_scratch);
        let mut null_ents = std::mem::take(&mut self.null_entries);
        ents.clear();
        null_ents.clear();
        // Probe tallies live in registers for the whole batch — a
        // per-row update of the table's counter would chain the
        // iterations through memory (see `upsert`).
        let (mut walked, mut null_walked) = (0u64, 0u64);
        for (r, (key, &hash)) in kw.words.chunks_exact(arity).zip(&kw.hashes).enumerate() {
            let mask = match GENERAL {
                true => kw.masks.get(r).copied().unwrap_or(0),
                false => 0,
            };
            if GENERAL && mask >> t_off & 1 != 0 {
                // NULL window key (e.g. outer-join padding): no window
                // ever closes over it, so it accumulates until
                // end-of-stream.
                let table = &mut self.null_groups;
                let (key, hash) = localize(table, &self.pool, &mut self.key_buf, key, mask, hash);
                let e = table.upsert(hash, key, mask, &mut null_walked, fresh_side(&self.slots));
                null_ents.push(pack(e, r));
                continue;
            }
            let bucket = bucket(t_kind, key[t_off]);
            match self.current_bucket {
                Some(cur) if bucket > cur => {
                    fold(self, false, &mut ents)?;
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
            let e = if GENERAL {
                let table = &mut self.groups;
                let (key, hash) = localize(table, &self.pool, &mut self.key_buf, key, mask, hash);
                table.upsert(hash, key, mask, &mut walked, fresh_side(&self.slots))
            } else {
                (self.groups).upsert(hash, key, 0, &mut walked, fresh_side(&self.slots))
            };
            ents.push(pack(e, r));
        }
        self.groups.add_probes(walked);
        self.null_groups.add_probes(null_walked);
        fold(self, false, &mut ents)?;
        fold(self, true, &mut null_ents)?;
        self.entry_scratch = ents;
        self.null_entries = null_ents;
        Ok(())
    }

    /// Entry-major fold of the rows one window segment admitted: each
    /// `ents` word packs `(group entry << 32) | row`. The slots'
    /// arguments are the batch's columns, or the [`Args::Computed`]
    /// projection over exactly those rows (the words then index its
    /// output). One pass touches each row's group once and folds all of
    /// its slots together — a group's state words sit side by side in
    /// the word arena — and each accumulator sees its rows in row order,
    /// so any order-sensitive UDAF state observes the model's update
    /// sequence.
    fn fold_segment(
        &mut self,
        null_window: bool,
        ents: &mut [u64],
        batch: &ColumnBatch,
    ) -> ExecResult<()> {
        if ents.is_empty() {
            return Ok(());
        }
        let computed;
        let cols: Vec<&Column> = match &self.args {
            Args::Cols(cols) => cols.iter().map(|&c| batch.column(c)).collect(),
            Args::Computed(p) => {
                let rows: Vec<u32> = ents.iter().map(|&er| er as u32).collect();
                let mut admitted = ColumnBatch::new(batch.arity());
                admitted.append_gather(batch, &rows);
                computed = p.project(&mut admitted, &mut self.kscratch)?;
                for (i, er) in ents.iter_mut().enumerate() {
                    *er = pack((*er >> 32) as usize, i);
                }
                computed.columns().iter().collect()
            }
        };
        let lanes = slot_lanes(&self.slots, &cols);
        let table = if null_window {
            &mut self.null_groups
        } else {
            &mut self.groups
        };
        // Up to four slots, the width is a constant of the loop, so the
        // slot loop unrolls and each slot's dispatch stays in registers.
        let fold = match self.slots.len() {
            1 => fold_entries::<1>,
            2 => fold_entries::<2>,
            3 => fold_entries::<3>,
            4 => fold_entries::<4>,
            _ => fold_entries::<0>,
        };
        fold(&self.slots, &lanes, table, ents);
        Ok(())
    }

    /// Merges the migration state rows `ents` names (rows of `state`)
    /// into their groups.
    fn merge_states(&mut self, null_window: bool, ents: &[u64], state: &ColumnBatch) {
        let states = &state.columns()[self.key_evals.len()..];
        let mut vals = Vec::with_capacity(states.len());
        let table = if null_window {
            &mut self.null_groups
        } else {
            &mut self.groups
        };
        for &er in ents {
            let mut g = table.payload_mut((er >> 32) as usize);
            vals.clear();
            vals.extend(states.iter().map(|c| c.value(er as u32 as usize)));
            let mut off = 0;
            for slot in &self.slots {
                let w = slot.state_width();
                slot.absorb_state(&mut g, &vals[off..off + w]);
                off += w;
            }
        }
    }
}

/// [`AggregateOp::fold_segment`]'s loop for `W` slots (`0`: any).
fn fold_entries<const W: usize>(
    slots: &[Slot],
    lanes: &[SlotLane<'_>],
    table: &mut GroupTable<Udaf>,
    ents: &[u64],
) {
    let width = if W == 0 { slots.len() } else { W };
    let (slots, lanes) = (&slots[..width], &lanes[..width]);
    for &er in ents {
        let mut g = table.payload_mut((er >> 32) as usize);
        let r = er as u32 as usize;
        for (slot, lane) in slots.iter().zip(lanes) {
            match *lane {
                SlotLane::Count(off) => g.words[off] += 1,
                SlotLane::Word {
                    agg,
                    merge,
                    off,
                    lane,
                } => agg.fold_uint(&mut g.words[off..], lane[r], merge),
                SlotLane::Value(c) => fold_lane_value(slot, &mut g, c, r),
            }
        }
    }
}

/// The fold of a [`SlotLane::Value`] slot: row `r`'s value off its
/// argument's lane (TRUE with no argument).
#[inline(never)]
fn fold_lane_value(slot: &Slot, g: &mut Group<'_>, c: Option<&Column>, r: usize) {
    slot.fold_value(g, &c.map_or(Value::Bool(true), |c| c.value(r)));
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
    let mut row: Vec<Value> = Vec::with_capacity(arity);
    let mut accs: Vec<Udaf> = Vec::with_capacity(side_w);
    let (mut cols, mut shipped): (Vec<Column>, usize) = (Vec::new(), 0);
    for (e, key) in keys.chunks_exact(arity + 1).enumerate() {
        let w = &words[e * words_w..(e + 1) * words_w];
        row.clear();
        row.extend((0..arity).map(|k| table.key_value(key, k)));
        accs.extend(side_iter.by_ref().take(side_w));
        if pred(&row) {
            for slot in slots {
                slot.state_values(w, &accs, table.window().strs, &mut row)?;
            }
            accs.clear();
            cols.resize_with(row.len(), Column::new);
            cols.iter_mut().zip(&row).for_each(|(c, v)| c.push(v));
            shipped += 1;
        } else {
            let e = table.put_back(key, accs.drain(..));
            table.payload_mut(e).words.copy_from_slice(w);
        }
    }
    if shipped > 0 {
        append_batch(out, ColumnBatch::from_columns_with_rows(cols, shipped));
    }
    Ok(())
}

/// One aggregate slot's per-segment fold source, classified once per
/// segment from its argument's lane.
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
    /// Everything else: [`fold_lane_value`].
    Value(Option<&'a Column>),
}

fn slot_lanes<'a>(slots: &[Slot], cols: &[&'a Column]) -> Vec<SlotLane<'a>> {
    slots
        .iter()
        .map(|slot| match (slot.arg.map(|j| cols[j]), slot.state) {
            (
                None,
                SlotState::Word {
                    agg: WordAgg::Count,
                    off,
                },
            ) => SlotLane::Count(off),
            (Some(c), SlotState::Word { agg, off }) => match (c.uints(), c.has_nulls()) {
                (Some(lane), false) => SlotLane::Word {
                    agg,
                    merge: slot.bound.merge,
                    off,
                    lane,
                },
                _ => SlotLane::Value(Some(c)),
            },
            (c, _) => SlotLane::Value(c),
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
        if let Some(f) = &self.filter {
            self.sel.fill_identity(batch.rows());
            f.apply(batch, &mut self.sel, &mut self.kscratch)?;
            self.kernel_hits += 1;
            if self.sel.is_empty() {
                batch.clear();
                return Ok(());
            }
            batch.compact(&self.sel);
        }
        // Every key reads as words; the batch then probes and folds.
        // The windows it closes leave as lanes.
        let mut kw = std::mem::take(&mut self.kw);
        self.pool.clear();
        let res = read_words(
            &self.key_evals,
            batch,
            &mut self.kscratch,
            &mut self.pool,
            &mut kw,
        )
        .and_then(|()| {
            for &kind in &kw.kinds {
                self.lane_hits[lane_kind(kind) as usize] += 1;
            }
            let fold = |op: &mut Self, null, ents: &mut [u64]| op.fold_segment(null, ents, batch);
            match kw.masks.is_empty() && !self.groups.has_str_keys() {
                true => self.push_words::<false>(&kw, out, fold)?,
                false => self.push_words::<true>(&kw, out, fold)?,
            };
            self.kernel_hits += 1;
            Ok(())
        });
        self.kw = kw;
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
    /// [`Operator::extract_state`] ships. A computed temporal key is a
    /// no-op (callers gate migration eligibility on fast temporal
    /// shapes).
    fn flush_before(&mut self, time: u64, out: &mut ColumnBatch) -> ExecResult<()> {
        let boundary = match &self.key_evals[self.temporal_idx] {
            KeyEval::Col(_) => i128::from(time),
            KeyEval::DivConst { div, .. } => i128::from(time / *div),
            KeyEval::Computed(_) => return Ok(()),
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
        let arity = self.key_evals.len();
        extract_from_table(&mut self.groups, &self.slots, arity, pred, out)?;
        extract_from_table(&mut self.null_groups, &self.slots, arity, pred, out)
    }

    /// Absorbs state rows extracted from the same operator shape on
    /// another host, merging each shipped group's accumulator state
    /// into the local table (creating the group when absent); the keys
    /// read as words, as an input batch's do. A shipped bucket ahead of
    /// the local window flushes it first; behind it counts as late —
    /// neither occurs under the drain protocol, which aligns both hosts
    /// on the boundary bucket before shipping. State of another shape,
    /// or of other kinds, is a typed error.
    fn absorb_state(&mut self, state: &ColumnBatch, out: &mut ColumnBatch) -> ExecResult<()> {
        let arity = self.key_evals.len();
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
        let state_keys: Vec<KeyEval> = (0..arity).map(KeyEval::Col).collect();
        let mut kw = std::mem::take(&mut self.kw);
        self.pool.clear();
        let res = read_words(
            &state_keys,
            state,
            &mut self.kscratch,
            &mut self.pool,
            &mut kw,
        )
        .and_then(|()| {
            self.push_words::<true>(&kw, out, |op, null, ents| {
                op.merge_states(null, ents, state);
                Ok(())
            })
        });
        self.kw = kw;
        res
    }

    fn runtime_stats(&self) -> OpRuntimeStats {
        OpRuntimeStats {
            flushes: self.flushes,
            flush_ns: self.flush_ns,
            group_slots: self.groups.slot_count() + self.null_groups.slot_count(),
            group_probes: self.groups.probe_count() + self.null_groups.probe_count(),
            group_inserts: self.groups.insert_count() + self.null_groups.insert_count(),
            kernel_hits: self.kernel_hits,
            kernel_lane_hits: merge_lanes(self.kscratch.lane_hits(), self.lane_hits),
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
