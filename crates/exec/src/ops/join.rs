//! Tumbling-window equi-join (⋈) with epoch offsets.

use std::collections::BTreeMap;

use qap_expr::{BoundExpr, KernelScratch, LaneKind, PredicateKernel, LANE_KINDS};
use qap_plan::JoinType;
use qap_types::{ColumnBatch, SelectionVector, Tuple, Value};

use crate::bind::BoundJoin;
use crate::fx;
use crate::ExecResult;

use super::keys::{read_words, KeyEval};
use super::select::ColPlan;
use super::{
    append_batch, for_each_bucket_run, masked, merge_lanes, project_row, reset_arity,
    OpRuntimeStats, Operator,
};

struct Side {
    /// Position of the temporal attribute in this side's schema.
    temporal_idx: usize,
    /// Equi-key expressions over this side's schema.
    key: Vec<BoundExpr>,
    /// How `key` reads as words, classified once (parallel vector).
    key_evals: Vec<KeyEval>,
    arity: usize,
    /// Last observed epoch.
    cur: Option<i128>,
    /// Buffered epochs, each held as lanes.
    epochs: BTreeMap<i128, ColumnBatch>,
    late: u64,
}

impl Side {
    fn new(temporal_idx: usize, key: Vec<BoundExpr>, arity: usize) -> Self {
        Side {
            temporal_idx,
            key_evals: key.iter().map(KeyEval::classify).collect(),
            key,
            arity,
            cur: None,
            epochs: BTreeMap::new(),
            late: 0,
        }
    }

    /// Admits `n` rows of bucket `b`: `None` when they arrive behind
    /// the side's epoch (dropped and counted), else the epoch buffer to
    /// append them to and whether epoch state changed in a way that can
    /// make pairings ready — the current epoch advanced or a (possibly
    /// retired-and-revived) epoch was created. When neither happened,
    /// every closed/retired set is unchanged since the last
    /// `fire_ready` pass emptied them, so the caller may skip the scan.
    fn admit(&mut self, b: i128, n: usize) -> Option<(&mut ColumnBatch, bool)> {
        let advanced = match self.cur {
            Some(c) if b < c => {
                self.late += n as u64;
                return None;
            }
            Some(c) if b == c => false,
            _ => {
                self.cur = Some(b);
                true
            }
        };
        let mut created = false;
        let rows = self.epochs.entry(b).or_insert_with(|| {
            created = true;
            ColumnBatch::new(self.arity)
        });
        Some((rows, advanced || created))
    }

    /// Whether no further tuples of epoch `e` can arrive.
    fn closed(&self, e: i128, finished: bool) -> bool {
        finished || self.cur.is_some_and(|c| c > e)
    }
}

/// One side's equi-keys for one firing epoch: a hash per row plus the
/// key itself, as words when both sides' keys read as words
/// ([`read_words`]) and as evaluated values otherwise. Both forms are
/// flat (`width` entries per row), so a fire allocates nothing per row.
#[derive(Default)]
struct Keys {
    hashes: Vec<u64>,
    /// Rows whose key holds a NULL (SQL equality: they match nothing).
    /// Empty when none does.
    nulls: Vec<bool>,
    words: Vec<u64>,
    values: Vec<Value>,
}

impl Keys {
    /// Evaluates the key expressions row by row through the interpreter.
    fn eval_exprs(
        &mut self,
        exprs: &[BoundExpr],
        rows: &ColumnBatch,
        row: &mut Tuple,
    ) -> ExecResult<()> {
        self.hashes.clear();
        self.nulls.clear();
        self.values.clear();
        for r in 0..rows.rows() {
            rows.write_row_into(r, row);
            let mut vh = fx::ValueHash::new();
            let mut null = false;
            for e in exprs {
                let v = e.eval(row)?;
                null |= v.is_null();
                vh.add(&v);
                self.values.push(v);
            }
            self.hashes.push(vh.finish());
            self.nulls.push(null);
        }
        Ok(())
    }
}

/// End of a hash chain.
const NIL: u32 = u32::MAX;

/// Per-epoch hash join honouring the temporal alignment
/// `left.epoch = right.epoch + offset` (Section 3.1). Left epoch `e`
/// joins right epoch `e - offset`; the pairing fires once both epochs
/// are closed (their side has advanced past them, or finished). Outer
/// variants NULL-pad unmatched rows when their epoch retires.
///
/// Each (side, epoch) is buffered once, as a [`ColumnBatch`]. A fire chains the right epoch's
/// rows by key hash (`heads`/`next`, built back to front so a chain
/// walks in insertion order), probes the left rows in order into a pair
/// list, and then evaluates residual and projections over the pairs:
/// gathered into one concatenated batch and run through the compiled
/// kernels, or — when the residual or a projection is outside the
/// kernel domain, or a kernel bails out on this epoch's values — pair by
/// pair through the interpreter, which reproduces row-at-a-time
/// semantics including which pair errors first. Either way the output
/// order is that of a nested loop over (left row, matching right rows).
pub(crate) struct JoinOp {
    left: Side,
    right: Side,
    offset: i64,
    join_type: JoinType,
    residual: Option<BoundExpr>,
    /// Projections over the concatenated (left ++ right) schema.
    projections: Vec<BoundExpr>,
    /// Compiled residual (None: no residual, or outside the kernel
    /// domain).
    residual_kernel: Option<PredicateKernel>,
    /// Compiled projections (None: some projection is outside the
    /// kernel domain).
    col_plan: Option<ColPlan>,
    finished: bool,
    lkeys: Keys,
    rkeys: Keys,
    /// Chained index over the firing right epoch: `heads[slot]` is the
    /// first row of the slot's chain, `next[row]` the following one.
    heads: Vec<u32>,
    next: Vec<u32>,
    /// The fire's candidate pairs (parallel vectors), in output order.
    pairs_l: Vec<u32>,
    pairs_r: Vec<u32>,
    sel: SelectionVector,
    kscratch: KernelScratch,
    /// Reused concatenated row and projected row for the interpreter
    /// path.
    joined_row: Tuple,
    out_row: Tuple,
    kernel_hits: u64,
    kernel_fallbacks: u64,
    /// Fires whose keys left the lanes, by the blocking lane type
    /// (`Mixed` for a computed key — no single lane to blame).
    lane_fallbacks: [u64; LANE_KINDS],
}

impl JoinOp {
    pub(crate) fn new(b: BoundJoin) -> Self {
        JoinOp {
            left: Side::new(b.left_temporal, b.left_key, b.left_arity),
            right: Side::new(b.right_temporal, b.right_key, b.right_arity),
            offset: b.offset,
            join_type: b.join_type,
            residual_kernel: b.residual.as_ref().and_then(PredicateKernel::compile),
            col_plan: ColPlan::compile(&b.projections),
            residual: b.residual,
            projections: b.projections,
            finished: false,
            lkeys: Keys::default(),
            rkeys: Keys::default(),
            heads: Vec::new(),
            next: Vec::new(),
            pairs_l: Vec::new(),
            pairs_r: Vec::new(),
            sel: SelectionVector::new(),
            kscratch: KernelScratch::new(),
            joined_row: Tuple::default(),
            out_row: Tuple::default(),
            kernel_hits: 0,
            kernel_fallbacks: 0,
            lane_fallbacks: [0; LANE_KINDS],
        }
    }

    fn side(&mut self, port: usize) -> &mut Side {
        match port {
            0 => &mut self.left,
            1 => &mut self.right,
            _ => unreachable!("join has two ports"),
        }
    }

    /// Fires every left epoch whose pairing is complete.
    fn fire_ready(&mut self, out: &mut ColumnBatch) -> ExecResult<()> {
        reset_arity(out, self.projections.len());
        let offset = i128::from(self.offset);
        let ready: Vec<i128> = self
            .left
            .epochs
            .keys()
            .copied()
            .filter(|&e| {
                self.left.closed(e, self.finished) && self.right.closed(e - offset, self.finished)
            })
            .collect();
        for e in ready {
            self.fire(e, out)?;
        }
        // Right epochs that no longer have a potential left partner
        // retire: their left epoch (e_r + offset) is closed yet absent.
        let retired: Vec<i128> = self
            .right
            .epochs
            .keys()
            .copied()
            .filter(|&er| {
                let el = er + offset;
                self.left.closed(el, self.finished) && !self.left.epochs.contains_key(&el)
            })
            .collect();
        for er in retired {
            if let Some(rows) = self.right.epochs.remove(&er) {
                self.pad(&rows, &[], false, out)?;
            }
        }
        Ok(())
    }

    fn fire(&mut self, e: i128, out: &mut ColumnBatch) -> ExecResult<()> {
        let Some(lrows) = self.left.epochs.remove(&e) else {
            return Ok(());
        };
        // Per row: whether some pairing emitted it (outer joins pad the
        // rest).
        let mut lmatched = vec![false; lrows.rows()];
        if let Some(rrows) = self.right.epochs.remove(&(e - i128::from(self.offset))) {
            let mut rmatched = vec![false; rrows.rows()];
            // One tally per fire: a hit only when keys and pairs both
            // stayed on lanes.
            let by_lanes = self.probe(&lrows, &rrows)?;
            let by_kernels = self.pairs_l.is_empty()
                || self.emit_kernels(&lrows, &rrows, &mut lmatched, &mut rmatched, out);
            if !by_kernels {
                self.emit_interpreted(&lrows, &rrows, &mut lmatched, &mut rmatched, out)?;
            }
            if by_lanes && by_kernels {
                self.kernel_hits += 1;
            } else {
                self.kernel_fallbacks += 1;
            }
            self.pad(&rrows, &rmatched, false, out)?;
        }
        self.pad(&lrows, &lmatched, true, out)
    }

    /// Fills the pair list: for each left row in order, the right rows
    /// with an equal key in insertion order. Keys containing NULL match
    /// nothing. Returns whether the keys were read as words; when not,
    /// they went through the interpreter and the blocking lane type is
    /// tallied (`Mixed` for a join without equi-keys).
    fn probe(&mut self, lrows: &ColumnBatch, rrows: &ColumnBatch) -> ExecResult<bool> {
        self.pairs_l.clear();
        self.pairs_r.clear();
        let width = self.left.key.len();
        let (lk, rk) = (&mut self.lkeys, &mut self.rkeys);
        lk.nulls.clear();
        rk.nulls.clear();
        let by_lanes = match width {
            0 => Err(LaneKind::Mixed),
            _ => read_words(
                &self.left.key_evals,
                lrows,
                &mut self.kscratch,
                &mut lk.words,
                &mut lk.hashes,
            )
            .and_then(|()| {
                read_words(
                    &self.right.key_evals,
                    rrows,
                    &mut self.kscratch,
                    &mut rk.words,
                    &mut rk.hashes,
                )
            }),
        };
        if let Err(kind) = by_lanes {
            self.lane_fallbacks[kind as usize] += 1;
            self.lkeys
                .eval_exprs(&self.left.key, lrows, &mut self.joined_row)?;
            self.rkeys
                .eval_exprs(&self.right.key, rrows, &mut self.joined_row)?;
        }
        let by_lanes = by_lanes.is_ok();
        let (lk, rk) = (&self.lkeys, &self.rkeys);
        // Slots come from the hash's top bits: the multiply-xor fold
        // leaves its entropy there, not in the low bits.
        let bits = (rk.hashes.len() * 2)
            .next_power_of_two()
            .trailing_zeros()
            .max(1);
        let slot = |h: u64| (h >> (64 - bits)) as usize;
        self.heads.clear();
        self.heads.resize(1 << bits, NIL);
        self.next.clear();
        self.next.resize(rk.hashes.len(), NIL);
        for ri in (0..rk.hashes.len()).rev() {
            if !masked(&rk.nulls, ri) {
                let s = slot(rk.hashes[ri]);
                self.next[ri] = self.heads[s];
                self.heads[s] = ri as u32;
            }
        }
        for (li, &h) in lk.hashes.iter().enumerate() {
            if masked(&lk.nulls, li) {
                continue;
            }
            let mut ri = self.heads[slot(h)];
            while ri != NIL {
                let r = ri as usize;
                let equal = rk.hashes[r] == h
                    && if by_lanes {
                        lk.words[li * width..][..width] == rk.words[r * width..][..width]
                    } else {
                        lk.values[li * width..][..width] == rk.values[r * width..][..width]
                    };
                if equal {
                    self.pairs_l.push(li as u32);
                    self.pairs_r.push(ri);
                }
                ri = self.next[r];
            }
        }
        Ok(by_lanes)
    }

    /// Residual and projections over the whole pair list through the
    /// compiled kernels. `false` — with nothing emitted and no row
    /// marked — when a kernel is missing or bails out.
    fn emit_kernels(
        &mut self,
        lrows: &ColumnBatch,
        rrows: &ColumnBatch,
        lmatched: &mut [bool],
        rmatched: &mut [bool],
        out: &mut ColumnBatch,
    ) -> bool {
        let Some(plan) = &self.col_plan else {
            return false;
        };
        if self.residual.is_some() && self.residual_kernel.is_none() {
            return false;
        }
        // Gather each side's paired rows, then lay the columns side by
        // side: the concatenated schema the expressions are bound to.
        let mut l = ColumnBatch::new(lrows.arity());
        l.append_gather(lrows, &self.pairs_l);
        let mut r = ColumnBatch::new(rrows.arity());
        r.append_gather(rrows, &self.pairs_r);
        let columns = (0..l.arity())
            .map(|i| l.take_column(i))
            .chain((0..r.arity()).map(|i| r.take_column(i)))
            .collect();
        let mut joined = ColumnBatch::from_columns_with_rows(columns, self.pairs_l.len());
        self.sel.fill_identity(joined.rows());
        if let Some(k) = &self.residual_kernel {
            if !k.filter(&joined, &mut self.sel, &mut self.kscratch) {
                return false;
            }
            joined.compact(&self.sel);
        }
        let Some((projected, _)) = plan.project(&mut joined, &mut self.kscratch) else {
            return false;
        };
        for &p in self.sel.as_slice() {
            lmatched[self.pairs_l[p as usize] as usize] = true;
            rmatched[self.pairs_r[p as usize] as usize] = true;
        }
        append_batch(out, projected);
        true
    }

    /// Residual and projections pair by pair through the interpreter.
    fn emit_interpreted(
        &mut self,
        lrows: &ColumnBatch,
        rrows: &ColumnBatch,
        lmatched: &mut [bool],
        rmatched: &mut [bool],
        out: &mut ColumnBatch,
    ) -> ExecResult<()> {
        for (&li, &ri) in self.pairs_l.iter().zip(&self.pairs_r) {
            let (li, ri) = (li as usize, ri as usize);
            self.joined_row.clear();
            for c in lrows.columns() {
                self.joined_row.push(c.value(li));
            }
            for c in rrows.columns() {
                self.joined_row.push(c.value(ri));
            }
            if let Some(r) = &self.residual {
                if !r.eval_predicate(&self.joined_row)? {
                    continue;
                }
            }
            lmatched[li] = true;
            rmatched[ri] = true;
            project_row(&self.projections, &self.joined_row, &mut self.out_row)?;
            out.push_row(&self.out_row);
        }
        Ok(())
    }

    /// NULL-pads a retiring epoch's unmatched rows (an empty `matched`
    /// means none was) when the join type keeps that side: `left_side`
    /// rows pad on the right and vice versa. Pads go through the
    /// interpreter (a projection over NULLs is outside every kernel's
    /// domain).
    fn pad(
        &mut self,
        rows: &ColumnBatch,
        matched: &[bool],
        left_side: bool,
        out: &mut ColumnBatch,
    ) -> ExecResult<()> {
        let keeps = match self.join_type {
            JoinType::FullOuter => true,
            JoinType::LeftOuter => left_side,
            JoinType::RightOuter => !left_side,
            JoinType::Inner => false,
        };
        let mut unmatched = (0..rows.rows()).filter(|&r| !masked(matched, r)).peekable();
        if !keeps || unmatched.peek().is_none() {
            return Ok(());
        }
        self.kernel_fallbacks += 1;
        let (la, ra) = (self.left.arity, self.right.arity);
        for r in unmatched {
            self.joined_row.clear();
            if !left_side {
                (0..la).for_each(|_| self.joined_row.push(Value::Null));
            }
            for c in rows.columns() {
                self.joined_row.push(c.value(r));
            }
            if left_side {
                (0..ra).for_each(|_| self.joined_row.push(Value::Null));
            }
            project_row(&self.projections, &self.joined_row, &mut self.out_row)?;
            out.push_row(&self.out_row);
        }
        Ok(())
    }
}

impl Operator for JoinOp {
    fn push_columns(
        &mut self,
        port: usize,
        batch: &mut ColumnBatch,
        out: &mut ColumnBatch,
    ) -> ExecResult<()> {
        if batch.rows() == 0 {
            return Ok(());
        }
        // A run of one bucket admits as a unit: per-row admission would
        // take the same late/advance decision for every row of the run,
        // and a pairing that the run's first row makes ready holds only
        // closed epochs, which the rest of the run cannot touch.
        let temporal_idx = self.side(port).temporal_idx;
        let rows_in: &ColumnBatch = batch;
        for_each_bucket_run(rows_in.column(temporal_idx), |run, b| {
            let Some((rows, changed)) = self.side(port).admit(b, run.len()) else {
                return Ok(());
            };
            rows.append_range(rows_in, run);
            if changed {
                self.fire_ready(out)?;
            }
            Ok(())
        })?;
        batch.clear();
        Ok(())
    }

    fn finish(&mut self, out: &mut ColumnBatch) -> ExecResult<()> {
        self.finished = true;
        self.fire_ready(out)?;
        debug_assert!(self.left.epochs.is_empty());
        debug_assert!(self.right.epochs.is_empty());
        Ok(())
    }

    fn late_dropped(&self) -> u64 {
        self.left.late + self.right.late
    }

    fn runtime_stats(&self) -> OpRuntimeStats {
        OpRuntimeStats {
            kernel_hits: self.kernel_hits,
            kernel_fallbacks: self.kernel_fallbacks,
            kernel_lane_hits: self.kscratch.lane_hits(),
            kernel_lane_fallbacks: merge_lanes(self.kscratch.lane_fallbacks(), self.lane_fallbacks),
            ..OpRuntimeStats::default()
        }
    }
}
