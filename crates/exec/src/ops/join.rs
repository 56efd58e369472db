//! Tumbling-window equi-join (⋈) with epoch offsets.

use std::collections::BTreeMap;

use qap_expr::{BoundExpr, Filter, KernelScratch, Projection};
use qap_plan::JoinType;
use qap_types::{Column, ColumnBatch, SelectionVector};

use crate::bind::BoundJoin;
use crate::ExecResult;

use super::keys::{read_words, KeyEval, KeyWords, StrPool};
use super::{for_each_bucket_run, OpRuntimeStats, Operator, Out};

struct Side {
    /// Position of the temporal attribute in this side's schema.
    temporal_idx: usize,
    /// How the equi-keys over this side's schema read as words,
    /// classified once.
    key_evals: Vec<KeyEval>,
    arity: usize,
    /// Last observed epoch.
    cur: Option<i128>,
    /// Buffered epochs, each held as lanes.
    epochs: BTreeMap<i128, ColumnBatch>,
    late: u64,
}

impl Side {
    fn new(temporal_idx: usize, key: &[BoundExpr], arity: usize) -> Self {
        Side {
            temporal_idx,
            key_evals: key.iter().map(KeyEval::classify).collect(),
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

/// End of a hash chain.
const NIL: u32 = u32::MAX;

/// Per-epoch hash join honouring the temporal alignment
/// `left.epoch = right.epoch + offset` (Section 3.1). Left epoch `e`
/// joins right epoch `e - offset`; the pairing fires once both epochs
/// are closed (their side has advanced past them, or finished). Outer
/// variants NULL-pad unmatched rows when their epoch retires.
///
/// Each (side, epoch) is buffered once, as a [`ColumnBatch`]. A fire
/// reads both epochs' equi-keys as words into one string pool
/// ([`read_words`]), chains the right epoch's rows by key hash
/// (`heads`/`next`, built back to front so a chain walks in insertion
/// order), probes the left rows in order into a pair list, and then
/// runs the residual and the projections over the pairs, `max_batch`
/// at a time gathered into one concatenated batch, through `qap-expr`'s
/// column evaluator
/// ([`Filter`], [`Projection`]). The output order is that of a nested
/// loop over (left row, matching right rows). A retiring epoch's
/// unmatched rows pad the same way: beside all-NULL lanes for the other
/// side, through the same projection.
pub(crate) struct JoinOp {
    left: Side,
    right: Side,
    offset: i64,
    join_type: JoinType,
    residual: Option<Filter>,
    /// Projections over the concatenated (left ++ right) schema.
    projection: Projection,
    finished: bool,
    lkeys: KeyWords,
    rkeys: KeyWords,
    /// The firing epochs' key strings, which both sides' words index.
    pool: StrPool,
    /// Chained index over the firing right epoch: `heads[slot]` is the
    /// first row of the slot's chain, `next[row]` the following one.
    heads: Vec<u32>,
    next: Vec<u32>,
    /// The fire's candidate pairs (parallel vectors), in output order.
    pairs_l: Vec<u32>,
    pairs_r: Vec<u32>,
    sel: SelectionVector,
    kscratch: KernelScratch,
    /// One per emission: a fire's pairs, or a pad.
    kernel_hits: u64,
}

impl JoinOp {
    pub(crate) fn new(b: BoundJoin) -> Self {
        JoinOp {
            left: Side::new(b.left_temporal, &b.left_key, b.left_arity),
            right: Side::new(b.right_temporal, &b.right_key, b.right_arity),
            offset: b.offset,
            join_type: b.join_type,
            residual: b.residual.map(Filter::new),
            projection: Projection::new(b.projections),
            finished: false,
            lkeys: KeyWords::default(),
            rkeys: KeyWords::default(),
            pool: StrPool::default(),
            heads: Vec::new(),
            next: Vec::new(),
            pairs_l: Vec::new(),
            pairs_r: Vec::new(),
            sel: SelectionVector::new(),
            kscratch: KernelScratch::new(),
            kernel_hits: 0,
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
    fn fire_ready(&mut self, out: &mut Out) -> ExecResult<()> {
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

    fn fire(&mut self, e: i128, out: &mut Out) -> ExecResult<()> {
        let Some(lrows) = self.left.epochs.remove(&e) else {
            return Ok(());
        };
        // Per row: whether some pairing emitted it (outer joins pad the
        // rest).
        let mut lmatched = vec![false; lrows.rows()];
        if let Some(rrows) = self.right.epochs.remove(&(e - i128::from(self.offset))) {
            let mut rmatched = vec![false; rrows.rows()];
            self.probe(&lrows, &rrows)?;
            if !self.pairs_l.is_empty() {
                self.emit_pairs(&lrows, &rrows, &mut lmatched, &mut rmatched, out)?;
            }
            self.kernel_hits += 1;
            self.pad(&rrows, &rmatched, false, out)?;
        }
        self.pad(&lrows, &lmatched, true, out)
    }

    /// Fills the pair list: for each left row in order, the right rows
    /// with an equal key in insertion order. Keys containing NULL match
    /// nothing, and neither do keys of two kinds (`UInt(5) ≠ Int(5)`,
    /// as the model's `Value` equality has it). The right side's keys
    /// are read first, as the model evaluates them.
    fn probe(&mut self, lrows: &ColumnBatch, rrows: &ColumnBatch) -> ExecResult<()> {
        self.pairs_l.clear();
        self.pairs_r.clear();
        self.pool.clear();
        let (lk, rk) = (&mut self.lkeys, &mut self.rkeys);
        read_words(
            &self.right.key_evals,
            rrows,
            &mut self.kscratch,
            &mut self.pool,
            rk,
        )?;
        read_words(
            &self.left.key_evals,
            lrows,
            &mut self.kscratch,
            &mut self.pool,
            lk,
        )?;
        let (lk, rk) = (&self.lkeys, &self.rkeys);
        let kinds_differ = (lk.kinds.iter().zip(&rk.kinds)).any(|(l, r)| match (l, r) {
            (Some(l), Some(r)) => l != r,
            _ => false,
        });
        if kinds_differ {
            return Ok(());
        }
        let width = self.left.key_evals.len();
        let null = |k: &KeyWords, r: usize| k.masks.get(r).is_some_and(|&m| m != 0);
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
            if !null(rk, ri) {
                let s = slot(rk.hashes[ri]);
                self.next[ri] = self.heads[s];
                self.heads[s] = ri as u32;
            }
        }
        for (li, &h) in lk.hashes.iter().enumerate() {
            if null(lk, li) {
                continue;
            }
            let mut ri = self.heads[slot(h)];
            while ri != NIL {
                let r = ri as usize;
                if rk.hashes[r] == h
                    && lk.words[li * width..][..width] == rk.words[r * width..][..width]
                {
                    self.pairs_l.push(li as u32);
                    self.pairs_r.push(ri);
                }
                ri = self.next[r];
            }
        }
        Ok(())
    }

    /// Residual and projections over the pair list, `max_batch` pairs
    /// at a time, each range gathered into one batch of the
    /// concatenated schema.
    fn emit_pairs(
        &mut self,
        lrows: &ColumnBatch,
        rrows: &ColumnBatch,
        lmatched: &mut [bool],
        rmatched: &mut [bool],
        out: &mut Out,
    ) -> ExecResult<()> {
        let max = out.max;
        for (pl, pr) in self.pairs_l.chunks(max).zip(self.pairs_r.chunks(max)) {
            let mut l = ColumnBatch::new(lrows.arity());
            l.append_gather(lrows, pl);
            let mut r = ColumnBatch::new(rrows.arity());
            r.append_gather(rrows, pr);
            let columns = (0..l.arity())
                .map(|i| l.take_column(i))
                .chain((0..r.arity()).map(|i| r.take_column(i)))
                .collect();
            let mut joined = ColumnBatch::from_columns_with_rows(columns, pl.len());
            self.sel.fill_identity(joined.rows());
            if let Some(f) = &self.residual {
                f.apply(&joined, &mut self.sel, &mut self.kscratch)?;
                joined.compact(&self.sel);
            }
            out.push(self.projection.project(&mut joined, &mut self.kscratch)?);
            for &p in self.sel.as_slice() {
                lmatched[pl[p as usize] as usize] = true;
                rmatched[pr[p as usize] as usize] = true;
            }
        }
        Ok(())
    }

    /// NULL-pads a retiring epoch's unmatched rows (an empty `matched`
    /// means none was) when the join type keeps that side: `left_side`
    /// rows sit beside all-NULL lanes for the right side and vice versa,
    /// and the batch runs through the projection, `max_batch` rows at a
    /// time.
    fn pad(
        &mut self,
        rows: &ColumnBatch,
        matched: &[bool],
        left_side: bool,
        out: &mut Out,
    ) -> ExecResult<()> {
        let keeps = match self.join_type {
            JoinType::FullOuter => true,
            JoinType::LeftOuter => left_side,
            JoinType::RightOuter => !left_side,
            JoinType::Inner => false,
        };
        if !keeps {
            return Ok(());
        }
        let unmatched: Vec<u32> = (0..rows.rows() as u32)
            .filter(|&r| !matched.get(r as usize).is_some_and(|&m| m))
            .collect();
        if unmatched.is_empty() {
            return Ok(());
        }
        for unmatched in unmatched.chunks(out.max) {
            let n = unmatched.len();
            let mut kept = ColumnBatch::new(rows.arity());
            kept.append_gather(rows, unmatched);
            let kept = (0..kept.arity())
                .map(|i| kept.take_column(i))
                .collect::<Vec<_>>();
            let nulls = |arity: usize| (0..arity).map(|_| Column::all_null(n)).collect::<Vec<_>>();
            let columns = match left_side {
                true => [kept, nulls(self.right.arity)].concat(),
                false => [nulls(self.left.arity), kept].concat(),
            };
            let mut padded = ColumnBatch::from_columns_with_rows(columns, n);
            out.push(self.projection.project(&mut padded, &mut self.kscratch)?);
        }
        self.kernel_hits += 1;
        Ok(())
    }
}

impl Operator for JoinOp {
    fn push_columns(
        &mut self,
        port: usize,
        batch: &mut ColumnBatch,
        out: &mut Out,
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

    fn finish(&mut self, out: &mut Out) -> ExecResult<()> {
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
            kernel_lane_hits: self.kscratch.lane_hits(),
            ..OpRuntimeStats::default()
        }
    }
}
