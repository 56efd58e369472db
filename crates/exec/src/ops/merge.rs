//! Watermark-aligned stream union (∪).
//!
//! The ∪ has one release rule: every row of a bucket at or below the
//! *threshold* — the least, over its ports, of the last bucket each
//! port has delivered — leaves at once; rows above it wait. That is
//! safe because each port is bucket-ordered: once every port has
//! reached bucket `b`, no row of a bucket below `b` can arrive, so a
//! row of `b` or below that leaves now is never overtaken by a row that
//! should precede it. The output is therefore the stable sort of the
//! arrival sequence by bucket, whatever the batch boundaries, and a
//! downstream window sees bucket `b + 1` only after the last row of `b`.

use std::collections::BTreeMap;

use qap_types::ColumnBatch;

use crate::ExecResult;

use super::{for_each_bucket_run, Operator, Out};

/// Merge of K same-schema inputs, aligned on the schema's temporal
/// attribute so the downstream window discipline holds: inputs progress
/// independently, and without the alignment a super-aggregate would
/// close windows early and silently drop partials.
pub(crate) struct MergeOp {
    /// Index of the temporal attribute in the (shared) input schema.
    temporal_idx: usize,
    /// Per input port: last observed bucket.
    last: Vec<Option<i128>>,
    /// Held rows per bucket, in arrival order, as the batches they
    /// arrived in: moved in whole, or — for a batch spanning buckets —
    /// one copied range per bucket. Each leaves as it is.
    held: BTreeMap<i128, Vec<ColumnBatch>>,
}

impl MergeOp {
    pub(crate) fn new(ports: usize, temporal_idx: usize) -> Self {
        MergeOp {
            temporal_idx,
            last: vec![None; ports],
            held: BTreeMap::new(),
        }
    }

    fn observe(&mut self, port: usize, b: i128) {
        self.last[port] = Some(self.last[port].map_or(b, |l| l.max(b)));
    }

    /// The least bucket every port has reached: no row below it can
    /// arrive any more. `None` while some port has produced nothing (it
    /// may still emit any bucket).
    fn threshold(&self) -> Option<i128> {
        self.last
            .iter()
            .try_fold(i128::MAX, |min, l| l.map(|b| min.min(b)))
    }
}

impl Operator for MergeOp {
    fn push_columns(
        &mut self,
        port: usize,
        batch: &mut ColumnBatch,
        out: &mut Out,
    ) -> ExecResult<()> {
        if batch.rows() == 0 {
            return Ok(());
        }
        let rows_in: &ColumnBatch = batch;
        let mut whole = None;
        for_each_bucket_run(rows_in.column(self.temporal_idx), |run, b| {
            self.observe(port, b);
            if run.len() == rows_in.rows() {
                whole = Some(b);
            } else {
                let mut part = ColumnBatch::new(rows_in.arity());
                part.append_range(rows_in, run);
                self.held.entry(b).or_default().push(part);
            }
            Ok(())
        })?;
        match whole {
            Some(b) => self.held.entry(b).or_default().push(batch.take()),
            None => batch.clear(),
        }
        if let Some(threshold) = self.threshold() {
            // Split off the buckets above the threshold; what remains
            // is complete up to the threshold's own bucket.
            let above = self.held.split_off(&(threshold + 1));
            for rows in std::mem::replace(&mut self.held, above).into_values() {
                rows.into_iter().for_each(|b| out.push(b));
            }
        }
        Ok(())
    }

    fn finish(&mut self, out: &mut Out) -> ExecResult<()> {
        for rows in std::mem::take(&mut self.held).into_values() {
            rows.into_iter().for_each(|b| out.push(b));
        }
        Ok(())
    }
}
