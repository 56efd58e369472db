//! Watermark-aligned stream union (∪).

use std::collections::BTreeMap;

use qap_types::ColumnBatch;

use crate::ExecResult;

use super::{append_batch, for_each_bucket_run, Operator};

/// Merge of K same-schema inputs, aligned on the schema's temporal
/// attribute so the downstream window discipline holds.
///
/// Each input is individually bucket-ordered (it comes from a tumbling
/// operator or an ordered scan), but inputs progress independently — a
/// partition replica flushes window `b` only when *its* data reaches
/// `b+1`. Releasing a tuple of bucket `b` is safe once every input has
/// moved beyond `b`; everything else buffers until the laggard advances
/// or the stream finishes. Without this alignment a super-aggregate
/// would close windows early and silently drop partials.
pub(crate) struct MergeOp {
    /// Index of the temporal attribute in the (shared) input schema.
    temporal_idx: usize,
    /// Per input port: last observed bucket.
    last: Vec<Option<i128>>,
    /// Buffered rows grouped by bucket, as lanes (insertion order
    /// preserved within a bucket).
    buffer: BTreeMap<i128, ColumnBatch>,
}

impl MergeOp {
    pub(crate) fn new(ports: usize, temporal_idx: usize) -> Self {
        MergeOp {
            temporal_idx,
            last: vec![None; ports],
            buffer: BTreeMap::new(),
        }
    }

    fn observe(&mut self, port: usize, b: i128) {
        self.last[port] = Some(self.last[port].map_or(b, |l| l.max(b)));
    }

    /// Buckets strictly below every port's current bucket are complete.
    fn threshold(&self) -> Option<i128> {
        let mut min = i128::MAX;
        for l in &self.last {
            match l {
                // A port that has produced nothing yet blocks release:
                // it may still emit any bucket.
                None => return None,
                Some(b) => min = min.min(*b),
            }
        }
        Some(min)
    }

    /// Takes the complete buckets out of the buffer, in bucket order.
    fn release(&mut self) -> impl Iterator<Item = ColumnBatch> {
        let ready = match self.threshold() {
            // Split off the still-buffered tail (buckets >= threshold);
            // what remains is complete.
            Some(threshold) => {
                let keep = self.buffer.split_off(&threshold);
                std::mem::replace(&mut self.buffer, keep)
            }
            None => BTreeMap::new(),
        };
        ready.into_values()
    }
}

impl Operator for MergeOp {
    fn push_columns(
        &mut self,
        port: usize,
        batch: &mut ColumnBatch,
        out: &mut ColumnBatch,
    ) -> ExecResult<()> {
        if batch.rows() == 0 {
            return Ok(());
        }
        let rows_in: &ColumnBatch = batch;
        let mut whole = None;
        for_each_bucket_run(rows_in.column(self.temporal_idx), |run, b| {
            self.observe(port, b);
            if run.len() == rows_in.rows() && !self.buffer.contains_key(&b) {
                // The whole batch opens its bucket: move it in below.
                whole = Some(b);
            } else {
                self.buffer
                    .entry(b)
                    .or_insert_with(|| ColumnBatch::new(rows_in.arity()))
                    .append_range(rows_in, run);
            }
            Ok(())
        })?;
        match whole {
            Some(b) => {
                self.buffer.insert(b, batch.take());
            }
            None => batch.clear(),
        }
        // Whole buckets leave as they are: the first moves into the
        // output, later ones append to it.
        for rows in self.release() {
            append_batch(out, rows);
        }
        Ok(())
    }

    fn finish(&mut self, out: &mut ColumnBatch) -> ExecResult<()> {
        for rows in std::mem::take(&mut self.buffer).into_values() {
            append_batch(out, rows);
        }
        Ok(())
    }
}
