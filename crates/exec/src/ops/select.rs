//! Selection/projection (σ/π).

use qap_expr::{BoundExpr, Filter, KernelScratch, Projection, Ran};
use qap_types::{ColumnBatch, SelectionVector};

use crate::ExecResult;

use super::{OpRuntimeStats, Operator};

/// Stateless filter + projection over lanes.
///
/// The predicate refines a [`SelectionVector`] and the batch compacts
/// onto the surviving rows; the projection then moves bare columns and
/// evaluates the rest. Both go through `qap-expr`'s total lane API
/// ([`Filter`], [`Projection`]): compiled kernels when they apply, the
/// row-at-a-time interpreter when they do not, lanes either way.
pub(crate) struct SelectOp {
    filter: Option<Filter>,
    projection: Projection,
    /// Reused selection vector for the filter.
    sel: SelectionVector,
    /// Reused kernel register file.
    kscratch: KernelScratch,
    kernel_hits: u64,
    kernel_fallbacks: u64,
}

impl SelectOp {
    pub(crate) fn new(predicate: Option<BoundExpr>, projections: Vec<BoundExpr>) -> Self {
        SelectOp {
            filter: predicate.map(Filter::new),
            projection: Projection::new(projections),
            sel: SelectionVector::new(),
            kscratch: KernelScratch::new(),
            kernel_hits: 0,
            kernel_fallbacks: 0,
        }
    }

    fn tally(&mut self, ran: Ran) {
        match ran {
            Ran::Moved => {}
            Ran::Kernel => self.kernel_hits += 1,
            Ran::Rows => self.kernel_fallbacks += 1,
        }
    }
}

impl Operator for SelectOp {
    fn push_columns(
        &mut self,
        _port: usize,
        batch: &mut ColumnBatch,
        out: &mut ColumnBatch,
    ) -> ExecResult<()> {
        let n = batch.rows();
        if n == 0 {
            batch.clear();
            return Ok(());
        }
        // σ: refine the selection, then compact the batch onto it.
        if let Some(f) = &self.filter {
            self.sel.fill_identity(n);
            let ran = f.apply(batch, &mut self.sel, &mut self.kscratch)?;
            self.tally(ran);
            if self.sel.is_empty() {
                batch.clear();
                return Ok(());
            }
            batch.compact(&self.sel);
        }
        // π: computed columns first (they read the input), then bare
        // columns move or clone into place.
        let (projected, ran) = self.projection.project(batch, &mut self.kscratch)?;
        self.tally(ran);
        *out = projected;
        batch.clear();
        Ok(())
    }

    fn runtime_stats(&self) -> OpRuntimeStats {
        OpRuntimeStats {
            kernel_hits: self.kernel_hits,
            kernel_fallbacks: self.kernel_fallbacks,
            kernel_lane_hits: self.kscratch.lane_hits(),
            kernel_lane_fallbacks: self.kscratch.lane_fallbacks(),
            ..OpRuntimeStats::default()
        }
    }
}
