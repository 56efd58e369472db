//! Selection/projection (σ/π).

use qap_expr::{BoundExpr, Filter, KernelScratch, Projection};
use qap_types::{ColumnBatch, SelectionVector};

use crate::ExecResult;

use super::{OpRuntimeStats, Operator, Out};

/// Stateless filter + projection over lanes.
///
/// The predicate refines a [`SelectionVector`] and the batch compacts
/// onto the surviving rows; the projection then moves bare columns and
/// evaluates the rest. Both go through `qap-expr`'s column evaluator
/// ([`Filter`], [`Projection`]), which answers every batch in lanes.
pub(crate) struct SelectOp {
    filter: Option<Filter>,
    projection: Projection,
    /// Reused selection vector for the filter.
    sel: SelectionVector,
    /// The evaluator's lane tallies.
    kscratch: KernelScratch,
    kernel_hits: u64,
}

impl SelectOp {
    pub(crate) fn new(predicate: Option<BoundExpr>, projections: Vec<BoundExpr>) -> Self {
        SelectOp {
            filter: predicate.map(Filter::new),
            projection: Projection::new(projections),
            sel: SelectionVector::new(),
            kscratch: KernelScratch::new(),
            kernel_hits: 0,
        }
    }
}

impl Operator for SelectOp {
    fn push_columns(
        &mut self,
        _port: usize,
        batch: &mut ColumnBatch,
        out: &mut Out,
    ) -> ExecResult<()> {
        let n = batch.rows();
        if n == 0 {
            batch.clear();
            return Ok(());
        }
        // σ: refine the selection, then compact the batch onto it.
        if let Some(f) = &self.filter {
            self.sel.fill_identity(n);
            f.apply(batch, &mut self.sel, &mut self.kscratch)?;
            self.kernel_hits += 1;
            if self.sel.is_empty() {
                batch.clear();
                return Ok(());
            }
            batch.compact(&self.sel);
        }
        // π: computed columns first (they read the input), then bare
        // columns move or clone into place.
        out.push(self.projection.project(batch, &mut self.kscratch)?);
        self.kernel_hits += u64::from(self.projection.computes());
        batch.clear();
        Ok(())
    }

    fn runtime_stats(&self) -> OpRuntimeStats {
        OpRuntimeStats {
            kernel_hits: self.kernel_hits,
            kernel_lane_hits: self.kscratch.lane_hits(),
            ..OpRuntimeStats::default()
        }
    }
}
