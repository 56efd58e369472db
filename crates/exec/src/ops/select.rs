//! Selection/projection (σ/π).

use qap_expr::{BoundExpr, KernelScratch, NumKernel, PredicateKernel};
use qap_types::{Column, ColumnBatch, SelectionVector, Tuple};

use crate::ExecResult;

use super::{emit_row, project_row, OpRuntimeStats, Operator};

/// One projection's columnar evaluation strategy, classified once at
/// construction.
enum ColProj {
    /// Bare column reference: the output column is the input column —
    /// a pointer move (or a clone when the position repeats).
    Col {
        pos: usize,
        /// Whether this is the projection's last use of `pos`, so the
        /// column can be *taken* out of the (about-to-be-cleared) input
        /// batch instead of cloned.
        take: bool,
    },
    /// Compiled numeric kernel evaluating column-at-a-time.
    Kernel(NumKernel),
}

/// A projection list every entry of which evaluates column-at-a-time:
/// bare columns move, everything else runs a [`NumKernel`]. Shared by
/// selection and the join's output projection.
pub(crate) struct ColPlan(Vec<ColProj>);

impl ColPlan {
    /// Compiles the projections, or `None` when one of them is neither
    /// a bare column nor inside the numeric kernel domain.
    pub(crate) fn compile(projections: &[BoundExpr]) -> Option<ColPlan> {
        let mut plan = projections
            .iter()
            .map(|e| match e {
                BoundExpr::Column(i) => Some(ColProj::Col {
                    pos: *i,
                    take: false,
                }),
                e => NumKernel::compile(e).map(ColProj::Kernel),
            })
            .collect::<Option<Vec<ColProj>>>()?;
        // Mark the last use of each bare-column position: that use may
        // move the column out of the input batch; earlier uses clone.
        // Kernels evaluate before any take, so they always see intact
        // input columns.
        let mut seen: Vec<usize> = Vec::new();
        for p in plan.iter_mut().rev() {
            if let ColProj::Col { pos, take } = p {
                if !seen.contains(pos) {
                    seen.push(*pos);
                    *take = true;
                }
            }
        }
        Some(ColPlan(plan))
    }

    /// Projects `batch`, moving its columns out: `Some((out, ran))`
    /// with `ran` telling whether a kernel executed, or `None` — with
    /// `batch` untouched — when a kernel bails out at run time.
    pub(crate) fn project(
        &self,
        batch: &mut ColumnBatch,
        kscratch: &mut KernelScratch,
    ) -> Option<(ColumnBatch, bool)> {
        let mut outputs: Vec<Option<Column>> = Vec::with_capacity(self.0.len());
        for p in &self.0 {
            outputs.push(match p {
                ColProj::Col { .. } => None,
                ColProj::Kernel(k) => Some(k.eval_column(batch, kscratch)?),
            });
        }
        let ran_kernel = outputs.iter().any(Option::is_some);
        let rows = batch.rows();
        let columns = self
            .0
            .iter()
            .zip(outputs)
            .map(|(p, out)| match (p, out) {
                (_, Some(c)) => c,
                (ColProj::Col { pos, take: true }, None) => batch.take_column(*pos),
                (ColProj::Col { pos, take: false }, None) => batch.column(*pos).clone(),
                (ColProj::Kernel(_), None) => unreachable!("kernel output populated"),
            })
            .collect();
        Some((
            ColumnBatch::from_columns_with_rows(columns, rows),
            ran_kernel,
        ))
    }
}

/// Stateless filter + projection.
///
/// The predicate compiles once into a
/// [`PredicateKernel`] that refines a [`SelectionVector`]
/// column-at-a-time; the batch compacts onto the surviving rows, and
/// projection is a column pointer shuffle (bare columns) or a
/// [`NumKernel`] evaluation — zero per-tuple work. Anything outside the
/// kernel domain (at compile time or via a runtime bailout) falls back
/// to the per-tuple interpreter with identical semantics, and its rows
/// still leave as lanes.
pub(crate) struct SelectOp {
    predicate: Option<BoundExpr>,
    projections: Vec<BoundExpr>,
    /// Reused input row for columnar fallbacks.
    scratch: Tuple,
    /// Reused projected row.
    out_row: Tuple,
    /// Compiled predicate kernel (None: no predicate, or outside the
    /// kernel domain — the interpreter handles it).
    kernel: Option<PredicateKernel>,
    /// `Some(plan)` when every projection is columnar-evaluable (bare
    /// column or compiled numeric kernel).
    col_plan: Option<ColPlan>,
    /// Reused selection vector for the columnar filter.
    sel: SelectionVector,
    /// Recycled surviving-row indices for the interpreter predicate
    /// fallback, so a kernel bailout does not reallocate two index
    /// buffers per batch.
    fallback_keep: Vec<u32>,
    /// Reused kernel register file.
    kscratch: KernelScratch,
    kernel_hits: u64,
    kernel_fallbacks: u64,
}

impl SelectOp {
    pub(crate) fn new(predicate: Option<BoundExpr>, projections: Vec<BoundExpr>) -> Self {
        let kernel = predicate.as_ref().and_then(PredicateKernel::compile);
        let col_plan = ColPlan::compile(&projections);
        SelectOp {
            predicate,
            projections,
            scratch: Tuple::default(),
            out_row: Tuple::default(),
            kernel,
            col_plan,
            sel: SelectionVector::new(),
            fallback_keep: Vec::new(),
            kscratch: KernelScratch::new(),
            kernel_hits: 0,
            kernel_fallbacks: 0,
        }
    }

    /// Refines `self.sel` to the rows of `batch` the predicate keeps:
    /// the compiled kernel when it applies, the per-tuple interpreter
    /// otherwise — bit-identical outcomes either way.
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
        // Interpreter fallback: materialize each selected row into the
        // scratch tuple and evaluate it one tuple at a time. The
        // candidate list swaps into the recycled `fallback_keep` buffer
        // rather than deallocating on every bailed batch.
        self.kernel_fallbacks += 1;
        std::mem::swap(self.sel.raw_mut(), &mut self.fallback_keep);
        self.sel.clear();
        for &i in &self.fallback_keep {
            batch.write_row_into(i as usize, &mut self.scratch);
            if p.eval_predicate(&self.scratch)? {
                self.sel.push(i);
            }
        }
        Ok(())
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
        self.sel.fill_identity(n);
        self.filter_columns(batch)?;
        if self.sel.is_empty() {
            batch.clear();
            return Ok(());
        }
        batch.compact(&self.sel);
        // π, columnar: kernels evaluate first (they read input
        // columns), then bare columns move or clone into place.
        if let Some(plan) = &self.col_plan {
            if let Some((projected, ran_kernel)) = plan.project(batch, &mut self.kscratch) {
                if ran_kernel {
                    self.kernel_hits += 1;
                }
                *out = projected;
                batch.clear();
                return Ok(());
            }
        }
        // Whole-batch row fallback for the projection: the filter has
        // already been applied, so only survivors materialize, and each
        // projected row lands in the output lanes.
        self.kernel_fallbacks += 1;
        for i in 0..batch.rows() {
            batch.write_row_into(i, &mut self.scratch);
            project_row(&self.projections, &self.scratch, &mut self.out_row)?;
            emit_row(out, &self.out_row);
        }
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
