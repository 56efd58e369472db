//! Selection/projection (σ/π).

use qap_expr::{BoundExpr, KernelScratch, NumKernel, PredicateKernel};
use qap_types::{Column, ColumnBatch, SelectionVector, Tuple};

use crate::ExecResult;

use super::{OpRuntimeStats, Operator};

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
/// **Row path.** When every projection is a bare column reference (the
/// common case in the paper's HFTA queries, which push arithmetic into
/// the LFTA tier), the projection loop takes a scratch-reusing fast
/// path: [`Tuple::project_into`] fills one recycled scratch tuple,
/// which is then swapped with the drained input tuple — so the output
/// row reuses the previous input row's backing allocation. The general
/// path evaluates into the same scratch and swaps likewise, so neither
/// projection shape allocates per surviving tuple.
///
/// **Columnar path.** The predicate compiles once into a
/// [`PredicateKernel`] that refines a [`SelectionVector`]
/// column-at-a-time; the batch compacts onto the surviving rows, and
/// projection is a column pointer shuffle (bare columns) or a
/// [`NumKernel`] evaluation — zero per-tuple work. Anything outside the
/// kernel domain (at compile time or via a runtime bailout) falls back
/// to the per-tuple interpreter with identical semantics.
pub(crate) struct SelectOp {
    predicate: Option<BoundExpr>,
    projections: Vec<BoundExpr>,
    /// `Some(positions)` when all projections are `BoundExpr::Column`.
    column_positions: Option<Vec<usize>>,
    /// Recycled scratch row (output projection on the row path, input
    /// materialization on columnar fallbacks).
    scratch: Tuple,
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
        let column_positions = projections
            .iter()
            .map(|e| match e {
                BoundExpr::Column(i) => Some(*i),
                _ => None,
            })
            .collect::<Option<Vec<usize>>>();
        let kernel = predicate.as_ref().and_then(PredicateKernel::compile);
        let col_plan = ColPlan::compile(&projections);
        SelectOp {
            predicate,
            projections,
            column_positions,
            scratch: Tuple::default(),
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
        // scratch tuple and evaluate exactly as the row path would. The
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
    fn push_batch(
        &mut self,
        _port: usize,
        batch: &mut Vec<Tuple>,
        out: &mut Vec<Tuple>,
    ) -> ExecResult<()> {
        for mut tuple in batch.drain(..) {
            if let Some(p) = &self.predicate {
                if !p.eval_predicate(&tuple)? {
                    continue;
                }
            }
            if let Some(positions) = &self.column_positions {
                // Fast path: project into the recycled scratch row,
                // then swap it with the spent input row. The pushed
                // output carries the projected values; `scratch`
                // inherits the input's allocation for the next tuple.
                tuple.project_into(positions, &mut self.scratch);
                std::mem::swap(&mut tuple, &mut self.scratch);
                out.push(tuple);
            } else {
                // General path: same scratch-swap discipline — evaluate
                // into the recycled scratch, swap with the spent input
                // row, push. No per-tuple allocation here either.
                self.scratch.clear();
                for e in &self.projections {
                    self.scratch.push(e.eval(&tuple)?);
                }
                std::mem::swap(&mut tuple, &mut self.scratch);
                out.push(tuple);
            }
        }
        Ok(())
    }

    fn finish(
        &mut self,
        _rows_out: &mut Vec<Tuple>,
        _cols_out: &mut ColumnBatch,
    ) -> ExecResult<()> {
        Ok(())
    }

    fn push_columns(
        &mut self,
        _port: usize,
        batch: &mut ColumnBatch,
        rows_out: &mut Vec<Tuple>,
        cols_out: &mut ColumnBatch,
    ) -> ExecResult<()> {
        let n = batch.rows();
        if n == 0 {
            batch.clear();
            return Ok(());
        }
        // Dictionary-encode string lanes first: a string predicate then
        // costs one interpreter compare per *distinct* value plus an
        // integer code scan, and downstream operators (aggregation,
        // shipping) inherit the encoded lane.
        batch.dict_encode_strings();
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
            if let Some((out, ran_kernel)) = plan.project(batch, &mut self.kscratch) {
                if ran_kernel {
                    self.kernel_hits += 1;
                }
                *cols_out = out;
                batch.clear();
                return Ok(());
            }
        }
        // Whole-batch row fallback for the projection: the filter has
        // already been applied, so only survivors materialize.
        self.kernel_fallbacks += 1;
        rows_out.reserve(batch.rows());
        for i in 0..batch.rows() {
            batch.write_row_into(i, &mut self.scratch);
            let mut t = Tuple::with_capacity(self.projections.len());
            for e in &self.projections {
                t.push(e.eval(&self.scratch)?);
            }
            rows_out.push(t);
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
