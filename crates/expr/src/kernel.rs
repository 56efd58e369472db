//! The column evaluator: any [`BoundExpr`] over a [`ColumnBatch`], one
//! node at a time over a selection of the batch's rows.
//!
//! The row interpreter walks the expression tree and matches on
//! [`Value`] enums for every tuple; at batch sizes in the hundreds that
//! walk — not the operator logic around it — dominates per-tuple CPU,
//! which is exactly the resource the paper says binds a query-aware
//! deployment (Section 4.2.1). Here each node runs once per batch: it
//! gives a lane aligned to the selection plus a NULL mask, and picks its
//! loop once from its operands' lanes, whose kinds the plan fixes:
//!
//! - `uint ∘ uint` arithmetic runs checked over the two lanes, with the
//!   interpreter's own word arithmetic; `-` gives an `int`, as it does
//!   in the interpreter;
//! - a comparison of two numeric operands runs over `i128`, which
//!   equates and orders every `uint`/`int` pair as the interpreter does;
//! - every other operation runs element-wise through the interpreter's
//!   own `eval_binary` / `eval_unary` on the two values: exact by
//!   construction.
//!
//! Every computed lane is the one [`Column::push`] builds from the
//! interpreter's values: the same kind and NULL mask, and no lane when
//! every row is NULL.
//!
//! **Errors.** A row on which an operation errs becomes NULL, and the
//! run keeps the first error in the interpreter's order: the lowest row,
//! and on one row the error met first, since the run visits operands in
//! the interpreter's order and a later error on the same row never
//! displaces an earlier one. AND and OR evaluate their right side on
//! exactly the rows the interpreter does — where the left side is true
//! or NULL (AND), false or NULL (OR) — so an error the interpreter
//! short-circuits past never surfaces, and one it meets always does.
//! Across a [`Projection`] the first error is row-major: the one the
//! interpreter meets first, evaluating the list row by row.
//!
//! A [`Filter`] on `column op literal` — `destPort = 80` — refines its
//! selection in place; a numeric lane compares in fixed-width chunks
//! (`SIMD_WIDTH`) with a branchless compress step, so the compare loop
//! autovectorizes and the emit is straight-line stores.
//! [`KernelScratch`] tallies each evaluation under the kinds of the
//! lanes it reads, for the observability layer.

use qap_types::{Column, ColumnBatch, ColumnData, DataType, SelectionVector, Value};

use crate::bound::{eval_arith, eval_binary, eval_unary, logic, word_arith};
use crate::{BinOp, BoundExpr, ExprError, ExprResult};

/// Chunk width of the vectorizable filter loops. 32 × u64 spans four
/// AVX2 / two AVX-512 cache lines — wide enough that the compare loop
/// autovectorizes, small enough that the keep-flags array stays in
/// registers.
const SIMD_WIDTH: usize = 32;

/// The kind of a lane an evaluation read, for per-lane observability
/// (`qap_op_kernel_lane_hits` labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum LaneKind {
    /// Unsigned 64-bit lane.
    Uint = 0,
    /// Signed 64-bit lane.
    Int = 1,
    /// Boolean lane.
    Bool = 2,
    /// Interned-string lane.
    Str = 3,
}

/// Number of [`LaneKind`] variants (length of the per-lane tallies).
pub const LANE_KINDS: usize = 4;

impl LaneKind {
    /// Every lane kind, in tally-index order.
    pub const ALL: [LaneKind; LANE_KINDS] =
        [LaneKind::Uint, LaneKind::Int, LaneKind::Bool, LaneKind::Str];

    /// The lane kind holding values of `kind`.
    pub fn of(kind: DataType) -> LaneKind {
        match kind {
            DataType::UInt => LaneKind::Uint,
            DataType::Int => LaneKind::Int,
            DataType::Bool => LaneKind::Bool,
            DataType::Str => LaneKind::Str,
        }
    }

    /// Stable label for metric export.
    pub fn label(self) -> &'static str {
        match self {
            LaneKind::Uint => "uint",
            LaneKind::Int => "int",
            LaneKind::Bool => "bool",
            LaneKind::Str => "str",
        }
    }
}

/// Per-lane-kind tallies of evaluations. One scratch serves any number
/// of filters and projections.
#[derive(Default)]
pub struct KernelScratch {
    lane_hits: [u64; LANE_KINDS],
}

impl KernelScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        KernelScratch::default()
    }

    /// Cumulative evaluations over a non-empty selection per lane kind
    /// read (an evaluation reading both a `uint` and a `str` lane
    /// counts once under each).
    pub fn lane_hits(&self) -> [u64; LANE_KINDS] {
        self.lane_hits
    }

    /// Credits one evaluation over `batch` to the kinds of the lanes at
    /// `cols`, each kind once.
    fn credit(&mut self, batch: &ColumnBatch, cols: &[usize]) {
        let mut read = [false; LANE_KINDS];
        for &i in cols {
            if let Some(kind) = batch.column(i).data_type() {
                read[LaneKind::of(kind) as usize] = true;
            }
        }
        for (hits, read) in self.lane_hits.iter_mut().zip(read) {
            *hits += u64::from(read);
        }
    }
}

/// The batch positions `e` reads, in the order it reads them.
fn columns(e: &BoundExpr, out: &mut Vec<usize>) {
    match e {
        BoundExpr::Column(i) => out.push(*i),
        BoundExpr::Literal(_) => {}
        BoundExpr::Binary { lhs, rhs, .. } => {
            columns(lhs, out);
            columns(rhs, out);
        }
        BoundExpr::Unary { expr, .. } => columns(expr, out),
    }
}

/// The rows a node runs on: every row of the batch, or some of them
/// (strictly increasing).
#[derive(Clone, Copy)]
enum Sel<'s> {
    All(usize),
    Rows(&'s [u32]),
}

impl Sel<'_> {
    fn len(self) -> usize {
        match self {
            Sel::All(n) => n,
            Sel::Rows(rows) => rows.len(),
        }
    }

    /// The batch row at selection position `k`.
    fn row(self, k: usize) -> u32 {
        match self {
            Sel::All(_) => k as u32,
            Sel::Rows(rows) => rows[k],
        }
    }
}

/// A node's value on each selected row, aligned to the selection.
enum Lane<'a> {
    /// A batch column, under a selection of every row.
    Col(&'a Column),
    /// A literal, on every row.
    Const(&'a Value),
    /// A computed or gathered column, one row per selected row.
    Own(Column),
}

/// An operand's numbers: a lane or one constant.
#[derive(Clone, Copy)]
enum Words<'a, T> {
    Lane(&'a [T]),
    Const(T),
}

impl<T: Copy> Words<'_, T> {
    #[inline]
    fn at(self, k: usize) -> T {
        match self {
            Words::Lane(lane) => lane[k],
            Words::Const(c) => c,
        }
    }
}

/// A numeric operand, read as `i128`.
#[derive(Clone, Copy)]
enum Num<'a> {
    U(Words<'a, u64>),
    I(Words<'a, i64>),
}

impl Num<'_> {
    #[inline]
    fn at(self, k: usize) -> i128 {
        match self {
            Num::U(w) => i128::from(w.at(k)),
            Num::I(w) => i128::from(w.at(k)),
        }
    }
}

impl Lane<'_> {
    fn column(&self) -> Option<&Column> {
        match self {
            Lane::Col(c) => Some(c),
            Lane::Own(c) => Some(c),
            Lane::Const(_) => None,
        }
    }

    fn value(&self, k: usize) -> Value {
        match self {
            Lane::Const(v) => (*v).clone(),
            lane => lane.column().expect("a column lane").value(k),
        }
    }

    fn nulls(&self) -> &[bool] {
        self.column().map_or(&[], Column::null_mask)
    }

    fn uints(&self) -> Option<Words<'_, u64>> {
        match self {
            Lane::Const(Value::UInt(x)) => Some(Words::Const(*x)),
            lane => lane.column()?.uints().map(Words::Lane),
        }
    }

    fn ints(&self) -> Option<Words<'_, i64>> {
        match self {
            Lane::Const(Value::Int(x)) => Some(Words::Const(*x)),
            lane => lane.column()?.ints().map(Words::Lane),
        }
    }

    fn nums(&self) -> Option<Num<'_>> {
        self.uints().map(Num::U).or_else(|| self.ints().map(Num::I))
    }

    /// The lane as an output column of `n` rows.
    fn into_column(self, n: usize) -> Column {
        match self {
            Lane::Col(c) => c.clone(),
            Lane::Own(c) => c,
            Lane::Const(v) => {
                let mut c = Column::new();
                (0..n).for_each(|_| c.push(v));
                c
            }
        }
    }
}

fn is_cmp(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
    )
}

/// Whether `a op b` holds, for a comparison `op`.
#[inline(always)]
fn holds<T: Ord>(op: BinOp, a: T, b: T) -> bool {
    match op {
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        BinOp::Lt => a < b,
        BinOp::Le => a <= b,
        BinOp::Gt => a > b,
        BinOp::Ge => a >= b,
        _ => unreachable!("not a comparison: {op:?}"),
    }
}

/// The comparison with its operands swapped: `k op x` ⇔ `x mirror(op) k`.
fn mirror(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        op => op,
    }
}

/// A computed lane of `n` rows as [`Column::push`] builds it: no mask
/// without a NULL, and no lane when every row is NULL.
fn finish(n: usize, lane: ColumnData, mut nulls: Vec<bool>) -> Column {
    if n == 0 {
        return Column::new();
    }
    if !nulls.contains(&true) {
        nulls.clear();
    } else if !nulls.contains(&false) {
        return Column::all_null(n);
    }
    Column::from_parts(lane, nulls)
}

/// The union of two aligned NULL masks (empty: no NULL).
fn union(a: &[bool], b: &[bool]) -> Vec<bool> {
    match (a.is_empty(), b.is_empty()) {
        (true, _) => b.to_vec(),
        (_, true) => a.to_vec(),
        _ => a.iter().zip(b).map(|(x, y)| x | y).collect(),
    }
}

/// One evaluation over a batch: the first error it met, in the
/// interpreter's order.
struct Run<'a> {
    batch: &'a ColumnBatch,
    first: Option<(u32, ExprError)>,
}

impl<'a> Run<'a> {
    fn new(batch: &'a ColumnBatch) -> Self {
        Run { batch, first: None }
    }

    /// Records an error on batch row `row`, unless one on an earlier row
    /// — or earlier on the same row — is held.
    fn fail(&mut self, row: u32, e: ExprError) {
        if self.first.as_ref().is_none_or(|(r, _)| row < *r) {
            self.first = Some((row, e));
        }
    }

    fn result(self) -> ExprResult<()> {
        self.first.map_or(Ok(()), |(_, e)| Err(e))
    }

    fn lane(&mut self, e: &'a BoundExpr, sel: Sel<'_>) -> Lane<'a> {
        match e {
            BoundExpr::Column(i) => {
                let c = self.batch.column(*i);
                match sel {
                    Sel::All(_) => Lane::Col(c),
                    Sel::Rows(rows) => Lane::Own(c.gather(rows)),
                }
            }
            BoundExpr::Literal(v) => Lane::Const(v),
            BoundExpr::Binary { op, lhs, rhs } if matches!(op, BinOp::And | BinOp::Or) => {
                Lane::Own(self.logical(*op, lhs, rhs, sel))
            }
            BoundExpr::Binary { op, lhs, rhs } => {
                let (l, r) = (self.lane(lhs, sel), self.lane(rhs, sel));
                Lane::Own(self.binary(*op, &l, &r, sel))
            }
            BoundExpr::Unary { op, expr } => {
                let v = self.lane(expr, sel);
                Lane::Own(self.each(sel, |k| eval_unary(*op, &v.value(k))))
            }
        }
    }

    /// AND / OR: the right side runs on the rows where the left side
    /// does not decide the result — where it is not false (AND), not
    /// true (OR).
    fn logical(
        &mut self,
        op: BinOp,
        lhs: &'a BoundExpr,
        rhs: &'a BoundExpr,
        sel: Sel<'_>,
    ) -> Column {
        let l = self.lane(lhs, sel);
        let decided = Some(op == BinOp::Or);
        let lb: Vec<Option<bool>> = (0..sel.len()).map(|k| l.value(k).as_bool()).collect();
        let rest: Vec<u32> = (0..sel.len())
            .filter(|&k| lb[k] != decided)
            .map(|k| sel.row(k))
            .collect();
        let r = match rest.len() == sel.len() {
            true => self.lane(rhs, sel),
            false => self.lane(rhs, Sel::Rows(&rest)),
        };
        let mut j = 0;
        self.each(sel, |k| {
            if lb[k] == decided {
                return Ok(Value::Bool(op == BinOp::Or));
            }
            j += 1;
            Ok(logic(op, lb[k], r.value(j - 1).as_bool()))
        })
    }

    fn binary(&mut self, op: BinOp, l: &Lane<'_>, r: &Lane<'_>, sel: Sel<'_>) -> Column {
        let n = sel.len();
        if is_cmp(op) {
            if let (Some(a), Some(b)) = (l.nums(), r.nums()) {
                let lane = (0..n).map(|k| holds(op, a.at(k), b.at(k))).collect();
                return finish(n, ColumnData::Bool(lane), union(l.nulls(), r.nulls()));
            }
        } else if let (Some(a), Some(b)) = (l.uints(), r.uints()) {
            let mut nulls = union(l.nulls(), r.nulls());
            let lane = match op {
                BinOp::Sub => ColumnData::Int(self.words(a, b, &mut nulls, sel, |x, y| {
                    match eval_arith(op, &Value::UInt(x), &Value::UInt(y))? {
                        Value::Int(v) => Ok(v),
                        v => unreachable!("uint - uint gave {v:?}"),
                    }
                })),
                _ => {
                    ColumnData::UInt(self.words(a, b, &mut nulls, sel, |x, y| word_arith(op, x, y)))
                }
            };
            return finish(n, lane, nulls);
        }
        self.each(sel, |k| eval_binary(op, &l.value(k), &r.value(k)))
    }

    /// The `uint ∘ uint` loop: `f` on each row neither operand is NULL
    /// on; a row it errs on joins `nulls`.
    fn words<T: Copy + Default>(
        &mut self,
        a: Words<'_, u64>,
        b: Words<'_, u64>,
        nulls: &mut Vec<bool>,
        sel: Sel<'_>,
        f: impl Fn(u64, u64) -> ExprResult<T>,
    ) -> Vec<T> {
        let n = sel.len();
        let mut out = Vec::with_capacity(n);
        for k in 0..n {
            if nulls.get(k).is_some_and(|&null| null) {
                out.push(T::default());
                continue;
            }
            match f(a.at(k), b.at(k)) {
                Ok(v) => out.push(v),
                Err(e) => {
                    self.fail(sel.row(k), e);
                    nulls.resize(n, false);
                    nulls[k] = true;
                    out.push(T::default());
                }
            }
        }
        out
    }

    /// The element-wise arm: `f` on each selected row, pushed as a
    /// value; a row it errs on is NULL.
    fn each(&mut self, sel: Sel<'_>, mut f: impl FnMut(usize) -> ExprResult<Value>) -> Column {
        let mut out = Column::new();
        for k in 0..sel.len() {
            match f(k) {
                Ok(v) => out.push(&v),
                Err(e) => {
                    self.fail(sel.row(k), e);
                    out.push(&Value::Null);
                }
            }
        }
        out
    }
}

/// A predicate over lanes.
pub struct Filter {
    expr: BoundExpr,
    /// The positions it reads, for the lane tallies.
    cols: Vec<usize>,
}

impl Filter {
    /// A filter keeping the rows where `expr` is true.
    pub fn new(expr: BoundExpr) -> Filter {
        let mut cols = Vec::new();
        columns(&expr, &mut cols);
        Filter { expr, cols }
    }

    /// Refines `sel` to the rows of `batch` the predicate keeps (NULL
    /// keeps none). On an error `sel` holds no meaningful rows.
    pub fn apply(
        &self,
        batch: &ColumnBatch,
        sel: &mut SelectionVector,
        scratch: &mut KernelScratch,
    ) -> ExprResult<()> {
        let rows = sel.raw_mut();
        if rows.is_empty() {
            return Ok(());
        }
        scratch.credit(batch, &self.cols);
        if refine(&self.expr, batch, rows) {
            return Ok(());
        }
        let mut run = Run::new(batch);
        let keep = match rows.len() == batch.rows() {
            // Strictly increasing, so equal length is every row.
            true => run.lane(&self.expr, Sel::All(rows.len())),
            false => run.lane(&self.expr, Sel::Rows(rows)),
        };
        let mut k = 0;
        rows.retain(|_| {
            k += 1;
            keep.value(k - 1).as_bool() == Some(true)
        });
        run.result()
    }
}

/// `column op literal`, refining `rows` in place; `false` for any other
/// predicate. A comparison never errs, and keeps no NULL row.
fn refine(e: &BoundExpr, batch: &ColumnBatch, rows: &mut Vec<u32>) -> bool {
    let BoundExpr::Binary { op, lhs, rhs } = e else {
        return false;
    };
    let (i, k, swapped) = match (lhs.as_ref(), rhs.as_ref()) {
        (BoundExpr::Column(i), BoundExpr::Literal(k)) => (*i, k, false),
        (BoundExpr::Literal(k), BoundExpr::Column(i)) => (*i, k, true),
        _ => return false,
    };
    if !is_cmp(*op) {
        return false;
    }
    let c = batch.column(i);
    let (mask, cmp) = (c.null_mask(), if swapped { mirror(*op) } else { *op });
    let num = match k {
        Value::UInt(x) => Some(i128::from(*x)),
        Value::Int(x) => Some(i128::from(*x)),
        _ => None,
    };
    match (c.data(), k, num) {
        (Some(ColumnData::UInt(lane)), Value::UInt(k), _) => filter_u64(rows, lane, mask, cmp, *k),
        (Some(ColumnData::UInt(lane)), _, Some(k)) => {
            filter_lane_with(rows, lane, mask, |x| holds(cmp, i128::from(x), k))
        }
        (Some(ColumnData::Int(lane)), _, Some(k)) => {
            filter_lane_with(rows, lane, mask, |x| holds(cmp, i128::from(x), k))
        }
        _ => rows.retain(|&r| {
            let v = c.value(r as usize);
            let (l, r) = if swapped { (k, &v) } else { (&v, k) };
            matches!(eval_binary(*op, l, r), Ok(Value::Bool(true)))
        }),
    }
    true
}

/// Core of every numeric column filter: refine `cur` to the rows where
/// `f` holds on the lane element and the row is not NULL. The dense
/// case (identity selection, no NULL mask) runs in `SIMD_WIDTH` chunks —
/// the compare loop autovectorizes, the compress step is branchless;
/// sparse selections use a branchless gather loop.
#[inline(always)]
fn filter_lane_with<T: Copy, F: Fn(T) -> bool>(
    cur: &mut Vec<u32>,
    lane: &[T],
    mask: &[bool],
    f: F,
) {
    let mut w = 0usize;
    if mask.is_empty() && cur.len() == lane.len() {
        // The selection is strictly increasing, so equal length means
        // identity: scan the lane directly.
        let mut keeps = [false; SIMD_WIDTH];
        let mut base = 0usize;
        for chunk in lane.chunks_exact(SIMD_WIDTH) {
            for (j, &x) in chunk.iter().enumerate() {
                keeps[j] = f(x);
            }
            for (j, &keep) in keeps.iter().enumerate() {
                cur[w] = (base + j) as u32;
                w += usize::from(keep);
            }
            base += SIMD_WIDTH;
        }
        for (j, &x) in lane[base..].iter().enumerate() {
            cur[w] = (base + j) as u32;
            w += usize::from(f(x));
        }
    } else if mask.is_empty() {
        for r in 0..cur.len() {
            let keep = f(lane[cur[r] as usize]);
            cur[w] = cur[r];
            w += usize::from(keep);
        }
    } else {
        for r in 0..cur.len() {
            let i = cur[r] as usize;
            let keep = !mask[i] && f(lane[i]);
            cur[w] = cur[r];
            w += usize::from(keep);
        }
    }
    cur.truncate(w);
}

/// An unsigned lane against an unsigned literal: one monomorphic loop
/// per comparison, so each vectorizes.
fn filter_u64(cur: &mut Vec<u32>, lane: &[u64], mask: &[bool], op: BinOp, k: u64) {
    match op {
        BinOp::Eq => filter_lane_with(cur, lane, mask, move |x| x == k),
        BinOp::Ne => filter_lane_with(cur, lane, mask, move |x| x != k),
        BinOp::Lt => filter_lane_with(cur, lane, mask, move |x| x < k),
        BinOp::Le => filter_lane_with(cur, lane, mask, move |x| x <= k),
        BinOp::Gt => filter_lane_with(cur, lane, mask, move |x| x > k),
        BinOp::Ge => filter_lane_with(cur, lane, mask, move |x| x >= k),
        _ => unreachable!("not a comparison: {op:?}"),
    }
}

/// A projection list over lanes.
pub struct Projection {
    exprs: Vec<BoundExpr>,
    plan: Vec<Proj>,
}

/// How one projection evaluates, classified once.
enum Proj {
    /// A bare column: the output is the input column, moved on its last
    /// use in the list and cloned before.
    Col { pos: usize, take: bool },
    /// Computed, reading the positions held (for the lane tallies).
    Eval(Vec<usize>),
}

impl Projection {
    /// Classifies each expression: a bare column, or computed.
    pub fn new(exprs: Vec<BoundExpr>) -> Projection {
        let mut plan: Vec<Proj> = exprs
            .iter()
            .map(|e| match e {
                BoundExpr::Column(i) => Proj::Col {
                    pos: *i,
                    take: false,
                },
                e => {
                    let mut cols = Vec::new();
                    columns(e, &mut cols);
                    Proj::Eval(cols)
                }
            })
            .collect();
        // The last use of each position may move the column out of the
        // input; earlier uses clone it. Everything that reads the input
        // runs before the first move.
        let mut seen: Vec<usize> = Vec::new();
        for p in plan.iter_mut().rev() {
            if let Proj::Col { pos, take } = p {
                if !seen.contains(pos) {
                    seen.push(*pos);
                    *take = true;
                }
            }
        }
        Projection { exprs, plan }
    }

    /// The projected expressions.
    pub fn exprs(&self) -> &[BoundExpr] {
        &self.exprs
    }

    /// Whether some expression computes (is not a bare column).
    pub fn computes(&self) -> bool {
        self.plan.iter().any(|p| matches!(p, Proj::Eval(_)))
    }

    /// Projects `batch` into a new batch, moving the input's columns out
    /// (the caller clears it). On an error `batch` is untouched.
    pub fn project(
        &self,
        batch: &mut ColumnBatch,
        scratch: &mut KernelScratch,
    ) -> ExprResult<ColumnBatch> {
        let mut cols = self.compute(batch, scratch)?;
        let rows = batch.rows();
        for (c, p) in cols.iter_mut().zip(&self.plan) {
            if let Proj::Col { pos, take } = *p {
                *c = match take {
                    true => batch.take_column(pos),
                    false => batch.column(pos).clone(),
                };
            }
        }
        Ok(ColumnBatch::from_columns_with_rows(cols, rows))
    }

    /// Evaluates the list over `batch` into one column per expression,
    /// cloning bare columns.
    pub fn columns(
        &self,
        batch: &ColumnBatch,
        scratch: &mut KernelScratch,
    ) -> ExprResult<Vec<Column>> {
        let mut cols = self.compute(batch, scratch)?;
        for (c, p) in cols.iter_mut().zip(&self.plan) {
            if let Proj::Col { pos, .. } = *p {
                *c = batch.column(pos).clone();
            }
        }
        Ok(cols)
    }

    /// Every output but the bare columns (left empty), in list order
    /// under one run, so its first error is row-major.
    fn compute(&self, batch: &ColumnBatch, scratch: &mut KernelScratch) -> ExprResult<Vec<Column>> {
        let n = batch.rows();
        let mut run = Run::new(batch);
        let out = (self.plan.iter().zip(&self.exprs))
            .map(|(p, e)| match p {
                Proj::Eval(cols) if n > 0 => {
                    scratch.credit(batch, cols);
                    run.lane(e, Sel::All(n)).into_column(n)
                }
                // Bare columns come later; an empty batch may carry no
                // lanes at all.
                _ => Column::new(),
            })
            .collect();
        run.result().map(|()| out)
    }
}

#[cfg(test)]
mod tests;
