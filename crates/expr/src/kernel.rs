//! Vectorized expression kernels over [`ColumnBatch`]es.
//!
//! The row engine walks the [`BoundExpr`] tree and matches on [`Value`]
//! enums for every tuple; at batch sizes in the hundreds that tree walk
//! — not the operator logic around it — dominates per-tuple CPU, which
//! is exactly the resource the paper says binds a query-aware-
//! partitioned deployment (Section 4.2.1). A kernel compiles the tree
//! **once** into a flat program that evaluates column-at-a-time:
//!
//! - [`PredicateKernel`] refines a [`SelectionVector`] — a filter never
//!   copies data, it shrinks the set of surviving row indices. `AND` is
//!   evaluated as successive refinement (the right conjunct only ever
//!   sees the left conjunct's survivors — the columnar analogue of
//!   short-circuit evaluation), `OR` as a union of branch survivors
//!   where each branch only sees the rows every earlier branch
//!   rejected (so an erroring right branch is reached exactly when the
//!   row engine would reach it).
//! - [`NumKernel`] evaluates a numeric projection expression into a
//!   typed output column, one operation per *column* rather than one
//!   tree walk per row.
//!
//! # Typed lanes
//!
//! The **register** machine (gather → arithmetic → compare) works in
//! the unsigned domain — the native type of every packet-header field.
//! Signed lanes whose selected values are all non-negative reinterpret
//! into it bit-exactly (`as_u64` applies the same coercion); anything
//! else bails out of the register path. Each register also carries the
//! kind the interpreter gives its value: signed once an operand is a
//! signed lane or literal, or the operation is `-`, and a signed value
//! past `i64::MAX` bails (the interpreter's overflow).
//!
//! The **fused filters** ([`Instr::FilterColConst`],
//! [`Instr::FilterColTruthy`]) are lane-typed: unsigned and signed
//! lanes compare numerically (`u64` resp. `i128`, exactly the
//! `values_eq`/`total_cmp` result for numeric operand pairs), boolean
//! lanes go through a two-entry truth table, and string lanes
//! row-at-a-time through the interpreter's own `eval_binary`. Every
//! table entry and constant-fold is computed *by* the interpreter, so
//! the fused path is exact by construction.
//! Constants of a kind whose comparison against the lane is
//! value-independent (a negative literal against an unsigned lane, a
//! string against a numeric lane — `total_cmp` orders by kind rank)
//! fold to keep-all/drop-all.
//!
//! Inner loops are written as fixed-width chunks (`SIMD_WIDTH`) with a
//! branchless compress step so the autovectorizer can turn the compare
//! into SIMD lanes and the emit into straight-line stores.
//!
//! Compilation returns `None` for shapes outside the domain (`NULL` or
//! boolean literals, arithmetic that would always error, non-comparison
//! `NOT`), and execution **bails out losslessly** (returning
//! `false`/`None` with the selection untouched) when a batch's runtime
//! lane types or an overflow/division error fall outside the compiled
//! domain. Kernels are not called directly by the engine: the total
//! lane API ([`crate::Filter`], [`crate::Projection`]) runs them and,
//! on a `None` or a bail, the crate's one row-at-a-time evaluator,
//! which reproduces tuple-at-a-time semantics — including *which* row
//! errors first — bit-for-bit. A kernel therefore never changes
//! results; it only makes the common case cheap. [`KernelScratch`]
//! tallies hits and bailouts per [`LaneKind`] for the observability
//! layer.

use qap_types::{Column, ColumnBatch, ColumnData, SelectionVector, Value};

use crate::bound::eval_binary;
use crate::{BinOp, BoundExpr, UnOp};

/// Chunk width of the vectorizable filter loops. 32 × u64 spans four
/// AVX2 / two AVX-512 cache lines — wide enough that the compare loop
/// autovectorizes, small enough that the keep-flags array stays in
/// registers.
const SIMD_WIDTH: usize = 32;

/// Runtime lane type a kernel touched, for per-lane observability
/// (`qap_op_kernel_*` metric labels) and bailout attribution.
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
    /// No single lane. Nothing tallies it, since every γ and ⋈ key
    /// reads as words; it keeps the exported label set stable.
    Mixed = 4,
}

/// Number of [`LaneKind`] variants (length of the per-lane tallies).
pub const LANE_KINDS: usize = 5;

impl LaneKind {
    /// Every lane kind, in tally-index order.
    pub const ALL: [LaneKind; LANE_KINDS] = [
        LaneKind::Uint,
        LaneKind::Int,
        LaneKind::Bool,
        LaneKind::Str,
        LaneKind::Mixed,
    ];

    /// Stable label for metric export.
    pub fn label(self) -> &'static str {
        match self {
            LaneKind::Uint => "uint",
            LaneKind::Int => "int",
            LaneKind::Bool => "bool",
            LaneKind::Str => "str",
            LaneKind::Mixed => "mixed",
        }
    }

    fn bit(self) -> u8 {
        1 << self as u8
    }
}

/// Comparison operator of a filter instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    fn from_bin(op: BinOp) -> Option<CmpOp> {
        Some(match op {
            BinOp::Eq => CmpOp::Eq,
            BinOp::Ne => CmpOp::Ne,
            BinOp::Lt => CmpOp::Lt,
            BinOp::Le => CmpOp::Le,
            BinOp::Gt => CmpOp::Gt,
            BinOp::Ge => CmpOp::Ge,
            _ => return None,
        })
    }

    /// The [`BinOp`] this comparison came from — used to hand single
    /// comparisons back to the interpreter when precomputing truth
    /// tables and per-row fallbacks.
    fn to_bin(self) -> BinOp {
        match self {
            CmpOp::Eq => BinOp::Eq,
            CmpOp::Ne => BinOp::Ne,
            CmpOp::Lt => BinOp::Lt,
            CmpOp::Le => BinOp::Le,
            CmpOp::Gt => BinOp::Gt,
            CmpOp::Ge => BinOp::Ge,
        }
    }

    /// Logical negation (exact under two-valued comparison results;
    /// NULL operands are dropped by both the original and the negation,
    /// matching `NOT NULL = NULL` → predicate-false).
    fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// Mirror for swapped operands: `lit OP col` ⇔ `col mirror(OP) lit`.
    fn mirror(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    #[inline]
    fn apply(self, a: u64, b: u64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// Arithmetic operator of an [`Instr::Arith`] instruction, evaluated in
/// the unsigned domain with the exact error behaviour of
/// `BoundExpr::eval` (an operation the row evaluator would reject —
/// overflow, borrow, division by zero — aborts the kernel instead of
/// producing a value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
}

impl ArithOp {
    fn from_bin(op: BinOp) -> Option<ArithOp> {
        Some(match op {
            BinOp::Add => ArithOp::Add,
            BinOp::Sub => ArithOp::Sub,
            BinOp::Mul => ArithOp::Mul,
            BinOp::Div => ArithOp::Div,
            BinOp::Mod => ArithOp::Mod,
            BinOp::BitAnd => ArithOp::BitAnd,
            BinOp::BitOr => ArithOp::BitOr,
            BinOp::BitXor => ArithOp::BitXor,
            BinOp::Shl => ArithOp::Shl,
            BinOp::Shr => ArithOp::Shr,
            _ => return None,
        })
    }

    /// One element, mirroring `arith_u64` exactly. `None` means the row
    /// evaluator would not produce an unsigned value here (error or
    /// signed borrow) — the kernel must bail out and let the
    /// interpreter reproduce the exact behaviour.
    #[inline]
    fn apply(self, a: u64, b: u64) -> Option<u64> {
        match self {
            ArithOp::Add => a.checked_add(b),
            ArithOp::Sub => a.checked_sub(b),
            ArithOp::Mul => a.checked_mul(b),
            ArithOp::Div => a.checked_div(b),
            ArithOp::Mod => a.checked_rem(b),
            ArithOp::BitAnd => Some(a & b),
            ArithOp::BitOr => Some(a | b),
            ArithOp::BitXor => Some(a ^ b),
            ArithOp::Shl => Some(
                a.checked_shl(b.min(u64::from(u32::MAX)) as u32)
                    .unwrap_or(0),
            ),
            ArithOp::Shr => Some(
                a.checked_shr(b.min(u64::from(u32::MAX)) as u32)
                    .unwrap_or(0),
            ),
        }
    }
}

/// One instruction of the flat kernel program.
///
/// Numeric instructions write dense registers aligned to the selection
/// current at execution time; a register is always consumed by an
/// instruction compiled before the next selection-refining `Filter`, so
/// registers never outlive the selection they were gathered under.
#[derive(Debug, Clone)]
enum Instr {
    /// Gather the selected rows of a column into a register. Requires
    /// an unsigned-representable lane at runtime (bail out otherwise).
    LoadCol { col: u32, dst: u8 },
    /// Broadcast a constant into a register; `signed` when the literal
    /// is an `Int`.
    LoadConst { idx: u16, dst: u8, signed: bool },
    /// Element-wise unsigned arithmetic: `dst = a OP b`.
    Arith { op: ArithOp, a: u8, b: u8, dst: u8 },
    /// Element-wise bitwise complement: `dst = !a`.
    BitNot { a: u8, dst: u8 },
    /// Refine the current selection to rows where `a OP b` holds and
    /// neither operand is NULL.
    Filter { op: CmpOp, a: u8, b: u8 },
    /// Fused column-vs-constant filter — the `destPort = 80` /
    /// `protocol = 'tcp'` hot path: no gather, no register, one
    /// lane-typed pass. `idx` indexes the typed comparison pool.
    FilterColConst { col: u32, op: CmpOp, idx: u16 },
    /// Fused bare-column predicate: GSQL's C convention — keep rows
    /// whose value is truthy (`as_bool().unwrap_or(false)`).
    FilterColTruthy { col: u32 },
    /// Begin an OR: remember the incoming selection and start an empty
    /// survivor accumulator.
    OrStart,
    /// End of one OR branch: bank its survivors, restart the next
    /// branch on the rows no earlier branch accepted.
    OrBranch,
    /// End of the OR: the selection becomes the union of all branch
    /// survivors.
    OrEnd,
}

/// A dense kernel register: either one scalar broadcast over the
/// selection or a gathered vector with an optional NULL mask.
#[derive(Debug, Default, Clone)]
enum Reg {
    #[default]
    Empty,
    Scalar(u64),
    Vector {
        vals: Vec<u64>,
        /// Aligned NULL flags; empty means no selected row is NULL.
        nulls: Vec<bool>,
    },
}

/// Reusable execution state for kernel runs: registers, the working
/// selection, the OR bookkeeping stack, and per-lane-type hit/bailout
/// tallies. One scratch serves any number of kernels; steady-state
/// execution allocates nothing.
#[derive(Default)]
pub struct KernelScratch {
    regs: Vec<Reg>,
    /// Per register: whether its value is an `Int` to the interpreter.
    signed: Vec<bool>,
    cur: Vec<u32>,
    /// `(pending, accepted)` per open OR: rows not yet accepted by any
    /// branch, and the union of branch survivors so far.
    or_stack: Vec<(Vec<u32>, Vec<u32>)>,
    /// Spare index buffers recycled across OR constructs.
    spare_idx: Vec<Vec<u32>>,
    /// Lane kinds touched by the current run (bitmask over [`LaneKind`]).
    touched: u8,
    /// Lane kind that caused the current run to bail, if any.
    bail: Option<LaneKind>,
    lane_hits: [u64; LANE_KINDS],
    lane_fallbacks: [u64; LANE_KINDS],
}

impl KernelScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        KernelScratch::default()
    }

    /// Cumulative count of successful kernel runs per lane kind touched
    /// (one batch touching both a `uint` and a `str` lane counts once
    /// under each).
    pub fn lane_hits(&self) -> [u64; LANE_KINDS] {
        self.lane_hits
    }

    /// Cumulative count of kernel bailouts per lane kind, attributed to
    /// the lane that fell outside the compiled domain (arithmetic
    /// overflow/borrow bails attribute to the unsigned domain).
    pub fn lane_fallbacks(&self) -> [u64; LANE_KINDS] {
        self.lane_fallbacks
    }

    /// Sizes the register file for a kernel of `n` registers.
    fn reserve_regs(&mut self, n: u8) {
        if self.regs.len() < usize::from(n) {
            self.regs.resize(usize::from(n), Reg::Empty);
            self.signed.resize(usize::from(n), false);
        }
    }

    fn take_idx(&mut self) -> Vec<u32> {
        self.spare_idx.pop().unwrap_or_default()
    }

    fn recycle_idx(&mut self, mut v: Vec<u32>) {
        v.clear();
        self.spare_idx.push(v);
    }

    fn settle(&mut self, ok: bool) {
        if ok {
            let mut t = self.touched;
            while t != 0 {
                self.lane_hits[t.trailing_zeros() as usize] += 1;
                t &= t - 1;
            }
        } else if let Some(k) = self.bail {
            self.lane_fallbacks[k as usize] += 1;
        }
        self.touched = 0;
        self.bail = None;
    }
}

/// Shared compile state: emitted program, constant pools, register
/// high-water mark. Register-machine constants live in the unsigned
/// pool (`consts`); fused comparisons keep their literal as a typed
/// [`Value`] (`cmp_consts`) so lane dispatch happens at run time.
struct Compiler {
    instrs: Vec<Instr>,
    consts: Vec<u64>,
    cmp_consts: Vec<Value>,
    nregs: u8,
}

impl Compiler {
    fn new() -> Self {
        Compiler {
            instrs: Vec::new(),
            consts: Vec::new(),
            cmp_consts: Vec::new(),
            nregs: 0,
        }
    }

    fn const_idx(&mut self, c: u64) -> Option<u16> {
        if let Some(i) = self.consts.iter().position(|&x| x == c) {
            return Some(i as u16);
        }
        if self.consts.len() >= usize::from(u16::MAX) {
            return None;
        }
        self.consts.push(c);
        Some((self.consts.len() - 1) as u16)
    }

    fn cmp_const_idx(&mut self, v: Value) -> Option<u16> {
        // Structural dedup is sound: structurally equal values dispatch
        // identically at run time.
        if let Some(i) = self.cmp_consts.iter().position(|x| *x == v) {
            return Some(i as u16);
        }
        if self.cmp_consts.len() >= usize::from(u16::MAX) {
            return None;
        }
        self.cmp_consts.push(v);
        Some((self.cmp_consts.len() - 1) as u16)
    }

    /// Compiles a numeric (unsigned-domain) expression, returning the
    /// register holding its result. `base` is the first free register;
    /// registers are allocated as a stack so sibling subtrees reuse
    /// slots once consumed.
    fn num(&mut self, e: &BoundExpr, base: u8) -> Option<u8> {
        if base == u8::MAX {
            return None;
        }
        match e {
            BoundExpr::Column(i) => {
                let col = u32::try_from(*i).ok()?;
                self.instrs.push(Instr::LoadCol { col, dst: base });
                self.reserve(base);
                Some(base)
            }
            BoundExpr::Literal(v) => {
                let idx = self.const_idx(literal_u64(v)?)?;
                let signed = matches!(v, Value::Int(_));
                self.instrs.push(Instr::LoadConst {
                    idx,
                    dst: base,
                    signed,
                });
                self.reserve(base);
                Some(base)
            }
            BoundExpr::Binary { op, lhs, rhs } => {
                let op = ArithOp::from_bin(*op)?;
                // Division/modulo by a constant zero errors on every
                // row; leave it to the interpreter.
                if matches!(op, ArithOp::Div | ArithOp::Mod) {
                    if let BoundExpr::Literal(v) = rhs.as_ref() {
                        if literal_u64(v)? == 0 {
                            return None;
                        }
                    }
                }
                let a = self.num(lhs, base)?;
                let b = self.num(rhs, base + 1)?;
                self.instrs.push(Instr::Arith {
                    op,
                    a,
                    b,
                    dst: base,
                });
                Some(base)
            }
            BoundExpr::Unary {
                op: UnOp::BitNot,
                expr,
            } => {
                let a = self.num(expr, base)?;
                self.instrs.push(Instr::BitNot { a, dst: base });
                Some(base)
            }
            _ => None,
        }
    }

    fn reserve(&mut self, reg: u8) {
        self.nregs = self.nregs.max(reg + 1);
    }

    /// Compiles a predicate expression into selection-refining
    /// instructions.
    fn pred(&mut self, e: &BoundExpr) -> Option<()> {
        match e {
            BoundExpr::Binary {
                op: BinOp::And,
                lhs,
                rhs,
            } => {
                // AND = successive refinement: rhs only sees lhs
                // survivors, the columnar short-circuit.
                self.pred(lhs)?;
                self.pred(rhs)
            }
            BoundExpr::Binary {
                op: BinOp::Or,
                lhs,
                rhs,
            } => {
                self.instrs.push(Instr::OrStart);
                self.pred(lhs)?;
                self.instrs.push(Instr::OrBranch);
                self.pred(rhs)?;
                self.instrs.push(Instr::OrEnd);
                Some(())
            }
            BoundExpr::Binary { op, lhs, rhs } => {
                let op = CmpOp::from_bin(*op)?;
                self.cmp(op, lhs, rhs)
            }
            BoundExpr::Unary {
                op: UnOp::Not,
                expr,
            } => match expr.as_ref() {
                BoundExpr::Binary { op, lhs, rhs } => {
                    let op = CmpOp::from_bin(*op)?;
                    self.cmp(op.negate(), lhs, rhs)
                }
                _ => None,
            },
            // Bare column predicate: GSQL's C convention (non-zero is
            // true, NULL and non-numeric are false).
            BoundExpr::Column(i) => {
                let col = u32::try_from(*i).ok()?;
                self.instrs.push(Instr::FilterColTruthy { col });
                Some(())
            }
            _ => None,
        }
    }

    /// Compiles one comparison, fusing the column-vs-constant shape.
    fn cmp(&mut self, op: CmpOp, lhs: &BoundExpr, rhs: &BoundExpr) -> Option<()> {
        match (lhs, rhs) {
            (BoundExpr::Column(i), BoundExpr::Literal(v)) => {
                let col = u32::try_from(*i).ok()?;
                let idx = self.cmp_const_idx(cmp_literal(v)?)?;
                self.instrs.push(Instr::FilterColConst { col, op, idx });
                Some(())
            }
            (BoundExpr::Literal(v), BoundExpr::Column(i)) => {
                let col = u32::try_from(*i).ok()?;
                let idx = self.cmp_const_idx(cmp_literal(v)?)?;
                self.instrs.push(Instr::FilterColConst {
                    col,
                    op: op.mirror(),
                    idx,
                });
                Some(())
            }
            _ => {
                let a = self.num(lhs, 0)?;
                let b = self.num(rhs, 1)?;
                self.instrs.push(Instr::Filter { op, a, b });
                Some(())
            }
        }
    }
}

/// The unsigned-domain value of a literal, when comparing or computing
/// with it in `u64` reproduces the row evaluator exactly: `UInt`
/// directly, non-negative `Int` via the same coercion `as_u64` applies
/// (`values_eq` and `cmp_u_i` both compare it numerically).
fn literal_u64(v: &Value) -> Option<u64> {
    match v {
        Value::UInt(x) => Some(*x),
        Value::Int(x) if *x >= 0 => Some(*x as u64),
        _ => None,
    }
}

/// A literal the fused column-vs-constant filter covers. `UInt`, `Int`
/// (any sign) and `Str` dispatch per lane kind at run time. `NULL`
/// literals (comparison is NULL → row dropped regardless of the lane)
/// and boolean literals (equality coerces them numerically while
/// ordering ranks them by kind — a mix kept out of the fused path) are
/// left to the interpreter.
fn cmp_literal(v: &Value) -> Option<Value> {
    match v {
        Value::UInt(_) | Value::Int(_) | Value::Str(_) => Some(v.clone()),
        Value::Bool(_) | Value::Null => None,
    }
}

/// A compiled predicate: evaluates column-at-a-time into a
/// [`SelectionVector`]. Build once per operator with
/// [`PredicateKernel::compile`]; apply per batch with
/// [`PredicateKernel::filter`].
pub struct PredicateKernel {
    instrs: Vec<Instr>,
    consts: Vec<u64>,
    cmp_consts: Vec<Value>,
    nregs: u8,
}

impl PredicateKernel {
    /// Compiles a predicate, or `None` when the expression contains a
    /// shape the kernel domain does not cover (`NULL`/boolean literals,
    /// division by a constant zero, non-comparison `NOT`, …) — the
    /// row-at-a-time evaluator takes those.
    pub fn compile(e: &BoundExpr) -> Option<Self> {
        let mut c = Compiler::new();
        c.pred(e)?;
        Some(PredicateKernel {
            instrs: c.instrs,
            consts: c.consts,
            cmp_consts: c.cmp_consts,
            nregs: c.nregs,
        })
    }

    /// Refines `sel` to the rows of `batch` satisfying the predicate.
    ///
    /// Returns `true` on success. Returns `false` — with `sel`
    /// untouched — when the batch falls outside the compiled domain at
    /// runtime (a register-path lane is not unsigned-representable, or
    /// an arithmetic instruction hits a value the row evaluator would
    /// reject); the row-at-a-time evaluator then reproduces exact
    /// tuple-at-a-time semantics including error order.
    pub fn filter(
        &self,
        batch: &ColumnBatch,
        sel: &mut SelectionVector,
        scratch: &mut KernelScratch,
    ) -> bool {
        if sel.as_slice().is_empty() {
            // Nothing selected: the refinement is trivially the empty
            // set, and an empty batch may not even carry typed lanes.
            return true;
        }
        scratch.cur.clear();
        scratch.cur.extend_from_slice(sel.as_slice());
        scratch.or_stack.clear();
        scratch.reserve_regs(self.nregs);
        let ok = run_instrs(&self.instrs, &self.consts, &self.cmp_consts, batch, scratch);
        scratch.settle(ok);
        if !ok {
            return false;
        }
        debug_assert!(scratch.or_stack.is_empty());
        sel.set_from(&scratch.cur);
        true
    }
}

/// A compiled numeric projection: evaluates an unsigned-domain
/// expression over every row of a batch into one typed output column.
pub struct NumKernel {
    instrs: Vec<Instr>,
    consts: Vec<u64>,
    cmp_consts: Vec<Value>,
    nregs: u8,
    out: u8,
}

impl NumKernel {
    /// Compiles a numeric expression, or `None` when it falls outside
    /// the kernel domain. Bare column and non-`UInt` literal roots are
    /// rejected: the kernel's output lane is unsigned, and an identity
    /// root must preserve the input's kind (`Int 5` stays `Int 5`) —
    /// a projection moves a bare column instead.
    pub fn compile(e: &BoundExpr) -> Option<Self> {
        match e {
            BoundExpr::Column(_) => return None,
            BoundExpr::Literal(v) if !matches!(v, Value::UInt(_)) => return None,
            _ => {}
        }
        let mut c = Compiler::new();
        let out = c.num(e, 0)?;
        Some(NumKernel {
            instrs: c.instrs,
            consts: c.consts,
            cmp_consts: c.cmp_consts,
            nregs: c.nregs,
            out,
        })
    }

    /// Evaluates the expression over all rows of `batch`, producing the
    /// output column: an unsigned lane, a signed one when the
    /// interpreter's value is an `Int`, or none when every row is NULL
    /// (an untyped operand reads as unsigned). `None` means the batch falls
    /// outside the compiled domain (a bail to the row evaluator); NULL
    /// inputs yield NULL outputs exactly as the row evaluator's NULL
    /// propagation does.
    pub fn eval_column(&self, batch: &ColumnBatch, scratch: &mut KernelScratch) -> Option<Column> {
        if batch.rows() == 0 {
            return Some(Column::new());
        }
        scratch.cur.clear();
        scratch.cur.extend(0..batch.rows() as u32);
        scratch.or_stack.clear();
        scratch.reserve_regs(self.nregs);
        let ok = run_instrs(&self.instrs, &self.consts, &self.cmp_consts, batch, scratch);
        scratch.settle(ok);
        if !ok {
            return None;
        }
        let n = batch.rows();
        let (vals, nulls) = match std::mem::take(&mut scratch.regs[usize::from(self.out)]) {
            Reg::Scalar(c) => (vec![c; n], Vec::new()),
            Reg::Vector { vals, nulls } => (vals, nulls),
            Reg::Empty => unreachable!("kernel output register never written"),
        };
        debug_assert_eq!(vals.len(), n);
        if nulls.len() == n && !nulls.contains(&false) {
            // Only NULLs: no lane, whatever an untyped operand read as.
            return Some(Column::all_null(n));
        }
        let lane = match scratch.signed[usize::from(self.out)] {
            // Every non-NULL value is at most `i64::MAX` (`arith`).
            true => ColumnData::Int(vals.into_iter().map(|x| x as i64).collect()),
            false => ColumnData::UInt(vals),
        };
        Some(Column::from_parts(lane, nulls))
    }
}

/// Executes a kernel program over the scratch's working selection.
/// Returns `false` on a domain bailout (lane type or arithmetic); the
/// scratch is left in an unspecified-but-reusable state.
fn run_instrs(
    instrs: &[Instr],
    consts: &[u64],
    cmp_consts: &[Value],
    batch: &ColumnBatch,
    scratch: &mut KernelScratch,
) -> bool {
    for ins in instrs {
        match ins {
            Instr::LoadCol { col, dst } => {
                let c = batch.column(*col as usize);
                let mut reg = std::mem::take(&mut scratch.regs[usize::from(*dst)]);
                match load_column(c, &scratch.cur, &mut reg) {
                    Ok(kind) => {
                        if let Some(kind) = kind {
                            scratch.touched |= kind.bit();
                        }
                        scratch.regs[usize::from(*dst)] = reg;
                        scratch.signed[usize::from(*dst)] = kind == Some(LaneKind::Int);
                    }
                    Err(kind) => {
                        scratch.bail = Some(kind);
                        return false;
                    }
                }
            }
            Instr::LoadConst { idx, dst, signed } => {
                scratch.regs[usize::from(*dst)] = Reg::Scalar(consts[usize::from(*idx)]);
                scratch.signed[usize::from(*dst)] = *signed;
            }
            Instr::Arith { op, a, b, dst } => {
                let signed = scratch.signed[usize::from(*a)]
                    || scratch.signed[usize::from(*b)]
                    || *op == ArithOp::Sub;
                if !arith(scratch, *op, *a, *b, *dst)
                    || signed && !fits_i64(&scratch.regs[usize::from(*dst)])
                {
                    // Overflow/borrow/zero-division, or a signed result
                    // past `i64::MAX`: the arithmetic domain, not a
                    // typed lane.
                    scratch.bail = Some(LaneKind::Uint);
                    return false;
                }
                scratch.signed[usize::from(*dst)] = signed;
            }
            Instr::BitNot { a, dst } => {
                match std::mem::take(&mut scratch.regs[usize::from(*a)]) {
                    Reg::Scalar(x) => scratch.regs[usize::from(*dst)] = Reg::Scalar(!x),
                    Reg::Vector { mut vals, nulls } => {
                        for v in &mut vals {
                            *v = !*v;
                        }
                        scratch.regs[usize::from(*dst)] = Reg::Vector { vals, nulls };
                    }
                    Reg::Empty => unreachable!("BitNot on unwritten register"),
                }
                scratch.signed[usize::from(*dst)] = false;
            }
            Instr::Filter { op, a, b } => {
                let (ra, rb) = if a == b {
                    let r = std::mem::take(&mut scratch.regs[usize::from(*a)]);
                    (r.clone(), r)
                } else {
                    (
                        std::mem::take(&mut scratch.regs[usize::from(*a)]),
                        std::mem::take(&mut scratch.regs[usize::from(*b)]),
                    )
                };
                filter_regs(&mut scratch.cur, *op, &ra, &rb);
            }
            Instr::FilterColConst { col, op, idx } => {
                let c = batch.column(*col as usize);
                let k = &cmp_consts[usize::from(*idx)];
                if let Some(kind) = filter_col_const(&mut scratch.cur, c, *op, k) {
                    scratch.touched |= kind.bit();
                }
            }
            Instr::FilterColTruthy { col } => {
                let c = batch.column(*col as usize);
                if let Some(kind) = filter_col_truthy(&mut scratch.cur, c) {
                    scratch.touched |= kind.bit();
                }
            }
            Instr::OrStart => {
                let mut pending = scratch.take_idx();
                pending.extend_from_slice(&scratch.cur);
                let acc = scratch.take_idx();
                scratch.or_stack.push((pending, acc));
            }
            Instr::OrBranch => {
                let (pending, acc) = scratch
                    .or_stack
                    .last_mut()
                    .expect("OrBranch outside OrStart");
                // Bank this branch's survivors (disjoint from earlier
                // branches' by construction) and restart the next
                // branch on the still-rejected rows.
                merge_sorted(acc, &scratch.cur);
                let mut next = Vec::new();
                std::mem::swap(&mut next, pending);
                diff_sorted(&mut next, &scratch.cur);
                scratch.cur.clear();
                scratch.cur.extend_from_slice(&next);
                *pending = next;
            }
            Instr::OrEnd => {
                let (pending, mut acc) = scratch.or_stack.pop().expect("OrEnd outside OrStart");
                merge_sorted(&mut acc, &scratch.cur);
                scratch.cur.clear();
                scratch.cur.extend_from_slice(&acc);
                scratch.recycle_idx(pending);
                scratch.recycle_idx(acc);
            }
        }
    }
    true
}

/// One comparison handed back to the interpreter; `true` iff the row
/// survives (comparison results are `Bool` or `NULL`, and the
/// predicate convention drops `NULL`).
#[inline]
fn truth(op: CmpOp, l: &Value, k: &Value) -> bool {
    matches!(eval_binary(op.to_bin(), l, k), Ok(Value::Bool(true)))
}

/// Gathers the selected rows of a column into a register. Unsigned
/// lanes gather values (and NULL flags when present); signed lanes
/// whose selected non-NULL values are all non-negative reinterpret into
/// the unsigned domain bit-exactly (`as_u64` applies the same coercion
/// everywhere a register is consumed); a fully untyped column is
/// all-NULL. Anything else reports the offending lane kind.
fn load_column(c: &Column, cur: &[u32], reg: &mut Reg) -> Result<Option<LaneKind>, LaneKind> {
    let (mut vals, mut nulls) = match std::mem::take(reg) {
        Reg::Vector {
            mut vals,
            mut nulls,
        } => {
            vals.clear();
            nulls.clear();
            (vals, nulls)
        }
        _ => (Vec::new(), Vec::new()),
    };
    let kind = match c.data() {
        Some(ColumnData::UInt(lane)) => {
            vals.extend(cur.iter().map(|&i| lane[i as usize]));
            if c.has_nulls() {
                let mask = c.null_mask();
                nulls.extend(cur.iter().map(|&i| mask[i as usize]));
            }
            Some(LaneKind::Uint)
        }
        Some(ColumnData::Int(lane)) => {
            if c.has_nulls() {
                let mask = c.null_mask();
                for &i in cur {
                    let (x, null) = (lane[i as usize], mask[i as usize]);
                    if x < 0 && !null {
                        return Err(LaneKind::Int);
                    }
                    vals.push(x as u64);
                    nulls.push(null);
                }
            } else {
                for &i in cur {
                    let x = lane[i as usize];
                    if x < 0 {
                        return Err(LaneKind::Int);
                    }
                    vals.push(x as u64);
                }
            }
            Some(LaneKind::Int)
        }
        None => {
            // Untyped column: every row NULL.
            vals.resize(cur.len(), 0);
            nulls.resize(cur.len(), true);
            None
        }
        Some(ColumnData::Bool(_)) => return Err(LaneKind::Bool),
        Some(ColumnData::Str(_)) => return Err(LaneKind::Str),
    };
    *reg = Reg::Vector { vals, nulls };
    Ok(kind)
}

/// Element-wise arithmetic between two registers. Any element the row
/// evaluator would reject (overflow, borrow, division by zero on a
/// non-NULL row) bails the kernel out; NULL rows skip the computation
/// exactly as NULL propagation short-circuits `eval_binary`.
fn arith(scratch: &mut KernelScratch, op: ArithOp, a: u8, b: u8, dst: u8) -> bool {
    let ra = std::mem::take(&mut scratch.regs[usize::from(a)]);
    let rb = if a == b {
        ra.clone()
    } else {
        std::mem::take(&mut scratch.regs[usize::from(b)])
    };
    let out = match (ra, rb) {
        (Reg::Scalar(x), Reg::Scalar(y)) => match op.apply(x, y) {
            Some(v) => Reg::Scalar(v),
            None => return false,
        },
        (Reg::Vector { mut vals, nulls }, Reg::Scalar(y)) => {
            if nulls.is_empty() {
                for v in vals.iter_mut() {
                    match op.apply(*v, y) {
                        Some(r) => *v = r,
                        None => return false,
                    }
                }
            } else {
                for (v, n) in vals.iter_mut().zip(&nulls) {
                    if *n {
                        continue;
                    }
                    match op.apply(*v, y) {
                        Some(r) => *v = r,
                        None => return false,
                    }
                }
            }
            Reg::Vector { vals, nulls }
        }
        (Reg::Scalar(x), Reg::Vector { mut vals, nulls }) => {
            if nulls.is_empty() {
                for v in vals.iter_mut() {
                    match op.apply(x, *v) {
                        Some(r) => *v = r,
                        None => return false,
                    }
                }
            } else {
                for (v, n) in vals.iter_mut().zip(&nulls) {
                    if *n {
                        continue;
                    }
                    match op.apply(x, *v) {
                        Some(r) => *v = r,
                        None => return false,
                    }
                }
            }
            Reg::Vector { vals, nulls }
        }
        (
            Reg::Vector { mut vals, nulls },
            Reg::Vector {
                vals: bvals,
                nulls: bnulls,
            },
        ) => {
            let merged = merge_null_masks(&nulls, &bnulls, vals.len());
            match &merged {
                None => {
                    for (v, w) in vals.iter_mut().zip(&bvals) {
                        match op.apply(*v, *w) {
                            Some(r) => *v = r,
                            None => return false,
                        }
                    }
                }
                Some(mask) => {
                    for ((v, w), n) in vals.iter_mut().zip(&bvals).zip(mask) {
                        if *n {
                            continue;
                        }
                        match op.apply(*v, *w) {
                            Some(r) => *v = r,
                            None => return false,
                        }
                    }
                }
            }
            Reg::Vector {
                vals,
                nulls: merged.unwrap_or_default(),
            }
        }
        _ => unreachable!("arith on unwritten register"),
    };
    scratch.regs[usize::from(dst)] = out;
    true
}

/// Whether every non-NULL value of a register is at most `i64::MAX`:
/// what a signed result must be for the interpreter to hold it.
fn fits_i64(r: &Reg) -> bool {
    let fits = |x: u64| i64::try_from(x).is_ok();
    match r {
        Reg::Scalar(x) => fits(*x),
        Reg::Vector { vals, nulls } if nulls.is_empty() => vals.iter().all(|&x| fits(x)),
        Reg::Vector { vals, nulls } => vals.iter().zip(nulls).all(|(&x, &n)| n || fits(x)),
        Reg::Empty => unreachable!("a result register is written"),
    }
}

/// Union of two aligned NULL masks (`None` = no NULLs anywhere).
fn merge_null_masks(a: &[bool], b: &[bool], len: usize) -> Option<Vec<bool>> {
    match (a.is_empty(), b.is_empty()) {
        (true, true) => None,
        (false, true) => Some(a.to_vec()),
        (true, false) => Some(b.to_vec()),
        (false, false) => Some((0..len).map(|i| a[i] || b[i]).collect()),
    }
}

/// Refines the selection by an element-wise register comparison; NULL
/// operands drop the row (NULL comparison → NULL → predicate false).
fn filter_regs(cur: &mut Vec<u32>, op: CmpOp, a: &Reg, b: &Reg) {
    let mut w = 0;
    match (a, b) {
        (Reg::Scalar(x), Reg::Scalar(y)) => {
            if !op.apply(*x, *y) {
                cur.clear();
            }
            return;
        }
        (Reg::Vector { vals, nulls }, Reg::Scalar(y)) => {
            for k in 0..cur.len() {
                let null = nulls.get(k).copied().unwrap_or(false);
                if !null && op.apply(vals[k], *y) {
                    cur[w] = cur[k];
                    w += 1;
                }
            }
        }
        (Reg::Scalar(x), Reg::Vector { vals, nulls }) => {
            for k in 0..cur.len() {
                let null = nulls.get(k).copied().unwrap_or(false);
                if !null && op.apply(*x, vals[k]) {
                    cur[w] = cur[k];
                    w += 1;
                }
            }
        }
        (
            Reg::Vector { vals, nulls },
            Reg::Vector {
                vals: bvals,
                nulls: bnulls,
            },
        ) => {
            for k in 0..cur.len() {
                let null = nulls.get(k).copied().unwrap_or(false)
                    || bnulls.get(k).copied().unwrap_or(false);
                if !null && op.apply(vals[k], bvals[k]) {
                    cur[w] = cur[k];
                    w += 1;
                }
            }
        }
        _ => unreachable!("filter on unwritten register"),
    }
    cur.truncate(w);
}

/// A column-vs-constant comparison folded against a lane kind: either a
/// numeric compare per element or a value-independent constant result
/// (`total_cmp` orders kinds by rank, so e.g. any unsigned value
/// relates to a string the same way).
enum ConstCmp<T> {
    Val(T),
    All(bool),
}

/// Folds a typed comparison constant against an unsigned lane.
fn classify_u64(op: CmpOp, k: &Value) -> ConstCmp<u64> {
    debug_assert!(!matches!(k, Value::Null), "NULL refused at compile time");
    match k {
        Value::UInt(c) => ConstCmp::Val(*c),
        // `values_eq` and `cmp_u_i` both compare a non-negative Int
        // numerically against unsigned values.
        Value::Int(c) if *c >= 0 => ConstCmp::Val(*c as u64),
        // Negative Int (never equal, always below every unsigned
        // value), Str (kind rank), Bool ordered (kind rank): the
        // result is value-independent — fold it via the interpreter.
        _ => ConstCmp::All(truth(op, &Value::UInt(0), k)),
    }
}

/// Folds a typed comparison constant against a signed lane. `i128`
/// holds every `u64` and `i64` exactly, and both `values_eq` and
/// `total_cmp` compare Int/UInt operand pairs numerically.
fn classify_i64(op: CmpOp, k: &Value) -> ConstCmp<i128> {
    debug_assert!(!matches!(k, Value::Null), "NULL refused at compile time");
    match k {
        Value::UInt(c) => ConstCmp::Val(i128::from(*c)),
        Value::Int(c) => ConstCmp::Val(i128::from(*c)),
        _ => ConstCmp::All(truth(op, &Value::Int(0), k)),
    }
}

/// Core of every fused filter: refine `cur` to the rows where `f` holds
/// on the lane element and the row is not NULL. The dense case
/// (identity selection, no NULL mask) runs in `SIMD_WIDTH` chunks — the
/// compare loop autovectorizes, the compress step is branchless; sparse
/// selections use a branchless gather loop.
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

fn filter_u64(cur: &mut Vec<u32>, lane: &[u64], mask: &[bool], op: CmpOp, k: u64) {
    match op {
        CmpOp::Eq => filter_lane_with(cur, lane, mask, move |x| x == k),
        CmpOp::Ne => filter_lane_with(cur, lane, mask, move |x| x != k),
        CmpOp::Lt => filter_lane_with(cur, lane, mask, move |x| x < k),
        CmpOp::Le => filter_lane_with(cur, lane, mask, move |x| x <= k),
        CmpOp::Gt => filter_lane_with(cur, lane, mask, move |x| x > k),
        CmpOp::Ge => filter_lane_with(cur, lane, mask, move |x| x >= k),
    }
}

fn filter_i64(cur: &mut Vec<u32>, lane: &[i64], mask: &[bool], op: CmpOp, k: i128) {
    match op {
        CmpOp::Eq => filter_lane_with(cur, lane, mask, move |x| i128::from(x) == k),
        CmpOp::Ne => filter_lane_with(cur, lane, mask, move |x| i128::from(x) != k),
        CmpOp::Lt => filter_lane_with(cur, lane, mask, move |x| i128::from(x) < k),
        CmpOp::Le => filter_lane_with(cur, lane, mask, move |x| i128::from(x) <= k),
        CmpOp::Gt => filter_lane_with(cur, lane, mask, move |x| i128::from(x) > k),
        CmpOp::Ge => filter_lane_with(cur, lane, mask, move |x| i128::from(x) >= k),
    }
}

/// Applies a value-independent comparison result: drop everything, or
/// keep every non-NULL row (NULL operands still make the comparison
/// NULL, which the predicate convention drops).
fn filter_const(cur: &mut Vec<u32>, c: &Column, keep: bool) {
    if !keep {
        cur.clear();
        return;
    }
    if c.has_nulls() {
        let mask = c.null_mask();
        let mut w = 0usize;
        for r in 0..cur.len() {
            let keep = !mask[cur[r] as usize];
            cur[w] = cur[r];
            w += usize::from(keep);
        }
        cur.truncate(w);
    }
}

fn lane_mask(c: &Column) -> &[bool] {
    if c.has_nulls() {
        c.null_mask()
    } else {
        &[]
    }
}

/// The fused column-vs-constant filter: one lane-typed pass refining
/// the selection in place. Returns the lane kind touched (`None` for a
/// fully untyped column); every lane kind has an exact path, so it
/// never bails.
fn filter_col_const(cur: &mut Vec<u32>, c: &Column, op: CmpOp, k: &Value) -> Option<LaneKind> {
    match c.data() {
        // Untyped column: every row NULL, nothing survives.
        None => {
            cur.clear();
            None
        }
        Some(ColumnData::UInt(lane)) => {
            match classify_u64(op, k) {
                ConstCmp::Val(kc) => filter_u64(cur, lane, lane_mask(c), op, kc),
                ConstCmp::All(keep) => filter_const(cur, c, keep),
            }
            Some(LaneKind::Uint)
        }
        Some(ColumnData::Int(lane)) => {
            match classify_i64(op, k) {
                ConstCmp::Val(kc) => filter_i64(cur, lane, lane_mask(c), op, kc),
                ConstCmp::All(keep) => filter_const(cur, c, keep),
            }
            Some(LaneKind::Int)
        }
        Some(ColumnData::Bool(lane)) => {
            // Two-entry truth table, computed by the interpreter.
            let keep = [
                truth(op, &Value::Bool(false), k),
                truth(op, &Value::Bool(true), k),
            ];
            filter_lane_with(cur, lane, lane_mask(c), move |b| keep[usize::from(b)]);
            Some(LaneKind::Bool)
        }
        Some(ColumnData::Str(lane)) => {
            if let Value::Str(_) = k {
                let mask = lane_mask(c);
                let mut w = 0usize;
                for r in 0..cur.len() {
                    let i = cur[r] as usize;
                    let keep =
                        (mask.is_empty() || !mask[i]) && truth(op, &Value::Str(lane[i].clone()), k);
                    cur[w] = cur[r];
                    w += usize::from(keep);
                }
                cur.truncate(w);
            } else {
                // Numeric constant vs string lane: kind-rank compare,
                // value-independent.
                filter_const(cur, c, truth(op, &Value::Str("".into()), k));
            }
            Some(LaneKind::Str)
        }
    }
}

/// The fused bare-column predicate: GSQL's C convention, exactly
/// `eval_predicate` on a plain column — `as_bool().unwrap_or(false)`.
/// Numeric lanes keep non-zero rows, boolean lanes keep `true`, string
/// lanes have no boolean coercion and drop
/// everything, as do NULL rows.
fn filter_col_truthy(cur: &mut Vec<u32>, c: &Column) -> Option<LaneKind> {
    match c.data() {
        None => {
            cur.clear();
            None
        }
        Some(ColumnData::UInt(lane)) => {
            filter_lane_with(cur, lane, lane_mask(c), |x| x != 0);
            Some(LaneKind::Uint)
        }
        Some(ColumnData::Int(lane)) => {
            filter_lane_with(cur, lane, lane_mask(c), |x| x != 0);
            Some(LaneKind::Int)
        }
        Some(ColumnData::Bool(lane)) => {
            filter_lane_with(cur, lane, lane_mask(c), |b| b);
            Some(LaneKind::Bool)
        }
        Some(ColumnData::Str(_)) => {
            cur.clear();
            Some(LaneKind::Str)
        }
    }
}

/// Merges sorted `src` into sorted `dst` (disjoint index sets).
fn merge_sorted(dst: &mut Vec<u32>, src: &[u32]) {
    if src.is_empty() {
        return;
    }
    if dst.is_empty() || *dst.last().unwrap() < src[0] {
        dst.extend_from_slice(src);
        return;
    }
    let mut merged = Vec::with_capacity(dst.len() + src.len());
    let (mut i, mut j) = (0, 0);
    while i < dst.len() && j < src.len() {
        if dst[i] < src[j] {
            merged.push(dst[i]);
            i += 1;
        } else {
            merged.push(src[j]);
            j += 1;
        }
    }
    merged.extend_from_slice(&dst[i..]);
    merged.extend_from_slice(&src[j..]);
    *dst = merged;
}

/// Removes sorted `remove` from sorted `set`, in place.
fn diff_sorted(set: &mut Vec<u32>, remove: &[u32]) {
    if remove.is_empty() {
        return;
    }
    let mut w = 0;
    let mut j = 0;
    for r in 0..set.len() {
        while j < remove.len() && remove[j] < set[r] {
            j += 1;
        }
        if j < remove.len() && remove[j] == set[r] {
            continue;
        }
        set[w] = set[r];
        w += 1;
    }
    set.truncate(w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use qap_types::{tuple, DataType, Tuple};

    fn batch(rows: &[Tuple]) -> ColumnBatch {
        ColumnBatch::from_rows(rows)
    }

    /// Applies a compiled kernel and cross-checks against the row
    /// interpreter on every row.
    fn check(e: &BoundExpr, rows: &[Tuple]) {
        let k = PredicateKernel::compile(e).expect("kernelizable");
        let mut sel = SelectionVector::identity(rows.len());
        let mut scratch = KernelScratch::new();
        assert!(
            k.filter(&batch(rows), &mut sel, &mut scratch),
            "kernel bailed out"
        );
        let expect: Vec<u32> = rows
            .iter()
            .enumerate()
            .filter(|(_, t)| e.eval_predicate(t).unwrap())
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(sel.as_slice(), &expect[..], "kernel vs interpreter");
    }

    fn col(i: usize) -> BoundExpr {
        BoundExpr::Column(i)
    }

    fn lit(x: u64) -> BoundExpr {
        BoundExpr::Literal(Value::UInt(x))
    }

    fn ilit(x: i64) -> BoundExpr {
        BoundExpr::Literal(Value::Int(x))
    }

    fn slit(s: &str) -> BoundExpr {
        BoundExpr::Literal(Value::from(s))
    }

    fn bin(op: BinOp, l: BoundExpr, r: BoundExpr) -> BoundExpr {
        BoundExpr::Binary {
            op,
            lhs: Box::new(l),
            rhs: Box::new(r),
        }
    }

    const CMP_OPS: [BinOp; 6] = [
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
    ];

    #[test]
    fn col_const_comparisons() {
        let rows: Vec<Tuple> = (0..10u64).map(|x| tuple![x, 100u64 - x]).collect();
        for op in CMP_OPS {
            check(&bin(op, col(0), lit(5)), &rows);
            check(&bin(op, lit(5), col(0)), &rows);
        }
    }

    #[test]
    fn col_const_comparisons_cover_simd_chunk_edges() {
        // Lengths straddling the chunk width exercise both the chunked
        // loop and the scalar tail.
        for n in [SIMD_WIDTH - 1, SIMD_WIDTH, 2 * SIMD_WIDTH + 3] {
            let rows: Vec<Tuple> = (0..n as u64).map(|x| tuple![x % 7]).collect();
            for op in CMP_OPS {
                check(&bin(op, col(0), lit(3)), &rows);
            }
        }
    }

    #[test]
    fn col_col_and_arith() {
        let rows: Vec<Tuple> = (0..20u64).map(|x| tuple![x, x * 3 % 7, x + 1]).collect();
        check(&bin(BinOp::Lt, col(0), col(1)), &rows);
        check(
            &bin(
                BinOp::Eq,
                bin(BinOp::Mod, col(0), lit(3)),
                bin(BinOp::BitAnd, col(1), lit(1)),
            ),
            &rows,
        );
        check(
            &bin(BinOp::Ge, bin(BinOp::Div, col(2), lit(4)), lit(2)),
            &rows,
        );
    }

    #[test]
    fn and_or_not_structure() {
        let rows: Vec<Tuple> = (0..30u64).map(|x| tuple![x, x % 5, x % 3]).collect();
        let p = bin(
            BinOp::And,
            bin(BinOp::Gt, col(0), lit(4)),
            bin(
                BinOp::Or,
                bin(BinOp::Eq, col(1), lit(0)),
                bin(BinOp::Eq, col(2), lit(1)),
            ),
        );
        check(&p, &rows);
        let n = BoundExpr::Unary {
            op: UnOp::Not,
            expr: Box::new(bin(BinOp::Lt, col(0), lit(15))),
        };
        check(&n, &rows);
    }

    #[test]
    fn nulls_drop_rows_and_three_valued_or_holds() {
        let rows = vec![
            Tuple::new(vec![Value::UInt(1), Value::UInt(10)]),
            Tuple::new(vec![Value::Null, Value::UInt(10)]),
            Tuple::new(vec![Value::Null, Value::UInt(0)]),
            Tuple::new(vec![Value::UInt(7), Value::Null]),
        ];
        check(&bin(BinOp::Gt, col(0), lit(0)), &rows);
        // NULL OR true = true must keep row 1 (lhs NULL, rhs true).
        let p = bin(
            BinOp::Or,
            bin(BinOp::Gt, col(0), lit(0)),
            bin(BinOp::Eq, col(1), lit(10)),
        );
        check(&p, &rows);
    }

    #[test]
    fn bare_column_predicate_is_c_convention() {
        let rows = vec![tuple![0u64], tuple![3u64], Tuple::new(vec![Value::Null])];
        check(&col(0), &rows);
    }

    #[test]
    fn bare_column_truthy_on_typed_lanes() {
        // Signed lane: any non-zero (including negative) is true.
        let rows: Vec<Tuple> = (-3..3i64)
            .map(|x| Tuple::new(vec![Value::Int(x)]))
            .collect();
        check(&col(0), &rows);
        // Boolean lane with a NULL.
        let rows = vec![
            Tuple::new(vec![Value::Bool(true)]),
            Tuple::new(vec![Value::Bool(false)]),
            Tuple::new(vec![Value::Null]),
        ];
        check(&col(0), &rows);
        // String lane: `as_bool` has no coercion, every row drops.
        let rows: Vec<Tuple> = ["tcp", "udp"]
            .iter()
            .map(|s| Tuple::new(vec![Value::from(*s)]))
            .collect();
        check(&col(0), &rows);
    }

    #[test]
    fn int_lane_comparisons_match_interpreter() {
        let rows: Vec<Tuple> = (-10..10i64)
            .map(|x| Tuple::new(vec![Value::Int(x)]))
            .collect();
        for op in CMP_OPS {
            check(&bin(op, col(0), lit(5)), &rows);
            check(&bin(op, col(0), ilit(-3)), &rows);
            check(&bin(op, ilit(-3), col(0)), &rows);
            // A constant only representable above i64: i128 compare
            // must agree with the structural/numeric split.
            check(&bin(op, col(0), lit(u64::MAX)), &rows);
        }
    }

    #[test]
    fn int_lane_with_nulls() {
        let rows = vec![
            Tuple::new(vec![Value::Int(-1)]),
            Tuple::new(vec![Value::Null]),
            Tuple::new(vec![Value::Int(4)]),
        ];
        for op in CMP_OPS {
            check(&bin(op, col(0), lit(2)), &rows);
        }
    }

    #[test]
    fn negative_literal_on_unsigned_lane_folds_constant() {
        let rows: Vec<Tuple> = (0..8u64).map(|x| tuple![x]).collect();
        for op in CMP_OPS {
            check(&bin(op, col(0), ilit(-1)), &rows);
        }
        // And with NULLs: keep-all must still drop NULL rows.
        let rows = vec![tuple![7u64], Tuple::new(vec![Value::Null])];
        check(&bin(BinOp::Ne, col(0), ilit(-1)), &rows);
    }

    #[test]
    fn bool_lane_comparisons_match_interpreter() {
        let rows = vec![
            Tuple::new(vec![Value::Bool(true)]),
            Tuple::new(vec![Value::Bool(false)]),
            Tuple::new(vec![Value::Null]),
        ];
        for op in CMP_OPS {
            // Equality coerces numerically; ordering ranks by kind.
            check(&bin(op, col(0), lit(1)), &rows);
            check(&bin(op, col(0), lit(0)), &rows);
            check(&bin(op, col(0), slit("x")), &rows);
        }
    }

    #[test]
    fn str_lane_comparisons_match_interpreter() {
        let rows: Vec<Tuple> = ["alpha", "beta", "tcp", "udp", "beta"]
            .iter()
            .map(|s| Tuple::new(vec![Value::from(*s)]))
            .collect();
        for op in CMP_OPS {
            check(&bin(op, col(0), slit("beta")), &rows);
            check(&bin(op, slit("beta"), col(0)), &rows);
            // Numeric constant vs string lane: kind-rank fold.
            check(&bin(op, col(0), lit(5)), &rows);
        }
    }

    #[test]
    fn signed_lane_filters_fuse_and_reg_path_bails() {
        let rows = vec![Tuple::new(vec![Value::Int(1)]), tuple![-5i64]];
        check(&bin(BinOp::Gt, col(0), lit(0)), &rows);
        check(&col(0), &rows);
        // The register path (gather + arithmetic) bails out losslessly
        // on a negative value.
        let e = bin(BinOp::Gt, bin(BinOp::Add, col(0), lit(0)), lit(0));
        let k = PredicateKernel::compile(&e).unwrap();
        let b = batch(&rows);
        let mut sel = SelectionVector::identity(2);
        let mut scratch = KernelScratch::new();
        assert!(!k.filter(&b, &mut sel, &mut scratch), "negative int bails");
        assert_eq!(sel.as_slice(), &[0, 1], "selection untouched on bailout");
        assert_eq!(
            scratch.lane_fallbacks()[LaneKind::Int as usize],
            1,
            "bail attributed to the signed lane"
        );
    }

    /// A projection's lane has the kind of the interpreter's values:
    /// signed once an operand is signed or the operation is `-`, and a
    /// signed value past `i64::MAX` bails where the interpreter
    /// overflows.
    #[test]
    fn num_kernel_lanes_take_the_interpreter_kinds() {
        let uints = vec![tuple![7u64, 2u64], tuple![9u64, 4u64]];
        let ints = vec![tuple![7i64, 2u64], tuple![9i64, 4u64]];
        let mut scratch = KernelScratch::new();
        for (e, rows, kind) in [
            (bin(BinOp::Add, col(0), col(1)), &uints, DataType::UInt),
            (bin(BinOp::Sub, col(0), col(1)), &uints, DataType::Int),
            (bin(BinOp::Mul, col(0), ilit(3)), &uints, DataType::Int),
            (bin(BinOp::Add, col(0), col(1)), &ints, DataType::Int),
            (
                BoundExpr::Unary {
                    op: UnOp::BitNot,
                    expr: Box::new(bin(BinOp::Sub, col(0), col(1))),
                },
                &uints,
                DataType::UInt,
            ),
        ] {
            let k = NumKernel::compile(&e).unwrap();
            let out = k.eval_column(&batch(rows), &mut scratch).expect("runs");
            assert_eq!(out.data_type(), Some(kind), "{e:?}");
            for (i, t) in rows.iter().enumerate() {
                assert_eq!(out.value(i), e.eval(t).unwrap(), "{e:?} row {i}");
            }
        }
        let big = vec![tuple![u64::MAX, 0u64]];
        let e = bin(BinOp::Sub, col(0), col(1));
        assert!(e.eval(&big[0]).is_err(), "the interpreter overflows");
        let k = NumKernel::compile(&e).unwrap();
        assert!(k.eval_column(&batch(&big), &mut scratch).is_none());
    }

    #[test]
    fn lane_counters_attribute_hits() {
        let rows: Vec<Tuple> = (0..4u64).map(|x| tuple![x]).collect();
        let e = bin(BinOp::Gt, col(0), lit(1));
        let k = PredicateKernel::compile(&e).unwrap();
        let b = batch(&rows);
        let mut scratch = KernelScratch::new();
        let mut sel = SelectionVector::identity(rows.len());
        assert!(k.filter(&b, &mut sel, &mut scratch));
        assert_eq!(scratch.lane_hits()[LaneKind::Uint as usize], 1);
        assert_eq!(scratch.lane_hits().iter().sum::<u64>(), 1);
        assert_eq!(scratch.lane_fallbacks().iter().sum::<u64>(), 0);
    }

    #[test]
    fn int_lane_register_path_reinterprets_nonnegative() {
        // All selected values non-negative: gather reinterprets and the
        // arithmetic path matches the interpreter.
        let rows: Vec<Tuple> = (0..20i64)
            .map(|x| Tuple::new(vec![Value::Int(x), Value::Int(x % 5)]))
            .collect();
        check(&bin(BinOp::Lt, col(1), col(0)), &rows);
        check(
            &bin(BinOp::Eq, bin(BinOp::Mod, col(0), lit(5)), col(1)),
            &rows,
        );
        // A negative value under the selection bails the gather.
        let rows = vec![
            Tuple::new(vec![Value::Int(3), Value::Int(3)]),
            Tuple::new(vec![Value::Int(-4), Value::Int(4)]),
        ];
        let e = bin(BinOp::Lt, col(0), col(1));
        let k = PredicateKernel::compile(&e).unwrap();
        let b = batch(&rows);
        let mut sel = SelectionVector::identity(2);
        let mut scratch = KernelScratch::new();
        assert!(!k.filter(&b, &mut sel, &mut scratch));
        assert_eq!(sel.as_slice(), &[0, 1]);
        assert_eq!(scratch.lane_fallbacks()[LaneKind::Int as usize], 1);
    }

    #[test]
    fn overflow_bails_out() {
        let rows = vec![tuple![u64::MAX], tuple![1u64]];
        let e = bin(BinOp::Gt, bin(BinOp::Add, col(0), lit(1)), lit(0));
        let k = PredicateKernel::compile(&e).unwrap();
        let b = batch(&rows);
        let mut sel = SelectionVector::identity(2);
        let mut scratch = KernelScratch::new();
        assert!(!k.filter(&b, &mut sel, &mut scratch));
        assert_eq!(scratch.lane_fallbacks()[LaneKind::Uint as usize], 1);
    }

    #[test]
    fn unkernelizable_shapes_refuse_compilation() {
        // Boolean literal comparison: equality coerces numerically,
        // ordering ranks by kind — left to the interpreter.
        let e = bin(BinOp::Lt, col(0), BoundExpr::Literal(Value::Bool(true)));
        assert!(PredicateKernel::compile(&e).is_none());
        // NULL literal comparison.
        let e = bin(BinOp::Eq, col(0), BoundExpr::Literal(Value::Null));
        assert!(PredicateKernel::compile(&e).is_none());
        // Division by constant zero must keep the interpreter's error.
        let e = bin(BinOp::Eq, bin(BinOp::Div, col(0), lit(0)), lit(1));
        assert!(PredicateKernel::compile(&e).is_none());
        // NOT of a non-comparison.
        let e = BoundExpr::Unary {
            op: UnOp::Not,
            expr: Box::new(col(0)),
        };
        assert!(PredicateKernel::compile(&e).is_none());
        // Identity roots are kind-preserving — not the kernel's
        // unsigned output lane.
        assert!(NumKernel::compile(&col(0)).is_none());
        assert!(NumKernel::compile(&ilit(5)).is_none());
    }

    #[test]
    fn string_and_negative_literals_now_compile() {
        assert!(PredicateKernel::compile(&bin(BinOp::Eq, col(0), slit("tcp"))).is_some());
        assert!(PredicateKernel::compile(&bin(BinOp::Lt, col(0), ilit(-1))).is_some());
    }

    #[test]
    fn num_kernel_matches_interpreter() {
        let rows: Vec<Tuple> = (0..50u64).map(|x| tuple![x * 17 + 3, x % 11]).collect();
        let exprs = [
            bin(BinOp::Div, col(0), lit(60)),
            bin(BinOp::BitAnd, col(0), lit(0xFF00)),
            bin(
                BinOp::Add,
                bin(BinOp::Mul, col(1), lit(10)),
                bin(BinOp::Shr, col(0), lit(4)),
            ),
            BoundExpr::Unary {
                op: UnOp::BitNot,
                expr: Box::new(col(1)),
            },
        ];
        let b = batch(&rows);
        let mut scratch = KernelScratch::new();
        for e in &exprs {
            let k = NumKernel::compile(e).expect("kernelizable");
            let c = k.eval_column(&b, &mut scratch).expect("in domain");
            assert_eq!(c.len(), rows.len());
            for (i, t) in rows.iter().enumerate() {
                assert_eq!(c.value(i), e.eval(t).unwrap(), "row {i}");
            }
        }
    }

    #[test]
    fn num_kernel_on_nonnegative_int_lane() {
        let rows = vec![
            Tuple::new(vec![Value::Int(120)]),
            Tuple::new(vec![Value::Null]),
            Tuple::new(vec![Value::Int(61)]),
        ];
        let e = bin(BinOp::Div, col(0), lit(60));
        let k = NumKernel::compile(&e).unwrap();
        let b = batch(&rows);
        let mut scratch = KernelScratch::new();
        let c = k.eval_column(&b, &mut scratch).unwrap();
        for (i, t) in rows.iter().enumerate() {
            assert_eq!(c.value(i), e.eval(t).unwrap(), "row {i}");
        }
        // A negative input bails to the interpreter.
        let rows = vec![Tuple::new(vec![Value::Int(-60)])];
        assert!(k.eval_column(&batch(&rows), &mut scratch).is_none());
    }

    #[test]
    fn num_kernel_propagates_nulls() {
        let rows = vec![
            Tuple::new(vec![Value::UInt(120)]),
            Tuple::new(vec![Value::Null]),
            Tuple::new(vec![Value::UInt(61)]),
        ];
        let e = bin(BinOp::Div, col(0), lit(60));
        let k = NumKernel::compile(&e).unwrap();
        let b = batch(&rows);
        let mut scratch = KernelScratch::new();
        let c = k.eval_column(&b, &mut scratch).unwrap();
        assert_eq!(c.value(0), Value::UInt(2));
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.value(2), Value::UInt(1));
    }

    #[test]
    fn scalar_only_expression_broadcasts() {
        let rows = vec![tuple![1u64], tuple![2u64]];
        let e = bin(BinOp::Mul, lit(6), lit(7));
        let k = NumKernel::compile(&e).unwrap();
        let b = batch(&rows);
        let mut scratch = KernelScratch::new();
        let c = k.eval_column(&b, &mut scratch).unwrap();
        assert_eq!(c.value(0), Value::UInt(42));
        assert_eq!(c.value(1), Value::UInt(42));
    }

    #[test]
    fn scratch_reuse_across_batches() {
        let e = bin(BinOp::Eq, col(0), lit(1));
        let k = PredicateKernel::compile(&e).unwrap();
        let mut scratch = KernelScratch::new();
        for n in [0usize, 1, 7, 64] {
            let rows: Vec<Tuple> = (0..n as u64).map(|x| tuple![x % 2]).collect();
            let b = batch(&rows);
            let mut sel = SelectionVector::identity(n);
            assert!(k.filter(&b, &mut sel, &mut scratch));
            let expect: Vec<u32> = (0..n as u32).filter(|i| i % 2 == 1).collect();
            assert_eq!(sel.as_slice(), &expect[..]);
        }
    }
}
