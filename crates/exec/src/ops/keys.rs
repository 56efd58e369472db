//! Group keys and equi-keys as words.
//!
//! Every group key and equi-key of the paper's §6 queries is a non-null
//! unsigned word: a packet-header field, `time/60` or `srcIP & 0xFFF0`.
//! This module makes the one decision γ and ⋈ share about a key: each
//! key expression is classified once into a [`KeyEval`], and per batch
//! [`read_words`] lays the keys out as row-major words and hashes each
//! row by the fx fold of its words. That hash is what [`fx::ValueHash`]
//! gives the same key as `UInt` values (the `UInt` tag is zero), so a
//! key read as words and the same key evaluated row by row probe the
//! same slots. Any other key lane — signed, Bool, string, nullable or
//! all-NULL, or a key no lane shape covers — keeps the whole batch off
//! words, and the operator runs its per-row algorithm over it: γ's
//! encodes each row's key into the words of the same group table (a key
//! with no NULL hashes as its words do here), ⋈'s hashes values.

use qap_expr::{BinOp, BoundExpr, KernelScratch, LaneKind, NumKernel};
use qap_types::{ColumnBatch, Value};

use crate::fx;

use super::column_lane_kind;

/// How a key expression is read off a batch's lanes, classified once
/// when the operator is built: the two shapes every windowed query hits
/// — a plain column and the `time/60` window key — read their lanes
/// directly, and any other numeric key (`srcIP & 0xFFF0`) compiles to a
/// kernel. Each reproduces [`BoundExpr::eval`] exactly over a non-null
/// unsigned lane.
pub(crate) enum KeyEval {
    /// Plain column reference.
    Col(usize),
    /// `column / <positive unsigned literal>`. When `magic` is non-zero
    /// (divisor in `2..2^32`), a dividend that fits 32 bits
    /// strength-reduces the hardware division to a multiply-shift: with
    /// `m = ⌊2^64/d⌋ + 1`, `(x·m) >> 64 = ⌊x/d⌋` exactly for all
    /// `x, d < 2^32` (the +1 over-approximation of `2^64/d` adds under
    /// `x·2^-64 < 2^-32` before the floor, and the true fraction `r/d`
    /// sits at least `1/d > 2^-32` below the next integer).
    DivConst { col: usize, div: u64, magic: u64 },
    /// Any other key inside the numeric kernel domain, evaluated once
    /// per batch into an owned unsigned lane.
    Kernel(NumKernel),
    /// Outside every lane shape: only the per-row path evaluates it.
    General,
}

impl KeyEval {
    pub(crate) fn classify(e: &BoundExpr) -> KeyEval {
        match e {
            BoundExpr::Column(i) => KeyEval::Col(*i),
            BoundExpr::Binary {
                op: BinOp::Div,
                lhs,
                rhs,
            } => match (lhs.as_ref(), rhs.as_ref()) {
                (BoundExpr::Column(i), BoundExpr::Literal(Value::UInt(c))) if *c > 0 => {
                    let magic = if (2..1u64 << 32).contains(c) {
                        ((1u128 << 64) / u128::from(*c)) as u64 + 1
                    } else {
                        0
                    };
                    KeyEval::DivConst {
                        col: *i,
                        div: *c,
                        magic,
                    }
                }
                _ => KeyEval::general(e),
            },
            _ => KeyEval::general(e),
        }
    }

    fn general(e: &BoundExpr) -> KeyEval {
        NumKernel::compile(e).map_or(KeyEval::General, KeyEval::Kernel)
    }
}

/// Strength-reduced unsigned division for the window key (see
/// [`KeyEval::DivConst`]).
#[inline]
pub(crate) fn div_q(x: u64, div: u64, magic: u64) -> u64 {
    if magic != 0 && x >> 32 == 0 {
        ((u128::from(x) * u128::from(magic)) >> 64) as u64
    } else {
        x / div
    }
}

/// Reads the keys `evals` (at least one) of every row of `batch` into
/// `words`, `evals.len()` words per row in key order — plain lanes
/// copy, window quotients compute in place, kernel keys evaluate once
/// into a lane — and each row's fx fold of its words into `hashes`.
/// Each row's word slice *is* its key: the words equal the
/// `Value::UInt`s the interpreter gives it. A key whose lane is not a
/// non-null unsigned lane names its lane type instead (`Uint` for a
/// nullable or all-NULL lane and for a kernel that bails, `Mixed` for a
/// `General` key), and the buffers hold nothing meaningful.
pub(crate) fn read_words(
    evals: &[KeyEval],
    batch: &ColumnBatch,
    kscratch: &mut KernelScratch,
    words: &mut Vec<u64>,
    hashes: &mut Vec<u64>,
) -> Result<(), LaneKind> {
    let arity = evals.len();
    words.clear();
    words.resize(batch.rows() * arity, 0);
    for (k, ev) in evals.iter().enumerate() {
        let computed;
        let (col, div) = match ev {
            KeyEval::Col(i) => (batch.column(*i), None),
            KeyEval::DivConst { col, div, magic } => (batch.column(*col), Some((*div, *magic))),
            KeyEval::Kernel(kernel) => {
                computed = kernel.eval_column(batch, kscratch).ok_or(LaneKind::Uint)?;
                (&computed, None)
            }
            KeyEval::General => return Err(LaneKind::Mixed),
        };
        let (Some(lane), false) = (col.uints(), col.has_nulls()) else {
            return Err(column_lane_kind(col));
        };
        let rows = words.chunks_exact_mut(arity).zip(lane);
        match div {
            None => rows.for_each(|(row, &x)| row[k] = x),
            Some((div, magic)) => rows.for_each(|(row, &x)| row[k] = div_q(x, div, magic)),
        }
    }
    hashes.clear();
    hashes.extend(
        words
            .chunks_exact(arity)
            .map(|key| key.iter().fold(0u64, |h, &w| fx::fold_word(h, w))),
    );
    Ok(())
}
