//! Group keys and equi-keys as words.
//!
//! γ and ⋈ share one decision about a key: each key expression is
//! classified once into a [`KeyEval`], and per batch [`read_words`] lays
//! every row's keys out as words, whatever their kind:
//!
//! - a `uint` is the word itself, an `int` its two's-complement bits and
//!   a `bool` 0 or 1;
//! - a `string` is its index in a [`StrPool`] the caller passes, which
//!   interns each string once;
//! - a NULL key is a zero word and a bit in its row's NULL mask.
//!
//! Each row hashes by [`key_hash`]: the fx fold of its words, then of
//! its mask when a key is NULL. Every §6 key is a non-null `uint` lane,
//! `time/60` or a computed key such as `srcIP & 0xFFF0`, so its words are
//! the lane's and its rows carry no mask. Two keys read into one pool
//! are equal exactly when their words, masks and kinds are: ⋈ reads
//! both sides into one pool per fire, and γ moves each string key into
//! its group table's own pool as it inserts the group.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use qap_expr::{BinOp, BoundExpr, KernelScratch, LaneKind, Projection};
use qap_types::{ArcStr, Column, ColumnBatch, ColumnData, DataType, Value};

use crate::fx::{fold_word, FxHasher};
use crate::ExecResult;

/// The hash of a key's words and NULL mask: the fx fold of the words,
/// then of the mask when a key is NULL.
#[inline]
pub(crate) fn key_hash(key: &[u64], mask: u64) -> u64 {
    let h = key.iter().fold(0, |h, &w| fold_word(h, w));
    if mask == 0 {
        h
    } else {
        fold_word(h, mask)
    }
}

/// Strings that words index: a key string is interned once, and its
/// word is its index here.
#[derive(Default)]
pub(crate) struct StrPool {
    /// The strings, by index. A group table's pool also holds its
    /// string `MIN`/`MAX` extremes, which are never interned: a slot
    /// overwrites its extreme in place.
    pub(crate) strs: Vec<ArcStr>,
    interned: HashMap<ArcStr, u64, BuildHasherDefault<FxHasher>>,
}

impl StrPool {
    /// The index of key string `s`, interned on first sight.
    pub(crate) fn intern(&mut self, s: &ArcStr) -> u64 {
        if let Some(&i) = self.interned.get(s) {
            return i;
        }
        self.strs.push(s.clone());
        let i = self.strs.len() as u64 - 1;
        self.interned.insert(s.clone(), i);
        i
    }

    pub(crate) fn clear(&mut self) {
        self.strs.clear();
        self.interned.clear();
    }
}

/// How a key expression is read off a batch's lanes, classified once
/// when the operator is built: the two shapes every windowed query hits
/// — a plain column and the `time/60` window key — read their lanes
/// directly, and any other key evaluates through the column
/// evaluator's [`Projection`] (such as `srcIP & 0xFFF0`) into a lane
/// that is then read.
pub(crate) enum KeyEval {
    /// Plain column reference.
    Col(usize),
    /// `column / <positive unsigned literal>` over an unsigned lane (a
    /// lane of another kind evaluates `expr`). When `magic` is non-zero
    /// (divisor in `2..2^32`), a dividend that fits 32 bits
    /// strength-reduces the hardware division to a multiply-shift: with
    /// `m = ⌊2^64/d⌋ + 1`, `(x·m) >> 64 = ⌊x/d⌋` exactly for all
    /// `x, d < 2^32` (the +1 over-approximation of `2^64/d` adds under
    /// `x·2^-64 < 2^-32` before the floor, and the true fraction `r/d`
    /// sits at least `1/d > 2^-32` below the next integer).
    DivConst {
        col: usize,
        div: u64,
        magic: u64,
        expr: Projection,
    },
    /// Any other key, evaluated once per batch into a lane.
    Computed(Projection),
}

impl KeyEval {
    pub(crate) fn classify(e: &BoundExpr) -> KeyEval {
        let computed = || Projection::new(vec![e.clone()]);
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
                        expr: computed(),
                    }
                }
                _ => KeyEval::Computed(computed()),
            },
            _ => KeyEval::Computed(computed()),
        }
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

/// A batch's keys as words, filled by [`read_words`]; the buffers are
/// reused from batch to batch.
#[derive(Default)]
pub(crate) struct KeyWords {
    /// The keys' words, row-major: one word per key, in key order.
    pub(crate) words: Vec<u64>,
    /// Per row, bit `k` set when key `k` is NULL (its word is then
    /// zero). Empty when no key of the batch is NULL.
    pub(crate) masks: Vec<u64>,
    /// Per row, [`key_hash`] of its words and mask.
    pub(crate) hashes: Vec<u64>,
    /// Each key's lane kind in this batch (`None`: every row NULL).
    pub(crate) kinds: Vec<Option<DataType>>,
}

/// The lane type a key of kind `kind` reads as, for the per-lane
/// tallies (an all-NULL key counts as unsigned).
pub(crate) fn lane_kind(kind: Option<DataType>) -> LaneKind {
    kind.map_or(LaneKind::Uint, LaneKind::of)
}

/// Reads the keys `evals` of every row of `batch` into `kw` — plain
/// lanes copy, window quotients compute in place, any other key
/// evaluates once into a lane — interning string keys into `pool`.
/// An error is the first a computed key meets.
pub(crate) fn read_words(
    evals: &[KeyEval],
    batch: &ColumnBatch,
    kscratch: &mut KernelScratch,
    pool: &mut StrPool,
    kw: &mut KeyWords,
) -> ExecResult<()> {
    let (n, arity) = (batch.rows(), evals.len());
    kw.words.clear();
    kw.words.resize(n * arity, 0);
    kw.masks.clear();
    kw.kinds.clear();
    for (k, ev) in evals.iter().enumerate() {
        let computed;
        let (col, div) = match ev {
            KeyEval::Col(i) => (batch.column(*i), None),
            KeyEval::DivConst {
                col, div, magic, ..
            } if matches!(batch.column(*col).data(), Some(ColumnData::UInt(_)) | None) => {
                (batch.column(*col), Some((*div, *magic)))
            }
            KeyEval::DivConst { expr: p, .. } | KeyEval::Computed(p) => {
                computed = (p.columns(batch, kscratch)?.pop()).expect("one key expression");
                (&computed, None)
            }
        };
        put_words(col, div, k, arity, pool, kw);
    }
    kw.hashes.clear();
    match (arity, kw.masks.is_empty()) {
        (0, _) => kw.hashes.resize(n, 0),
        (_, true) => kw
            .hashes
            .extend(kw.words.chunks_exact(arity).map(|key| key_hash(key, 0))),
        (_, false) => kw.hashes.extend(
            (kw.words.chunks_exact(arity).zip(&kw.masks)).map(|(key, &m)| key_hash(key, m)),
        ),
    }
    Ok(())
}

/// Writes key `k`'s words off `col` (divided by `div` when given) and
/// flags its NULL rows.
fn put_words(
    col: &Column,
    div: Option<(u64, u64)>,
    k: usize,
    arity: usize,
    pool: &mut StrPool,
    kw: &mut KeyWords,
) {
    let rows = kw.words.chunks_exact_mut(arity);
    let nulls = col.null_mask();
    match (col.data(), div) {
        (Some(ColumnData::UInt(lane)), None) => rows.zip(lane).for_each(|(row, &x)| row[k] = x),
        (Some(ColumnData::UInt(lane)), Some((div, magic))) => rows
            .zip(lane)
            .for_each(|(row, &x)| row[k] = div_q(x, div, magic)),
        (Some(ColumnData::Int(lane)), _) => rows.zip(lane).for_each(|(row, &x)| row[k] = x as u64),
        (Some(ColumnData::Bool(lane)), _) => {
            rows.zip(lane).for_each(|(row, &b)| row[k] = u64::from(b))
        }
        (Some(ColumnData::Str(lane)), _) => {
            for (r, (row, s)) in rows.zip(lane).enumerate() {
                if !nulls.get(r).is_some_and(|&null| null) {
                    row[k] = pool.intern(s);
                }
            }
        }
        (None, _) => {}
    }
    if !nulls.is_empty() {
        if kw.masks.is_empty() {
            kw.masks.resize(col.len(), 0);
        }
        for (r, _) in nulls.iter().enumerate().filter(|(_, &null)| null) {
            kw.masks[r] |= 1 << k;
            kw.words[r * arity + k] = 0;
        }
    }
    kw.kinds.push(col.data_type());
}
