//! Aggregate functions and their sub/super-aggregate decomposition.
//! Every built-in's state is here twice: the reference model's
//! [`Accumulator`], and the engine's `u64` words ([`WordAgg`]), which
//! the unit tests hold to it value for value.

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

use qap_types::{ArcStr, DataType, Value};

use crate::ScalarExpr;

/// Built-in aggregate functions.
///
/// `OrAgg` is the paper's `OR_AGGR` — the bitwise OR of TCP flags across
/// a flow, used by the attack-detection HAVING clause of Section 6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggKind {
    /// `COUNT(*)` / `COUNT(expr)`.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `AVG(expr)`.
    Avg,
    /// `OR_AGGR(expr)`: bitwise OR accumulation.
    OrAgg,
    /// `AND_AGGR(expr)`: bitwise AND accumulation.
    AndAgg,
}

impl AggKind {
    /// Parses a GSQL aggregate function name.
    pub fn from_name(name: &str) -> Option<AggKind> {
        let lower = name.to_ascii_lowercase();
        Some(match lower.as_str() {
            "count" => AggKind::Count,
            "sum" => AggKind::Sum,
            "min" => AggKind::Min,
            "max" => AggKind::Max,
            "avg" => AggKind::Avg,
            "or_aggr" => AggKind::OrAgg,
            "and_aggr" => AggKind::AndAgg,
            _ => return None,
        })
    }

    /// GSQL surface name.
    pub fn name(self) -> &'static str {
        match self {
            AggKind::Count => "COUNT",
            AggKind::Sum => "SUM",
            AggKind::Min => "MIN",
            AggKind::Max => "MAX",
            AggKind::Avg => "AVG",
            AggKind::OrAgg => "OR_AGGR",
            AggKind::AndAgg => "AND_AGGR",
        }
    }
}

impl fmt::Display for AggKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which aggregate function a call invokes: a built-in, or a UDAF
/// resolved by name against the catalog's [`qap_types::UdafRegistry`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggFunc {
    /// A built-in aggregate.
    Builtin(AggKind),
    /// A user-defined aggregate, by (case-preserved) name.
    Udaf(String),
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggFunc::Builtin(k) => write!(f, "{k}"),
            AggFunc::Udaf(n) => write!(f, "{n}"),
        }
    }
}

/// An aggregate invocation, e.g. `SUM(len)` or `COUNT(*)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AggCall {
    /// The function invoked.
    pub func: AggFunc,
    /// Argument expression; `None` encodes `COUNT(*)`.
    pub arg: Option<ScalarExpr>,
    /// Super-aggregate mode: inputs are *partials* produced by the same
    /// function on another host, folded with merge semantics instead of
    /// raw-value updates (Section 5.2.2). Built-in supers do not need
    /// this flag — the optimizer rewrites their kinds so that fold
    /// equals merge — but UDAF supers do.
    pub merge: bool,
    /// Sub-aggregate mode: emit the serialized *partial state* instead
    /// of the finalized value. For built-ins the two coincide (a COUNT
    /// partial is the count), but a UDAF's finalized value (e.g. a
    /// sketch's cardinality estimate) is not its mergeable state.
    pub emit_partial: bool,
}

impl AggCall {
    /// `COUNT(*)`.
    pub fn count_star() -> Self {
        AggCall {
            func: AggFunc::Builtin(AggKind::Count),
            arg: None,
            merge: false,
            emit_partial: false,
        }
    }

    /// Built-in aggregate over an expression.
    pub fn new(kind: AggKind, arg: ScalarExpr) -> Self {
        AggCall {
            func: AggFunc::Builtin(kind),
            arg: Some(arg),
            merge: false,
            emit_partial: false,
        }
    }

    /// User-defined aggregate over an expression.
    pub fn udaf(name: impl Into<String>, arg: ScalarExpr) -> Self {
        AggCall {
            func: AggFunc::Udaf(name.into()),
            arg: Some(arg),
            merge: false,
            emit_partial: false,
        }
    }

    /// The built-in kind, when the call is not a UDAF.
    pub fn builtin_kind(&self) -> Option<AggKind> {
        match &self.func {
            AggFunc::Builtin(k) => Some(*k),
            AggFunc::Udaf(_) => None,
        }
    }
}

impl fmt::Display for AggCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.arg {
            Some(e) => write!(f, "{}({e})", self.func),
            None => write!(f, "{}(*)", self.func),
        }
    }
}

/// Incremental aggregate state.
///
/// `update` folds in a raw input value; `merge` folds in a *partial*
/// aggregate produced by a sub-aggregate on another host — the operation
/// the super-aggregate of the paper's partial-aggregation transformation
/// performs (Section 5.2.2, after Cormode et al.'s splittable UDAFs).
#[derive(Debug, Clone, PartialEq)]
pub enum Accumulator {
    /// COUNT state.
    Count(u64),
    /// SUM state (None until first value).
    Sum(Option<i128>),
    /// MIN state.
    Min(Option<Value>),
    /// MAX state.
    Max(Option<Value>),
    /// AVG state: (sum, count).
    Avg(i128, u64),
    /// OR_AGGR state.
    Or(u64),
    /// AND_AGGR state (None until first value — identity would be !0).
    And(Option<u64>),
}

impl Accumulator {
    /// Folds one raw input value into the state. NULLs are skipped, per
    /// SQL aggregate semantics (except COUNT(*), whose caller passes a
    /// non-null marker).
    pub fn update(&mut self, v: &Value) {
        if v.is_null() {
            return;
        }
        match self {
            Accumulator::Count(n) => *n += 1,
            Accumulator::Sum(s) => {
                if let Some(x) = widen(v) {
                    *s = Some(s.unwrap_or(0) + x);
                }
            }
            Accumulator::Min(m) => {
                let replace = m.as_ref().is_none_or(|cur| v.total_cmp(cur).is_lt());
                if replace {
                    *m = Some(v.clone());
                }
            }
            Accumulator::Max(m) => {
                let replace = m.as_ref().is_none_or(|cur| v.total_cmp(cur).is_gt());
                if replace {
                    *m = Some(v.clone());
                }
            }
            Accumulator::Avg(s, n) => {
                if let Some(x) = widen(v) {
                    *s += x;
                    *n += 1;
                }
            }
            Accumulator::Or(acc) => {
                if let Some(x) = v.as_u64() {
                    *acc |= x;
                }
            }
            Accumulator::And(acc) => {
                if let Some(x) = v.as_u64() {
                    *acc = Some(acc.unwrap_or(u64::MAX) & x);
                }
            }
        }
    }

    /// Folds a partial aggregate value (as produced by `finalize` of the
    /// same kind on another host) into this state.
    pub fn merge(&mut self, partial: &Value) {
        if partial.is_null() {
            return;
        }
        match self {
            // A COUNT partial merges by summation, not increment.
            Accumulator::Count(n) => {
                if let Some(x) = partial.as_u64() {
                    *n += x;
                }
            }
            // AVG partials cannot merge through a single value; the
            // optimizer decomposes AVG into SUM+COUNT columns instead.
            Accumulator::Avg(..) => {
                debug_assert!(false, "AVG partials must be decomposed before merging");
            }
            _ => self.update(partial),
        }
    }

    /// Produces the aggregate's value, of kind `out` — the plan's type
    /// for the aggregate, which only a `SUM` or an `AVG` reads.
    pub fn finalize(&self, out: DataType) -> Value {
        match self {
            Accumulator::Count(n) => Value::UInt(*n),
            Accumulator::Sum(s) => match s {
                Some(x) => narrow(*x, out),
                None => Value::Null,
            },
            Accumulator::Min(m) | Accumulator::Max(m) => m.clone().unwrap_or(Value::Null),
            Accumulator::Avg(s, n) => {
                if *n == 0 {
                    Value::Null
                } else {
                    narrow(s / i128::from(*n), out)
                }
            }
            Accumulator::Or(acc) => Value::UInt(*acc),
            Accumulator::And(acc) => acc.map(Value::UInt).unwrap_or(Value::Null),
        }
    }
}

/// Number of [`Value`]s a kind's migration state takes
/// ([`WordAgg::state_values`]; one for `MIN`/`MAX`, its extreme). Fixed
/// per kind so shipped state rows have a static layout.
pub fn state_width(kind: AggKind) -> usize {
    match kind {
        AggKind::Count | AggKind::Min | AggKind::Max | AggKind::OrAgg | AggKind::AndAgg => 1,
        AggKind::Sum => 2,
        AggKind::Avg => 3,
    }
}

/// An `i128` as its `[hi, lo]` words.
fn split_i128(x: i128) -> [u64; 2] {
    let b = x as u128;
    [(b >> 64) as u64, b as u64]
}

fn join_i128(hi: u64, lo: u64) -> i128 {
    ((u128::from(hi) << 64) | u128::from(lo)) as i128
}

fn widen(v: &Value) -> Option<i128> {
    match v {
        Value::UInt(x) => Some(i128::from(*x)),
        Value::Int(x) => Some(i128::from(*x)),
        Value::Bool(b) => Some(i128::from(*b)),
        _ => None,
    }
}

/// A `SUM` or an `AVG` as a value of its kind `out`: `Int` over a
/// signed argument, else `UInt`, saturating at the kind's ends.
fn narrow(x: i128, out: DataType) -> Value {
    match out {
        DataType::Int => Value::Int(x.clamp(i64::MIN.into(), i64::MAX.into()) as i64),
        _ => Value::UInt(x.clamp(0, u64::MAX.into()) as u64),
    }
}

/// The plan's type for a built-in aggregate over an argument of type
/// `arg` (`None` for `COUNT(*)`): `MIN` and `MAX` take the argument's
/// kind, `SUM` and `AVG` are `Int` over a signed argument and `UInt`
/// otherwise, and `COUNT`, `OR_AGGR` and `AND_AGGR` are `UInt`.
pub fn agg_output_type(kind: AggKind, arg: Option<DataType>) -> DataType {
    match (kind, arg) {
        (AggKind::Min | AggKind::Max, Some(t)) => t,
        (AggKind::Sum | AggKind::Avg, Some(DataType::Int)) => DataType::Int,
        _ => DataType::UInt,
    }
}

/// The state of every built-in aggregate as a fixed number of `u64`
/// words, all zero when fresh. `update`, `merge` and `finalize` are the
/// [`Accumulator`] methods of the same name over those words, value for
/// value, for a stream of values of one kind — the plan's kind for the
/// argument, which `finalize` and `state_values` are given. A string
/// `MIN`/`MAX` extreme is an index into a pool the caller keeps beside
/// the words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordAgg {
    /// `COUNT`: `[n]`.
    Count,
    /// `SUM`: `[hi, lo, seen]`, the running `i128` in two words and a
    /// word that is non-zero once a value arrived.
    Sum,
    /// `AVG`: `[hi, lo, n]`.
    Avg,
    /// `OR_AGGR`: `[acc]`.
    Or,
    /// `AND_AGGR`: `[present, acc]`.
    And,
    /// `MIN`: `[present, bits]`, non-zero once a value arrived, and the
    /// extreme as its kind's word: an `int`'s two's-complement bits, a
    /// `bool` 0 or 1, a `string` its pool index.
    Min,
    /// `MAX`: `[present, bits]`.
    Max,
}

/// Adds `x` to the `i128` in `w[0..2]`.
#[inline]
fn add_i128(w: &mut [u64], x: i128) {
    [w[0], w[1]] = split_i128(join_i128(w[0], w[1]) + x);
}

impl WordAgg {
    /// The word layout of `kind`.
    pub fn of(kind: AggKind) -> WordAgg {
        match kind {
            AggKind::Count => WordAgg::Count,
            AggKind::Sum => WordAgg::Sum,
            AggKind::Avg => WordAgg::Avg,
            AggKind::OrAgg => WordAgg::Or,
            AggKind::AndAgg => WordAgg::And,
            AggKind::Min => WordAgg::Min,
            AggKind::Max => WordAgg::Max,
        }
    }

    /// Words of state per group.
    pub fn width(self) -> usize {
        match self {
            WordAgg::Count | WordAgg::Or => 1,
            WordAgg::And | WordAgg::Min | WordAgg::Max => 2,
            WordAgg::Sum | WordAgg::Avg => 3,
        }
    }

    /// `update(&Value::UInt(x))`, or with `merge` `merge(&Value::UInt(x))`:
    /// the fold off a non-null unsigned lane.
    #[inline]
    pub fn fold_uint(self, w: &mut [u64], x: u64, merge: bool) {
        match self {
            WordAgg::Count => w[0] += if merge { x } else { 1 },
            WordAgg::Avg if merge => debug_assert!(false, "AVG partials must be decomposed"),
            WordAgg::Sum | WordAgg::Avg => {
                add_i128(w, i128::from(x));
                w[2] += 1;
            }
            WordAgg::Or => w[0] |= x,
            WordAgg::And => {
                w[1] = if w[0] == 0 { x } else { w[1] & x };
                w[0] = 1;
            }
            WordAgg::Min => [w[0], w[1]] = [1, if w[0] == 0 { x } else { w[1].min(x) }],
            // Fresh bits are zero, which no word is below.
            WordAgg::Max => [w[0], w[1]] = [1, w[1].max(x)],
        }
    }

    /// Whether a value that compares `ord` to the extreme replaces it:
    /// strictly below it for `MIN` and above it for `MAX`, so on a tie
    /// the first value stays.
    #[inline]
    fn beats(self, ord: Ordering) -> bool {
        (self == WordAgg::Min && ord.is_lt()) || (self == WordAgg::Max && ord.is_gt())
    }

    /// [`Accumulator::update`]. A string `MIN`/`MAX` extreme goes into
    /// `pool`, over the group's previous string if it had one.
    pub fn update(self, w: &mut [u64], v: &Value, pool: &mut Vec<ArcStr>) {
        match self {
            _ if v.is_null() => {}
            WordAgg::Count => w[0] += 1,
            WordAgg::Sum | WordAgg::Avg => {
                if let Some(x) = widen(v) {
                    add_i128(w, x);
                    w[2] += 1;
                }
            }
            WordAgg::Or | WordAgg::And => {
                if let Some(x) = v.as_u64() {
                    self.fold_uint(w, x, false);
                }
            }
            WordAgg::Min | WordAgg::Max => {
                let (bits, ord) = match v {
                    Value::UInt(x) => (*x, x.cmp(&w[1])),
                    Value::Int(x) => (*x as u64, x.cmp(&(w[1] as i64))),
                    Value::Bool(b) => (u64::from(*b), b.cmp(&(w[1] != 0))),
                    Value::Str(s) if w[0] == 0 => {
                        pool.push(s.clone());
                        [w[0], w[1]] = [1, pool.len() as u64 - 1];
                        return;
                    }
                    Value::Str(s) => {
                        let cur = &mut pool[w[1] as usize];
                        if self.beats((**s).cmp(cur)) {
                            *cur = s.clone();
                        }
                        return;
                    }
                    Value::Null => return,
                };
                if w[0] == 0 || self.beats(ord) {
                    [w[0], w[1]] = [1, bits];
                }
            }
        }
    }

    /// [`Accumulator::merge`].
    pub fn merge(self, w: &mut [u64], partial: &Value, pool: &mut Vec<ArcStr>) {
        match self {
            WordAgg::Count => w[0] += partial.as_u64().unwrap_or(0),
            WordAgg::Avg => debug_assert!(partial.is_null(), "AVG partials must be decomposed"),
            _ => self.update(w, partial, pool),
        }
    }

    /// [`Accumulator::finalize`]; a built-in's partial is its final value.
    /// `out` is the plan's kind for the aggregate: a `SUM` or an `AVG`
    /// narrows to it, and a `MIN`/`MAX` extreme decodes by it.
    pub fn finalize(self, w: &[u64], pool: &[ArcStr], out: DataType) -> Value {
        match self {
            WordAgg::Count | WordAgg::Or => Value::UInt(w[0]),
            WordAgg::Sum | WordAgg::Avg if w[2] == 0 => Value::Null,
            WordAgg::Sum => narrow(join_i128(w[0], w[1]), out),
            WordAgg::Avg => narrow(join_i128(w[0], w[1]) / i128::from(w[2]), out),
            WordAgg::And if w[0] == 0 => Value::Null,
            WordAgg::And => Value::UInt(w[1]),
            WordAgg::Min | WordAgg::Max if w[0] == 0 => Value::Null,
            WordAgg::Min | WordAgg::Max => match out {
                DataType::UInt => Value::UInt(w[1]),
                DataType::Int => Value::Int(w[1] as i64),
                DataType::Bool => Value::Bool(w[1] != 0),
                DataType::Str => Value::Str(pool[w[1] as usize].clone()),
            },
        }
    }

    /// The lossless migration state, [`state_width`] values, for the
    /// aggregate of kind `kind`: unlike `finalize`, a `SUM` ships its
    /// whole `i128` as two words and an `AVG` its sum and count.
    pub fn state_values(self, w: &[u64], pool: &[ArcStr], kind: DataType, out: &mut Vec<Value>) {
        match self {
            WordAgg::Sum if w[2] == 0 => out.extend([Value::Null, Value::Null]),
            WordAgg::Sum => out.extend(w[..2].iter().map(|&x| Value::UInt(x))),
            WordAgg::Avg => out.extend(w[..3].iter().map(|&x| Value::UInt(x))),
            _ => out.push(self.finalize(w, pool, kind)),
        }
    }

    /// Folds migration state from [`WordAgg::state_values`] into these
    /// words, which may hold state of their own.
    pub fn merge_state(self, w: &mut [u64], vals: &[Value], pool: &mut Vec<ArcStr>) {
        let word = |i: usize| match vals.get(i) {
            Some(Value::UInt(x)) => Some(*x),
            _ => None,
        };
        match (self, word(0), word(1), word(2)) {
            (WordAgg::Min | WordAgg::Max, ..) => {
                if let Some(v) = vals.first() {
                    self.update(w, v, pool);
                }
            }
            (WordAgg::Count, Some(x), ..) => w[0] += x,
            (WordAgg::Sum, Some(hi), Some(lo), _) => {
                add_i128(w, join_i128(hi, lo));
                w[2] += 1;
            }
            (WordAgg::Avg, Some(hi), Some(lo), Some(n)) => {
                add_i128(w, join_i128(hi, lo));
                w[2] += n;
            }
            (WordAgg::Or | WordAgg::And, Some(x), ..) => self.fold_uint(w, x, false),
            _ => {}
        }
    }
}

/// Creates a fresh accumulator for an aggregate kind.
pub fn make_accumulator(kind: AggKind) -> Accumulator {
    match kind {
        AggKind::Count => Accumulator::Count(0),
        AggKind::Sum => Accumulator::Sum(None),
        AggKind::Min => Accumulator::Min(None),
        AggKind::Max => Accumulator::Max(None),
        AggKind::Avg => Accumulator::Avg(0, 0),
        AggKind::OrAgg => Accumulator::Or(0),
        AggKind::AndAgg => Accumulator::And(None),
    }
}

/// How a super-aggregate turns its merged partial columns into the final
/// aggregate value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FinishOp {
    /// The single merged partial *is* the result.
    First,
    /// `partials[0] / partials[1]` — AVG from (SUM, COUNT).
    DivSumCount,
}

/// The sub/super decomposition of one aggregate (Section 5.2.2).
///
/// The sub-aggregate runs per partition and emits `sub.len()` columns;
/// the super-aggregate merges column-wise with the listed kinds, then
/// applies `finish`. E.g. `COUNT → sub [COUNT], super [SUM]`;
/// `AVG → sub [SUM, COUNT], super [SUM, SUM], finish DivSumCount`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SplitAgg {
    /// Aggregates the sub-aggregate computes per partition.
    pub sub: Vec<AggKind>,
    /// Aggregates the super-aggregate applies to each partial column.
    pub sup: Vec<AggKind>,
    /// Final combining step.
    pub finish: FinishOp,
}

/// Decomposes an aggregate into its sub/super pair. All of GSQL's
/// built-in aggregates are splittable (the paper: "All the SQL's built-in
/// aggregates can be trivially split in a similar fashion").
pub fn split_agg(kind: AggKind) -> SplitAgg {
    let (sub, sup, finish) = match kind {
        AggKind::Count => (vec![AggKind::Count], vec![AggKind::Sum], FinishOp::First),
        AggKind::Sum => (vec![AggKind::Sum], vec![AggKind::Sum], FinishOp::First),
        AggKind::Min => (vec![AggKind::Min], vec![AggKind::Min], FinishOp::First),
        AggKind::Max => (vec![AggKind::Max], vec![AggKind::Max], FinishOp::First),
        AggKind::OrAgg => (vec![AggKind::OrAgg], vec![AggKind::OrAgg], FinishOp::First),
        AggKind::AndAgg => (
            vec![AggKind::AndAgg],
            vec![AggKind::AndAgg],
            FinishOp::First,
        ),
        AggKind::Avg => (
            vec![AggKind::Sum, AggKind::Count],
            vec![AggKind::Sum, AggKind::Sum],
            FinishOp::DivSumCount,
        ),
    };
    SplitAgg { sub, sup, finish }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put_i128(x: i128, out: &mut Vec<Value>) {
        out.extend(split_i128(x).map(Value::UInt));
    }

    fn get_i128(hi: &Value, lo: &Value) -> Option<i128> {
        match (hi, lo) {
            (Value::UInt(h), Value::UInt(l)) => Some(join_i128(*h, *l)),
            _ => None,
        }
    }

    /// The migration state the engine's word state is held to: an
    /// `Accumulator`'s lossless encoding, SUM's full `i128` as two words
    /// and AVG's (sum, count).
    impl Accumulator {
        /// Serializes the exact internal state as `state_width` values, for
        /// shipping a live group across hosts during migration. Unlike
        /// `finalize`, this is lossless: an AVG ships its (sum, count) pair
        /// and a SUM ships its full i128 as two u64 words.
        fn state_values(&self, out: &mut Vec<Value>) {
            match self {
                Accumulator::Count(n) => out.push(Value::UInt(*n)),
                Accumulator::Sum(s) => match s {
                    Some(x) => put_i128(*x, out),
                    None => {
                        out.push(Value::Null);
                        out.push(Value::Null);
                    }
                },
                Accumulator::Min(m) | Accumulator::Max(m) => {
                    out.push(m.clone().unwrap_or(Value::Null))
                }
                Accumulator::Avg(s, n) => {
                    put_i128(*s, out);
                    out.push(Value::UInt(*n));
                }
                Accumulator::Or(acc) => out.push(Value::UInt(*acc)),
                Accumulator::And(acc) => out.push(acc.map(Value::UInt).unwrap_or(Value::Null)),
            }
        }

        /// Folds serialized state (as produced by [`Accumulator::state_values`]
        /// on the same kind) into this accumulator, which may already hold
        /// partial state of its own. Exact inverse of `state_values` when the
        /// receiver is fresh.
        fn merge_state(&mut self, vals: &[Value]) {
            match self {
                Accumulator::Count(n) => {
                    if let Some(Value::UInt(x)) = vals.first() {
                        *n += x;
                    }
                }
                Accumulator::Sum(s) => {
                    if let (Some(hi), Some(lo)) = (vals.first(), vals.get(1)) {
                        if let Some(x) = get_i128(hi, lo) {
                            *s = Some(s.unwrap_or(0) + x);
                        }
                    }
                }
                Accumulator::Min(_) | Accumulator::Max(_) => {
                    if let Some(v) = vals.first() {
                        self.update(v);
                    }
                }
                Accumulator::Avg(s, n) => {
                    if let (Some(hi), Some(lo), Some(Value::UInt(c))) =
                        (vals.first(), vals.get(1), vals.get(2))
                    {
                        if let Some(x) = get_i128(hi, lo) {
                            *s += x;
                            *n += c;
                        }
                    }
                }
                Accumulator::Or(acc) => {
                    if let Some(Value::UInt(x)) = vals.first() {
                        *acc |= x;
                    }
                }
                Accumulator::And(acc) => {
                    if let Some(Value::UInt(x)) = vals.first() {
                        *acc = Some(acc.unwrap_or(u64::MAX) & x);
                    }
                }
            }
        }
    }

    /// The kind a `SUM` or an `AVG` over `vals` finalizes to: `Int` when
    /// a value is signed, as the plan types a signed argument.
    fn out_of(vals: &[Value]) -> DataType {
        match vals.iter().any(|v| matches!(v, Value::Int(_))) {
            true => DataType::Int,
            false => DataType::UInt,
        }
    }

    fn run(kind: AggKind, inputs: &[Value]) -> Value {
        let mut acc = make_accumulator(kind);
        for v in inputs {
            acc.update(v);
        }
        acc.finalize(out_of(inputs))
    }

    #[test]
    fn count_ignores_nulls_on_update() {
        let v = run(
            AggKind::Count,
            &[Value::UInt(1), Value::Null, Value::UInt(3)],
        );
        assert_eq!(v, Value::UInt(2));
    }

    #[test]
    fn sum_and_min_max() {
        let vals = [Value::UInt(5), Value::UInt(2), Value::UInt(9)];
        assert_eq!(run(AggKind::Sum, &vals), Value::UInt(16));
        assert_eq!(run(AggKind::Min, &vals), Value::UInt(2));
        assert_eq!(run(AggKind::Max, &vals), Value::UInt(9));
    }

    #[test]
    fn empty_aggregates_yield_null_except_count() {
        assert_eq!(run(AggKind::Count, &[]), Value::UInt(0));
        assert_eq!(run(AggKind::Sum, &[]), Value::Null);
        assert_eq!(run(AggKind::Min, &[]), Value::Null);
        assert_eq!(run(AggKind::Avg, &[]), Value::Null);
        assert_eq!(run(AggKind::AndAgg, &[]), Value::Null);
        // OR identity is 0, matching the flag-accumulation use case.
        assert_eq!(run(AggKind::OrAgg, &[]), Value::UInt(0));
    }

    #[test]
    fn or_aggr_accumulates_flags() {
        // SYN (0x02) then ACK (0x10) then FIN (0x01): the flow's OR is 0x13.
        let v = run(
            AggKind::OrAgg,
            &[Value::UInt(0x02), Value::UInt(0x10), Value::UInt(0x01)],
        );
        assert_eq!(v, Value::UInt(0x13));
    }

    #[test]
    fn and_aggr() {
        let v = run(AggKind::AndAgg, &[Value::UInt(0b1110), Value::UInt(0b0111)]);
        assert_eq!(v, Value::UInt(0b0110));
    }

    #[test]
    fn avg_truncates_like_integer_division() {
        let v = run(
            AggKind::Avg,
            &[Value::UInt(1), Value::UInt(2), Value::UInt(4)],
        );
        assert_eq!(v, Value::UInt(2));
    }

    #[test]
    fn sum_handles_mixed_signs() {
        let v = run(AggKind::Sum, &[Value::UInt(5), Value::Int(-8)]);
        assert_eq!(v, Value::Int(-3));
    }

    #[test]
    fn count_merge_sums_partials() {
        let mut acc = make_accumulator(AggKind::Count);
        acc.merge(&Value::UInt(10));
        acc.merge(&Value::UInt(5));
        assert_eq!(acc.finalize(DataType::UInt), Value::UInt(15));
    }

    #[test]
    fn split_then_merge_equals_direct_for_all_kinds() {
        // The correctness property behind Section 5.2.2: evaluating the
        // sub-aggregate per partition and merging at the super-aggregate
        // must equal direct evaluation.
        let partition_a = [Value::UInt(3), Value::UInt(7)];
        let partition_b = [Value::UInt(1), Value::UInt(100)];
        for kind in [
            AggKind::Count,
            AggKind::Sum,
            AggKind::Min,
            AggKind::Max,
            AggKind::OrAgg,
            AggKind::AndAgg,
        ] {
            let spec = split_agg(kind);
            assert_eq!(spec.sub.len(), 1);
            // Direct evaluation.
            let direct = run(kind, &[&partition_a[..], &partition_b[..]].concat());
            // Split evaluation.
            let pa = run(spec.sub[0], &partition_a);
            let pb = run(spec.sub[0], &partition_b);
            let mut sup = make_accumulator(spec.sup[0]);
            sup.merge(&pa);
            sup.merge(&pb);
            assert_eq!(sup.finalize(DataType::UInt), direct, "kind {kind}");
        }
    }

    #[test]
    fn avg_splits_into_sum_count() {
        let spec = split_agg(AggKind::Avg);
        assert_eq!(spec.sub, vec![AggKind::Sum, AggKind::Count]);
        assert_eq!(spec.finish, FinishOp::DivSumCount);
    }

    #[test]
    fn state_roundtrip_is_lossless_for_all_kinds() {
        // Split an input stream across two accumulators, ship one's state
        // into the other, and check the result equals direct evaluation —
        // the invariant group migration relies on.
        let part_a = [Value::UInt(3), Value::Int(-7), Value::UInt(9)];
        let part_b = [Value::UInt(1), Value::UInt(100)];
        for kind in [
            AggKind::Count,
            AggKind::Sum,
            AggKind::Min,
            AggKind::Max,
            AggKind::Avg,
            AggKind::OrAgg,
            AggKind::AndAgg,
        ] {
            let direct = run(kind, &[&part_a[..], &part_b[..]].concat());
            let moved = run_state_merge(kind, &part_a, &part_b);
            assert_eq!(moved, direct, "kind {kind}");
        }
    }

    fn run_state_merge(kind: AggKind, part_a: &[Value], part_b: &[Value]) -> Value {
        let mut a = make_accumulator(kind);
        for v in part_a {
            a.update(v);
        }
        let mut shipped = Vec::new();
        a.state_values(&mut shipped);
        assert_eq!(shipped.len(), state_width(kind), "kind {kind}");
        let mut b = make_accumulator(kind);
        for v in part_b {
            b.update(v);
        }
        b.merge_state(&shipped);
        b.finalize(out_of(&[part_a, part_b].concat()))
    }

    #[test]
    fn empty_state_merges_as_identity() {
        for kind in [
            AggKind::Count,
            AggKind::Sum,
            AggKind::Min,
            AggKind::Max,
            AggKind::Avg,
            AggKind::AndAgg,
        ] {
            let empty = make_accumulator(kind);
            let mut shipped = Vec::new();
            empty.state_values(&mut shipped);
            let mut b = make_accumulator(kind);
            b.update(&Value::UInt(4));
            let before = b.finalize(DataType::UInt);
            b.merge_state(&shipped);
            assert_eq!(b.finalize(DataType::UInt), before, "kind {kind}");
        }
    }

    #[test]
    fn avg_state_preserves_sum_count_exactly() {
        // finalize() truncates; the state path must not.
        let mut a = make_accumulator(AggKind::Avg);
        a.update(&Value::UInt(1));
        a.update(&Value::UInt(2));
        let mut shipped = Vec::new();
        a.state_values(&mut shipped);
        let mut b = make_accumulator(AggKind::Avg);
        b.update(&Value::UInt(4));
        b.merge_state(&shipped);
        // (1 + 2 + 4) / 3 == 2; a lossy finalize-merge would give a
        // different answer because AVG(1,2) truncates to 1.
        assert_eq!(b.finalize(DataType::UInt), Value::UInt(2));
    }

    #[test]
    fn negative_sum_state_roundtrips_through_words() {
        let mut a = make_accumulator(AggKind::Sum);
        a.update(&Value::Int(-5));
        let mut shipped = Vec::new();
        a.state_values(&mut shipped);
        let mut b = make_accumulator(AggKind::Sum);
        b.merge_state(&shipped);
        assert_eq!(b.finalize(DataType::Int), Value::Int(-5));
    }

    const WORD_KINDS: [AggKind; 7] = [
        AggKind::Count,
        AggKind::Sum,
        AggKind::Avg,
        AggKind::OrAgg,
        AggKind::AndAgg,
        AggKind::Min,
        AggKind::Max,
    ];

    /// The plan's value kinds.
    const KINDS: [DataType; 4] = [DataType::UInt, DataType::Int, DataType::Bool, DataType::Str];

    /// Folds `vals` — NULLs and values of the plan kind `t` — into a
    /// fresh [`Accumulator`] and into fresh words, by value, and off an
    /// unsigned lane wherever the value is one, and holds every read of
    /// the words to the accumulator's: `finalize`, `state_values`, and
    /// `merge_state` into a fresh and a non-empty state. Returns the
    /// final value.
    fn word_equals_accumulator(kind: AggKind, t: DataType, merge: bool, vals: &[Value]) -> Value {
        let label = format!("{kind}({t}) merge={merge} {vals:?}");
        let agg = WordAgg::of(kind);
        let out = agg_output_type(kind, Some(t));
        let mut acc = make_accumulator(kind);
        let mut by_value = vec![0u64; agg.width()];
        let mut by_lane = by_value.clone();
        let (mut pool, mut lane_pool) = (Vec::new(), Vec::new());
        for v in vals {
            assert!(v.data_type().is_none_or(|k| k == t), "{label}");
            if merge {
                acc.merge(v);
                agg.merge(&mut by_value, v, &mut pool);
            } else {
                acc.update(v);
                agg.update(&mut by_value, v, &mut pool);
            }
            match v {
                Value::UInt(x) => agg.fold_uint(&mut by_lane, *x, merge),
                v if merge => agg.merge(&mut by_lane, v, &mut lane_pool),
                v => agg.update(&mut by_lane, v, &mut lane_pool),
            }
        }
        assert_eq!((&by_lane, &lane_pool), (&by_value, &pool), "{label}");
        let want = acc.finalize(out);
        assert_eq!(agg.finalize(&by_value, &pool, out), want, "{label}");
        // A group holds at most one live string per slot.
        assert!(pool.len() <= 1 && lane_pool.len() <= 1, "{label}");
        let (mut shipped, mut words_shipped) = (Vec::new(), Vec::new());
        acc.state_values(&mut shipped);
        agg.state_values(&by_value, &pool, out, &mut words_shipped);
        assert_eq!(words_shipped, shipped, "{label}");
        assert_eq!(shipped.len(), state_width(kind));
        let base = match t {
            DataType::UInt => Value::UInt(3),
            DataType::Int => Value::Int(-3),
            DataType::Bool => Value::Bool(true),
            DataType::Str => Value::from("m"),
        };
        for base in [None, Some(base)] {
            let mut acc2 = make_accumulator(kind);
            let (mut w2, mut pool2) = (vec![0u64; agg.width()], Vec::new());
            if let Some(b) = &base {
                acc2.update(b);
                agg.update(&mut w2, b, &mut pool2);
            }
            acc2.merge_state(&shipped);
            agg.merge_state(&mut w2, &shipped, &mut pool2);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            acc2.state_values(&mut a);
            agg.state_values(&w2, &pool2, out, &mut b);
            assert_eq!(
                (agg.finalize(&w2, &pool2, out), b),
                (acc2.finalize(out), a),
                "{label} {base:?}"
            );
        }
        want
    }

    /// A seeded stream of NULLs and values of kind `t`, with values near
    /// the ends of `u64`/`i64` when `edges`.
    fn seeded_values(seed: u64, n: usize, t: DataType, edges: bool) -> Vec<Value> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = x >> 33;
                let small = (r >> 4) % 1000;
                match (r % 4, t, edges) {
                    (0, ..) => Value::Null,
                    (1, DataType::UInt, true) => Value::UInt(u64::MAX - small % 3),
                    (1, DataType::Int, true) => Value::Int(i64::MIN + (small % 3) as i64),
                    (2, DataType::Int, true) => Value::Int(i64::MAX - (small % 3) as i64),
                    (_, DataType::UInt, _) => Value::UInt(small),
                    (_, DataType::Int, _) => Value::Int(small as i64 - 500),
                    (_, DataType::Bool, _) => Value::Bool(r & 16 != 0),
                    (_, DataType::Str, _) => Value::from(["s", "a", "z", "m"][small as usize % 4]),
                }
            })
            .collect()
    }

    #[test]
    fn word_state_equals_accumulator() {
        for seed in 0..200u64 {
            for t in KINDS {
                let vals = seeded_values(seed, (seed % 40) as usize, t, seed % 2 == 0);
                for kind in WORD_KINDS {
                    word_equals_accumulator(kind, t, false, &vals);
                    // AVG partials never merge (the optimizer splits AVG
                    // into SUM and COUNT), and a COUNT merge of the edge
                    // values would overflow the count in both.
                    let edges = vals.iter().any(|v| v.as_u64().is_some_and(|x| x > 1 << 32));
                    if kind != AggKind::Avg && !(kind == AggKind::Count && edges) {
                        word_equals_accumulator(kind, t, true, &vals);
                    }
                }
            }
        }
    }

    #[test]
    fn word_state_edges() {
        use AggKind::*;
        use DataType as T;
        let check = |kind, t, merge, vals: &[Value], want: Value| {
            assert_eq!(
                word_equals_accumulator(kind, t, merge, vals),
                want,
                "{kind}({t})"
            );
        };
        let (umax, imin, imax) = (
            Value::UInt(u64::MAX),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
        );
        // `narrow` saturates a SUM past either end; the state stays exact.
        check(
            Sum,
            T::UInt,
            false,
            &[umax.clone(), Value::UInt(2)],
            umax.clone(),
        );
        check(
            Sum,
            T::Int,
            false,
            &[imin.clone(), Value::Int(-1)],
            imin.clone(),
        );
        check(
            Avg,
            T::Int,
            false,
            &[imin.clone(), imin.clone()],
            imin.clone(),
        );
        // No non-null (numeric) input: NULL.
        for kind in [Sum, AndAgg, Avg] {
            for t in KINDS {
                check(kind, t, false, &[], Value::Null);
                check(kind, t, false, &[Value::Null, Value::Null], Value::Null);
            }
            check(kind, T::Str, false, &[Value::from("s")], Value::Null);
        }
        // A negative `Int` partial is no count.
        let signed = [Value::Int(4), Value::Int(-5)];
        check(Count, T::Int, true, &signed, Value::UInt(4));
        check(Count, T::Int, false, &signed, Value::UInt(2));
        // Bitwise folds over `Bool` and non-negative `Int`.
        let bits = [Value::Int(6), Value::Int(1), Value::Int(-1)];
        let flags = [Value::Bool(true), Value::Bool(false)];
        for merge in [false, true] {
            check(OrAgg, T::Int, merge, &bits, Value::UInt(7));
            check(AndAgg, T::Int, merge, &bits, Value::UInt(0));
            check(AndAgg, T::Int, merge, &bits[..1], Value::UInt(6));
            check(OrAgg, T::Bool, merge, &flags, Value::UInt(1));
            check(AndAgg, T::Bool, merge, &flags, Value::UInt(0));
            check(AndAgg, T::Bool, merge, &flags[..1], Value::UInt(1));
        }
        for merge in [false, true] {
            for kind in [Min, Max] {
                // No non-null input: NULL.
                for t in KINDS {
                    check(kind, t, merge, &[], Value::Null);
                    check(kind, t, merge, &[Value::Null, Value::Null], Value::Null);
                }
            }
            // The ends of each integer kind: an `int` compares signed, not
            // by its bits.
            let uends = [umax.clone(), Value::UInt(0), Value::UInt(5)];
            check(Min, T::UInt, merge, &uends, Value::UInt(0));
            check(Max, T::UInt, merge, &uends, umax.clone());
            let iends = [imax.clone(), Value::Int(-1), imin.clone(), Value::Int(0)];
            check(Min, T::Int, merge, &iends, imin.clone());
            check(Max, T::Int, merge, &iends, imax.clone());
            check(
                Max,
                T::Int,
                merge,
                &[Value::Int(-3), Value::Int(2)],
                Value::Int(2),
            );
            let bools = [Value::Bool(true), Value::Null, Value::Bool(false)];
            check(Min, T::Bool, merge, &bools, Value::Bool(false));
            check(Max, T::Bool, merge, &bools, Value::Bool(true));
            check(Min, T::Bool, merge, &bools[..1], Value::Bool(true));
            let strs = [
                Value::from("b"),
                Value::from("a"),
                Value::Null,
                Value::from("c"),
            ];
            check(Min, T::Str, merge, &strs, Value::from("a"));
            check(Max, T::Str, merge, &strs, Value::from("c"));
        }
    }

    #[test]
    fn agg_kind_parsing() {
        assert_eq!(AggKind::from_name("Or_AGGR"), Some(AggKind::OrAgg));
        assert_eq!(AggKind::from_name("count"), Some(AggKind::Count));
        assert_eq!(AggKind::from_name("median"), None);
    }
}
