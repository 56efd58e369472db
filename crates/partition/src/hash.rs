//! Hash-based stream partitioning (Section 3.3).
//!
//! A tuple falls into partition `i` when
//! `i·R/M ≤ H(A) < (i+1)·R/M`, with `H` a hash over the partitioning
//! set's expressions, `R` the hash range and `M` the partition count.

use qap_expr::{bind, BinOp, BoundExpr, ExprResult};
use qap_types::{Column, ColumnBatch, ColumnData, Schema, Tuple, Value};

use crate::PartitionSet;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The FNV-1a steps over four and six zero bytes: `h ^ 0 = h`, so each
/// is a bare multiply by the prime.
const FNV_PRIME_POW4: u64 = FNV_PRIME.wrapping_pow(4);
const FNV_PRIME_POW6: u64 = FNV_PRIME.wrapping_pow(6);

/// FNV-1a over the low `N` bytes of `w`, lowest first.
#[inline(always)]
fn fnv_fold_bytes<const N: usize>(mut h: u64, w: u64) -> u64 {
    for i in 0..N {
        h ^= (w >> (8 * i)) & 0xFF;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One FNV-1a step over a word's eight little-endian bytes. The high
/// bytes of a 16- or 32-bit value (a port, an IPv4 address, a string
/// byte) are zero, so they fold as one multiply by a power of the prime
/// instead of one dependent multiply each: the same hash, bit for bit.
/// A key column's values share a width, so the branch predicts.
#[inline]
fn fnv_fold_word(h: u64, w: u64) -> u64 {
    if w < 1 << 16 {
        fnv_fold_bytes::<2>(h, w).wrapping_mul(FNV_PRIME_POW6)
    } else if w < 1 << 32 {
        fnv_fold_bytes::<4>(h, w).wrapping_mul(FNV_PRIME_POW4)
    } else {
        fnv_fold_bytes::<8>(h, w)
    }
}

/// FNV-1a over a 64-bit word stream. Deterministic across runs (unlike
/// SipHash-keyed std hashing), which experiments and tests rely on.
pub fn fnv1a_hash(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(FNV_OFFSET, fnv_fold_word)
}

/// Where one tuple routes, from one hash: the key identity a rebalance
/// controller's frequency sketch counts (finer than a bucket: many keys
/// share a bucket, and a bucket is the atomic migration unit, but a
/// single *key* is atomic under any assignment at all), the virtual
/// bucket it counts load at, and the partition the bucket is assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Routed {
    /// FNV-1a over the partitioning-set expressions in sorted set order.
    pub hash: u64,
    /// `⌊hash·V / 2⁶⁴⌋` over `V` virtual buckets; bucket-free
    /// partitioners have one bucket per partition.
    pub bucket: usize,
    /// The partition the assignment table maps the bucket to.
    pub partition: usize,
}

/// Evaluates a partitioning set's expressions against tuples of one
/// schema and maps them onto `M` partitions.
///
/// ```
/// use qap_partition::{HashPartitioner, PartitionSet};
/// use qap_types::{tcp_schema, tuple};
///
/// let set = PartitionSet::from_columns(["srcIP", "destIP"]);
/// let splitter = HashPartitioner::new(&set, &tcp_schema(), 8).unwrap();
/// // Same flow endpoints → same partition, whatever else differs.
/// let a = tuple![0u64, 0u64, 10u64, 20u64, 80u64, 443u64, 6u64, 0u64, 40u64];
/// let b = tuple![99u64, 5u64, 10u64, 20u64, 81u64, 444u64, 6u64, 2u64, 1500u64];
/// assert_eq!(splitter.partition(&a), splitter.partition(&b));
/// ```
#[derive(Debug, Clone)]
pub struct HashPartitioner {
    /// One reader per set expression, in sorted set order.
    keys: Vec<KeyReader>,
    partitions: usize,
    /// Virtual-bucket assignment table for adaptive re-partitioning:
    /// when present, a tuple maps to bucket `b = (H·V) >> 64` over
    /// `V = assign.len()` virtual buckets and then to partition
    /// `assign[b]`. `None` keeps the exact closed-form range split of
    /// Section 3.3. The identity assignment `assign[b] = b·M/V` with
    /// `V` a multiple of `M` is bit-identical to the closed form:
    /// `⌊⌊h·kM/2⁶⁴⌋/k⌋ = ⌊h·M/2⁶⁴⌋` (nested-floor identity), so
    /// enabling buckets changes nothing until the table is rewritten.
    assign: Option<std::sync::Arc<Vec<u32>>>,
}

impl HashPartitioner {
    /// Compiles the partitioner for a stream schema. Fails when a set
    /// expression does not resolve against the schema.
    pub fn new(set: &PartitionSet, schema: &Schema, partitions: usize) -> ExprResult<Self> {
        assert!(partitions > 0, "at least one partition required");
        let keys = set
            .to_scalar_exprs()
            .iter()
            .map(|e| bind(e, schema).map(KeyReader::compile))
            .collect::<ExprResult<Vec<_>>>()?;
        Ok(HashPartitioner {
            keys,
            partitions,
            assign: None,
        })
    }

    /// [`HashPartitioner::new`] with `buckets_per_partition` virtual
    /// buckets per partition and the identity assignment — the starting
    /// point for adaptive runs, which later rewrite the table via
    /// [`HashPartitioner::set_assignment`]. With the identity table the
    /// routing is bit-identical to the bucket-free partitioner.
    pub fn with_buckets(
        set: &PartitionSet,
        schema: &Schema,
        partitions: usize,
        buckets_per_partition: usize,
    ) -> ExprResult<Self> {
        let mut p = HashPartitioner::new(set, schema, partitions)?;
        let k = buckets_per_partition.max(1);
        p.assign = Some(std::sync::Arc::new(identity_assignment(partitions, k)));
        Ok(p)
    }

    /// Number of partitions `M`.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Number of virtual buckets `V` (0 when bucketed routing is off).
    pub fn bucket_count(&self) -> usize {
        self.assign.as_ref().map_or(0, |a| a.len())
    }

    /// The current bucket→partition assignment (empty when bucketed
    /// routing is off).
    pub fn assignment(&self) -> &[u32] {
        self.assign.as_ref().map_or(&[], |a| a.as_slice())
    }

    /// Swaps in a new bucket→partition assignment (the splitter's
    /// atomic re-route at a migration epoch boundary). Every entry must
    /// name a valid partition.
    ///
    /// # Panics
    /// When the table is empty or maps a bucket out of range.
    pub fn set_assignment(&mut self, assign: Vec<u32>) {
        assert!(!assign.is_empty(), "assignment table cannot be empty");
        assert!(
            assign.iter().all(|&p| (p as usize) < self.partitions),
            "assignment maps a bucket to a nonexistent partition"
        );
        self.assign = Some(std::sync::Arc::new(assign));
    }

    /// The FNV-1a hash a tuple routes by.
    #[inline]
    fn route_hash(&self, tuple: &Tuple) -> u64 {
        self.keys
            .iter()
            .fold(FNV_OFFSET, |h, k| fnv_fold_word(h, k.word(tuple)))
    }

    /// Routes one tuple: hash → bucket → partition. An empty
    /// expression list (the degenerate empty set) is one key in bucket
    /// 0 of partition 0.
    #[inline]
    pub fn route(&self, tuple: &Tuple) -> Routed {
        if self.keys.is_empty() {
            return Routed {
                hash: 0,
                bucket: 0,
                partition: 0,
            };
        }
        let hash = self.route_hash(tuple);
        // b = floor(H * V / 2^64): the range split of Section 3.3 over
        // the virtual buckets, or the partitions themselves.
        let v = self.assign.as_ref().map_or(self.partitions, |a| a.len());
        let bucket = ((u128::from(hash) * v as u128) >> 64) as usize;
        Routed {
            hash,
            bucket,
            partition: self.assign.as_ref().map_or(bucket, |a| a[bucket] as usize),
        }
    }

    /// The partition [`HashPartitioner::route`] assigns.
    pub fn partition(&self, tuple: &Tuple) -> usize {
        self.route(tuple).partition
    }

    /// The routing hash of [`HashPartitioner::route`].
    pub fn key_hash(&self, tuple: &Tuple) -> u64 {
        self.route(tuple).hash
    }

    /// The virtual bucket of [`HashPartitioner::route`].
    pub fn bucket(&self, tuple: &Tuple) -> usize {
        self.route(tuple).bucket
    }

    /// Columnar twin of [`HashPartitioner::partition`]: assigns every
    /// row of a batch in one lane-at-a-time sweep, pushing the
    /// partition indices onto `out`. Bare columns fold straight off
    /// their typed lanes, and the subnet idiom `col & mask` folds
    /// masked words off unsigned lanes.
    ///
    /// Returns `false` — leaving `out` empty — when some expression has
    /// no lane form; the caller then routes that batch per tuple.
    /// Whenever it returns `true` the assignment is bit-identical to
    /// calling [`HashPartitioner::partition`] on each row.
    pub fn partition_columns(&self, batch: &ColumnBatch, out: &mut Vec<u32>) -> bool {
        out.clear();
        let n = batch.rows();
        if self.keys.is_empty() {
            out.resize(n, 0);
            return true;
        }
        if !self.keys.iter().all(|k| k.lane_foldable(batch)) {
            return false;
        }
        let mut hs = vec![FNV_OFFSET; n];
        for k in &self.keys {
            k.fold_lane(batch, &mut hs);
        }
        match &self.assign {
            None => out.extend(
                hs.iter()
                    .map(|&h| ((u128::from(h) * self.partitions as u128) >> 64) as u32),
            ),
            Some(a) => {
                let v = a.len() as u128;
                out.extend(hs.iter().map(|&h| a[((u128::from(h) * v) >> 64) as usize]));
            }
        }
        true
    }
}

/// The identity bucket→partition table over `partitions·k` buckets:
/// `assign[b] = b·M/V`, which reproduces the closed-form range split
/// exactly (see [`HashPartitioner::with_buckets`]).
pub fn identity_assignment(partitions: usize, buckets_per_partition: usize) -> Vec<u32> {
    let v = partitions * buckets_per_partition.max(1);
    (0..v).map(|b| (b * partitions / v) as u32).collect()
}

/// How one set expression's key word comes off a row, decided once
/// when the partitioner is built. Every reader yields exactly
/// `value_word(expr.eval(row))`, with a failed evaluation hashing as 0.
#[derive(Debug, Clone)]
enum KeyReader {
    /// A bare column — every packet-header key — read where it lies.
    Column(usize),
    /// The subnet idiom `col & mask`: an unsigned value is masked where
    /// it lies and NULL is the NULL word; any other value (a signed or
    /// string one) goes through the interpreter.
    Mask {
        col: usize,
        mask: u64,
        expr: BoundExpr,
    },
    /// Any other expression: the interpreter, per row.
    Eval(BoundExpr),
}

impl KeyReader {
    fn compile(expr: BoundExpr) -> KeyReader {
        if let BoundExpr::Binary {
            op: BinOp::BitAnd,
            lhs,
            rhs,
        } = &expr
        {
            if let (&BoundExpr::Column(col), &BoundExpr::Literal(Value::UInt(mask))) =
                (lhs.as_ref(), rhs.as_ref())
            {
                return KeyReader::Mask { col, mask, expr };
            }
        }
        match expr {
            BoundExpr::Column(i) => KeyReader::Column(i),
            expr => KeyReader::Eval(expr),
        }
    }

    /// The word this key contributes to a row's hash.
    #[inline]
    fn word(&self, tuple: &Tuple) -> u64 {
        match self {
            KeyReader::Column(i) => value_word(tuple.get(*i)),
            KeyReader::Mask { col, mask, expr } => match tuple.get(*col) {
                Value::UInt(x) => x & mask,
                // NULL propagates through `&`.
                Value::Null => u64::MAX,
                _ => eval_word(expr, tuple),
            },
            KeyReader::Eval(expr) => eval_word(expr, tuple),
        }
    }

    /// Whether [`KeyReader::fold_lane`] covers this key over the batch.
    fn lane_foldable(&self, batch: &ColumnBatch) -> bool {
        match self {
            KeyReader::Column(i) => *i < batch.arity(),
            KeyReader::Mask { col, .. } => {
                *col < batch.arity() && batch.column(*col).uints().is_some()
            }
            KeyReader::Eval(_) => false,
        }
    }

    /// Folds this key's per-row words into the running FNV states,
    /// exactly as [`HashPartitioner::route`] folds [`KeyReader::word`].
    fn fold_lane(&self, batch: &ColumnBatch, hs: &mut [u64]) {
        match self {
            KeyReader::Column(i) => fold_column(batch.column(*i), hs),
            KeyReader::Mask { col, mask: m, .. } => {
                let c = batch.column(*col);
                let lane = c.uints().expect("lane_foldable checked the lane type");
                let nulls = c.null_mask();
                if nulls.is_empty() {
                    for (h, &x) in hs.iter_mut().zip(lane) {
                        *h = fnv_fold_word(*h, x & m);
                    }
                } else {
                    for ((h, &x), &nl) in hs.iter_mut().zip(lane).zip(nulls) {
                        *h = fnv_fold_word(*h, if nl { u64::MAX } else { x & m });
                    }
                }
            }
            KeyReader::Eval(_) => unreachable!("lane_foldable admits only columns and masks"),
        }
    }
}

/// The interpreter's word for a key expression; one that fails to
/// evaluate (a string under a mask) hashes as 0.
fn eval_word(expr: &BoundExpr, tuple: &Tuple) -> u64 {
    expr.eval(tuple).map_or(0, |v| value_word(&v))
}

/// Folds a bare column's per-row `value_word`s into the FNV states.
fn fold_column(c: &Column, hs: &mut [u64]) {
    let mask = c.null_mask();
    let masked = |r: usize| !mask.is_empty() && mask[r];
    match c.data() {
        // Untyped column: every row is NULL.
        None => {
            for h in hs.iter_mut() {
                *h = fnv_fold_word(*h, u64::MAX);
            }
        }
        Some(ColumnData::UInt(l)) => {
            if mask.is_empty() {
                for (h, &x) in hs.iter_mut().zip(l) {
                    *h = fnv_fold_word(*h, x);
                }
            } else {
                for ((h, &x), &nl) in hs.iter_mut().zip(l).zip(mask) {
                    *h = fnv_fold_word(*h, if nl { u64::MAX } else { x });
                }
            }
        }
        Some(ColumnData::Int(l)) => {
            for (r, (h, &x)) in hs.iter_mut().zip(l).enumerate() {
                *h = fnv_fold_word(*h, if masked(r) { u64::MAX } else { x as u64 });
            }
        }
        Some(ColumnData::Bool(l)) => {
            for (r, (h, &x)) in hs.iter_mut().zip(l).enumerate() {
                *h = fnv_fold_word(*h, if masked(r) { u64::MAX } else { u64::from(x) });
            }
        }
        Some(ColumnData::Str(l)) => {
            for (r, (h, s)) in hs.iter_mut().zip(l).enumerate() {
                let w = if masked(r) { u64::MAX } else { str_word(s) };
                *h = fnv_fold_word(*h, w);
            }
        }
    }
}

fn value_word(v: &Value) -> u64 {
    match v {
        Value::Null => u64::MAX,
        Value::UInt(x) => *x,
        Value::Int(x) => *x as u64,
        Value::Bool(b) => u64::from(*b),
        Value::Str(s) => str_word(s),
    }
}

/// A string's word: FNV-1a over its bytes, one word per byte.
fn str_word(s: &str) -> u64 {
    fnv1a_hash(s.bytes().map(u64::from))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qap_types::{tcp_schema, tuple};

    fn pkt(time: u64, src: u64, dst: u64) -> Tuple {
        // TCP(time, timestamp, srcIP, destIP, srcPort, destPort, protocol, flags, len)
        tuple![
            time,
            time * 1000,
            src,
            dst,
            80u64,
            443u64,
            6u64,
            0x10u64,
            64u64
        ]
    }

    #[test]
    fn deterministic_and_in_range() {
        let ps = PartitionSet::from_columns(["srcIP", "destIP"]);
        let p = HashPartitioner::new(&ps, &tcp_schema(), 8).unwrap();
        for i in 0..1000u64 {
            let t = pkt(i, i * 7, i * 13);
            let a = p.partition(&t);
            assert!(a < 8);
            assert_eq!(a, p.partition(&t));
        }
    }

    #[test]
    fn same_key_same_partition_regardless_of_other_fields() {
        let ps = PartitionSet::from_columns(["srcIP", "destIP"]);
        let p = HashPartitioner::new(&ps, &tcp_schema(), 8).unwrap();
        let a = p.partition(&pkt(1, 42, 77));
        let b = p.partition(&pkt(999, 42, 77));
        assert_eq!(a, b);
    }

    #[test]
    fn masked_set_groups_subnets() {
        let ps = PartitionSet::from_exprs([&qap_expr::ScalarExpr::col("srcIP").mask(0xFFFF_FF00)]);
        let p = HashPartitioner::new(&ps, &tcp_schema(), 16).unwrap();
        // Same /24: same partition.
        assert_eq!(
            p.partition(&pkt(0, 0x0A000001, 1)),
            p.partition(&pkt(0, 0x0A0000FE, 2))
        );
    }

    #[test]
    fn spreads_load_roughly_evenly() {
        let ps = PartitionSet::from_columns(["srcIP"]);
        let m = 4;
        let p = HashPartitioner::new(&ps, &tcp_schema(), m).unwrap();
        let mut counts = vec![0usize; m];
        let n = 40_000u64;
        for i in 0..n {
            counts[p.partition(&pkt(0, i, 0))] += 1;
        }
        let expected = n as f64 / m as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "partition {i} holds {c} of {n} (dev {dev:.3})");
        }
    }

    #[test]
    fn empty_set_degenerates_to_partition_zero() {
        let p = HashPartitioner::new(&PartitionSet::empty(), &tcp_schema(), 4).unwrap();
        assert_eq!(p.partition(&pkt(0, 1, 2)), 0);
    }

    #[test]
    fn unresolvable_expression_rejected() {
        let ps = PartitionSet::from_columns(["nosuch"]);
        assert!(HashPartitioner::new(&ps, &tcp_schema(), 4).is_err());
    }

    #[test]
    fn single_partition_accepts_everything() {
        let ps = PartitionSet::from_columns(["srcIP"]);
        let p = HashPartitioner::new(&ps, &tcp_schema(), 1).unwrap();
        for i in 0..100 {
            assert_eq!(p.partition(&pkt(i, i * 3, i * 5)), 0);
        }
    }

    /// Asserts the lane path covers the batch and matches the row
    /// evaluator on every row.
    fn assert_lane_agrees(p: &HashPartitioner, rows: &[Tuple], batch: &ColumnBatch) {
        let mut parts = Vec::new();
        assert!(p.partition_columns(batch, &mut parts), "lane path covers");
        assert_eq!(parts.len(), rows.len());
        for (t, &lane) in rows.iter().zip(&parts) {
            assert_eq!(p.partition(t), lane as usize);
        }
    }

    #[test]
    fn columnar_agrees_on_uint_columns() {
        let ps = PartitionSet::from_columns(["srcIP", "destIP"]);
        let p = HashPartitioner::new(&ps, &tcp_schema(), 11).unwrap();
        let rows: Vec<Tuple> = (0..512u64).map(|i| pkt(i, i * 7, i * 13)).collect();
        assert_lane_agrees(&p, &rows, &ColumnBatch::from_rows(&rows));
    }

    #[test]
    fn hashed_route_agrees_with_row_paths() {
        let ps = PartitionSet::from_columns(["srcIP"]);
        let mut p = HashPartitioner::with_buckets(&ps, &tcp_schema(), 4, 8).unwrap();
        p.set_assignment(identity_assignment(4, 8));
        let rows: Vec<Tuple> = (0..512u64).map(|i| pkt(i, i * 7, i * 13)).collect();
        let batch = ColumnBatch::from_rows(&rows);
        let mut parts = Vec::new();
        assert!(p.partition_columns(&batch, &mut parts));
        for (i, t) in rows.iter().enumerate() {
            // One call, the three answers, each by its closed form.
            let hash = fnv1a_hash([t.get(2).as_u64().unwrap()]);
            let bucket = ((u128::from(hash) * 32) >> 64) as usize;
            let routed = Routed {
                hash,
                bucket,
                partition: p.assignment()[bucket] as usize,
            };
            assert_eq!(p.route(t), routed, "row {i}");
            assert_eq!(
                (p.key_hash(t), p.bucket(t), p.partition(t)),
                (routed.hash, routed.bucket, routed.partition),
                "row {i}"
            );
            assert_eq!(parts[i] as usize, routed.partition, "row {i}");
        }
        // Same key, same hash — the sketch identity the controller
        // counts by.
        assert_eq!(p.key_hash(&pkt(1, 42, 7)), p.key_hash(&pkt(9, 42, 99)));
    }

    #[test]
    fn columnar_agrees_on_masked_expr() {
        let ps = PartitionSet::from_exprs([&qap_expr::ScalarExpr::col("srcIP").mask(0xFFFF_FF00)]);
        let p = HashPartitioner::new(&ps, &tcp_schema(), 16).unwrap();
        let rows: Vec<Tuple> = (0..256u64)
            .map(|i| pkt(i, 0x0A00_0000 + i * 3, 1))
            .collect();
        assert_lane_agrees(&p, &rows, &ColumnBatch::from_rows(&rows));
    }

    /// A schema covering every lane kind the fold supports: unsigned,
    /// signed, boolean, and string columns.
    fn mixed_schema() -> Schema {
        use qap_types::{DataType, Field};
        Schema::new(
            "MIX",
            vec![
                Field::new("u", DataType::UInt),
                Field::new("i", DataType::Int),
                Field::new("b", DataType::Bool),
                Field::new("s", DataType::Str),
            ],
        )
        .unwrap()
    }

    fn mixed_rows() -> Vec<Tuple> {
        (0..300i64)
            .map(|i| {
                let s = ["tcp", "udp", "icmp"][(i % 3) as usize];
                let mut t = tuple![i as u64, -i * 5, i % 2 == 0, s];
                // Sprinkle NULLs across every lane kind.
                if i % 7 == 0 {
                    t = tuple![Value::Null, -i * 5, i % 2 == 0, s];
                } else if i % 11 == 0 {
                    t = tuple![i as u64, Value::Null, Value::Null, Value::Null];
                }
                t
            })
            .collect()
    }

    #[test]
    fn columnar_agrees_on_mixed_types_with_nulls() {
        let ps = PartitionSet::from_columns(["u", "i", "b", "s"]);
        let p = HashPartitioner::new(&ps, &mixed_schema(), 9).unwrap();
        let rows = mixed_rows();
        assert_lane_agrees(&p, &rows, &ColumnBatch::from_rows(&rows));
    }

    #[test]
    fn columnar_falls_back_on_unsupported_expr() {
        // `time / 60` has no lane form: the batch must route per tuple.
        let ps = PartitionSet::from_exprs([&qap_expr::ScalarExpr::col("time").div(60)]);
        let p = HashPartitioner::new(&ps, &tcp_schema(), 8).unwrap();
        let rows: Vec<Tuple> = (0..64u64).map(|i| pkt(i, i, i)).collect();
        let mut parts = vec![99u32];
        assert!(!p.partition_columns(&ColumnBatch::from_rows(&rows), &mut parts));
        assert!(parts.is_empty(), "failed fold leaves no stale assignment");
    }

    #[test]
    fn identity_buckets_bit_identical_to_closed_form() {
        let ps = PartitionSet::from_columns(["srcIP", "destIP"]);
        let plain = HashPartitioner::new(&ps, &tcp_schema(), 8).unwrap();
        for k in [1usize, 4, 16] {
            let bucketed = HashPartitioner::with_buckets(&ps, &tcp_schema(), 8, k).unwrap();
            for i in 0..2000u64 {
                let t = pkt(i, i * 7, i * 13);
                assert_eq!(plain.partition(&t), bucketed.partition(&t), "k={k} i={i}");
            }
        }
    }

    #[test]
    fn identity_buckets_bit_identical_on_lane_path() {
        let ps = PartitionSet::from_columns(["srcIP", "destIP"]);
        let plain = HashPartitioner::new(&ps, &tcp_schema(), 8).unwrap();
        let bucketed = HashPartitioner::with_buckets(&ps, &tcp_schema(), 8, 8).unwrap();
        let rows: Vec<Tuple> = (0..512u64).map(|i| pkt(i, i * 3, i * 11)).collect();
        let batch = ColumnBatch::from_rows(&rows);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        assert!(plain.partition_columns(&batch, &mut a));
        assert!(bucketed.partition_columns(&batch, &mut b));
        assert_eq!(a, b);
    }

    #[test]
    fn rewritten_assignment_reroutes_buckets() {
        let ps = PartitionSet::from_columns(["srcIP"]);
        let mut p = HashPartitioner::with_buckets(&ps, &tcp_schema(), 4, 4).unwrap();
        let t = pkt(0, 42, 0);
        let bucket = p.bucket(&t);
        assert!(bucket < p.bucket_count());
        // Redirect exactly this tuple's bucket to partition 3.
        let mut assign = p.assignment().to_vec();
        assign[bucket] = 3;
        p.set_assignment(assign);
        assert_eq!(p.partition(&t), 3);
        // Row and lane paths agree on the rewritten table.
        let rows: Vec<Tuple> = (0..256u64).map(|i| pkt(i, i * 17, 0)).collect();
        let batch = ColumnBatch::from_rows(&rows);
        let mut parts = Vec::new();
        assert!(p.partition_columns(&batch, &mut parts));
        for (i, t) in rows.iter().enumerate() {
            assert_eq!(p.partition(t), parts[i] as usize);
            assert_eq!(p.assignment()[p.bucket(t)] as usize, parts[i] as usize);
        }
    }

    #[test]
    fn columnar_empty_set_degenerates_to_partition_zero() {
        let p = HashPartitioner::new(&PartitionSet::empty(), &tcp_schema(), 4).unwrap();
        let rows: Vec<Tuple> = (0..16u64).map(|i| pkt(i, i, i)).collect();
        let mut parts = Vec::new();
        assert!(p.partition_columns(&ColumnBatch::from_rows(&rows), &mut parts));
        assert!(parts.iter().all(|&x| x == 0));
    }

    /// FNV-1a by its definition: every one of the eight bytes, one
    /// xor-and-multiply each.
    fn reference_fold(mut h: u64, w: u64) -> u64 {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// `value_word` with strings hashed by [`reference_fold`].
    fn reference_word(v: &Value) -> u64 {
        match v {
            Value::Str(s) => s
                .bytes()
                .fold(FNV_OFFSET, |h, b| reference_fold(h, u64::from(b))),
            v => value_word(v),
        }
    }

    /// SplitMix64: a seeded word stream.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn zero_byte_skip_equals_the_byte_at_a_time_fold() {
        let mut state = 25;
        for i in 0..1_000_000u32 {
            // 0–8 live bytes, the highest one non-zero.
            let live = i % 9;
            let w = match live {
                0 => 0,
                n => {
                    let r = splitmix(&mut state) >> (64 - 8 * n);
                    r | 1 << (8 * n - 1)
                }
            };
            let h = splitmix(&mut state);
            assert_eq!(fnv_fold_word(h, w), reference_fold(h, w), "w={w:#x}");
        }
        for w in [0, 1, 0xFFFF, 0x1_0000, 0xFFFF_FFFF, 1 << 32, u64::MAX] {
            for h in [0, FNV_OFFSET, u64::MAX] {
                assert_eq!(fnv_fold_word(h, w), reference_fold(h, w), "w={w:#x}");
            }
        }
    }

    #[test]
    fn fnv1a_hash_is_pinned() {
        assert_eq!(fnv1a_hash([]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_hash([0]), 0xa8c7_f832_281a_39c5);
        assert_eq!(fnv1a_hash([80, 443]), 0x80ba_5e31_326e_1949);
        assert_eq!(
            fnv1a_hash([0x0A00_0001, 0xC0A8_0102, 80, 443]),
            0xe17b_edbc_4bb4_3033
        );
        assert_eq!(
            fnv1a_hash([u64::MAX, 1 << 40, 0xFFFF, 0x1_0000]),
            0x63b8_2f54_1f29_73f1
        );
        assert_eq!(value_word(&Value::from("10.0.0.1")), 0x4544_cd46_840e_6c5b);
    }

    /// Rows whose masked column `u` holds every kind of value: unsigned,
    /// negative and non-negative signed, NULL, string.
    fn masked_column_rows() -> Vec<Tuple> {
        (0..500i64)
            .map(|i| {
                let u = match i % 5 {
                    0 => Value::UInt(i as u64 * 0x1_0001),
                    1 => Value::Int(-i * 7),
                    2 => Value::Int(i * 7),
                    3 => Value::Null,
                    _ => Value::from("10.0.0.1"),
                };
                let s = ["tcp", "udp", "icmp"][(i % 3) as usize];
                Tuple::new(vec![u, Value::Int(-i), Value::Bool(i % 2 == 0), s.into()])
            })
            .collect()
    }

    #[test]
    fn key_readers_route_as_the_interpreter_does() {
        use qap_expr::ScalarExpr;
        let set = PartitionSet::from_exprs([
            &ScalarExpr::col("u").mask(0xFFF0),
            &ScalarExpr::col("s"),
            &ScalarExpr::col("i").div(3),
        ]);
        let schema = mixed_schema();
        let p = HashPartitioner::with_buckets(&set, &schema, 6, 8).unwrap();
        let exprs: Vec<BoundExpr> = set
            .to_scalar_exprs()
            .iter()
            .map(|e| bind(e, &schema).unwrap())
            .collect();
        // One reader of each kind.
        let mut kinds: Vec<&str> = (p.keys.iter())
            .map(|k| match k {
                KeyReader::Column(_) => "column",
                KeyReader::Mask { .. } => "mask",
                KeyReader::Eval(_) => "eval",
            })
            .collect();
        kinds.sort_unstable();
        assert_eq!(kinds, ["column", "eval", "mask"]);
        for (i, t) in masked_column_rows().iter().enumerate() {
            let hash = exprs.iter().fold(FNV_OFFSET, |h, e| {
                reference_fold(h, e.eval(t).map_or(0, |v| reference_word(&v)))
            });
            let bucket = ((u128::from(hash) * 48) >> 64) as usize;
            let want = Routed {
                hash,
                bucket,
                partition: p.assignment()[bucket] as usize,
            };
            assert_eq!(p.route(t), want, "row {i}: {t:?}");
        }
    }

    /// Folds every row's `(hash, bucket, partition)` of the seed-17 tiny
    /// trace into one word, under a partitioner over 6 partitions × 8
    /// buckets (the runners' default table).
    fn routing_checksum(set: &PartitionSet) -> u64 {
        let mix = |acc: u64, x: u64| (acc.rotate_left(5) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let p = HashPartitioner::with_buckets(set, &tcp_schema(), 6, 8).unwrap();
        let trace = qap_trace::generate(&qap_trace::TraceConfig::tiny(17));
        assert_eq!(trace.len(), 1198);
        trace.iter().fold(0, |acc, t| {
            let r = p.route(t);
            mix(mix(mix(acc, r.hash), r.bucket as u64), r.partition as u64)
        })
    }

    /// Routes are pinned to what they were before the zero-byte skip and
    /// the key readers: the §6.1 and §6.2 sets.
    #[test]
    fn routes_are_pinned_on_the_section_6_sets() {
        let four_tuple = PartitionSet::from_columns(["srcIP", "destIP", "srcPort", "destPort"]);
        assert_eq!(routing_checksum(&four_tuple), 0x9491_37c0_692c_a3f0);
        let subnet = PartitionSet::from_exprs([
            &qap_expr::ScalarExpr::col("srcIP").mask(0xFFF0),
            &qap_expr::ScalarExpr::col("destIP"),
        ]);
        assert_eq!(routing_checksum(&subnet), 0xd8e7_6a5b_bf11_f430);
    }
}
