//! Property-based tests over the core invariants.

use proptest::prelude::*;

use qap::expr::{
    analyze_transform, make_accumulator, split_agg, AggKind, AnalyzedExpr, ColumnRef,
    ColumnTransform,
};
use qap::partition::{reconcile_partition_sets, HashPartitioner, PartitionSet};
use qap::prelude::*;
use qap::types::{decode_tuple, encode_tuple, tcp_schema, DataType};

// ---------------------------------------------------------------------
// generators
// ---------------------------------------------------------------------

fn arb_transform() -> impl Strategy<Value = ColumnTransform> {
    prop_oneof![
        Just(ColumnTransform::Identity),
        (1u64..=720).prop_map(ColumnTransform::Div),
        (1u64..=u64::from(u16::MAX)).prop_map(ColumnTransform::Mask),
    ]
}

fn arb_column() -> impl Strategy<Value = ColumnRef> {
    prop_oneof![
        Just(ColumnRef::bare("srcIP")),
        Just(ColumnRef::bare("destIP")),
        Just(ColumnRef::bare("srcPort")),
        Just(ColumnRef::bare("destPort")),
        Just(ColumnRef::bare("len")),
    ]
}

fn arb_partition_set() -> impl Strategy<Value = PartitionSet> {
    proptest::collection::vec((arb_column(), arb_transform()), 1..5).prop_map(|entries| {
        PartitionSet::from_analyzed(
            entries
                .into_iter()
                .map(|(column, transform)| AnalyzedExpr { column, transform }),
        )
    })
}

fn arb_value_seq() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..10_000, 0..40)
}

// ---------------------------------------------------------------------
// reconciliation algebra
// ---------------------------------------------------------------------

proptest! {
    /// Reconciliation is commutative.
    #[test]
    fn reconcile_commutative(a in arb_partition_set(), b in arb_partition_set()) {
        prop_assert_eq!(
            reconcile_partition_sets(&a, &b),
            reconcile_partition_sets(&b, &a)
        );
    }

    /// Reconciliation is idempotent: a ⊓ a = a.
    #[test]
    fn reconcile_idempotent(a in arb_partition_set()) {
        prop_assert_eq!(reconcile_partition_sets(&a, &a), a);
    }

    /// The reconciled set is compatible with both inputs (treating each
    /// input as a grouping requirement): every query satisfied by
    /// partitioning on its own compatible set is satisfied by the
    /// reconciliation — the defining property of Section 4.1.
    #[test]
    fn reconcile_satisfies_both(a in arb_partition_set(), b in arb_partition_set()) {
        let r = reconcile_partition_sets(&a, &b);
        if !r.is_empty() {
            prop_assert!(r.satisfies(&a), "{} does not satisfy {}", r, a);
            prop_assert!(r.satisfies(&b), "{} does not satisfy {}", r, b);
        }
    }

    /// Reconciliation is associative on the analyzable shapes.
    #[test]
    fn reconcile_associative(
        a in arb_partition_set(),
        b in arb_partition_set(),
        c in arb_partition_set()
    ) {
        let left = reconcile_partition_sets(&reconcile_partition_sets(&a, &b), &c);
        let right = reconcile_partition_sets(&a, &reconcile_partition_sets(&b, &c));
        prop_assert_eq!(left, right);
    }

    /// `coarsens` is transitive.
    #[test]
    fn coarsens_transitive(
        a in arb_transform(),
        b in arb_transform(),
        c in arb_transform()
    ) {
        if a.coarsens(&b) && b.coarsens(&c) {
            prop_assert!(a.coarsens(&c), "{a:?} / {b:?} / {c:?}");
        }
    }

    /// Reconciling two transforms yields a coarsening of each.
    #[test]
    fn reconcile_transform_coarsens_both(a in arb_transform(), b in arb_transform()) {
        if let Some(r) = a.reconcile(&b) {
            prop_assert!(r.coarsens(&a));
            prop_assert!(r.coarsens(&b));
        }
    }
}

// ---------------------------------------------------------------------
// expression analysis
// ---------------------------------------------------------------------

proptest! {
    /// Analysis of a materialized transform round-trips.
    #[test]
    fn transform_to_expr_round_trips(t in arb_transform(), col in arb_column()) {
        let e = t.to_expr(&col);
        let analyzed = analyze_transform(&e).expect("single-column expr analyzes");
        prop_assert!(analyzed.column.same_as(&col));
        prop_assert_eq!(analyzed.transform, t);
    }

    /// Nested divisions compose multiplicatively.
    #[test]
    fn nested_div_composes(a in 1u64..1000, b in 1u64..1000) {
        let e = ScalarExpr::col("time").div(a).div(b);
        let analyzed = analyze_transform(&e).unwrap();
        prop_assert_eq!(analyzed.transform, ColumnTransform::Div(a * b));
    }

    /// Nested masks compose by intersection.
    #[test]
    fn nested_mask_composes(a in 1u64..=0xFFFF, b in 1u64..=0xFFFF) {
        let e = ScalarExpr::col("srcIP").mask(a).mask(b);
        let analyzed = analyze_transform(&e).unwrap();
        if a & b == 0 {
            // Degenerate all-zero mask still canonicalizes.
            prop_assert_eq!(analyzed.transform, ColumnTransform::Mask(0));
        } else {
            prop_assert_eq!(analyzed.transform, ColumnTransform::Mask(a & b));
        }
    }
}

// ---------------------------------------------------------------------
// parser round trip
// ---------------------------------------------------------------------

fn arb_scalar_expr() -> impl Strategy<Value = ScalarExpr> {
    use qap::expr::{BinOp, UnOp};
    let leaf = prop_oneof![
        prop_oneof![
            Just("srcIP"),
            Just("destIP"),
            Just("time"),
            Just("len"),
            Just("flags")
        ]
        .prop_map(ScalarExpr::col),
        (0u64..1_000_000).prop_map(ScalarExpr::lit),
        proptest::bool::ANY.prop_map(ScalarExpr::lit),
    ];
    leaf.prop_recursive(4, 32, 3, |inner| {
        let op = prop_oneof![
            Just(BinOp::Add),
            Just(BinOp::Sub),
            Just(BinOp::Mul),
            Just(BinOp::Div),
            Just(BinOp::Mod),
            Just(BinOp::BitAnd),
            Just(BinOp::BitOr),
            Just(BinOp::BitXor),
            Just(BinOp::Eq),
            Just(BinOp::Ne),
            Just(BinOp::Lt),
            Just(BinOp::Ge),
            Just(BinOp::And),
            Just(BinOp::Or),
        ];
        prop_oneof![
            (inner.clone(), op, inner.clone()).prop_map(|(l, op, r)| l.binary(op, r)),
            inner.clone().prop_map(|e| ScalarExpr::Unary {
                op: UnOp::Neg,
                expr: Box::new(e),
            }),
            inner.prop_map(|e| ScalarExpr::Unary {
                op: UnOp::BitNot,
                expr: Box::new(e),
            }),
        ]
    })
}

proptest! {
    /// Displaying any scalar expression and re-parsing it yields the
    /// same tree: the pretty-printer's parenthesization and the parser's
    /// precedence climbing agree.
    #[test]
    fn expression_display_parse_round_trips(e in arb_scalar_expr()) {
        let rendered = e.to_string();
        let reparsed = qap::sql::parse_expression(&rendered)
            .unwrap_or_else(|err| panic!("'{rendered}' failed to reparse: {err}"));
        prop_assert_eq!(reparsed, e);
    }
}

// ---------------------------------------------------------------------
// hash partitioner
// ---------------------------------------------------------------------

proptest! {
    /// Partition assignments are in range and deterministic, and agree
    /// for tuples equal on the partitioning attributes.
    #[test]
    fn partitioner_consistent(
        m in 1usize..16,
        src in 0u64..1000,
        dst in 0u64..1000,
        time1 in 0u64..100_000,
        time2 in 0u64..100_000
    ) {
        let ps = PartitionSet::from_columns(["srcIP", "destIP"]);
        let p = HashPartitioner::new(&ps, &tcp_schema(), m).unwrap();
        let t1 = qap::types::tuple![time1, time1, src, dst, 1u64, 2u64, 6u64, 0u64, 40u64];
        let t2 = qap::types::tuple![time2, time2, src, dst, 9u64, 9u64, 6u64, 1u64, 99u64];
        let a = p.partition(&t1);
        prop_assert!(a < m);
        prop_assert_eq!(a, p.partition(&t1));
        prop_assert_eq!(a, p.partition(&t2));
    }

    /// A coarser (masked) partitioning never separates tuples the finer
    /// grouping would collocate.
    #[test]
    fn masked_partitioner_respects_subnets(
        m in 1usize..8,
        subnet in 0u64..100,
        host1 in 0u64..256,
        host2 in 0u64..256
    ) {
        let ps = PartitionSet::from_exprs([&ScalarExpr::col("srcIP").mask(0xFFFF_FF00)]);
        let p = HashPartitioner::new(&ps, &tcp_schema(), m).unwrap();
        let ip1 = (subnet << 8) | host1;
        let ip2 = (subnet << 8) | host2;
        let t1 = qap::types::tuple![0u64, 0u64, ip1, 1u64, 1u64, 2u64, 6u64, 0u64, 40u64];
        let t2 = qap::types::tuple![0u64, 0u64, ip2, 2u64, 3u64, 4u64, 6u64, 0u64, 50u64];
        prop_assert_eq!(p.partition(&t1), p.partition(&t2));
    }
}

// ---------------------------------------------------------------------
// aggregate split/merge
// ---------------------------------------------------------------------

proptest! {
    /// For every splittable aggregate: partition the input arbitrarily,
    /// evaluate subs per part, merge at the super — equals direct
    /// evaluation (the Section 5.2.2 soundness property).
    #[test]
    fn split_merge_equals_direct(
        values in arb_value_seq(),
        cut in 0usize..40,
        kind in prop_oneof![
            Just(AggKind::Count),
            Just(AggKind::Sum),
            Just(AggKind::Min),
            Just(AggKind::Max),
            Just(AggKind::OrAgg),
            Just(AggKind::AndAgg),
        ]
    ) {
        let cut = cut.min(values.len());
        let (left, right) = values.split_at(cut);
        let direct = {
            let mut acc = make_accumulator(kind);
            for v in &values {
                acc.update(&Value::UInt(*v));
            }
            acc.finalize(DataType::UInt)
        };
        let spec = split_agg(kind);
        let partial = |part: &[u64]| {
            let mut acc = make_accumulator(spec.sub[0]);
            for v in part {
                acc.update(&Value::UInt(*v));
            }
            acc.finalize(DataType::UInt)
        };
        let mut sup = make_accumulator(spec.sup[0]);
        sup.merge(&partial(left));
        sup.merge(&partial(right));
        prop_assert_eq!(sup.finalize(DataType::UInt), direct);
    }
}

// ---------------------------------------------------------------------
// wire format
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn wire_round_trips(vals in proptest::collection::vec(0u64..u64::MAX, 0..20)) {
        let t = Tuple::new(vals.into_iter().map(Value::UInt).collect());
        let encoded = encode_tuple(&t).unwrap();
        prop_assert_eq!(encoded.len(), qap::types::encoded_len(&t));
        prop_assert_eq!(decode_tuple(encoded).unwrap(), t);
    }
}

fn arb_wire_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (0u64..u64::MAX).prop_map(Value::UInt),
        (0u64..u64::MAX).prop_map(|v| Value::Int(v as i64)),
        any::<bool>().prop_map(Value::Bool),
        // Includes the empty string and multi-byte UTF-8.
        prop_oneof![
            Just(""),
            Just("tcp"),
            Just("a longer label"),
            Just("°δ — multi-byte"),
        ]
        .prop_map(|s| Value::Str(s.into())),
    ]
}

/// Rows as a schema types them: each column takes the kind of its
/// first non-NULL value, and a later value of another kind is NULL in
/// it — a column holds one kind, as the plan's columns do.
fn typed(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    let arity = rows.first().map_or(0, Tuple::arity);
    for c in 0..arity {
        let kind = rows.iter().find_map(|t| t.get(c).data_type());
        for t in &mut rows {
            if t.get(c).data_type().is_some_and(|k| Some(k) != kind) {
                let mut values = t.values().to_vec();
                values[c] = Value::Null;
                *t = Tuple::new(values);
            }
        }
    }
    rows
}

/// Uniform-arity batches (what a frame carries — a
/// [`qap::types::ColumnBatch`] is rectangular by construction): a flat
/// value pool chunked into rows of one drawn arity, [`typed`].
fn arb_uniform_batch() -> impl Strategy<Value = Vec<Tuple>> {
    (
        1usize..6,
        proptest::collection::vec(arb_wire_value(), 0..40),
    )
        .prop_map(|(arity, vals)| {
            typed(
                vals.chunks_exact(arity)
                    .map(|c| Tuple::new(c.to_vec()))
                    .collect(),
            )
        })
}

/// One lane frame of `batch`.
fn lane_frame(batch: &[Tuple], scratch: &mut qap::types::BytesMut) -> qap::types::Bytes {
    let cols = qap::types::ColumnBatch::from_rows(batch);
    qap::types::encode_column_batch(&cols, scratch).unwrap()
}

proptest! {
    /// Batch framing round-trips for arbitrary batches — including the
    /// empty batch, NULLs and strings — the frame is
    /// exactly the 8-byte header plus `encoded_column_batch_len`, and a
    /// reused scratch buffer stages the same bytes as a fresh one.
    #[test]
    fn batch_framing_round_trips(batch in arb_uniform_batch()) {
        use qap::types::{
            decode_column_batch, encoded_column_batch_len, BytesMut, ColumnBatch, FRAME_HEADER_LEN,
        };
        let mut scratch = BytesMut::new();
        let frame = lane_frame(&batch, &mut scratch);
        let payload = encoded_column_batch_len(&ColumnBatch::from_rows(&batch));
        prop_assert_eq!(frame.len(), FRAME_HEADER_LEN + payload);
        let decoded = decode_column_batch(frame).unwrap();
        prop_assert_eq!(decoded.to_rows(), batch.clone());
        let again = lane_frame(&batch, &mut scratch);
        prop_assert_eq!(again, lane_frame(&batch, &mut BytesMut::new()));
    }

    /// Truncating a well-formed frame at any interior point yields a
    /// typed error, never a panic or a silently short batch.
    #[test]
    fn truncated_frames_error_cleanly(
        batch in arb_uniform_batch(),
        cut_pct in 0usize..100
    ) {
        use qap::types::{decode_column_batch, Bytes, BytesMut};
        let frame = lane_frame(&batch, &mut BytesMut::new());
        let cut = frame.len() * cut_pct / 100;
        if cut < frame.len() {
            let truncated = Bytes::from(frame.as_ref()[..cut].to_vec());
            prop_assert!(decode_column_batch(truncated).is_err());
        }
    }
}

// ---------------------------------------------------------------------
// wire mutation: decoders are total on damaged frames
// ---------------------------------------------------------------------

/// Applies one wire mutation to a valid frame: flip one bit anywhere
/// (header or payload), cut at an arbitrary point, append junk bytes,
/// inflate a length or count word, or splice the frame's head onto the
/// tail of `other`, a second valid frame. These model the damage a
/// boundary frame can suffer: corruption, truncation, trailing garbage,
/// a peer that lies about a size, and a stream that lost its place
/// between two frames.
fn mutate_frame(frame: &[u8], other: &[u8], kind: u64, pos: usize, junk: u8) -> Vec<u8> {
    let mut bytes = frame.to_vec();
    match kind % 5 {
        0 => {
            if !bytes.is_empty() {
                let i = pos % bytes.len();
                bytes[i] ^= 1 << (junk % 8);
            }
        }
        1 => {
            let cut = pos % (bytes.len() + 1);
            bytes.truncate(cut);
        }
        2 => {
            let extra = (pos % 9) + 1;
            bytes.extend(vec![junk; extra]);
        }
        3 => {
            // A big-endian `u32` word: the header's length word, the word
            // after it (a lane frame's row count), or any other. It grows
            // by at least the frame's length, so no length or count word
            // can still be satisfied.
            if let Some(last) = bytes.len().checked_sub(4) {
                let at = match pos % 3 {
                    0 => 0,
                    1 => last.min(4),
                    _ => pos / 3 % (last + 1),
                };
                let word = u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap());
                let by = ((bytes.len() as u64) << (junk % 16)).min(u64::from(u32::MAX)) as u32;
                bytes[at..at + 4].copy_from_slice(&word.saturating_add(by).to_be_bytes());
            }
        }
        _ => {
            let cut = pos % (bytes.len() + 1);
            let from = (pos / 7 + usize::from(junk)) % (other.len() + 1);
            bytes.truncate(cut);
            bytes.extend_from_slice(&other[from..]);
            // Every other splice is framed: its length word is rewritten
            // to cover the spliced bytes, as a sender that lost its
            // place but frames what it sends would write it.
            if junk.is_multiple_of(2) && cut >= 4 {
                let was = u32::from_be_bytes(frame[..4].try_into().unwrap()) as usize;
                if let Some(len) = bytes.len().checked_sub(frame.len() - was) {
                    bytes[..4].copy_from_slice(&(len as u32).to_be_bytes());
                }
            }
        }
    }
    bytes
}

/// Whether `mutate_frame` inflated the frame's header length word.
fn inflates_length_word(kind: u64, pos: usize, frame: &[u8]) -> bool {
    kind % 5 == 3 && pos.is_multiple_of(3) && frame.len() >= 4
}

/// Bytes one decode may allocate per byte of the frame it reads: a
/// string lane's empty string, whose 4-byte length prefix becomes an
/// 8-byte `ArcStr` slot and its 32-byte shared allocation, is the
/// costliest expansion the decoders perform (every other lane byte
/// decodes to at most one byte). Everything else per frame (the column
/// vector, a control frame's payload copy) fits the slack.
const ALLOC_PER_FRAME_BYTE: usize = 10;
/// Bytes one decode may allocate whatever its frame's length.
const ALLOC_SLACK: usize = 1024;

/// Counts the bytes the calling thread allocates while a count is
/// open ([`allocated_by`]), so a property can bound one decode's
/// allocations by its frame's length. The harness runs properties on
/// parallel threads; only the counting thread's allocations count.
struct CountingAlloc;

thread_local! {
    static COUNTING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    static ALLOCATED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

fn charge(bytes: usize) {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCATED.with(|a| a.set(a.get() + bytes));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System`'s guarantees are this allocator's. Counting reads and
// writes two const-initialized thread-local `Cell`s, which neither
// allocate nor re-enter the allocator.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        charge(layout.size());
        std::alloc::System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        charge(layout.size());
        std::alloc::System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, size: usize) -> *mut u8 {
        charge(size.saturating_sub(layout.size()));
        std::alloc::System.realloc(ptr, layout, size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the bytes it allocated on this
/// thread (a `realloc` counts its growth).
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCATED.with(|a| a.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCATED.with(std::cell::Cell::get))
}

/// Holds one decode of `len` frame bytes to the allocation bound.
fn assert_alloc_bound(allocated: usize, len: usize) {
    assert!(
        allocated <= ALLOC_PER_FRAME_BYTE * len + ALLOC_SLACK,
        "decoding {len} bytes allocated {allocated} bytes"
    );
}

/// Batches whose columns cover every lane kind: the varied arities of
/// [`arb_uniform_batch`] and the one-kind columns of [`arb_kinded_rows`]
/// (typed `UInt`, `Int`, `Bool` and `Str` lanes, all-NULL untyped
/// columns, NULL masks).
fn arb_every_lane_batch() -> impl Strategy<Value = Vec<Tuple>> {
    prop_oneof![
        arb_uniform_batch(),
        arb_kinded_rows().prop_map(|(_, rows)| rows),
    ]
}

proptest! {
    /// Damaged lane frames never panic the decoder: their headers carry
    /// row counts, lane tags and per-lane lengths, all of which the
    /// decoder validates against the remaining payload before
    /// allocating. Every mutation yields either a typed error or a
    /// batch the codec round-trips (a bit flip inside a value, or a
    /// splice at matching offsets, decodes to a *different* well-formed
    /// batch), and the original batch when the bytes are intact. An
    /// inflated length word is always refused, and no decode allocates
    /// more than [`ALLOC_PER_FRAME_BYTE`] × its frame's length +
    /// [`ALLOC_SLACK`].
    #[test]
    fn mutated_columnar_frames_decode_to_error_or_valid_batch(
        batch in arb_every_lane_batch(),
        other in arb_every_lane_batch(),
        kind in 0u64..5,
        pos in 0usize..4096,
        junk in 0u64..256
    ) {
        let junk = junk as u8;
        use qap::types::{decode_column_batch, encode_column_batch, Bytes, BytesMut};
        let frame = lane_frame(&batch, &mut BytesMut::new());
        let other = lane_frame(&other, &mut BytesMut::new());
        let mutated = mutate_frame(&frame, &other, kind, pos, junk);
        let len = mutated.len();
        let intact = mutated == frame.as_ref();
        let (decoded, allocated) = allocated_by(|| decode_column_batch(Bytes::from(mutated)));
        assert_alloc_bound(allocated, len);
        match decoded {
            Ok(decoded) => {
                prop_assert!(!inflates_length_word(kind, pos, &frame));
                if intact {
                    prop_assert_eq!(decoded.to_rows(), batch);
                }
                let canon = encode_column_batch(&decoded, &mut BytesMut::new()).unwrap();
                let again = decode_column_batch(canon.clone()).unwrap();
                prop_assert_eq!(encode_column_batch(&again, &mut BytesMut::new()).unwrap(), canon);
            }
            Err(_) => prop_assert!(!intact),
        }
    }

    /// The engine's frame entry ([`qap::exec::Engine::push_frame`])
    /// survives the same damage, including a flipped columnar flag: a
    /// mutated frame is ingested whole or refused with a typed error
    /// (`Wire` for a bad frame, `BadPlan` for a well-formed one of the
    /// wrong arity), and a frame without the flag is always refused.
    #[test]
    fn mutated_frames_survive_representation_dispatch(
        batch in arb_uniform_batch(),
        other in arb_uniform_batch(),
        kind in 0u64..5,
        pos in 0usize..4096,
        junk in 0u64..256
    ) {
        let junk = junk as u8;
        use qap::exec::ExecError;
        use qap::types::{Bytes, BytesMut, DataType, Field, Schema, COLUMNAR_FLAG};
        let arity = batch.first().map_or(1, |t| t.arity());
        let fields = (0..arity).map(|i| Field::new(format!("c{i}"), DataType::UInt)).collect();
        let mut catalog = Catalog::new();
        catalog.register(Schema::new("S", fields).unwrap()).unwrap();
        let mut dag = QueryDag::new(catalog);
        let source = dag.add_source("S").unwrap();
        let mut engine = Engine::new(&dag).unwrap();
        let frame = lane_frame(&batch, &mut BytesMut::new());
        let other = lane_frame(&other, &mut BytesMut::new());
        let mutated = mutate_frame(&frame, &other, kind, pos, junk);
        let flagged = mutated.len() >= 8
            && u32::from_be_bytes([mutated[4], mutated[5], mutated[6], mutated[7]]) & COLUMNAR_FLAG
                != 0;
        match engine.push_frame(source, Bytes::from(mutated)) {
            Ok(n) => prop_assert!(flagged && engine.counters()[source].tuples_in == n as u64),
            Err(ExecError::Wire(_) | ExecError::BadPlan(_)) => {}
            Err(other) => prop_assert!(false, "untyped refusal: {other}"),
        }
    }
}

/// Frames the mutators reach only by chance, pinned: the lane tags no
/// encoder writes (5, once the mixed lane's, and 6, once the
/// dictionary lane's) are a `BadTag`, and 18 bytes declaring 2³¹ − 1
/// rows of four untyped columns without their NULL masks are `Corrupt`
/// — refused before a mask is sized off the count, within the
/// allocation bound.
#[test]
fn retired_lane_tag_and_maskless_untyped_columns_are_refused() {
    use qap::types::{decode_column_batch, BufMut, BytesMut, TypeError, COLUMNAR_FLAG};
    for tag in [5, 6] {
        let mut frame = BytesMut::new();
        frame.put_u32(2 + 2 + 8); // arity + lane header + one u64
        frame.put_u32(1 | COLUMNAR_FLAG);
        frame.put_u16(1);
        frame.put_u8(tag);
        frame.put_u8(0);
        frame.put_u64(7);
        assert_eq!(
            decode_column_batch(frame.freeze()).err(),
            Some(TypeError::BadTag(tag))
        );
    }

    let mut maskless = BytesMut::new();
    maskless.put_u32(2 + 4 * 2); // arity + four lane headers
    maskless.put_u32(0x7FFF_FFFF | COLUMNAR_FLAG);
    maskless.put_u16(4);
    for _ in 0..4 {
        maskless.put_u8(0); // untyped lane
        maskless.put_u8(0); // no mask
    }
    assert_eq!(maskless.len(), 18);
    let (decoded, allocated) = allocated_by(|| decode_column_batch(maskless.freeze()));
    assert!(matches!(decoded, Err(TypeError::Corrupt(_))));
    assert_alloc_bound(allocated, 18);
}

/// Unsigned three times in four, so a column stays on the typed,
/// all-valid lane for a while before a NULL masks it (a value of
/// another kind is NULL in a [`typed`] column).
fn arb_mostly_uint() -> impl Strategy<Value = Value> {
    (0u8..8, 0u64..u64::MAX, arb_wire_value()).prop_map(|(pick, x, other)| {
        if pick < 6 {
            Value::UInt(x)
        } else {
            other
        }
    })
}

proptest! {
    /// `push_row` / `extend_rows` build exactly the columns that pushing
    /// each value through `Column::push` builds — same lane type, NULL
    /// mask and values — through self-typing and masking, with and
    /// without a row budget, and again on the recycled batch, whose
    /// lanes keep their type across `clear`.
    #[test]
    fn row_pushes_build_what_value_pushes_build(
        arity in 1usize..5,
        vals in proptest::collection::vec(arb_mostly_uint(), 0..60),
        budget in 0usize..20,
        split in 0usize..16
    ) {
        use qap::types::{Column, ColumnBatch};
        let rows = typed(vals.chunks_exact(arity).map(|c| Tuple::new(c.to_vec())).collect());
        let split = split.min(rows.len());
        let mut batch = ColumnBatch::with_row_budget(arity, budget);
        let mut columns = vec![Column::new(); arity];
        for _recycled in [false, true] {
            batch.clear();
            columns.iter_mut().for_each(Column::clear);
            for t in &rows[..split] {
                batch.push_row(t);
            }
            batch.extend_rows(&rows[split..]);
            for t in &rows {
                for (c, v) in columns.iter_mut().zip(t.values()) {
                    c.push(v);
                }
            }
            prop_assert_eq!(batch.rows(), rows.len());
            for (got, want) in batch.columns().iter().zip(&columns) {
                prop_assert_eq!(
                    got.data().map(std::mem::discriminant),
                    want.data().map(std::mem::discriminant)
                );
                prop_assert_eq!(got.null_mask(), want.null_mask());
                prop_assert_eq!(got.len(), want.len());
                for i in 0..want.len() {
                    prop_assert_eq!(got.value(i), want.value(i));
                }
            }
            prop_assert_eq!(&batch.to_rows(), &rows);
        }
    }
}

// ---------------------------------------------------------------------
// control-plane codec: handshake / deploy / data envelope frames
// ---------------------------------------------------------------------

/// Every control frame the process-level transport speaks: handshake
/// (`Hello`/`Welcome`), deployment (`Deploy`/`DeployAck`), the data
/// envelope, stream end, results, and typed error reports.
fn arb_control_frame() -> impl Strategy<Value = qap::types::ControlFrame> {
    use qap::types::{Bytes, ControlFrame};
    let arb_payload = proptest::collection::vec(0u8..=u8::MAX, 0..64)
        .prop_map(Bytes::from)
        .boxed();
    let arb_message = proptest::collection::vec(b' '..=b'~', 0..48)
        .prop_map(|b| String::from_utf8(b).expect("printable ASCII"));
    prop_oneof![
        (0u32..=u32::MAX, 0u32..=u32::MAX)
            .prop_map(|(version, host)| ControlFrame::Hello { version, host }),
        (0u32..=u32::MAX).prop_map(|version| ControlFrame::Welcome { version }),
        arb_payload.clone().prop_map(ControlFrame::Deploy),
        Just(ControlFrame::DeployAck),
        (0u32..=u32::MAX, arb_payload.clone())
            .prop_map(|(producer, frame)| ControlFrame::Data { producer, frame }),
        Just(ControlFrame::Eos),
        arb_payload.prop_map(ControlFrame::Result),
        (0u8..=u8::MAX, arb_message)
            .prop_map(|(kind, message)| ControlFrame::Error { kind, message }),
    ]
}

proptest! {
    /// Round-trip identity: every control frame decodes back to itself
    /// (encode is injective over the frame space, so coordinator and
    /// host agree on every handshake and envelope).
    #[test]
    fn control_frames_round_trip(frame in arb_control_frame()) {
        use qap::types::{decode_control, encode_control, BytesMut};
        let bytes = encode_control(&frame, &mut BytesMut::new()).unwrap();
        prop_assert_eq!(decode_control(bytes).unwrap(), frame);
    }

    /// Damaged control frames never panic the decoder: every mutation
    /// yields either a typed error or a frame the codec round-trips (a
    /// flip inside a payload byte can decode to a *different* valid
    /// frame), and the original frame when the bytes are intact. An
    /// inflated length word is always refused, and no decode allocates
    /// more than [`ALLOC_PER_FRAME_BYTE`] × its frame's length +
    /// [`ALLOC_SLACK`]. This is the hostile-network face of the
    /// handshake: whatever bytes arrive, the host stays up.
    #[test]
    fn mutated_control_frames_decode_to_error_or_valid_frame(
        frame in arb_control_frame(),
        other in arb_control_frame(),
        kind in 0u64..5,
        pos in 0usize..4096,
        junk in 0u64..256
    ) {
        let junk = junk as u8;
        use qap::types::{decode_control, encode_control, Bytes, BytesMut};
        let bytes = encode_control(&frame, &mut BytesMut::new()).unwrap();
        let other = encode_control(&other, &mut BytesMut::new()).unwrap();
        let mutated = mutate_frame(&bytes, &other, kind, pos, junk);
        let len = mutated.len();
        let intact = mutated == bytes.as_ref();
        let (decoded, allocated) = allocated_by(|| decode_control(Bytes::from(mutated)));
        assert_alloc_bound(allocated, len);
        match decoded {
            Ok(decoded) => {
                prop_assert!(!inflates_length_word(kind, pos, &bytes));
                if intact {
                    prop_assert_eq!(&decoded, &frame);
                }
                let canon = encode_control(&decoded, &mut BytesMut::new()).unwrap();
                prop_assert_eq!(decode_control(canon).unwrap(), decoded);
            }
            Err(_) => prop_assert!(!intact),
        }
    }

    /// Raw garbage (not derived from a valid frame) also lands on a
    /// typed error or a re-encodable frame — the decoder's length and
    /// tag validation runs before any allocation sized from the wire.
    #[test]
    fn arbitrary_bytes_never_panic_control_decoder(
        raw in proptest::collection::vec(0u8..=u8::MAX, 0..96)
    ) {
        use qap::types::{decode_control, encode_control, Bytes, BytesMut};
        if let Ok(decoded) = decode_control(Bytes::from(raw)) {
            prop_assert!(encode_control(&decoded, &mut BytesMut::new()).is_ok());
        }
    }
}

// ---------------------------------------------------------------------
// distributed == centralized, randomized
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized end-to-end equivalence: any seed, any cluster size,
    /// hash or round-robin — the distributed flows query equals the
    /// centralized run.
    #[test]
    fn distributed_equals_centralized(
        seed in 0u64..1000,
        hosts in 1usize..5,
        use_hash in any::<bool>()
    ) {
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.add_query(
            "flows",
            "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
             GROUP BY time/60 as tb, srcIP, destIP",
        )
        .unwrap();
        let dag = b.build();
        let trace = generate(&TraceConfig {
            seed,
            epochs: 2,
            flows_per_epoch: 60,
            hosts: 30,
            ..TraceConfig::default()
        });
        let mut reference: Vec<Tuple> =
            run_logical(&dag, trace.clone()).unwrap().remove(0).1;
        let partitioning = if use_hash {
            Partitioning::hash(PartitionSet::from_columns(["srcIP", "destIP"]), hosts)
        } else {
            Partitioning::round_robin(hosts)
        };
        let plan = optimize(&dag, &partitioning, &OptimizerConfig::naive()).unwrap();
        let mut rows = run_distributed(&plan, &trace, &SimConfig::default())
            .unwrap()
            .outputs
            .remove(0)
            .1;
        let key = |t: &Tuple| format!("{t}");
        reference.sort_by_key(key);
        rows.sort_by_key(key);
        prop_assert_eq!(rows, reference);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The Naive aggregator's ∪ holds a bucket until every port has
    /// reached it. Over 2–4 round-robin hosts and 3–4 epochs, at any
    /// frame and batch size, with a seeded delivery schedule that lets
    /// a port lag behind the others, the §6.1 aggregation (with and
    /// without its HAVING) through per-partition partials, the ∪ and
    /// the super-aggregate equals the model's.
    #[test]
    fn a_lagging_port_never_closes_a_window_early(
        seed in 1u64..1000,
        hosts in 2usize..5,
        epochs in 3u64..5,
        frame_batch in 4usize..65,
        max_batch in 16usize..1025,
        having in any::<bool>()
    ) {
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.add_query(
            "suspicious_flows",
            &format!(
                "SELECT tb, srcIP, destIP, srcPort, destPort, OR_AGGR(flags) as orflag, \
                 COUNT(*) as cnt, SUM(len) as bytes FROM TCP \
                 GROUP BY time/60 as tb, srcIP, destIP, srcPort, destPort{}",
                if having { " HAVING OR_AGGR(flags) = 0x29" } else { "" }
            ),
        )
        .unwrap();
        let dag = b.build();
        let trace = generate(&TraceConfig {
            seed,
            epochs,
            flows_per_epoch: 60,
            hosts: 30,
            ..TraceConfig::default()
        });
        let mut reference = run_logical(&dag, trace.clone()).unwrap().remove(0).1;
        let plan = optimize(&dag, &Partitioning::round_robin(hosts), &OptimizerConfig::naive())
            .unwrap();
        let cfg = SimConfig {
            batch: BatchConfig::new(max_batch),
            transport: TransportConfig::new(64, frame_batch).with_fault(FaultPlan::seeded(seed)),
            ..SimConfig::default()
        };
        let mut rows = run_distributed(&plan, &trace, &cfg).unwrap().outputs.remove(0).1;
        let key = |t: &Tuple| format!("{t}");
        reference.sort_by_key(key);
        rows.sort_by_key(key);
        prop_assert_eq!(rows, reference);
    }
}

// ---------------------------------------------------------------------
// batched == tuple-at-a-time, randomized
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batching is invisible at any batch size: a single-source logical
    /// plan (aggregation stack + epoch-offset self-join) is
    /// *bit-identical* to the per-tuple run, and a distributed plan
    /// keeps the exact per-node OpCounters and result multiset.
    #[test]
    fn batched_execution_equals_per_tuple(
        seed in 0u64..1000,
        batch in 1usize..5000,
        hosts in 1usize..5,
        use_hash in any::<bool>()
    ) {
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.add_query(
            "flows",
            "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
             GROUP BY time/60 as tb, srcIP, destIP",
        )
        .unwrap();
        b.add_query(
            "heavy_flows",
            "SELECT tb, srcIP, MAX(cnt) as max_cnt FROM flows GROUP BY tb, srcIP",
        )
        .unwrap();
        b.add_query(
            "flow_pairs",
            "SELECT S1.tb, S1.srcIP, S1.max_cnt, S2.max_cnt \
             FROM heavy_flows S1, heavy_flows S2 \
             WHERE S1.srcIP = S2.srcIP and S1.tb = S2.tb+1",
        )
        .unwrap();
        let dag = b.build();
        let trace = generate(&TraceConfig {
            seed,
            epochs: 2,
            flows_per_epoch: 40,
            hosts: 20,
            ..TraceConfig::default()
        });

        // Logical plan on one engine's lanes: bit-identical, order
        // included, and equal to the reference model's.
        let lanes = |batch: usize| {
            let mut engine = Engine::new(&dag).unwrap();
            engine.set_batch_config(BatchConfig::new(batch));
            let source = engine.source_nodes()[0];
            for chunk in trace.chunks(batch) {
                let mut cols = qap::types::ColumnBatch::from_rows(chunk);
                engine.push_columns(source, &mut cols).unwrap();
            }
            engine.finish().unwrap();
            dag.roots().into_iter().map(|r| (r, engine.output(r))).collect::<Vec<_>>()
        };
        let per_tuple = lanes(1);
        prop_assert_eq!(&per_tuple, &lanes(batch), "logical diverged at batch {}", batch);
        prop_assert_eq!(&per_tuple, &run_logical(&dag, trace.clone()).unwrap());

        // Distributed plan: identical counters, identical multisets.
        let partitioning = if use_hash {
            Partitioning::hash(PartitionSet::from_columns(["srcIP"]), hosts)
        } else {
            Partitioning::round_robin(hosts)
        };
        let plan = optimize(&dag, &partitioning, &OptimizerConfig::full()).unwrap();
        let base = run_distributed(
            &plan,
            &trace,
            &SimConfig { batch: BatchConfig::per_tuple(), ..SimConfig::default() },
        )
        .unwrap();
        let run = run_distributed(
            &plan,
            &trace,
            &SimConfig { batch: BatchConfig::new(batch), ..SimConfig::default() },
        )
        .unwrap();
        prop_assert_eq!(&base.counters, &run.counters, "counters diverged at batch {}", batch);
        let key = |t: &Tuple| format!("{t}");
        for ((name, rows), (bname, brows)) in base.outputs.iter().zip(run.outputs.iter()) {
            prop_assert_eq!(name, bname);
            let mut a = rows.clone();
            let mut c = brows.clone();
            a.sort_by_key(key);
            c.sort_by_key(key);
            prop_assert_eq!(a, c, "output {} diverged at batch {}", name, batch);
        }
    }
}

// ---------------------------------------------------------------------
// columnar representation and kernels
// ---------------------------------------------------------------------

use qap::expr::{BinOp, BoundExpr, ExprError, Filter, KernelScratch, Projection, UnOp};
use qap::types::{
    decode_column_batch, encode_column_batch, BytesMut, ColumnBatch, SelectionVector,
};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (0u64..=u64::MAX).prop_map(Value::UInt),
        (0u64..=u64::MAX).prop_map(Value::UInt),
        (i64::MIN..=i64::MAX).prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        (0u64..10_000).prop_map(|x| Value::from(format!("s{x:x}").as_str())),
        Just(Value::from("")),
    ]
}

/// Uniform-arity row batches of arbitrary values, [`typed`]. Rows are
/// drawn at width 4 and truncated to a shared arity.
fn arb_rows() -> impl Strategy<Value = Vec<Tuple>> {
    (
        0usize..5,
        proptest::collection::vec(proptest::collection::vec(arb_value(), 4..5), 0..25),
    )
        .prop_map(|(arity, rows)| {
            typed(
                rows.into_iter()
                    .map(|mut vals| {
                        vals.truncate(arity);
                        Tuple::new(vals)
                    })
                    .collect(),
            )
        })
}

/// Mostly-numeric rows of fixed arity 3 with occasional NULLs and
/// near-overflow values: the §6 traffic plus the overflow edges around
/// it.
fn arb_numeric_rows() -> impl Strategy<Value = Vec<Tuple>> {
    proptest::collection::vec(
        proptest::collection::vec(
            prop_oneof![
                (0u64..1_000).prop_map(Value::UInt),
                (0u64..1_000).prop_map(Value::UInt),
                (0u64..1_000).prop_map(Value::UInt),
                (0u64..1_000).prop_map(Value::UInt),
                Just(Value::Null),
                (u64::MAX - 8..=u64::MAX).prop_map(Value::UInt),
            ],
            3..4,
        )
        .prop_map(Tuple::new),
        0..40,
    )
}

fn cmp_expr(op: BinOp, l: BoundExpr, r: BoundExpr) -> BoundExpr {
    BoundExpr::Binary {
        op,
        lhs: Box::new(l),
        rhs: Box::new(r),
    }
}

fn arb_atom() -> impl Strategy<Value = BoundExpr> {
    let leaf = prop_oneof![
        (0usize..3).prop_map(BoundExpr::Column),
        (0u64..2_000).prop_map(|x| BoundExpr::Literal(Value::UInt(x))),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        (
            prop_oneof![
                Just(BinOp::Add),
                Just(BinOp::Sub),
                Just(BinOp::Mul),
                Just(BinOp::BitAnd),
            ],
            inner.clone(),
            inner,
        )
            .prop_map(|(op, l, r)| cmp_expr(op, l, r))
    })
}

fn arb_predicate() -> impl Strategy<Value = BoundExpr> {
    let cmp = (
        prop_oneof![
            Just(BinOp::Eq),
            Just(BinOp::Ne),
            Just(BinOp::Lt),
            Just(BinOp::Le),
            Just(BinOp::Gt),
            Just(BinOp::Ge),
        ],
        arb_atom(),
        arb_atom(),
    )
        .prop_map(|(op, l, r)| cmp_expr(op, l, r));
    cmp.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| cmp_expr(BinOp::And, l, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| cmp_expr(BinOp::Or, l, r)),
            inner.prop_map(|e| BoundExpr::Unary {
                op: UnOp::Not,
                expr: Box::new(e),
            }),
        ]
    })
}

/// Holds a [`Filter`] over `rows` to the interpreter's predicate: the
/// same rows kept, or the error of the first row that errs.
fn assert_filter_is_the_interpreter(p: BoundExpr, rows: &[Tuple]) {
    let want: Result<Vec<u32>, ExprError> = rows
        .iter()
        .enumerate()
        .filter_map(|(i, t)| match p.eval_predicate(t) {
            Ok(true) => Some(Ok(i as u32)),
            Ok(false) => None,
            Err(e) => Some(Err(e)),
        })
        .collect();
    let batch = ColumnBatch::from_rows(rows);
    let mut sel = SelectionVector::identity(rows.len());
    let got = Filter::new(p).apply(&batch, &mut sel, &mut KernelScratch::new());
    match (got, want) {
        (Ok(()), Ok(want)) => prop_assert_eq!(sel.as_slice(), &want[..]),
        (Err(got), Err(want)) => prop_assert_eq!(got, want),
        (got, want) => prop_assert!(
            false,
            "filter {:?} ({:?}) where the interpreter gives {:?}",
            got,
            sel.as_slice(),
            want
        ),
    }
}

/// Holds a [`Projection`] of `exprs` over `rows` to the interpreter:
/// each output lane is the one pushing the interpreter's values builds
/// (kind, NULL mask, values), or the error is the first one the
/// interpreter meets, row-major across the list.
fn assert_projection_is_the_interpreter(exprs: Vec<BoundExpr>, rows: &[Tuple]) {
    let want: Result<Vec<Vec<Value>>, ExprError> = rows
        .iter()
        .map(|t| exprs.iter().map(|e| e.eval(t)).collect())
        .collect();
    let mut batch = ColumnBatch::from_rows(rows);
    let got = Projection::new(exprs).project(&mut batch, &mut KernelScratch::new());
    match (got, want) {
        (Ok(out), Ok(want)) => {
            prop_assert_eq!(out.rows(), rows.len());
            for (i, vals) in want.iter().enumerate() {
                prop_assert_eq!(out.row(i).values(), &vals[..], "row {}", i);
            }
            for (j, lane) in out.columns().iter().enumerate() {
                let vals: Vec<Value> = want.iter().map(|r| r[j].clone()).collect();
                let pushed = qap::types::Column::from_values(&vals);
                prop_assert_eq!(lane.data_type(), pushed.data_type(), "lane {}", j);
                prop_assert_eq!(lane.null_mask(), pushed.null_mask(), "lane {}", j);
            }
        }
        (Err(got), Err(want)) => prop_assert_eq!(got, want),
        (got, want) => prop_assert!(
            false,
            "projection {:?} where the interpreter gives {:?}",
            got.map(|out| out.to_rows()),
            want
        ),
    }
}

/// String-heavy two-column rows: a small label vocabulary with NULLs,
/// the empty string, and multi-byte UTF-8 mixed in, next to a numeric
/// lane.
fn arb_str_rows() -> impl Strategy<Value = Vec<Tuple>> {
    proptest::collection::vec(
        (
            prop_oneof![
                Just(Value::Null),
                prop_oneof![
                    Just("tcp"),
                    Just("udp"),
                    Just("icmp"),
                    Just(""),
                    Just("°δ — label"),
                ]
                .prop_map(Value::from),
            ],
            0u64..100,
        )
            .prop_map(|(s, v)| Tuple::new(vec![s, Value::UInt(v)])),
        0..40,
    )
}

proptest! {
    /// Row → column → row is the identity for arbitrary uniform-arity
    /// batches: every value kind, NULLs and interned strings survive
    /// the transpose.
    #[test]
    fn row_column_row_round_trip(rows in arb_rows()) {
        let b = ColumnBatch::from_rows(&rows);
        prop_assert_eq!(b.rows(), rows.len());
        prop_assert_eq!(b.to_rows(), rows);
    }

    /// The columnar wire codec round-trips the same batches exactly:
    /// transpose → encode → decode → materialize is the identity.
    #[test]
    fn columnar_wire_round_trip(rows in arb_rows()) {
        let b = ColumnBatch::from_rows(&rows);
        let mut scratch = BytesMut::new();
        let frame = encode_column_batch(&b, &mut scratch).unwrap();
        let decoded = decode_column_batch(frame).unwrap();
        prop_assert_eq!(decoded.rows(), rows.len());
        prop_assert_eq!(decoded.to_rows(), rows);
    }

    /// The predicate kernel — a [`Filter`] — selects exactly the rows
    /// the interpreter keeps, or fails with the interpreter's first
    /// error (overflow etc.).
    #[test]
    fn predicate_kernel_agrees_with_interpreter(
        p in arb_predicate(),
        rows in arb_numeric_rows()
    ) {
        assert_filter_is_the_interpreter(p, &rows);
    }

    /// String-heavy batches round-trip the columnar wire: ship the
    /// string lanes, decode, and the materialized rows are identical to
    /// the originals — NULLs, the empty string and multi-byte UTF-8
    /// included.
    #[test]
    fn dict_encoded_batches_round_trip_the_wire(rows in arb_str_rows()) {
        let b = ColumnBatch::from_rows(&rows);
        let frame = encode_column_batch(&b, &mut BytesMut::new()).unwrap();
        let decoded = decode_column_batch(frame).unwrap();
        prop_assert_eq!(decoded.rows(), rows.len());
        prop_assert_eq!(decoded.to_rows(), rows);
    }

    /// A string-equality filter selects exactly the rows the
    /// interpreter keeps on a string lane.
    #[test]
    fn string_equality_kernel_agrees_with_interpreter(
        rows in arb_str_rows(),
        needle in prop_oneof![
            Just("tcp"), Just("udp"), Just(""), Just("°δ — label"), Just("absent"),
        ],
        negate in any::<bool>()
    ) {
        let p = cmp_expr(
            if negate { BinOp::Ne } else { BinOp::Eq },
            BoundExpr::Column(0),
            BoundExpr::Literal(Value::from(needle)),
        );
        assert_filter_is_the_interpreter(p, &rows);
    }

    /// A numeric projection computes exactly the interpreter's lane row
    /// for row, or fails with its first error.
    #[test]
    fn num_kernel_agrees_with_interpreter(
        e in arb_atom(),
        rows in arb_numeric_rows()
    ) {
        assert_projection_is_the_interpreter(vec![e], &rows);
    }
}

// ---------------------------------------------------------------------
// the column evaluator: `Filter` and `Projection` on any lanes
// ---------------------------------------------------------------------

/// Rows of four lanes — `uint`, `int`, `bool` and `string`, in that
/// order — with NULLs, and values that make arithmetic overflow, borrow
/// or divide by zero.
fn arb_lane_rows() -> impl Strategy<Value = Vec<Tuple>> {
    let uint = prop_oneof![
        Just(Value::Null),
        (0u64..4).prop_map(Value::UInt),
        (0u64..100).prop_map(Value::UInt),
        (u64::MAX - 2..=u64::MAX).prop_map(Value::UInt),
    ];
    let int = prop_oneof![
        Just(Value::Null),
        (-3i64..4).prop_map(Value::Int),
        Just(Value::Int(i64::MIN)),
        Just(Value::Int(i64::MAX)),
    ];
    let boolean = prop_oneof![Just(Value::Null), any::<bool>().prop_map(Value::Bool)];
    let string = prop_oneof![
        Just(Value::Null),
        Just(Value::from("a")),
        Just(Value::from("")),
    ];
    let row = (uint, int, boolean, string).prop_map(|(u, i, b, s)| Tuple::new(vec![u, i, b, s]));
    proptest::collection::vec(row, 1..40)
}

/// Bound expressions over [`arb_lane_rows`]' lanes: arithmetic that
/// overflows, borrows or divides by zero, comparisons, three-valued
/// logic and operands of the wrong kind.
fn arb_lane_expr() -> impl Strategy<Value = BoundExpr> {
    let literal = prop_oneof![
        Just(Value::UInt(0)),
        Just(Value::UInt(3)),
        Just(Value::UInt(u64::MAX)),
        Just(Value::Int(-2)),
        Just(Value::Bool(true)),
        Just(Value::from("a")),
        Just(Value::Null),
    ];
    let leaf = prop_oneof![
        (0usize..4).prop_map(BoundExpr::Column),
        (0usize..4).prop_map(BoundExpr::Column),
        literal.prop_map(BoundExpr::Literal),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        let binary = prop_oneof![
            Just(BinOp::Add),
            Just(BinOp::Sub),
            Just(BinOp::Mul),
            Just(BinOp::Div),
            Just(BinOp::Mod),
            Just(BinOp::BitAnd),
            Just(BinOp::Eq),
            Just(BinOp::Lt),
            Just(BinOp::And),
            Just(BinOp::Or),
        ];
        let unary = prop_oneof![Just(UnOp::Neg), Just(UnOp::Not), Just(UnOp::BitNot)];
        prop_oneof![
            (binary, inner.clone(), inner.clone()).prop_map(|(op, l, r)| cmp_expr(op, l, r)),
            (unary, inner).prop_map(|(op, e)| BoundExpr::Unary {
                op,
                expr: Box::new(e),
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Over any lanes, a projection list's output lanes hold exactly the
    /// interpreter's values row for row, with the kinds and NULL masks
    /// pushing them builds, or its error is the first one the
    /// interpreter meets, row-major across the list.
    #[test]
    fn projection_equals_the_interpreter_row_major(
        e0 in arb_lane_expr(),
        e1 in arb_lane_expr(),
        e2 in arb_lane_expr(),
        rows in arb_lane_rows()
    ) {
        assert_projection_is_the_interpreter(vec![e0, e1, e2, BoundExpr::Column(3)], &rows);
    }

    /// Over any lanes, a filter keeps exactly the rows the interpreter's
    /// predicate keeps, or fails with the error of the first row that
    /// errs.
    #[test]
    fn filter_equals_the_interpreter(p in arb_lane_expr(), rows in arb_lane_rows()) {
        assert_filter_is_the_interpreter(p, &rows);
    }
}

// ---------------------------------------------------------------------
// lane-to-lane appends: `append_range` / `append_gather`
// ---------------------------------------------------------------------

/// Per column of an arity-3 batch, one kind — unsigned, signed,
/// boolean or a small string vocabulary — and rows of raw cells, each a
/// NULL pick (0 is NULL) and a number [`kinded_rows`] makes a value of
/// its column's kind.
fn arb_kinded_cells() -> impl Strategy<Value = (Vec<u8>, Vec<Vec<(u8, u64)>>)> {
    (
        proptest::collection::vec(0u8..4, 3..4),
        proptest::collection::vec(
            proptest::collection::vec((0u8..6, 0u64..1_000), 3..4),
            0..30,
        ),
    )
}

/// The rows of [`arb_kinded_cells`]' cells under the column kinds
/// `kinds`.
fn kinded_rows(kinds: &[u8], cells: &[Vec<(u8, u64)>]) -> Vec<Tuple> {
    let value = |kind: u8, x: u64| match kind {
        0 => Value::UInt(x),
        1 => Value::Int(x as i64 - 500),
        2 => Value::Bool(x % 2 == 1),
        _ => Value::from(["tcp", "udp", "", "°δ", "icmp"][x as usize % 5]),
    };
    cells
        .iter()
        .map(|row| {
            Tuple::new(
                row.iter()
                    .zip(kinds)
                    .map(|(&(null, x), &kind)| match null {
                        0 => Value::Null,
                        _ => value(kind, x),
                    })
                    .collect(),
            )
        })
        .collect()
}

/// A batch of arity 3 whose columns each hold one kind, with NULLs
/// sprinkled in. Returns the per-column kinds with the rows.
fn arb_kinded_rows() -> impl Strategy<Value = (Vec<u8>, Vec<Tuple>)> {
    arb_kinded_cells().prop_map(|(kinds, cells)| {
        let rows = kinded_rows(&kinds, &cells);
        (kinds, rows)
    })
}

proptest! {
    /// `append_range` and `append_gather` leave exactly the rows that
    /// pushing each named source row would — across typed, nullable and
    /// untyped lanes — and keep each lane of its column's kind. The
    /// source shares the destination's column kinds, and a cleared
    /// destination takes any source's.
    #[test]
    fn lane_appends_equal_row_pushes(
        dst in arb_kinded_cells(),
        src in arb_kinded_cells(),
        bounds in (0usize..40, 0usize..40),
        picks in proptest::collection::vec(0usize..1_000, 0..40)
    ) {
        let ((kinds, dst_cells), (other_kinds, src_cells)) = (dst, src);
        let dst_rows = kinded_rows(&kinds, &dst_cells);
        let src_rows = kinded_rows(&kinds, &src_cells);
        let mut dst = ColumnBatch::from_rows(&dst_rows);
        if dst_rows.is_empty() {
            dst = ColumnBatch::new(3);
        }
        let mut src = ColumnBatch::from_rows(&src_rows);
        if src_rows.is_empty() {
            src = ColumnBatch::new(3);
        }
        let n = src_rows.len();
        let (a, b) = (bounds.0.min(n), bounds.1.min(n));
        let range = a.min(b)..a.max(b);
        let idx: Vec<u32> = if n == 0 {
            Vec::new()
        } else {
            picks.iter().map(|p| (p % n) as u32).collect()
        };

        let mut ranged = dst.clone();
        ranged.append_range(&src, range.clone());
        let mut want = dst_rows.clone();
        want.extend_from_slice(&src_rows[range]);
        prop_assert_eq!(ranged.rows(), want.len());
        prop_assert_eq!(&ranged.to_rows(), &want);

        let mut gathered = dst.clone();
        gathered.append_gather(&src, &idx);
        let mut want = dst_rows.clone();
        want.extend(idx.iter().map(|&i| src_rows[i as usize].clone()));
        prop_assert_eq!(gathered.rows(), want.len());
        prop_assert_eq!(&gathered.to_rows(), &want);

        let kind_of = |k: u8| [DataType::UInt, DataType::Int, DataType::Bool, DataType::Str][k as usize];
        for batch in [&ranged, &gathered] {
            for (c, col) in batch.columns().iter().enumerate() {
                prop_assert_eq!(col.len(), batch.rows());
                prop_assert!(col.null_mask().is_empty() || col.null_mask().len() == col.len());
                prop_assert!(col.data_type().is_none_or(|t| t == kind_of(kinds[c])));
            }
        }

        // A recycled (cleared) destination takes the lane types of a
        // source of other kinds instead of keeping its stale ones.
        let other_rows = kinded_rows(&other_kinds, &src_cells);
        let other = ColumnBatch::from_rows(&other_rows);
        if !idx.is_empty() {
            let mut recycled = dst.clone();
            recycled.clear();
            recycled.append_gather(&other, &idx);
            prop_assert_eq!(
                recycled.to_rows(),
                idx.iter().map(|&i| other_rows[i as usize].clone()).collect::<Vec<_>>()
            );
            for (c, col) in recycled.columns().iter().enumerate() {
                prop_assert!(col.data_type().is_none_or(|t| t == kind_of(other_kinds[c])));
            }
        }
    }
}

// ---------------------------------------------------------------------
// boundary frames: cut off lanes ≡ staged from rows
// ---------------------------------------------------------------------

/// The batch with every typed lane's NULL positions overwritten — what a
/// kernel that computes straight through NULL inputs leaves there.
fn poison_placeholders(batch: &ColumnBatch) -> ColumnBatch {
    use qap::types::{Column, ColumnData};
    let columns = batch
        .columns()
        .iter()
        .map(|c| {
            let mask = c.null_mask();
            let junk = |i: usize| !mask.is_empty() && mask[i];
            let data = match c.data() {
                Some(ColumnData::UInt(l)) => ColumnData::UInt(
                    (0..l.len())
                        .map(|i| if junk(i) { 0xDEAD } else { l[i] })
                        .collect(),
                ),
                Some(ColumnData::Int(l)) => ColumnData::Int(
                    (0..l.len())
                        .map(|i| if junk(i) { -7 } else { l[i] })
                        .collect(),
                ),
                Some(ColumnData::Bool(l)) => {
                    ColumnData::Bool((0..l.len()).map(|i| junk(i) || l[i]).collect())
                }
                _ => return c.clone(),
            };
            Column::from_parts(data, mask.to_vec())
        })
        .collect();
    ColumnBatch::from_columns_with_rows(columns, batch.rows())
}

proptest! {
    /// A unit's boundary, as `unit::forward_boundary` runs it: the
    /// producer's output arrives in drains of any size, as lanes of
    /// whatever type each drain's values gave them (placeholders under
    /// NULLs poisoned or not), and frames of
    /// `frame_batch` rows are cut off it with `append_range` into one
    /// reused staging batch. Every frame must be, byte for byte, the
    /// frame of the same rows pushed one by one into a fresh batch: its
    /// bytes depend on the rows it carries and on nothing the lanes
    /// remember — not a NULL elsewhere in the drain, not a lane type
    /// the staging batch held a frame ago.
    #[test]
    fn lane_cut_frames_equal_row_staged_frames(
        src in arb_kinded_rows(),
        poison in any::<bool>(),
        frame_batch in 1usize..9,
        drains in proptest::collection::vec(0usize..12, 0..8)
    ) {
        let (_, rows) = src;
        let mut scratch = BytesMut::new();

        let mut want = Vec::new();
        for chunk in rows.chunks(frame_batch) {
            let mut stage = ColumnBatch::new(3);
            stage.extend_rows(chunk);
            want.push(encode_column_batch(&stage, &mut scratch).unwrap());
        }

        // Drain boundaries: the given sizes, then whatever is left.
        let mut bounds = vec![0];
        for d in drains {
            bounds.push((bounds[bounds.len() - 1] + d).min(rows.len()));
        }
        bounds.push(rows.len());
        let mut got = Vec::new();
        let mut pending = ColumnBatch::new(3);
        for w in bounds.windows(2) {
            let mut drained = ColumnBatch::from_rows(&rows[w[0]..w[1]]);
            if drained.is_empty() {
                continue;
            }
            if poison {
                drained = poison_placeholders(&drained);
            }
            let mut at = 0;
            while pending.rows() + (drained.rows() - at) >= frame_batch {
                let cut = at + frame_batch - pending.rows();
                pending.append_range(&drained, at..cut);
                at = cut;
                got.push(encode_column_batch(&pending, &mut scratch).unwrap());
                pending.clear();
            }
            pending.append_range(&drained, at..drained.rows());
        }
        if !pending.is_empty() {
            got.push(encode_column_batch(&pending, &mut scratch).unwrap());
        }

        prop_assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {

            prop_assert!(g == w, "frame {} of {} differs", i, want.len());
            prop_assert_eq!(
                decode_column_batch(g.clone()).unwrap().to_rows(),
                rows[i * frame_batch..rows.len().min((i + 1) * frame_batch)].to_vec()
            );
        }
    }
}

// ---------------------------------------------------------------------
// dictionary lanes: any share of repeated values
// ---------------------------------------------------------------------

/// A `uint` and an `int` lane of `rows` rows, each drawn from at most
/// `distinct` values `step` apart (1 packs at a byte, 300 at two, 70,000
/// at four, 2⁴⁰ at eight), every `nulls`-th row NULL when `nulls` > 1.
fn dictionary_rows(rows: usize, distinct: usize, step: u64, nulls: usize, seed: u64) -> Vec<Tuple> {
    let mut s = seed | 1;
    let mut pick = || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 33) % distinct as u64
    };
    (0..rows)
        .map(|i| {
            if nulls > 1 && i % nulls == 0 {
                return Tuple::new(vec![Value::Null, Value::Null]);
            }
            let (a, b) = (pick(), pick());
            Tuple::new(vec![
                Value::UInt(1_000 + a.wrapping_mul(step)),
                Value::Int((b.wrapping_mul(step) as i64).wrapping_sub(1 << 20)),
            ])
        })
        .collect()
}

/// The payload of `batch`'s frame with every integer lane packed: what
/// the frame cost before dictionaries.
fn packed_only_len(batch: &qap::types::ColumnBatch) -> usize {
    let n = batch.rows();
    2 + batch
        .columns()
        .iter()
        .map(|col| {
            let nulls: Vec<bool> = (0..n).map(|i| col.is_null(i)).collect();
            let mask = if nulls.contains(&true) { n } else { 0 };
            let orders: Vec<i128> = (0..n)
                .filter(|&i| !nulls[i])
                .map(|i| match col.value(i) {
                    Value::UInt(x) => i128::from(x),
                    Value::Int(x) => i128::from(x),
                    other => panic!("not an integer lane: {other:?}"),
                })
                .collect();
            if orders.is_empty() {
                return 2 + mask;
            }
            let span = orders.iter().max().unwrap() - orders.iter().min().unwrap();
            let width = match span {
                0..=0xFF => 1,
                0x100..=0xFFFF => 2,
                0x1_0000..=0xFFFF_FFFF => 4,
                _ => 8,
            };
            2 + mask + 1 + 8 + width * n
        })
        .sum::<usize>()
}

proptest! {
    /// Lanes drawn from 1 to `rows` distinct values round-trip, their
    /// frame is never larger than with every lane packed (a dictionary
    /// ships only when strictly smaller), and damaged copies of it
    /// decode to a typed error or a batch the codec round-trips, within
    /// the decoders' allocation bound.
    #[test]
    fn dictionary_lanes_round_trip_and_never_outgrow_packed_lanes(
        rows in 1usize..600,
        distinct in 1usize..600,
        shape in 0usize..16,
        seed in 0u64..u64::MAX,
        damage in 0usize..5 * 4096 * 256
    ) {
        // The lanes' spacing and NULL rows; the mutation's kind, place
        // and junk byte.
        let (scale, nulls) = (shape % 4, shape / 4);
        let (kind, pos, junk) = ((damage % 5) as u64, damage / 5 % 4096, damage / 5 / 4096);
        use qap::types::{
            decode_column_batch, encode_column_batch, encoded_column_batch_len, Bytes, BytesMut,
            ColumnBatch, FRAME_HEADER_LEN,
        };
        let step = [1, 300, 70_000, 1 << 40][scale];
        let batch = dictionary_rows(rows, 1 + distinct % rows, step, nulls, seed);
        let cols = ColumnBatch::from_rows(&batch);
        let frame = encode_column_batch(&cols, &mut BytesMut::new()).unwrap();
        prop_assert_eq!(frame.len(), FRAME_HEADER_LEN + encoded_column_batch_len(&cols));
        prop_assert!(frame.len() <= FRAME_HEADER_LEN + packed_only_len(&cols));
        prop_assert_eq!(decode_column_batch(frame.clone()).unwrap().to_rows(), batch);

        let mutated = mutate_frame(&frame, &frame, kind, pos, junk as u8);
        let len = mutated.len();
        let (decoded, allocated) = allocated_by(|| decode_column_batch(Bytes::from(mutated)));
        assert_alloc_bound(allocated, len);
        if let Ok(decoded) = decoded {
            let canon = encode_column_batch(&decoded, &mut BytesMut::new()).unwrap();
            let again = decode_column_batch(canon.clone()).unwrap();
            prop_assert_eq!(encode_column_batch(&again, &mut BytesMut::new()).unwrap(), canon);
        }
    }
}
