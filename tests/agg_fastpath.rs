//! Differential tests for the aggregation operator: the reference model
//! against the lanes.
//!
//! The model (`run_logical`) is the plain per-tuple algorithm with no
//! engine code in it: evaluate the group key, find or create the group
//! in a map, fold each slot. The lane entry (`Engine::push_columns`)
//! classifies group keys (plain column, `column / constant`,
//! kernel-compiled) and folds (`COUNT(*)`, and every word-kind slot over
//! a column, merge slots included) into lane reads, and falls back to the
//! per-row algorithm for everything else — `MIN`/`MAX`/UDAF slots,
//! computed arguments, and any *value* outside a lane shape's domain
//! (NULL or signed inputs reaching a `DivConst` key or a folded slot). The contract is that the lanes are invisible:
//! byte-identical output tuples against the model, and identical
//! operator counters at every batch size, including inputs engineered to
//! cross the lane/fallback seam mid-stream.
//!
//! Closing a window is on lanes too: keys come straight off the group
//! table's words (or its values, once a non-unsigned key has poisoned
//! the window), slots finalize lane by lane, and HAVING runs as a
//! compiled kernel over the staged window, or through the interpreter
//! when the kernel refuses the predicate or bails. The tests at the end
//! cross each of those seams with all-unsigned key columns.

use std::sync::Arc;

use qap::expr::{bind, KernelScratch, PredicateKernel};
use qap::prelude::*;
use qap::types::{encode_tuple, ColumnBatch, SelectionVector, Udaf, UdafState};

/// One sink's output: (sink node id, encoded rows in emission order).
type SinkRows = (usize, Vec<Vec<u8>>);

fn encode(outputs: Vec<(usize, Vec<Tuple>)>) -> Vec<SinkRows> {
    outputs
        .into_iter()
        .map(|(id, rows)| (id, rows.iter().map(|t| encode_tuple(t).to_vec()).collect()))
        .collect()
}

/// Runs a query set through the lanes (tuples transposed to
/// [`ColumnBatch`] chunks of `batch` rows, pushed via `push_columns`)
/// and returns the root outputs encoded to wire bytes plus the engine's
/// counters.
fn run_lanes(dag: &QueryDag, input: &[Tuple], batch: usize) -> (Vec<SinkRows>, Vec<OpCounters>) {
    let mut engine = Engine::new(dag).expect("engine builds");
    engine.set_batch_config(BatchConfig::new(batch));
    for s in engine.source_nodes() {
        for chunk in input.chunks(batch) {
            let mut cols = ColumnBatch::from_rows(chunk);
            engine.push_columns(s, &mut cols).expect("push");
        }
    }
    engine.finish().expect("finish");
    let counters = engine.counters().to_vec();
    let outputs = dag
        .roots()
        .into_iter()
        .map(|id| (id, engine.output(id)))
        .collect();
    (encode(outputs), counters)
}

/// Asserts the lanes are invisible: at every batch size, byte-identical
/// outputs against the model and counters identical to the batch-size-1
/// run's.
fn assert_model_equals_lanes(dag: &QueryDag, input: &[Tuple], label: &str) {
    let model = encode(run_logical(dag, input.iter().cloned()).expect("model runs"));
    assert!(
        model.iter().any(|(_, rows)| !rows.is_empty()),
        "{label}: the model produced no rows"
    );
    let (_, ref_counters) = run_lanes(dag, input, 1);
    for batch in [1usize, 5, 64, 1024] {
        let (out, counters) = run_lanes(dag, input, batch);
        assert_eq!(out, model, "{label}: outputs differ at batch {batch}");
        assert_eq!(
            counters, ref_counters,
            "{label}: counters differ at batch {batch}"
        );
    }
}

fn tcp_dag(query: &str) -> QueryDag {
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    b.add_query("q", query).expect("query parses");
    b.build()
}

fn tcp_trace() -> Vec<Tuple> {
    generate(&TraceConfig {
        epochs: 3,
        flows_per_epoch: 150,
        hosts: 60,
        max_flow_packets: 12,
        seed: 4117,
        ..TraceConfig::default()
    })
}

#[test]
fn fast_keys_and_fast_slots() {
    // Col + DivConst keys, CountStar + SumCol folds: every shortcut at
    // once, on its home turf (all-unsigned packet fields).
    let dag = tcp_dag(
        "SELECT tb, srcIP, COUNT(*) as cnt, SUM(len) as bytes FROM TCP \
         GROUP BY time/60 as tb, srcIP",
    );
    assert_model_equals_lanes(&dag, &tcp_trace(), "fast keys + fast slots");
}

#[test]
fn masked_key_takes_general_evaluator() {
    // `srcIP & 0xFFF0` is not a classified key shape, so the whole key
    // tuple goes through the materializing path.
    let dag = tcp_dag(
        "SELECT tb, subnet, COUNT(*) as cnt FROM TCP \
         GROUP BY time/60 as tb, srcIP & 0xFFF0 as subnet",
    );
    assert_model_equals_lanes(&dag, &tcp_trace(), "masked key");
}

#[test]
fn having_or_aggr_general_path() {
    // The Section 6.1 query: OR_AGGR has no fold shortcut and HAVING
    // filters at flush; both must match the model at every batch size.
    let dag = tcp_dag(
        "SELECT tb, srcIP, destIP, srcPort, destPort, \
         OR_AGGR(flags) as orflag, COUNT(*) as cnt FROM TCP \
         GROUP BY time/60 as tb, srcIP, destIP, srcPort, destPort \
         HAVING OR_AGGR(flags) = 0x29",
    );
    assert_model_equals_lanes(&dag, &tcp_trace(), "HAVING + OR_AGGR");
}

/// A hand-built stream whose key and sum columns wander outside the
/// fast paths' value domains mid-stream.
fn mixed_dag() -> QueryDag {
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    b.parse_script(
        "STREAM S(ts uint increasing, k uint, v uint);\n\
         QUERY mixed: SELECT tb, kb, COUNT(*) as cnt, SUM(v) as sv FROM S \
         GROUP BY ts/60 as tb, k/10 as kb;",
    )
    .expect("script parses");
    b.build()
}

fn mixed_trace() -> Vec<Tuple> {
    // ts advances normally; k and v cycle through UInt (fast), Int and
    // NULL (fallback), so consecutive tuples of the same batch take
    // different paths through the same group table.
    (0..600u64)
        .map(|i| {
            let k = match i % 4 {
                0 | 1 => Value::UInt(i % 50),
                2 => Value::Int(-((i % 30) as i64)),
                _ => Value::Null,
            };
            let v = match i % 3 {
                0 => Value::UInt(i),
                1 => Value::Int(-5),
                _ => Value::Null,
            };
            Tuple::new(vec![Value::UInt(i / 2), k, v])
        })
        .collect()
}

#[test]
fn mixed_type_inputs_cross_the_fallback_seam() {
    let dag = mixed_dag();
    assert_model_equals_lanes(&dag, &mixed_trace(), "mixed-type keys and sums");
}

/// A stream with signed and boolean columns, exercising the Int and
/// Bool typed lanes end to end.
fn signed_dag() -> QueryDag {
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    b.parse_script(
        "STREAM T(ts uint increasing, delta int, up bool, v uint);\n\
         QUERY signed: SELECT tb, up, COUNT(*) as cnt, SUM(delta) as drift FROM T \
         GROUP BY ts/60 as tb, up;",
    )
    .expect("script parses");
    b.build()
}

#[test]
fn int_lane_negative_sums_match_row_path() {
    // SUM over a lane that is mostly negative: the signed accumulator
    // must agree with the model sign-for-sign.
    let input: Vec<Tuple> = (0..900u64)
        .map(|i| {
            Tuple::new(vec![
                Value::UInt(i / 3),
                Value::Int(7 - (i as i64 % 23) * 3),
                Value::Bool(i % 5 < 2),
                Value::UInt(i),
            ])
        })
        .collect();
    assert_model_equals_lanes(&signed_dag(), &input, "negative int sums");
}

#[test]
fn all_null_lanes_match_row_path() {
    // Every delta and up value is NULL: the validity mask covers the
    // whole lane, SUM yields NULL groups, and the Bool key folds the
    // NULL word.
    let input: Vec<Tuple> = (0..400u64)
        .map(|i| {
            Tuple::new(vec![
                Value::UInt(i / 2),
                Value::Null,
                Value::Null,
                Value::UInt(i),
            ])
        })
        .collect();
    assert_model_equals_lanes(&signed_dag(), &input, "all-null lanes");
}

#[test]
fn mixed_null_and_non_null_groups_match_row_path() {
    // NULLs interleave with live values inside the same groups, so the
    // mask flips within single SIMD-width chunks.
    let input: Vec<Tuple> = (0..1200u64)
        .map(|i| {
            let delta = match i % 3 {
                0 => Value::Int(-(i as i64 % 41)),
                1 => Value::Int(i as i64 % 17),
                _ => Value::Null,
            };
            let up = match i % 7 {
                0 | 1 => Value::Bool(true),
                2 => Value::Null,
                _ => Value::Bool(false),
            };
            Tuple::new(vec![Value::UInt(i / 4), delta, up, Value::UInt(i)])
        })
        .collect();
    assert_model_equals_lanes(&signed_dag(), &input, "mixed null groups");
}

#[test]
fn mixed_type_groups_match_a_scalar_reference() {
    // Beyond batch invariance: the division key's fallback must agree
    // with the evaluator's semantics. Recompute the expected group
    // count with direct Value arithmetic and compare cardinalities.
    let dag = mixed_dag();
    let input = mixed_trace();
    let outputs = run_logical(&dag, input.iter().cloned()).expect("runs");
    let rows = &outputs[0].1;
    use std::collections::BTreeSet;
    let expected: BTreeSet<(u64, String)> = input
        .iter()
        .map(|t| {
            let ts = t.get(0).as_u64().unwrap();
            // k/10 under evaluator semantics: UInt divides, Int divides
            // signed, NULL propagates.
            let kb = match t.get(1) {
                Value::UInt(x) => format!("u{}", x / 10),
                Value::Int(x) => format!("i{}", x / 10),
                _ => "null".to_string(),
            };
            (ts / 60, kb)
        })
        .collect();
    assert_eq!(rows.len(), expected.len(), "group cardinality mismatch");
}

#[test]
fn min_max_over_int_and_null_blocks_match_row_path() {
    // The argument column runs in blocks — unsigned, then signed, then
    // unsigned with NULLs — while every group spans all blocks, so the
    // accumulators meet `UInt`, `Int` and NULL off typed, nullable and
    // `Mixed` lanes depending on where the batches cut.
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    b.parse_script(
        "STREAM T(ts uint increasing, k uint, v uint);\n\
         QUERY extremes: SELECT tb, k, MIN(v) as lo, MAX(v) as hi FROM T \
         GROUP BY ts/60 as tb, k;",
    )
    .expect("script parses");
    let dag = b.build();
    let input: Vec<Tuple> = (0..900u64)
        .map(|i| {
            let v = match (i / 20) % 3 {
                0 => Value::UInt(1_000 - i % 97),
                1 => Value::Int(40 - (i % 83) as i64),
                _ if i % 4 == 0 => Value::Null,
                _ => Value::UInt(i % 7),
            };
            Tuple::new(vec![Value::UInt(i / 3), Value::UInt(i % 3), v])
        })
        .collect();
    assert_model_equals_lanes(&dag, &input, "min/max int/null blocks");
}

/// The HAVING of `dag`'s one aggregate, compiled against the output
/// schema the way the operator compiles it.
fn having_kernel(dag: &QueryDag) -> Option<PredicateKernel> {
    let root = dag.roots()[0];
    let LogicalNode::Aggregate {
        having: Some(h), ..
    } = dag.node(root)
    else {
        panic!("the root is an aggregate with a HAVING");
    };
    PredicateKernel::compile(&bind(h, dag.schema(root)).expect("HAVING binds"))
}

#[test]
fn having_the_kernel_refuses_runs_in_the_interpreter() {
    // `NOT` over a conjunction is outside the kernel's domain: every
    // window is filtered by the interpreter over its staged lanes.
    let dag = tcp_dag(
        "SELECT tb, srcIP, destIP, COUNT(*) as cnt, SUM(len) as bytes FROM TCP \
         GROUP BY time/60 as tb, srcIP, destIP \
         HAVING NOT (COUNT(*) > 2 AND SUM(len) > 300)",
    );
    assert!(
        having_kernel(&dag).is_none(),
        "the kernel refuses NOT (a AND b)"
    );
    assert_model_equals_lanes(&dag, &tcp_trace(), "HAVING the kernel refuses");
}

/// Unsigned keys over a value column that is unsigned, NULL or negative:
/// a window's `SUM` lane holds unsigned sums, NULLs (groups that saw
/// only NULLs) and negative sums. `having` ends the query.
fn signed_sum_dag(having: &str) -> QueryDag {
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    b.parse_script(&format!(
        "STREAM S(ts uint increasing, k uint, v uint);\n\
         QUERY sums: SELECT tb, k, COUNT(*) as cnt, SUM(v) as sv FROM S \
         GROUP BY ts/60 as tb, k {having};"
    ))
    .expect("script parses");
    b.build()
}

fn signed_sum_trace() -> Vec<Tuple> {
    (0..900u64)
        .map(|i| {
            let k = i % 13;
            let v = match k % 3 {
                0 => Value::UInt(i % 11),
                1 => Value::Null,
                _ => Value::Int(-((i % 7) as i64)),
            };
            Tuple::new(vec![Value::UInt(i / 4), Value::UInt(k), v])
        })
        .collect()
}

#[test]
fn having_kernel_bailing_on_a_null_bearing_sum_lane_falls_back() {
    let dag = signed_sum_dag("HAVING SUM(v) + 1 > 4");
    let input = signed_sum_trace();
    // Every window's SUM lane mixes NULLs, unsigned and negative sums,
    // which the compiled `+` cannot load: it bails at run time.
    let kernel = having_kernel(&dag).expect("`SUM(v) + 1 > 4` compiles");
    let unfiltered = signed_sum_dag("");
    let rows = &run_logical(&unfiltered, input.iter().cloned()).expect("model runs")[0].1;
    let mut scratch = KernelScratch::new();
    for window in rows.chunk_by(|a, b| a.get(0) == b.get(0)) {
        let lanes = ColumnBatch::from_rows(window);
        let mut sel = SelectionVector::identity(lanes.rows());
        assert!(
            !kernel.filter(&lanes, &mut sel, &mut scratch),
            "the kernel bails on window {:?}",
            window[0].get(0)
        );
    }
    assert_model_equals_lanes(&dag, &input, "HAVING kernel bails");
}

/// `BITS(x)`: the set of `x mod 64` values a group saw. Its partial
/// state is the bit set, its finalized value the set's size, so a
/// window that emits partials shows which one it emitted.
struct Bits;

struct BitsState(u64);

impl UdafState for BitsState {
    fn update(&mut self, v: &Value) {
        if let Some(x) = v.as_u64() {
            self.0 |= 1 << (x % 64);
        }
    }
    fn merge(&mut self, partial: &Value) {
        if let Some(x) = partial.as_u64() {
            self.0 |= x;
        }
    }
    fn partial(&self) -> Value {
        Value::UInt(self.0)
    }
    fn finalize(&self) -> Value {
        Value::UInt(u64::from(self.0.count_ones()))
    }
}

impl Udaf for Bits {
    fn name(&self) -> &str {
        "BITS"
    }
    fn splittable(&self) -> bool {
        true
    }
    fn init(&self) -> Box<dyn UdafState> {
        Box::new(BitsState(0))
    }
}

#[test]
fn emit_partial_window_matches_the_model() {
    // A sub-aggregate as a distributed plan places it on a leaf: the
    // UDAF slot emits its partial state, the COUNT its count.
    let mut catalog = Catalog::with_network_schemas();
    catalog.register_udaf(Arc::new(Bits));
    let mut b = QuerySetBuilder::new(catalog);
    b.add_query(
        "q",
        "SELECT tb, srcIP, BITS(len) as bits, COUNT(*) as cnt FROM TCP \
         GROUP BY time/60 as tb, srcIP",
    )
    .expect("query parses");
    let parsed = b.build();
    let root = parsed.roots()[0];
    let LogicalNode::Aggregate {
        predicate,
        group_by,
        mut aggregates,
        having,
        ..
    } = parsed.node(root).clone()
    else {
        panic!("the query is an aggregate");
    };
    aggregates[0].call.emit_partial = true;
    let mut dag = QueryDag::new(parsed.catalog().clone());
    let source = dag.add_source("TCP").expect("source");
    let sub = dag
        .add_node(LogicalNode::Aggregate {
            input: source,
            predicate,
            group_by,
            aggregates,
            having,
        })
        .expect("sub-aggregate");
    dag.name_query("q", sub).expect("names");
    let input = tcp_trace();
    let rows = &run_logical(&dag, input.iter().cloned()).expect("model runs")[0].1;
    assert!(
        rows.iter().any(|r| r.get(2).as_u64() > Some(64)),
        "the model emits bit sets, not their sizes"
    );
    assert_model_equals_lanes(&dag, &input, "emit_partial window");
}

#[test]
fn window_poisoned_mid_way_matches_the_model() {
    // Unsigned key columns, but one window sees a signed key and another
    // a NULL key part-way through: the groups before it were stored as
    // words only, and must come out as the same `UInt` keys, in order.
    let dag = mixed_dag();
    let mut input: Vec<Tuple> = (0..720u64)
        .map(|i| {
            Tuple::new(vec![
                Value::UInt(i / 2),
                Value::UInt(i % 37),
                Value::UInt(i),
            ])
        })
        .collect();
    input[70] = Tuple::new(vec![Value::UInt(35), Value::Int(-4), Value::UInt(1)]);
    input[200] = Tuple::new(vec![Value::UInt(100), Value::Null, Value::UInt(2)]);
    assert_model_equals_lanes(&dag, &input, "window poisoned mid-way");
}

#[test]
fn merge_slots_fold_partials_off_lanes() {
    // A sub → super plan whose super-aggregate takes the partials with
    // merge semantics: `COUNT` adds partial counts, the others fold
    // them. Even windows' partials are all unsigned, so every merge
    // folds off its lane; odd windows' carry NULL and negative sums and
    // NULL `AND_AGGR`s, so those slots fall back to the row fold while
    // `cnt` and `ov` stay on lanes. `nsv` merges the sums as counts: a
    // negative or NULL partial adds nothing.
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    b.parse_script(
        "STREAM S(ts uint increasing, k uint, v uint);\n\
         QUERY sub: SELECT tb, k, COUNT(v) as cnt, SUM(v) as sv, OR_AGGR(v) as ov, \
         AND_AGGR(v) as av FROM S GROUP BY ts/60 as tb, k;\n\
         QUERY sup: SELECT tb, COUNT(cnt) as cnt, SUM(sv) as sv, OR_AGGR(ov) as ov, \
         AND_AGGR(av) as av, COUNT(sv) as nsv FROM sub GROUP BY tb HAVING SUM(sv) > 3;",
    )
    .expect("script parses");
    let parsed = b.build();
    let sup = parsed.roots()[0];
    let LogicalNode::Aggregate {
        input: sub,
        predicate,
        group_by,
        mut aggregates,
        having,
    } = parsed.node(sup).clone()
    else {
        panic!("sup is an aggregate");
    };
    for a in &mut aggregates {
        a.call.merge = true;
    }
    let mut dag = QueryDag::new(parsed.catalog().clone());
    let source = dag.add_source("S").expect("source");
    let LogicalNode::Aggregate {
        predicate: sub_pred,
        group_by: sub_keys,
        aggregates: sub_aggs,
        having: sub_having,
        ..
    } = parsed.node(sub).clone()
    else {
        panic!("sub is an aggregate");
    };
    let sub = dag
        .add_node(LogicalNode::Aggregate {
            input: source,
            predicate: sub_pred,
            group_by: sub_keys,
            aggregates: sub_aggs,
            having: sub_having,
        })
        .expect("sub-aggregate");
    let sup = dag
        .add_node(LogicalNode::Aggregate {
            input: sub,
            predicate,
            group_by,
            aggregates,
            having,
        })
        .expect("super-aggregate");
    dag.name_query("sup", sup).expect("names");
    let input: Vec<Tuple> = (0..1200u64)
        .map(|i| {
            let (ts, k) = (i / 2, i % 7);
            let v = match (ts / 60 % 2, k, i % 3) {
                (0, ..) => Value::UInt(i % 50),
                (_, 0, _) => Value::Null,
                (_, 1, _) => Value::Int(-((i % 9) as i64)),
                (_, _, 0) => Value::Int(-3),
                (_, _, 1) => Value::Null,
                _ => Value::UInt(i % 50),
            };
            Tuple::new(vec![Value::UInt(ts), Value::UInt(k), v])
        })
        .collect();
    let rows = &run_logical(&dag, input.iter().cloned()).expect("model runs")[0].1;
    assert!(
        rows.iter()
            .any(|r| r.get(0).as_u64().is_some_and(|tb| tb % 2 == 1)),
        "odd windows pass the HAVING too"
    );
    assert_model_equals_lanes(&dag, &input, "merge slots on lanes");
}
