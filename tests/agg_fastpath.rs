//! Differential tests for the aggregation operator: the reference model
//! against the lanes.
//!
//! The model (`run_logical`) is the plain per-tuple algorithm with no
//! engine code in it: evaluate the group key, find or create the group
//! in a map, fold each slot. The lane entry (`Engine::push_columns`)
//! reads every group key as words, whatever its kind — a plain column,
//! `column / constant` or a computed key, a NULL a bit in the row's
//! mask, a string an index into a pool — and folds (`COUNT(*)`, and
//! every built-in slot over a column, merge slots included) into lane
//! reads; UDAF slots, computed arguments and folded slots whose values
//! leave the unsigned domain fold each row's value off its lane. The
//! contract is that the lanes are invisible: byte-identical output
//! tuples against the model, and identical operator counters at every
//! batch size, including inputs engineered to cross the seams mid-stream
//! and mid-batch: a late row, a window that closes mid-batch over string
//! keys, rows of the NULL window.
//!
//! Closing a window is on lanes too: keys are built by their kinds from
//! the group table's words, slots finalize lane by lane, and HAVING runs as a
//! compiled kernel over the staged window, or through the interpreter
//! when the kernel refuses the predicate or bails. The tests after that
//! cross each of those seams with all-unsigned key columns, and the last
//! hold `MIN`/`MAX` of every value kind — strings in the group table's
//! pool included — to the model through folds, merges, window closes
//! and a migration, string and NULL group keys included. The last groups
//! by a string column with NULLs, a `bool` column and a nullable
//! `uint`, every batch of which folds on words.

use std::sync::Arc;

use qap::prelude::*;
use qap::types::{encode_tuple, ColumnBatch, DataType, Udaf, UdafState};

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

/// A trace whose columns hold values of several kinds, as streams a
/// schema can declare: one run per kind a column holds (a column with
/// fewer kinds cycles through its own), each column declared the run's
/// kind. A number of the other integer kind is that number in the
/// declared kind when it fits, any other value of another kind is NULL,
/// so every value lands in the run of its own kind and every number in
/// the run that declares its column `int`. Returns each run's column
/// types with its rows.
fn kind_runs(input: &[Tuple]) -> Vec<(Vec<DataType>, Vec<Tuple>)> {
    let arity = input.first().map_or(0, Tuple::arity);
    let kinds: Vec<Vec<DataType>> = (0..arity)
        .map(|c| {
            let mut ks = Vec::new();
            for k in input.iter().filter_map(|t| t.get(c).data_type()) {
                if !ks.contains(&k) {
                    ks.push(k);
                }
            }
            if ks.is_empty() {
                ks.push(DataType::UInt);
            }
            ks
        })
        .collect();
    let runs = kinds.iter().map(Vec::len).max().unwrap_or(1);
    (0..runs)
        .map(|j| {
            let types: Vec<DataType> = kinds.iter().map(|ks| ks[j % ks.len()]).collect();
            let as_kind = |v: &Value, t: DataType| match (v, t) {
                (v, t) if v.data_type().is_none_or(|k| k == t) => v.clone(),
                (Value::Int(x), DataType::UInt) => {
                    u64::try_from(*x).map_or(Value::Null, Value::UInt)
                }
                (Value::UInt(x), DataType::Int) => {
                    i64::try_from(*x).map_or(Value::Null, Value::Int)
                }
                _ => Value::Null,
            };
            let rows = input
                .iter()
                .map(|t| {
                    Tuple::new(
                        t.values()
                            .iter()
                            .zip(&types)
                            .map(|(v, &k)| as_kind(v, k))
                            .collect(),
                    )
                })
                .collect();
            (types, rows)
        })
        .collect()
}

/// `STREAM name(…)` declaring `columns` with `types`, the first
/// column `increasing`.
fn stream(name: &str, columns: &[&str], types: &[DataType]) -> String {
    let cols: Vec<String> = columns
        .iter()
        .zip(types)
        .enumerate()
        .map(|(i, (c, t))| match i {
            0 => format!("{c} {t} increasing"),
            _ => format!("{c} {t}"),
        })
        .collect();
    format!("STREAM {name}({});\n", cols.join(", "))
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
    // `srcIP & 0xFFF0` is neither a column nor `column / constant`: it
    // evaluates into a lane, which then reads as words.
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
/// fast paths' value domains mid-stream, declared with `types`.
fn mixed_dag(types: &[DataType]) -> QueryDag {
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    b.parse_script(&format!(
        "{}QUERY mixed: SELECT tb, kb, COUNT(*) as cnt, SUM(v) as sv FROM S \
         GROUP BY ts/60 as tb, k/10 as kb;",
        stream("S", &["ts", "k", "v"], types)
    ))
    .expect("script parses");
    b.build()
}

fn mixed_trace() -> Vec<Tuple> {
    // ts advances normally; k and v cycle through UInt (fast), Int and
    // NULL (fallback), so consecutive tuples of the same batch take
    // different paths through the same group table ([`kind_runs`]
    // declares the kinds).
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
    for (types, input) in kind_runs(&mixed_trace()) {
        let label = format!("mixed-type keys and sums {types:?}");
        assert_model_equals_lanes(&mixed_dag(&types), &input, &label);
    }
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
    for (types, input) in kind_runs(&mixed_trace()) {
        mixed_groups_match_a_scalar_reference(&mixed_dag(&types), &input);
    }
}

fn mixed_groups_match_a_scalar_reference(dag: &QueryDag, input: &[Tuple]) {
    let outputs = run_logical(dag, input.iter().cloned()).expect("runs");
    let rows = &outputs[0].1;
    use std::collections::BTreeSet;
    let expected: BTreeSet<(u64, String)> = input
        .iter()
        .map(|t| {
            let ts = t.get(0).as_u64().unwrap();
            // k/10 under evaluator semantics: UInt divides, Int divides
            // signed (Euclidean), NULL propagates.
            let kb = match t.get(1) {
                Value::UInt(x) => format!("u{}", x / 10),
                Value::Int(x) => format!("i{}", x.div_euclid(10)),
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
    // accumulators meet values and NULL off typed and nullable lanes
    // depending on where the batches cut: one unsigned stream and one
    // signed ([`kind_runs`]).
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
    for (types, input) in kind_runs(&input) {
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.parse_script(&format!(
            "{}QUERY extremes: SELECT tb, k, MIN(v) as lo, MAX(v) as hi FROM T \
             GROUP BY ts/60 as tb, k;",
            stream("T", &["ts", "k", "v"], &types)
        ))
        .expect("script parses");
        let label = format!("min/max int/null blocks {types:?}");
        assert_model_equals_lanes(&b.build(), &input, &label);
    }
}

/// `NOT` over a conjunction in HAVING: every window is filtered over
/// its staged lanes as the model filters its rows.
#[test]
fn having_not_of_a_conjunction_matches_the_model() {
    let dag = tcp_dag(
        "SELECT tb, srcIP, destIP, COUNT(*) as cnt, SUM(len) as bytes FROM TCP \
         GROUP BY time/60 as tb, srcIP, destIP \
         HAVING NOT (COUNT(*) > 2 AND SUM(len) > 300)",
    );
    assert_model_equals_lanes(&dag, &tcp_trace(), "HAVING NOT (a AND b)");
}

/// Unsigned keys over a signed value column that is positive, NULL or
/// negative: a window's `SUM` lane holds positive sums, NULLs (groups
/// that saw only NULLs) and negative sums. `having` ends the query.
fn signed_sum_dag(having: &str) -> QueryDag {
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    b.parse_script(&format!(
        "STREAM S(ts uint increasing, k uint, v int);\n\
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
                0 => Value::Int((i % 11) as i64),
                1 => Value::Null,
                _ => Value::Int(-((i % 7) as i64)),
            };
            Tuple::new(vec![Value::UInt(i / 4), Value::UInt(k), v])
        })
        .collect()
}

/// Every window's SUM lane mixes NULLs, positive and negative sums:
/// `SUM(v) + 1 > 4` runs over that signed, NULL-bearing lane as the
/// model runs it row by row.
#[test]
fn having_over_a_null_bearing_signed_sum_lane_matches_the_model() {
    let dag = signed_sum_dag("HAVING SUM(v) + 1 > 4");
    assert_model_equals_lanes(&dag, &signed_sum_trace(), "HAVING over signed sums");
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
fn null_or_signed_key_mid_window_matches_the_model() {
    // Unsigned key columns, but one window sees a signed key and another
    // a NULL key part-way through: the per-row path encodes it into the
    // table the word path fills, and every group comes out as its key,
    // in order. The signed key declares its own stream ([`kind_runs`]);
    // in the unsigned one, it is NULL.
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
    for (types, input) in kind_runs(&input) {
        let label = format!("NULL or signed key mid-window {types:?}");
        assert_model_equals_lanes(&mixed_dag(&types), &input, &label);
    }
}

/// The `sub` → `sup` plan of `script` as a distributed plan runs it:
/// the super-aggregate takes the sub-aggregate's partials with merge
/// semantics.
fn merge_dag(script: &str) -> QueryDag {
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    b.parse_script(script).expect("script parses");
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
    let LogicalNode::Aggregate {
        input: source,
        predicate: sub_pred,
        group_by: sub_keys,
        aggregates: sub_aggs,
        having: sub_having,
    } = parsed.node(sub).clone()
    else {
        panic!("sub is an aggregate");
    };
    let LogicalNode::Source { stream, .. } = parsed.node(source) else {
        panic!("sub reads the stream");
    };
    let source = dag.add_source(stream).expect("source");
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
    dag
}

#[test]
fn merge_slots_fold_partials_off_lanes() {
    // A sub → super plan whose super-aggregate takes the partials with
    // merge semantics: `COUNT` adds partial counts, the others fold
    // them. Even windows' partials are all unsigned, so every merge
    // folds off its lane; odd windows' carry NULL and negative sums and
    // NULL `AND_AGGR`s, so those slots fall back to the row fold while
    // `cnt` and `ov` stay on lanes. `nsv` merges the sums as counts: a
    // negative or NULL partial adds nothing. The negative values need
    // `v int`; in the `v uint` stream they are NULL ([`kind_runs`]).
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
    for (types, input) in kind_runs(&input) {
        let dag = merge_dag(&format!(
            "{}QUERY sub: SELECT tb, k, COUNT(v) as cnt, SUM(v) as sv, OR_AGGR(v) as ov, \
             AND_AGGR(v) as av FROM S GROUP BY ts/60 as tb, k;\n\
             QUERY sup: SELECT tb, COUNT(cnt) as cnt, SUM(sv) as sv, OR_AGGR(ov) as ov, \
             AND_AGGR(av) as av, COUNT(sv) as nsv FROM sub GROUP BY tb HAVING SUM(sv) > 3;",
            stream("S", &["ts", "k", "v"], &types)
        ));
        let rows = &run_logical(&dag, input.iter().cloned()).expect("model runs")[0].1;
        assert!(
            rows.iter()
                .any(|r| r.get(0).as_u64().is_some_and(|tb| tb % 2 == 1)),
            "{types:?}: odd windows pass the HAVING too"
        );
        assert_model_equals_lanes(&dag, &input, &format!("merge slots on lanes {types:?}"));
    }
}

/// A stream whose `MIN`/`MAX` arguments cross every kind, window by
/// window (four kinds of window, nine windows): `v` is unsigned with
/// NULLs; negative `Int`s among unsigned values; `Bool`s, signed values
/// and — in group `k = 3` only — strings; and, in every fourth window,
/// unsigned values above 900 and no NULL. `s` is a string column with
/// NULLs; `t` is 7 as a `UInt` or as an `Int` by turns. Each of
/// [`kind_runs`]' four runs declares `v` one kind (and `t` `uint` or
/// `int`); [`extremes_stream`] is its `STREAM` line.
fn extremes_stream(types: &[DataType]) -> String {
    stream("M", &["ts", "k", "v", "s", "t"], types)
}

/// A `HAVING MIN(col) < x` bound that keeps some groups and drops
/// others whatever kind `v`'s run declares.
fn extremes_bound(types: &[DataType]) -> &'static str {
    match types[2] {
        DataType::Bool => "true",
        DataType::Str => "'tcp'",
        _ => "30",
    }
}

fn extremes_trace() -> Vec<Tuple> {
    const NAMES: [&str; 5] = ["tcp", "udp", "icmp", "gre", "esp"];
    (0..1500u64)
        .map(|i| {
            let (ts, k) = (i / 3, i % 5);
            let v = match (ts / 60 % 4, i % 10) {
                (3, _) => Value::UInt(1_000 - i % 100),
                (_, 0) => Value::Null,
                (0, _) => Value::UInt(i % 40),
                (1, 1..=3) => Value::Int(-((i % 13) as i64)),
                (1, _) => Value::UInt(i % 40),
                (_, 1) => Value::Bool(i % 2 == 0),
                (_, 3) => Value::from(NAMES[(i / 5 % 5) as usize]),
                _ => Value::Int((i % 40) as i64),
            };
            let s = match i % 11 {
                0 => Value::Null,
                _ => Value::from(NAMES[((i / 3 + i / 7) % 5) as usize]),
            };
            let t = match (ts / 60 + i / 40) % 2 {
                0 => Value::UInt(7),
                _ => Value::Int(7),
            };
            Tuple::new(vec![Value::UInt(ts), Value::UInt(k), v, s, t])
        })
        .collect()
}

#[test]
fn min_max_over_every_kind_match_the_model() {
    let mut rows = Vec::new();
    for (types, input) in kind_runs(&extremes_trace()) {
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.parse_script(&format!(
            "{}QUERY ext: SELECT tb, k, MIN(v) as lo, MAX(v) as hi, MIN(s) as smin, \
             MAX(s) as smax, MIN(t) as tlo, MAX(t) as thi FROM M GROUP BY ts/60 as tb, k \
             HAVING MIN(v) < {};",
            extremes_stream(&types),
            extremes_bound(&types)
        ))
        .expect("script parses");
        let dag = b.build();
        let run = run_logical(&dag, input.iter().cloned()).expect("model runs");
        assert!(run[0].1.len() < 9 * 5, "{types:?}: the HAVING drops groups");
        rows.extend(run.into_iter().flat_map(|(_, rows)| rows));
        assert_model_equals_lanes(&dag, &input, &format!("min/max over every kind {types:?}"));
    }
    let has = |col: usize, f: fn(&Value) -> bool| rows.iter().any(|r| f(r.get(col)));
    assert!(has(3, |v| matches!(v, Value::Str(_))), "a string MAX");
    assert!(has(2, |v| matches!(v, Value::Bool(_))), "a Bool MIN");
    assert!(
        has(2, |v| matches!(v, Value::Int(x) if *x < 0)),
        "a negative MIN"
    );
    assert!(has(6, |v| matches!(v, Value::Int(7))) && has(6, |v| *v == Value::UInt(7)));
}

#[test]
fn min_max_partials_merge_off_lanes() {
    // The super-aggregate merges `MIN`/`MAX` partials of every kind:
    // windows where a partial lane is all unsigned fold it off the lane.
    for (types, input) in kind_runs(&extremes_trace()) {
        let dag = merge_dag(&format!(
            "{}QUERY sub: SELECT tb, k, MIN(v) as lo, MAX(v) as hi, MIN(s) as smin, \
             MAX(s) as smax, MIN(t) as tlo, MAX(t) as thi FROM M GROUP BY ts/60 as tb, k;\n\
             QUERY sup: SELECT tb, MIN(lo) as lo, MAX(hi) as hi, MIN(smin) as smin, \
             MAX(smax) as smax, MIN(tlo) as tlo, MAX(thi) as thi FROM sub GROUP BY tb \
             HAVING MIN(lo) < {};",
            extremes_stream(&types),
            extremes_bound(&types)
        ));
        assert_model_equals_lanes(&dag, &input, &format!("min/max partials {types:?}"));
    }
}

#[test]
fn string_extremes_migrate() {
    // Mid-window, one engine hands its odd groups to another: the state
    // rows carry string extremes out of one table's pool into the
    // other's, and the two engines' outputs together are the model's.
    let mut strings = 0;
    let is_str = |v: Value| matches!(v, Value::Str(_));
    for (types, input) in kind_runs(&extremes_trace()) {
        let state = migrate_extremes(&types, &input);
        strings += (0..state.rows())
            .filter(|&r| is_str(state.column(3).value(r)))
            .count();
    }
    assert!(strings > 0, "a string MAX extreme crosses");
    // Once more with a string key `k` that has NULLs: the state rows
    // carry interned key strings and NULL masks out of one table and
    // into the other.
    const KEYS: [&str; 4] = ["a", "bb", "ccc", "dddd"];
    let (mut types, input) = kind_runs(&extremes_trace())
        .into_iter()
        .find(|(types, _)| types[2] == DataType::Str)
        .expect("a run of string values");
    types[1] = DataType::Str;
    let input: Vec<Tuple> = input
        .into_iter()
        .map(|t| {
            let mut vals = t.into_values();
            vals[1] = match vals[1].as_u64() {
                Some(k @ 1..) => Value::from(KEYS[k as usize - 1]),
                _ => Value::Null,
            };
            Tuple::new(vals)
        })
        .collect();
    let state = migrate_extremes(&types, &input);
    let keys: Vec<Value> = (0..state.rows())
        .map(|r| state.column(1).value(r))
        .collect();
    assert!(keys.contains(&Value::Null), "a NULL key crosses");
    assert!(
        keys.iter().any(|k| is_str(k.clone())),
        "a string key crosses"
    );
}

/// [`string_extremes_migrate`] over one run: returns the state rows
/// that crossed.
fn migrate_extremes(types: &[DataType], input: &[Tuple]) -> ColumnBatch {
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    b.parse_script(&format!(
        "{}QUERY ext: SELECT tb, k, MIN(v) as lo, MAX(v) as hi, MIN(s) as smin, \
         MAX(s) as smax, COUNT(*) as n FROM M GROUP BY ts/60 as tb, k;",
        extremes_stream(types)
    ))
    .expect("script parses");
    let dag = b.build();
    let root = dag.roots()[0];
    let sorted = |mut rows: Vec<Tuple>| {
        rows.sort_by_key(|t| encode_tuple(t).to_vec());
        rows
    };
    let want = sorted(
        run_logical(&dag, input.iter().cloned()).expect("model")[0]
            .1
            .clone(),
    );
    let mut engines = [Engine::new(&dag).unwrap(), Engine::new(&dag).unwrap()];
    let src = engines[0].source_nodes()[0];
    let boundary = 150;
    let split = input
        .iter()
        .position(|t| t.get(0).as_u64() >= Some(boundary))
        .unwrap();
    // Odd unsigned keys move, and so do odd-length string keys and NULL
    // ones.
    let odd = |key: &[Value]| match &key[1] {
        Value::UInt(k) => k % 2 == 1,
        Value::Str(s) => s.len() % 2 == 1,
        _ => key[1].is_null(),
    };
    for chunk in input[..split].chunks(64) {
        engines[0]
            .push_columns(src, &mut ColumnBatch::from_rows(chunk))
            .unwrap();
    }
    engines[0].flush_before(root, boundary).unwrap();
    let state = engines[0].extract_state(root, &mut |key| odd(key)).unwrap();
    engines[1].absorb_state(root, &state).unwrap();
    for t in &input[split..] {
        let e = usize::from(odd(t.values()));
        engines[e]
            .push_columns(src, &mut ColumnBatch::from_rows(std::slice::from_ref(t)))
            .unwrap();
    }
    let mut got = Vec::new();
    for e in &mut engines {
        e.finish().unwrap();
        got.extend(e.output(root));
    }
    assert_eq!(sorted(got), want, "{types:?}");
    state
}

/// Keys that are not words: a string column with NULLs, a plain `bool`
/// column and a nullable `uint` column, each the only non-window key of
/// its query, over nine windows: the string, Bool and nullable unsigned
/// key lanes. Each batch that carries one runs the per-row algorithm
/// into the same group table, and every batch whose `u` lane is
/// non-null unsigned takes the word path, whatever NULL keys its window
/// already holds.
#[test]
fn string_bool_and_nullable_uint_keys_match_the_model() {
    const NAMES: [&str; 4] = ["tcp", "udp", "icmp", "gre"];
    let input: Vec<Tuple> = (0..1080u64)
        .map(|i| {
            let s = match i % 9 {
                0 => Value::Null,
                _ => Value::from(NAMES[(i / 2 % 4) as usize]),
            };
            // Some windows carry no NULL key at all, so their batches
            // arrive as plain unsigned lanes beside the others.
            let u = match (i / 120 % 3, i % 7) {
                (0, _) => Value::UInt(i % 5),
                (_, 0) => Value::Null,
                _ => Value::UInt(i % 5),
            };
            Tuple::new(vec![
                Value::UInt(i / 2),
                s,
                Value::Bool(i % 3 == 0),
                u,
                Value::UInt(i % 11),
            ])
        })
        .collect();
    for key in ["s", "b", "u"] {
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.parse_script(&format!(
            "STREAM K(ts uint increasing, s string, b bool, u uint, v uint);\n\
             QUERY q: SELECT tb, {key}, COUNT(*) as cnt, SUM(v) as sv, MAX(v) as hi \
             FROM K GROUP BY ts/60 as tb, {key};"
        ))
        .expect("script parses");
        let dag = b.build();
        let rows = &run_logical(&dag, input.iter().cloned()).expect("model runs")[0].1;
        assert!(
            rows.iter()
                .map(|r| r.get(0))
                .collect::<Vec<_>>()
                .windows(2)
                .filter(|w| w[0] != w[1])
                .count()
                >= 8,
            "{key}: nine windows"
        );
        if key != "b" {
            assert!(
                rows.iter().any(|r| r.get(1).is_null()),
                "{key}: a NULL key group"
            );
        }
        assert_model_equals_lanes(&dag, &input, &format!("group by {key}"));
        assert_every_batch_takes_words(&dag, &input);
    }
}

/// At every batch size, γ folds every batch on words, whatever its key
/// lanes hold, and tallies no fallback.
fn assert_every_batch_takes_words(dag: &QueryDag, input: &[Tuple]) {
    let root = dag.roots()[0];
    for batch in [1usize, 5, 64, 1024] {
        let mut engine = Engine::new(dag).expect("engine builds");
        engine.set_batch_config(BatchConfig::new(batch));
        let src = engine.source_nodes()[0];
        let mut batches = 0;
        for chunk in input.chunks(batch) {
            batches += 1;
            let mut cols = ColumnBatch::from_rows(chunk);
            engine.push_columns(src, &mut cols).expect("push");
        }
        engine.finish().expect("finish");
        let m = &engine.metrics()[root];
        assert_eq!(
            (m.kernel_hits, m.kernel_fallbacks),
            (batches, 0),
            "batch {batch}: word-path batches and fallbacks"
        );
    }
}

/// A script over `STREAM K(…)` with one query `q`.
fn k_dag(stream: &str, query: &str) -> QueryDag {
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    b.parse_script(&format!("STREAM K({stream});\nQUERY q: {query};"))
        .expect("script parses");
    b.build()
}

/// Rows of `K(ts, k, len)` over five windows, every tenth row from the
/// third on a row of the previous window (late, and dropped) with
/// `len = 40`; no admitted row has `len = 40`.
fn late_forty_trace() -> Vec<Tuple> {
    (0..600u64)
        .map(|i| {
            let late = i >= 120 && i % 10 == 3;
            let ts = if late { i / 2 - 60 } else { i / 2 };
            let len = if late { 40 } else { 41 + i % 17 + 30 * (i % 2) };
            Tuple::new(vec![Value::UInt(ts), Value::UInt(i % 7), Value::UInt(len)])
        })
        .collect()
}

#[test]
fn a_late_row_never_evaluates_a_slot_argument() {
    // `len / (len - 40)` divides by zero on every late row only: the
    // model drops a late row before it evaluates any slot argument, and
    // so must every batch size, at which late rows sit mid-batch.
    let dag = k_dag(
        "ts uint increasing, k uint, len uint",
        "SELECT tb, k, SUM(len / (len - 40)) as s, COUNT(*) as n FROM K \
         GROUP BY ts/60 as tb, k",
    );
    let input = late_forty_trace();
    assert_model_equals_lanes(&dag, &input, "late row, slot argument");
    let (_, counters) = run_lanes(&dag, &input, 1024);
    assert!(
        counters[dag.roots()[0]].late_dropped > 0,
        "late rows dropped"
    );
}

#[test]
fn string_groups_stay_distinct_across_a_mid_batch_close() {
    // Each window sees the strings in another order, so a string's
    // index in the window's pool changes at every close; the pool
    // empties at a close, mid-batch at batch 64 and 1024. `MAX(name)`
    // keeps string extremes in the same pool.
    const WORDS: [&str; 7] = ["tcp", "udp", "icmp", "gre", "esp", "sctp", ""];
    let input: Vec<Tuple> = (0..900u64)
        .map(|i| {
            let w = i / 180;
            let s = WORDS[((i * (w + 3)) % 7) as usize];
            let name = WORDS[((i + w) % 5) as usize];
            Tuple::new(vec![
                Value::UInt(i / 3),
                Value::from(s),
                Value::from(name),
                Value::UInt(i % 13),
            ])
        })
        .collect();
    let dag = k_dag(
        "ts uint increasing, s string, name string, v uint",
        "SELECT tb, s, COUNT(*) as n, SUM(v) as t, MAX(name) as hi FROM K \
         GROUP BY ts/60 as tb, s",
    );
    assert_model_equals_lanes(&dag, &input, "string keys across a close");
}

#[test]
fn null_window_rows_accumulate_across_windows() {
    // Rows whose window key is NULL join the NULL window whatever batch
    // they arrive in, beside windows that open and close, keyed by a
    // string as well; the NULL window emits at end of stream.
    let input: Vec<Tuple> = (0..700u64)
        .map(|i| {
            let ts = if i % 9 == 4 {
                Value::Null
            } else {
                Value::UInt(i / 2)
            };
            let s = ["a", "b", "c"][(i % 3) as usize];
            Tuple::new(vec![ts, Value::UInt(i % 4), Value::from(s), Value::UInt(i)])
        })
        .collect();
    let dag = k_dag(
        "ts uint increasing, k uint, s string, v uint",
        "SELECT tb, k, s, COUNT(*) as n, SUM(v) as t FROM K GROUP BY ts/60 as tb, k, s",
    );
    let model = &run_logical(&dag, input.iter().cloned()).expect("model runs")[0].1;
    assert!(
        model.iter().any(|r| r.get(0).is_null()),
        "a NULL-window group"
    );
    assert_model_equals_lanes(&dag, &input, "NULL window");
}
