//! Model-based testing, two levels deep. The hand-written evaluators
//! below materialize the whole trace into maps and fold it, one query
//! shape each; they check `run_logical`, the reference model, which
//! evaluates any single-source plan one tuple at a time. The engine is
//! then checked against `run_logical` on every plan here, fed lanes cut
//! at random points. Neither model shares operator code with the engine,
//! so agreement on random inputs is evidence that the incremental
//! window, flush, join and merge machinery is correct, not a
//! restatement of it.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use qap::prelude::*;
use qap::types::{ColumnBatch, Udaf, UdafState};

/// A random packet: (time, srcIP, destIP, flags, len).
#[derive(Debug, Clone)]
struct Pkt {
    time: u64,
    src: u64,
    dst: u64,
    flags: u64,
    len: u64,
}

fn arb_trace() -> impl Strategy<Value = Vec<Pkt>> {
    proptest::collection::vec(
        (0u64..240, 1u64..6, 1u64..6, 0u64..64, 40u64..200).prop_map(
            |(time, src, dst, flags, len)| Pkt {
                time,
                src,
                dst,
                flags,
                len,
            },
        ),
        0..200,
    )
    .prop_map(|mut v| {
        // The engine contract: time-ordered input.
        v.sort_by_key(|p| p.time);
        v
    })
}

/// Where the engine's feed is cut: a batch ends after `cuts[i] + 1`
/// tuples, cycling.
fn arb_cuts() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..40, 1..6)
}

fn to_tuples(trace: &[Pkt]) -> Vec<Tuple> {
    trace
        .iter()
        .map(|p| {
            Tuple::new(vec![
                Value::UInt(p.time),
                Value::UInt(p.time * 1000),
                Value::UInt(p.src),
                Value::UInt(p.dst),
                Value::UInt(1000),
                Value::UInt(80),
                Value::UInt(6),
                Value::UInt(p.flags),
                Value::UInt(p.len),
            ])
        })
        .collect()
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort_by(|a, b| {
        for (x, y) in a.values().iter().zip(b.values()) {
            let ord = x.total_cmp(y);
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    rows
}

/// Brute force: per (time/60, src, dst): count, sum(len), min(len),
/// max(len), or(flags).
#[allow(clippy::type_complexity)]
fn model_flows(trace: &[Pkt]) -> Vec<Tuple> {
    let mut m: BTreeMap<(u64, u64, u64), [u64; 6]> = BTreeMap::new();
    for p in trace {
        let e = m
            .entry((p.time / 60, p.src, p.dst))
            .or_insert([0, 0, u64::MAX, 0, 0, u64::MAX]);
        e[0] += 1;
        e[1] += p.len;
        e[2] = e[2].min(p.len);
        e[3] = e[3].max(p.len);
        e[4] |= p.flags;
        e[5] &= p.flags;
    }
    m.into_iter()
        .map(|((tb, s, d), [cnt, sum, min, max, or, and])| {
            Tuple::new(
                [tb, s, d, cnt, sum, min, max, or, and, sum / cnt]
                    .map(Value::UInt)
                    .to_vec(),
            )
        })
        .collect()
}

/// Brute force flows: (tb, src, dst) -> packet count.
fn flow_counts(trace: &[Pkt]) -> BTreeMap<(u64, u64, u64), u64> {
    let mut flows = BTreeMap::new();
    for p in trace {
        *flows.entry((p.time / 60, p.src, p.dst)).or_insert(0) += 1;
    }
    flows
}

/// Brute force heavy_flows + flow_pairs (Section 3.2 semantics).
fn model_flow_pairs(trace: &[Pkt]) -> Vec<Tuple> {
    // heavy: (tb, src) -> max cnt
    let mut heavy: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for ((tb, s, _), cnt) in flow_counts(trace) {
        let e = heavy.entry((tb, s)).or_insert(0);
        *e = (*e).max(cnt);
    }
    // pairs: S1.tb = S2.tb + 1, same src.
    let mut out = Vec::new();
    for (&(tb, s), &m1) in &heavy {
        if tb == 0 {
            continue;
        }
        if let Some(&m2) = heavy.get(&(tb - 1, s)) {
            out.push(Tuple::new(vec![
                Value::UInt(tb),
                Value::UInt(s),
                Value::UInt(m1),
                Value::UInt(m2),
            ]));
        }
    }
    out
}

const JOIN_TYPES: [&str; 4] = [
    "JOIN",
    "LEFT OUTER JOIN",
    "RIGHT OUTER JOIN",
    "FULL OUTER JOIN",
];

/// The flows self-join: each flow next to the same flow in the epoch
/// `offset` before it (`S1.tb = S2.tb + offset`), optionally only where
/// the count did not fall.
fn self_join_queries(join: &str, offset: i64, residual: bool) -> Vec<(&'static str, String)> {
    let temporal = match offset {
        0 => "S1.tb = S2.tb".to_string(),
        o if o > 0 => format!("S1.tb = S2.tb + {o}"),
        o => format!("S1.tb + {} = S2.tb", -o),
    };
    vec![
        (
            "flows",
            "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
             GROUP BY time/60 as tb, srcIP, destIP"
                .to_string(),
        ),
        (
            "pairs",
            format!(
                "SELECT S1.tb, S1.srcIP, S1.destIP, S1.cnt, S2.cnt as other \
                 FROM flows S1 {join} flows S2 \
                 WHERE S1.srcIP = S2.srcIP and S1.destIP = S2.destIP and {temporal}{}",
                if residual {
                    " and S1.cnt <= S2.cnt"
                } else {
                    ""
                }
            ),
        ),
    ]
}

/// Brute force of [`self_join_queries`]: every flow pair that matches,
/// then — as the join type keeps them — each left flow with no partner
/// padded on the right and each right flow with no partner padded on
/// the left.
fn model_self_join(trace: &[Pkt], join: &str, offset: i64, residual: bool) -> Vec<Tuple> {
    let flows = flow_counts(trace);
    let partner = |(tb, s, d): (u64, u64, u64)| {
        let tb = i128::from(tb) - i128::from(offset);
        u64::try_from(tb).ok().map(|tb| (tb, s, d))
    };
    let keeps = |c1: u64, c2: u64| !residual || c1 <= c2;
    let (keep_left, keep_right) = (join.starts_with("LEFT"), join.starts_with("RIGHT"));
    let full = join.starts_with("FULL");
    let mut out = Vec::new();
    let mut right_matched = std::collections::BTreeSet::new();
    for (&(tb, s, d), &c1) in &flows {
        let matched = partner((tb, s, d))
            .and_then(|k| flows.get(&k).map(|&c2| (k, c2)))
            .filter(|&(_, c2)| keeps(c1, c2));
        let u = Value::UInt;
        match matched {
            Some((k, c2)) => {
                right_matched.insert(k);
                out.push(Tuple::new(vec![u(tb), u(s), u(d), u(c1), u(c2)]));
            }
            None if keep_left || full => {
                out.push(Tuple::new(vec![u(tb), u(s), u(d), u(c1), Value::Null]));
            }
            None => {}
        }
    }
    if keep_right || full {
        for (k, &c2) in &flows {
            if !right_matched.contains(k) {
                let mut row = vec![Value::Null; 4];
                row.push(Value::UInt(c2));
                out.push(Tuple::new(row));
            }
        }
    }
    out
}

/// `LAST(x)`: the last non-NULL value a group saw — order-sensitive, so
/// a fold that visits a group's rows out of arrival order shows.
struct Last;

struct LastState(Value);

impl UdafState for LastState {
    fn update(&mut self, v: &Value) {
        if !v.is_null() {
            self.0 = v.clone();
        }
    }
    fn merge(&mut self, partial: &Value) {
        self.update(partial);
    }
    fn partial(&self) -> Value {
        self.0.clone()
    }
    fn finalize(&self) -> Value {
        self.0.clone()
    }
}

impl Udaf for Last {
    fn name(&self) -> &str {
        "LAST"
    }
    fn splittable(&self) -> bool {
        false
    }
    fn init(&self) -> Box<dyn UdafState> {
        Box::new(LastState(Value::Null))
    }
}

const PROTOS: [Option<&str>; 4] = [Some("tcp"), Some("udp"), None, Some("icmp")];

/// A γ grouped by a string key, calling a UDAF, over
/// `F(time, proto string, len)`.
fn proto_dag() -> QueryDag {
    let mut catalog = Catalog::with_network_schemas();
    catalog.register_udaf(Arc::new(Last));
    let mut b = QuerySetBuilder::new(catalog);
    b.parse_script(
        "STREAM F(time uint increasing, proto string, len uint);\n\
         QUERY by_proto: SELECT tb, proto, LAST(len) as last, COUNT(*) as cnt FROM F \
         GROUP BY time/60 as tb, proto;",
    )
    .expect("script parses");
    b.build()
}

fn proto_tuples(trace: &[Pkt]) -> Vec<Tuple> {
    trace
        .iter()
        .map(|p| {
            let proto = PROTOS[p.flags as usize % PROTOS.len()].map_or(Value::Null, Value::from);
            Tuple::new(vec![Value::UInt(p.time), proto, Value::UInt(p.len)])
        })
        .collect()
}

/// Brute force of [`proto_dag`]: per (time/60, proto), the last length
/// and the count.
fn model_by_proto(trace: &[Pkt]) -> Vec<Tuple> {
    let mut m: BTreeMap<(u64, Option<&str>), (u64, u64)> = BTreeMap::new();
    for p in trace {
        let e = m
            .entry((p.time / 60, PROTOS[p.flags as usize % PROTOS.len()]))
            .or_insert((0, 0));
        *e = (p.len, e.1 + 1);
    }
    m.into_iter()
        .map(|((tb, proto), (last, cnt))| {
            Tuple::new(vec![
                Value::UInt(tb),
                proto.map_or(Value::Null, Value::from),
                Value::UInt(last),
                Value::UInt(cnt),
            ])
        })
        .collect()
}

fn build(queries: &[(&str, &str)]) -> QueryDag {
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    for (name, sql) in queries {
        b.add_query(name, sql).unwrap();
    }
    b.build()
}

/// One engine over the plan, fed `tuples` as lane batches cut where
/// `cuts` says: each root's output, in emission order.
fn engine_lanes(dag: &QueryDag, tuples: &[Tuple], cuts: &[usize]) -> Vec<(usize, Vec<Tuple>)> {
    let mut engine = Engine::new(dag).unwrap();
    let source = engine.source_nodes()[0];
    let (mut at, mut i) = (0, 0);
    while at < tuples.len() {
        let end = tuples.len().min(at + cuts[i % cuts.len()] + 1);
        let mut cols = ColumnBatch::from_rows(&tuples[at..end]);
        engine.push_columns(source, &mut cols).unwrap();
        (at, i) = (end, i + 1);
    }
    engine.finish().unwrap();
    dag.roots()
        .into_iter()
        .map(|r| (r, engine.output(r)))
        .collect()
}

/// The model's first root output, after asserting the engine at the
/// given cuts emits exactly the model's rows in the model's order.
fn model_checked(dag: &QueryDag, tuples: &[Tuple], cuts: &[usize]) -> Vec<Tuple> {
    let model = run_logical(dag, tuples.iter().cloned()).unwrap();
    assert_eq!(engine_lanes(dag, tuples, cuts), model, "cuts {cuts:?}");
    model.into_iter().next().unwrap().1
}

fn model_eval(queries: &[(&str, &str)], trace: &[Pkt], cuts: &[usize]) -> Vec<Tuple> {
    model_checked(&build(queries), &to_tuples(trace), cuts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The model's aggregation semantics match the brute force for all
    /// seven aggregate kinds at once, and the engine matches the model.
    #[test]
    fn aggregation_matches_model(trace in arb_trace(), cuts in arb_cuts()) {
        let model = model_eval(
            &[(
                "flows",
                "SELECT tb, srcIP, destIP, COUNT(*) as cnt, SUM(len) as bytes, \
                 MIN(len) as lo, MAX(len) as hi, OR_AGGR(flags) as orf, \
                 AND_AGGR(flags) as andf, AVG(len) as mean FROM TCP \
                 GROUP BY time/60 as tb, srcIP, destIP",
            )],
            &trace,
            &cuts,
        );
        prop_assert_eq!(sorted(model), sorted(model_flows(&trace)));
    }

    /// HAVING filters exactly the brute force's matching groups.
    #[test]
    fn having_matches_model(trace in arb_trace(), threshold in 1u64..10, cuts in arb_cuts()) {
        let model = model_eval(
            &[(
                "big",
                &format!(
                    "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
                     GROUP BY time/60 as tb, srcIP, destIP HAVING COUNT(*) >= {threshold}"
                ),
            )],
            &trace,
            &cuts,
        );
        let brute: Vec<Tuple> = model_flows(&trace)
            .into_iter()
            .filter(|t| t.get(3).as_u64().unwrap() >= threshold)
            .map(|t| t.project(&[0, 1, 2, 3]))
            .collect();
        prop_assert_eq!(sorted(model), sorted(brute));
    }

    /// The three-query Section 3.2 DAG (stacked aggregations + offset
    /// self-join) matches the brute force end to end.
    #[test]
    fn flow_pairs_matches_model(trace in arb_trace(), cuts in arb_cuts()) {
        let model = model_eval(
            &[
                (
                    "flows",
                    "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
                     GROUP BY time/60 as tb, srcIP, destIP",
                ),
                (
                    "heavy_flows",
                    "SELECT tb, srcIP, MAX(cnt) as max_cnt FROM flows GROUP BY tb, srcIP",
                ),
                (
                    "flow_pairs",
                    "SELECT S1.tb, S1.srcIP, S1.max_cnt, S2.max_cnt \
                     FROM heavy_flows S1, heavy_flows S2 \
                     WHERE S1.srcIP = S2.srcIP and S1.tb = S2.tb+1",
                ),
            ],
            &trace,
            &cuts,
        );
        prop_assert_eq!(sorted(model), sorted(model_flow_pairs(&trace)));
    }

    /// WHERE pushes into the window exactly like pre-filtering the
    /// brute force's input.
    #[test]
    fn where_matches_prefiltered_model(
        trace in arb_trace(),
        cutoff in 40u64..200,
        cuts in arb_cuts()
    ) {
        let model = model_eval(
            &[(
                "small",
                &format!(
                    "SELECT tb, srcIP, destIP, COUNT(*) as cnt, SUM(len) as bytes, \
                     MIN(len) as lo, MAX(len) as hi, OR_AGGR(flags) as orf, \
                     AND_AGGR(flags) as andf, AVG(len) as mean FROM TCP \
                     WHERE len < {cutoff} \
                     GROUP BY time/60 as tb, srcIP, destIP"
                ),
            )],
            &trace,
            &cuts,
        );
        let filtered: Vec<Pkt> = trace.iter().filter(|p| p.len < cutoff).cloned().collect();
        prop_assert_eq!(sorted(model), sorted(model_flows(&filtered)));
    }

    /// Distributed execution of the brute-force-checked query also
    /// matches the brute force (closing the loop: brute force == model
    /// == distributed).
    #[test]
    fn distributed_matches_model(trace in arb_trace(), hosts in 1usize..4) {
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.add_query(
            "flows",
            "SELECT tb, srcIP, destIP, COUNT(*) as cnt, SUM(len) as bytes, \
             MIN(len) as lo, MAX(len) as hi, OR_AGGR(flags) as orf, \
             AND_AGGR(flags) as andf, AVG(len) as mean FROM TCP \
             GROUP BY time/60 as tb, srcIP, destIP",
        )
        .unwrap();
        let dag = b.build();
        let plan = optimize(
            &dag,
            &Partitioning::round_robin(hosts),
            &OptimizerConfig::naive(),
        )
        .unwrap();
        let rows = run_distributed(&plan, &to_tuples(&trace), &SimConfig::default())
            .unwrap()
            .outputs
            .remove(0)
            .1;
        prop_assert_eq!(sorted(rows), sorted(model_flows(&trace)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The single-source self-join, for every join type × offset ×
    /// residual: the model matches the brute force, and the engine at
    /// random cuts matches the model.
    #[test]
    fn self_join_matches_model(
        trace in arb_trace(),
        cuts in arb_cuts(),
        residual in any::<bool>()
    ) {
        let tuples = to_tuples(&trace);
        for join in JOIN_TYPES {
            for offset in [-1i64, 0, 1] {
                let queries = self_join_queries(join, offset, residual);
                let queries: Vec<(&str, &str)> =
                    queries.iter().map(|(n, q)| (*n, q.as_str())).collect();
                let dag = build(&queries);
                let model = run_logical(&dag, tuples.clone()).unwrap();
                let engine = engine_lanes(&dag, &tuples, &cuts);
                // When a retiring epoch's pads go out relative to the
                // other epochs' pairs is outside the model's order
                // contract, so outer joins compare as multisets.
                for ((id, got), (mid, want)) in engine.into_iter().zip(&model) {
                    prop_assert_eq!(id, *mid);
                    if join == "JOIN" {
                        prop_assert_eq!(&got, want, "{} offset {}", join, offset);
                    } else {
                        prop_assert_eq!(sorted(got), sorted(want.clone()), "{} offset {}", join, offset);
                    }
                }
                let brute = model_self_join(&trace, join, offset, residual);
                prop_assert_eq!(
                    sorted(model[0].1.clone()),
                    sorted(brute),
                    "{} offset {} residual {}",
                    join,
                    offset,
                    residual
                );
            }
        }
    }

    /// A γ grouped by a string key (NULLs included) and calling an
    /// order-sensitive UDAF: the model matches the brute force, and the
    /// engine at random cuts matches the model.
    #[test]
    fn string_key_udaf_matches_model(trace in arb_trace(), cuts in arb_cuts()) {
        let model = model_checked(&proto_dag(), &proto_tuples(&trace), &cuts);
        prop_assert_eq!(sorted(model), sorted(model_by_proto(&trace)));
    }
}
