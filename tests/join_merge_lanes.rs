//! Join and merge hold their epochs as lanes; this suite holds them to
//! the tuple-at-a-time definition of their semantics on multi-source
//! plans, which the single-source reference model (`run_logical`) does
//! not take. The reference feeds every input tuple as its own one-row
//! lane batch; the subject feeds the *same* tuple sequence cut into
//! arbitrary chunks, each chunk one column batch, so one epoch routinely
//! arrives split across batches. Outputs must agree row for row, in
//! order, and every per-node counter (late drops included) must be
//! equal.

use proptest::prelude::*;

use qap::prelude::*;
use qap::types::ColumnBatch;

/// One input tuple headed for source `port`.
type Event = (usize, Tuple);

fn run_per_tuple(dag: &QueryDag, events: &[Event]) -> (Vec<Tuple>, Vec<OpCounters>) {
    let mut engine = Engine::new(dag).expect("engine builds");
    let sources = engine.source_nodes();
    for (port, t) in events {
        let mut cols = ColumnBatch::from_rows(std::slice::from_ref(t));
        engine
            .push_columns(sources[*port], &mut cols)
            .expect("push");
    }
    engine.finish().expect("finish");
    let out = engine.output(dag.roots()[0]);
    (out, engine.counters().to_vec())
}

/// Feeds `events` in order, cut where the port changes and wherever
/// `cuts` says (a chunk ends after `cuts[i] + 1` events, cycling).
fn run_chunked(dag: &QueryDag, events: &[Event], cuts: &[usize]) -> (Vec<Tuple>, Vec<OpCounters>) {
    let mut engine = Engine::new(dag).expect("engine builds");
    let sources = engine.source_nodes();
    let mut at = 0;
    let mut chunk_no = 0;
    while at < events.len() {
        let port = events[at].0;
        let want = cuts[chunk_no % cuts.len()] + 1;
        let len = events[at..]
            .iter()
            .take(want)
            .take_while(|(p, _)| *p == port)
            .count();
        let rows: Vec<Tuple> = events[at..at + len]
            .iter()
            .map(|(_, t)| t.clone())
            .collect();
        let mut cols = ColumnBatch::from_rows(&rows);
        engine.push_columns(sources[port], &mut cols).expect("push");
        at += len;
        chunk_no += 1;
    }
    engine.finish().expect("finish");
    let out = engine.output(dag.roots()[0]);
    (out, engine.counters().to_vec())
}

fn arb_cuts() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..9, 1..8)
}

// ---------------------------------------------------------------------
// join
// ---------------------------------------------------------------------

const JOIN_TYPES: [&str; 4] = [
    "JOIN",
    "LEFT OUTER JOIN",
    "RIGHT OUTER JOIN",
    "FULL OUTER JOIN",
];

/// `L ⋈ R` on `k` (and on the string `s` when `str_key`), left epoch =
/// right epoch + `offset`, optionally with a residual. The last
/// projection borrows whenever `R.v < L.v`, which takes that epoch's
/// pairs off the kernels and through the interpreter — unless the
/// residual already removed those pairs.
fn join_dag(join: &str, offset: i64, str_key: bool, residual: bool) -> QueryDag {
    let temporal = match offset {
        0 => "L.ts = R.ts".to_string(),
        o if o > 0 => format!("L.ts = R.ts + {o}"),
        o => format!("L.ts + {} = R.ts", -o),
    };
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    b.parse_script(&format!(
        "STREAM L(ts uint increasing, k uint, s string, v uint);\n\
         STREAM R(ts uint increasing, k uint, s string, v uint);\n\
         QUERY j: SELECT L.ts, L.k, L.s, R.s as rs, L.v, R.v - L.v as d \
         FROM L {join} R WHERE L.k = R.k{} and {temporal}{};",
        if str_key { " and L.s = R.s" } else { "" },
        if residual { " and L.v <= R.v" } else { "" },
    ))
    .expect("script parses");
    b.build()
}

/// Join inputs: a handful of epochs, a key domain small enough that
/// both sides repeat keys, NULL and (rarely) signed keys, a small
/// string vocabulary with NULLs, and a timestamp that mostly advances
/// but sometimes steps back behind its side's epoch (a late row).
fn arb_join_events() -> impl Strategy<Value = Vec<Event>> {
    let row = (
        0usize..2,
        0u8..10,
        0u8..12,
        prop_oneof![
            Just(None),
            Just(Some("tcp")),
            Just(Some("udp")),
            Just(Some(""))
        ],
        0u64..6,
    );
    proptest::collection::vec(row, 0..90).prop_map(|rows| {
        let mut ts = [0u64; 2];
        rows.into_iter()
            .map(|(port, step, key, s, v)| {
                let t = match step {
                    0 => ts[port].saturating_sub(1),
                    1 | 2 => {
                        ts[port] += 1;
                        ts[port]
                    }
                    _ => ts[port],
                };
                let k = match key {
                    0 => Value::Null,
                    1 => Value::Int(2),
                    k => Value::UInt(u64::from(k % 4)),
                };
                let s = s.map_or(Value::Null, Value::from);
                (port, Tuple::new(vec![Value::UInt(t), k, s, Value::UInt(v)]))
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every join type × offset × key shape × residual: chunked, mixed
    /// encoding input ≡ one tuple at a time.
    #[test]
    fn join_is_cut_and_representation_invariant(
        events in arb_join_events(),
        cuts in arb_cuts(),
        str_key in any::<bool>(),
        residual in any::<bool>()
    ) {
        for join in JOIN_TYPES {
            for offset in [-1i64, 0, 1] {
                let dag = join_dag(join, offset, str_key, residual);
                let want = run_per_tuple(&dag, &events);
                let got = run_chunked(&dag, &events, &cuts);
                prop_assert_eq!(&got.0, &want.0, "{} offset {}: rows", join, offset);
                prop_assert_eq!(&got.1, &want.1, "{} offset {}: counters", join, offset);
            }
        }
    }
}

/// The fixed case behind the property: both sides repeat a key, NULL
/// keys match nothing yet pad, a late row is dropped and counted, and
/// left epoch 1 arrives split across two batches.
#[test]
fn full_outer_join_with_split_epoch_matches_hand_computed_rows() {
    let dag = join_dag("FULL OUTER JOIN", 0, false, false);
    let l = |ts: u64, k: Value, v: u64| {
        (
            0,
            Tuple::new(vec![Value::UInt(ts), k, Value::from("a"), Value::UInt(v)]),
        )
    };
    let r = |ts: u64, k: Value, v: u64| {
        (
            1,
            Tuple::new(vec![Value::UInt(ts), k, Value::from("b"), Value::UInt(v)]),
        )
    };
    let events = vec![
        l(1, Value::UInt(7), 1),
        l(1, Value::UInt(7), 2),
        l(1, Value::Null, 3),
        l(1, Value::UInt(8), 4),
        r(1, Value::UInt(7), 5),
        r(1, Value::UInt(7), 6),
        r(1, Value::Null, 9),
        l(2, Value::UInt(7), 0),
        l(1, Value::UInt(7), 0), // late
        r(2, Value::UInt(9), 0),
    ];
    let want = run_per_tuple(&dag, &events);
    // Left rows 0..2, then 2..4: one epoch, two batches.
    let got = run_chunked(&dag, &events, &[1]);
    assert_eq!(got, want);
    let row = |vals: [Value; 6]| Tuple::new(vals.to_vec());
    let (a, b, u, n) = (
        || Value::from("a"),
        || Value::from("b"),
        Value::UInt,
        || Value::Null,
    );
    assert_eq!(
        want.0,
        vec![
            // Epoch 1, nested-loop order: left row, then its matches.
            row([u(1), u(7), a(), b(), u(1), u(4)]),
            row([u(1), u(7), a(), b(), u(1), u(5)]),
            row([u(1), u(7), a(), b(), u(2), u(3)]),
            row([u(1), u(7), a(), b(), u(2), u(4)]),
            // Unmatched right, then unmatched left.
            row([n(), n(), n(), b(), n(), n()]),
            row([u(1), n(), a(), n(), u(3), n()]),
            row([u(1), u(8), a(), n(), u(4), n()]),
            // Epoch 2 at end of stream.
            row([n(), n(), n(), b(), n(), n()]),
            row([u(2), u(7), a(), n(), u(0), n()]),
        ]
    );
    let join = dag.roots()[0];
    assert_eq!(want.1[join].late_dropped, 1);
}

/// A fire whose keys cannot be read off non-null unsigned lanes takes
/// them through the interpreter and says so: one `kernel_fallback` per
/// fire, tallied under the blocking lane's type. The same inputs joined
/// on the unsigned key alone stay on lanes.
#[test]
fn join_keys_off_the_lanes_count_as_kernel_fallbacks() {
    let row = |port: usize, ts: u64, v: u64| {
        let vals = vec![
            Value::UInt(ts),
            Value::UInt(7),
            Value::from("a"),
            Value::UInt(v),
        ];
        (port, Tuple::new(vals))
    };
    // `R.v - L.v` never borrows, so only the key shape differs.
    let events = vec![row(0, 1, 1), row(1, 1, 5), row(0, 2, 0), row(1, 2, 0)];
    let tallies = |str_key: bool| {
        let dag = join_dag("JOIN", 0, str_key, false);
        let mut engine = Engine::new(&dag).expect("engine builds");
        let sources = engine.source_nodes();
        for (port, t) in &events {
            let mut cols = ColumnBatch::from_rows(std::slice::from_ref(t));
            engine
                .push_columns(sources[*port], &mut cols)
                .expect("push");
        }
        engine.finish().expect("finish");
        assert_eq!(engine.output(dag.roots()[0]).len(), 2);
        let m = &engine.metrics()[dag.roots()[0]];
        let by_lane: u64 = m.kernel_lane_fallbacks.iter().sum();
        (m.kernel_hits, m.kernel_fallbacks, by_lane)
    };
    assert_eq!(tallies(false), (2, 0, 0));
    assert_eq!(tallies(true), (0, 2, 2));
}

/// Computed equi-keys read as words: a self-join of the TCP trace on a
/// window quotient (`len / 100`) and a kernel key (`srcIP & 0xFFF0`)
/// pairs rows whose `len` and `srcIP` differ, and must pair exactly the
/// rows the reference model does. Both keys stay on lanes, so every fire
/// — one per epoch — counts as a kernel hit.
#[test]
fn computed_equi_keys_join_on_words() {
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    b.add_query(
        "j",
        "SELECT S1.time, S1.srcIP, S2.srcIP as other, S1.len, S2.len as olen \
         FROM TCP S1, TCP S2 WHERE S1.srcIP & 0xFFF0 = S2.srcIP & 0xFFF0 \
         and S1.len / 100 = S2.len / 100 and S1.time = S2.time",
    )
    .expect("query parses");
    let dag = b.build();
    let trace = generate(&TraceConfig::tiny(53));
    let sorted = |mut rows: Vec<Tuple>| {
        rows.sort_by_key(|t| t.values().iter().map(|v| v.as_u64()).collect::<Vec<_>>());
        rows
    };
    let model = sorted(
        run_logical(&dag, trace.iter().cloned()).expect("model runs")[0]
            .1
            .clone(),
    );
    let differ = |a: usize, b: usize| model.iter().filter(|r| r.get(a) != r.get(b)).count();
    assert!(
        differ(1, 2) > 0 && differ(3, 4) > 0,
        "pairs on the quotient and the mask alone"
    );
    let mut engine = Engine::new(&dag).expect("engine builds");
    let source = engine.source_nodes()[0];
    for chunk in trace.chunks(1024) {
        engine
            .push_columns(source, &mut ColumnBatch::from_rows(chunk))
            .expect("push");
    }
    engine.finish().expect("finish");
    let join = dag.roots()[0];
    assert_eq!(sorted(engine.output(join)), model);
    let mut epochs: Vec<u64> = trace.iter().map(|t| t.get(0).as_u64().unwrap()).collect();
    epochs.dedup();
    let m = &engine.metrics()[join];
    assert_eq!(
        (m.kernel_hits, m.kernel_fallbacks),
        (epochs.len() as u64, 0)
    );
}

// ---------------------------------------------------------------------
// merge
// ---------------------------------------------------------------------

/// `ports` partition scans of one stream under a merge.
fn merge_dag(ports: u32) -> QueryDag {
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    b.parse_script("STREAM S(ts uint increasing, s string, v uint);")
        .expect("script parses");
    let mut dag = b.build();
    let inputs = (0..ports)
        .map(|p| dag.add_partition_source("S", p).expect("stream registered"))
        .collect();
    dag.add_node(LogicalNode::Merge { inputs })
        .expect("merge over same-schema scans");
    dag
}

/// Merge inputs over `ports` ports: each port's timestamps never step
/// back (the operator's input contract), ports advance at their own
/// pace — `skew` of them five times slower — and `silent` ports never
/// produce at all, which holds every bucket back until end of stream.
fn arb_merge_events(ports: usize, silent: usize) -> impl Strategy<Value = Vec<Event>> {
    let live = ports - silent;
    let row = (
        0..live,
        0u8..10,
        prop_oneof![Just(None), Just(Some("x")), Just(Some("y"))],
        0u64..100,
    );
    proptest::collection::vec(row, 0..120).prop_map(move |rows| {
        let mut ts = vec![0u64; live];
        rows.into_iter()
            .map(|(port, step, s, v)| {
                let slow = port == 0;
                if step < if slow { 1 } else { 5 } {
                    ts[port] += 1;
                }
                let s = s.map_or(Value::Null, Value::from);
                (
                    port,
                    Tuple::new(vec![Value::UInt(ts[port]), s, Value::UInt(v)]),
                )
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// K-port merge with skewed port progress: chunked, mixed encoding
    /// input ≡ one tuple at a time.
    #[test]
    fn merge_is_cut_and_representation_invariant(
        events in arb_merge_events(3, 0),
        cuts in arb_cuts()
    ) {
        let dag = merge_dag(3);
        let want = run_per_tuple(&dag, &events);
        let got = run_chunked(&dag, &events, &cuts);
        prop_assert_eq!(&got.0, &want.0);
        prop_assert_eq!(&got.1, &want.1);
        prop_assert_eq!(want.0.len(), events.len(), "a merge drops nothing");
    }

    /// A port that never produces blocks every release: all rows leave
    /// at end of stream, in bucket order, whatever the cuts.
    #[test]
    fn merge_with_a_silent_port_releases_at_finish(
        events in arb_merge_events(3, 1),
        cuts in arb_cuts()
    ) {
        let dag = merge_dag(3);
        let want = run_per_tuple(&dag, &events);
        let got = run_chunked(&dag, &events, &cuts);
        prop_assert_eq!(&got.0, &want.0);
        prop_assert_eq!(&got.1, &want.1);
        let buckets: Vec<u64> = want.0.iter().map(|t| t.get(0).as_u64().unwrap()).collect();
        prop_assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "bucket order");
        prop_assert_eq!(want.0.len(), events.len());
    }
}
