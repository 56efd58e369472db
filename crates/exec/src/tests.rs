//! End-to-end engine tests over hand-built tuple streams.

use qap_plan::QueryDag;
use qap_sql::QuerySetBuilder;
use qap_types::{tuple, Catalog, ColumnBatch, Tuple, Value};

use crate::{run_logical, Engine, ExecError};

/// Feeds one tuple to `source` as a one-row lane batch.
fn push(engine: &mut Engine, source: usize, t: Tuple) {
    let mut cols = ColumnBatch::from_rows(&[t]);
    engine.push_columns(source, &mut cols).unwrap();
}

/// TCP(time, timestamp, srcIP, destIP, srcPort, destPort, protocol,
/// flags, len)
fn pkt(time: u64, src: u64, dst: u64, flags: u64, len: u64) -> Tuple {
    tuple![
        time,
        time * 1_000_000,
        src,
        dst,
        1000u64,
        80u64,
        6u64,
        flags,
        len
    ]
}

fn build(queries: &[(&str, &str)]) -> QueryDag {
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    for (name, sql) in queries {
        b.add_query(name, sql).unwrap();
    }
    b.build()
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

#[test]
fn flows_counts_per_epoch_and_pair() {
    let dag = build(&[(
        "flows",
        "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
         GROUP BY time/60 as tb, srcIP, destIP",
    )]);
    let trace = vec![
        pkt(0, 1, 2, 0, 100),
        pkt(10, 1, 2, 0, 100),
        pkt(20, 3, 4, 0, 100),
        // Next minute.
        pkt(60, 1, 2, 0, 100),
    ];
    let outputs = run_logical(&dag, trace).unwrap();
    let rows = sorted(outputs.into_iter().next().unwrap().1);
    assert_eq!(
        rows,
        vec![
            tuple![0u64, 1u64, 2u64, 2u64],
            tuple![0u64, 3u64, 4u64, 1u64],
            tuple![1u64, 1u64, 2u64, 1u64],
        ]
    );
}

#[test]
fn window_flushes_on_epoch_advance_not_before() {
    let dag = build(&[(
        "flows",
        "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
         GROUP BY time/60 as tb, srcIP, destIP",
    )]);
    let mut engine = Engine::new(&dag).unwrap();
    let src = engine.source_nodes()[0];
    push(&mut engine, src, pkt(0, 1, 2, 0, 100));
    push(&mut engine, src, pkt(59, 1, 2, 0, 100));
    // Nothing emitted yet: the window is still open.
    assert_eq!(engine.counters()[dag.roots()[0]].tuples_out, 0);
    push(&mut engine, src, pkt(60, 1, 2, 0, 100));
    // Epoch 0 flushed.
    assert_eq!(engine.counters()[dag.roots()[0]].tuples_out, 1);
    engine.finish().unwrap();
    assert_eq!(engine.counters()[dag.roots()[0]].tuples_out, 2);
}

#[test]
fn having_filters_on_complete_aggregates() {
    // Suspicious flows: OR of flags matches pattern 0x29 only after all
    // packets of the flow are seen.
    let dag = build(&[(
        "suspicious",
        "SELECT tb, srcIP, destIP, OR_AGGR(flags) as orflag, COUNT(*) as cnt FROM TCP \
         GROUP BY time/60 as tb, srcIP, destIP HAVING OR_AGGR(flags) = 0x29",
    )]);
    let trace = vec![
        // Flow (1,2): flags accumulate to 0x29 — suspicious.
        pkt(0, 1, 2, 0x01, 50),
        pkt(1, 1, 2, 0x08, 50),
        pkt(2, 1, 2, 0x20, 50),
        // Flow (3,4): normal SYN/ACK traffic.
        pkt(0, 3, 4, 0x02, 50),
        pkt(1, 3, 4, 0x10, 50),
    ];
    let outputs = run_logical(&dag, trace).unwrap();
    let rows = outputs.into_iter().next().unwrap().1;
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get(1), &Value::UInt(1));
    assert_eq!(rows[0].get(3), &Value::UInt(0x29));
}

#[test]
fn where_filters_before_aggregation() {
    let dag = build(&[(
        "small",
        "SELECT tb, srcIP, COUNT(*) as cnt FROM TCP WHERE len < 100 \
         GROUP BY time/60 as tb, srcIP",
    )]);
    let trace = vec![pkt(0, 1, 2, 0, 50), pkt(1, 1, 2, 0, 500)];
    let outputs = run_logical(&dag, trace).unwrap();
    let rows = outputs.into_iter().next().unwrap().1;
    assert_eq!(rows, vec![tuple![0u64, 1u64, 1u64]]);
}

#[test]
fn aggregation_stack_heavy_flows() {
    let dag = build(&[
        (
            "flows",
            "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
             GROUP BY time/60 as tb, srcIP, destIP",
        ),
        (
            "heavy_flows",
            "SELECT tb, srcIP, MAX(cnt) as max_cnt FROM flows GROUP BY tb, srcIP",
        ),
    ]);
    let trace = vec![
        pkt(0, 1, 2, 0, 100),
        pkt(1, 1, 2, 0, 100),
        pkt(2, 1, 9, 0, 100),
        pkt(60, 1, 2, 0, 100),
    ];
    let outputs = run_logical(&dag, trace).unwrap();
    let rows = sorted(outputs.into_iter().next().unwrap().1);
    // Epoch 0: src 1's heaviest flow has 2 packets; epoch 1: 1 packet.
    assert_eq!(
        rows,
        vec![tuple![0u64, 1u64, 2u64], tuple![1u64, 1u64, 1u64]]
    );
}

#[test]
fn self_join_with_epoch_offset() {
    let dag = build(&[
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
    ]);
    let trace = vec![
        // Epoch 0: src 1 sends 3 packets, src 7 sends 1.
        pkt(0, 1, 2, 0, 100),
        pkt(1, 1, 2, 0, 100),
        pkt(2, 1, 2, 0, 100),
        pkt(3, 7, 8, 0, 100),
        // Epoch 1: src 1 sends 2 packets.
        pkt(60, 1, 2, 0, 100),
        pkt(61, 1, 9, 0, 100),
        // Epoch 2: src 7 only.
        pkt(120, 7, 8, 0, 100),
    ];
    let outputs = run_logical(&dag, trace).unwrap();
    let rows = sorted(outputs.into_iter().next().unwrap().1);
    // src 1 heavy in epochs 0 (3) and 1 (1): pair (tb=1, 1, 1, 3).
    // src 7 heavy in epochs 0 and 2 — not consecutive, no pair.
    assert_eq!(rows, vec![tuple![1u64, 1u64, 1u64, 3u64]]);
}

#[test]
fn same_epoch_join_combines_lengths() {
    // Section 3.1's PKT join example.
    let dag = build(&[(
        "paired",
        "SELECT time, PKT1.len + PKT2.len as total \
         FROM PKT AS PKT1 JOIN PKT AS PKT2 \
         WHERE PKT1.time = PKT2.time and PKT1.srcIP = PKT2.srcIP \
         and PKT1.destIP = PKT2.destIP",
    )]);
    // PKT(time, srcIP, destIP, len)
    let trace = vec![
        tuple![0u64, 1u64, 2u64, 10u64],
        tuple![0u64, 1u64, 2u64, 20u64],
    ];
    let outputs = run_logical(&dag, trace).unwrap();
    let rows = sorted(outputs.into_iter().next().unwrap().1);
    // Self-join of 2 rows in the same epoch/key: 4 combinations.
    let totals: Vec<u64> = rows.iter().map(|t| t.get(1).as_u64().unwrap()).collect();
    assert_eq!(totals, vec![20, 30, 30, 40]);
}

#[test]
fn left_outer_join_pads_unmatched() {
    let dag = build(&[
        (
            "by_src",
            "SELECT tb, srcIP, COUNT(*) as c FROM TCP GROUP BY time/60 as tb, srcIP",
        ),
        (
            "by_dst",
            "SELECT tb, destIP, COUNT(*) as c FROM TCP GROUP BY time/60 as tb, destIP",
        ),
        (
            "matched",
            "SELECT A.tb, A.srcIP, A.c as sent, B.c as received \
             FROM by_src A LEFT OUTER JOIN by_dst B \
             WHERE A.tb = B.tb and A.srcIP = B.destIP",
        ),
    ]);
    // Host 1 sends to 2; host 2 sends to 1; host 9 sends but never
    // receives.
    let trace = vec![
        pkt(0, 1, 2, 0, 10),
        pkt(1, 2, 1, 0, 10),
        pkt(2, 9, 1, 0, 10),
    ];
    let outputs = run_logical(&dag, trace).unwrap();
    let matched = outputs
        .into_iter()
        .find(|(id, _)| *id == dag.query_node("matched").unwrap())
        .unwrap()
        .1;
    let rows = sorted(matched);
    assert_eq!(rows.len(), 3);
    // Host 9 row padded with NULL received count.
    let host9 = rows.iter().find(|t| t.get(1) == &Value::UInt(9)).unwrap();
    assert_eq!(host9.get(3), &Value::Null);
}

#[test]
fn late_tuples_dropped_and_counted() {
    let dag = build(&[(
        "flows",
        "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
         GROUP BY time/60 as tb, srcIP, destIP",
    )]);
    let mut engine = Engine::new(&dag).unwrap();
    let src = engine.source_nodes()[0];
    push(&mut engine, src, pkt(120, 1, 2, 0, 10));
    // A tuple from a closed window.
    push(&mut engine, src, pkt(0, 1, 2, 0, 10));
    engine.finish().unwrap();
    let agg = dag.query_node("flows").unwrap();
    assert_eq!(engine.counters()[agg].late_dropped, 1);
    assert_eq!(engine.counters()[agg].tuples_out, 1);
}

#[test]
fn run_logical_rejects_multi_source_plans() {
    let dag = build(&[
        (
            "a",
            "SELECT tb, srcIP, COUNT(*) as c FROM TCP GROUP BY time/60 as tb, srcIP",
        ),
        (
            "b",
            "SELECT tb, srcIP, COUNT(*) as c FROM PKT GROUP BY time/60 as tb, srcIP",
        ),
    ]);
    let err = run_logical(&dag, vec![]).unwrap_err();
    assert!(matches!(err, ExecError::BadPlan(_)));
}

#[test]
fn more_group_keys_than_one_mask_word_flags_are_a_bad_plan() {
    let keys: Vec<String> = (0..64).map(|i| format!("len + {i} as k{i}")).collect();
    let dag = build(&[(
        "wide",
        &format!(
            "SELECT tb, COUNT(*) as cnt FROM TCP GROUP BY time/60 as tb, {}",
            keys.join(", ")
        ),
    )]);
    let err = Engine::new(&dag).err().expect("65 group keys");
    assert!(
        matches!(&err, ExecError::BadPlan(m) if m.contains("65 group keys")),
        "{err}"
    );
    let err = run_logical(&dag, vec![pkt(0, 1, 2, 0, 100)]).unwrap_err();
    assert!(matches!(err, ExecError::BadPlan(_)));
}

#[test]
fn more_equi_keys_than_one_mask_word_flags_are_a_bad_plan() {
    let keys: Vec<String> = (0..65)
        .map(|i| format!("S1.len + {i} = S2.len + {i}"))
        .collect();
    let dag = build(&[(
        "wide",
        &format!(
            "SELECT S1.time, S2.len FROM TCP S1, TCP S2 WHERE S1.time = S2.time and {}",
            keys.join(" and ")
        ),
    )]);
    let err = Engine::new(&dag).err().expect("65 equi-keys");
    assert!(
        matches!(&err, ExecError::BadPlan(m) if m.contains("65 equi-keys")),
        "{err}"
    );
    let err = run_logical(&dag, vec![pkt(0, 1, 2, 0, 100)]).unwrap_err();
    assert!(matches!(err, ExecError::BadPlan(_)));
}

#[test]
fn sum_min_max_avg_aggregates() {
    let dag = build(&[(
        "stats",
        "SELECT tb, srcIP, SUM(len) as total, MIN(len) as lo, MAX(len) as hi, \
         AVG(len) as mean FROM TCP GROUP BY time/60 as tb, srcIP",
    )]);
    let trace = vec![
        pkt(0, 1, 2, 0, 10),
        pkt(1, 1, 2, 0, 20),
        pkt(2, 1, 2, 0, 60),
    ];
    let outputs = run_logical(&dag, trace).unwrap();
    let rows = outputs.into_iter().next().unwrap().1;
    assert_eq!(rows, vec![tuple![0u64, 1u64, 90u64, 10u64, 60u64, 30u64]]);
}

#[test]
fn projection_query_passthrough() {
    let dag = build(&[("lens", "SELECT time, len FROM TCP WHERE srcIP = 1")]);
    let trace = vec![pkt(0, 1, 2, 0, 10), pkt(1, 5, 2, 0, 99)];
    let outputs = run_logical(&dag, trace).unwrap();
    let rows = outputs.into_iter().next().unwrap().1;
    assert_eq!(rows, vec![tuple![0u64, 10u64]]);
}

#[test]
fn merge_alignment_with_silent_partition() {
    // Distributed-shape DAG built by hand: two partition scans feeding
    // per-partition aggregates, merged, then a super-aggregate. One
    // partition stays silent until late — the merge must buffer the
    // active partition's partials rather than let the super close its
    // window early and drop the laggard's contribution.
    use qap_expr::{AggCall, AggKind, ScalarExpr};
    use qap_plan::{LogicalNode, NamedAgg, NamedExpr};
    use qap_types::Catalog;

    let mut dag = qap_plan::QueryDag::new(Catalog::with_network_schemas());
    let s0 = dag.add_partition_source("TCP", 0).unwrap();
    let s1 = dag.add_partition_source("TCP", 1).unwrap();
    let sub = |dag: &mut qap_plan::QueryDag, input| {
        dag.add_node(LogicalNode::Aggregate {
            input,
            predicate: None,
            group_by: vec![
                NamedExpr::new("tb", ScalarExpr::col("time").div(60)),
                NamedExpr::passthrough("srcIP"),
            ],
            aggregates: vec![NamedAgg::new("cnt", AggCall::count_star())],
            having: None,
        })
        .unwrap()
    };
    let a0 = sub(&mut dag, s0);
    let a1 = sub(&mut dag, s1);
    let m = dag
        .add_node(LogicalNode::Merge {
            inputs: vec![a0, a1],
        })
        .unwrap();
    let sup = dag
        .add_node(LogicalNode::Aggregate {
            input: m,
            predicate: None,
            group_by: vec![
                NamedExpr::passthrough("tb"),
                NamedExpr::passthrough("srcIP"),
            ],
            aggregates: vec![NamedAgg::new(
                "total",
                AggCall::new(AggKind::Sum, ScalarExpr::col("cnt")),
            )],
            having: None,
        })
        .unwrap();

    let mut engine = Engine::with_sinks(&dag, &[sup]).unwrap();
    // Partition 0 races ahead through three epochs...
    for t in [0u64, 65, 130] {
        push(&mut engine, s0, pkt(t, 1, 2, 0, 10));
    }
    // ...while partition 1 only now delivers an epoch-0 packet.
    push(&mut engine, s1, pkt(3, 1, 2, 0, 10));
    engine.finish().unwrap();
    let rows = sorted(engine.output(sup));
    // Epoch 0 must count BOTH partitions' packets: a premature flush
    // would have emitted (0, 1, 1) and dropped partition 1's partial.
    assert_eq!(
        rows,
        vec![
            tuple![0u64, 1u64, 2u64],
            tuple![1u64, 1u64, 1u64],
            tuple![2u64, 1u64, 1u64],
        ]
    );
}

/// The ∪'s one release rule: with every port at bucket `b`, a further
/// bucket-`b` batch leaves in the same push; a bucket-`b + 1` batch
/// from one port waits until every port has reached `b + 1`, and then
/// leaves ahead of the rows that brought the last port there.
#[test]
fn union_releases_a_bucket_once_every_port_has_reached_it() {
    use crate::ops::{MergeOp, Operator, Out};
    let mut merge = MergeOp::new(2, 0);
    let (mut outs, mut pool) = (Vec::new(), Vec::new());
    // Pushes `(bucket, port)` rows on `port`; returns what left.
    let mut push = |port: usize, buckets: &[u64]| -> Vec<Tuple> {
        let rows: Vec<Tuple> = buckets.iter().map(|&b| tuple![b, port as u64]).collect();
        let mut out = Out {
            batches: &mut outs,
            pool: &mut pool,
            max: 1024,
        };
        (merge.push_columns(port, &mut ColumnBatch::from_rows(&rows), &mut out)).unwrap();
        outs.drain(..).flat_map(|b| b.to_rows()).collect()
    };
    assert_eq!(push(0, &[0]), vec![], "port 1 has delivered nothing");
    assert_eq!(push(1, &[0]), vec![tuple![0u64, 0u64], tuple![0u64, 1u64]]);
    assert_eq!(
        push(0, &[0]),
        vec![tuple![0u64, 0u64]],
        "bucket 0 is open to all"
    );
    assert_eq!(
        push(0, &[1, 1]),
        vec![],
        "port 1 may still deliver bucket 0"
    );
    assert_eq!(push(0, &[1]), vec![]);
    assert_eq!(
        push(1, &[1, 2]),
        vec![
            tuple![1u64, 0u64],
            tuple![1u64, 0u64],
            tuple![1u64, 0u64],
            tuple![1u64, 1u64],
        ],
        "bucket 1 leaves once port 1 reaches it; bucket 2 waits"
    );
    assert_eq!(push(0, &[2]), vec![tuple![2u64, 1u64], tuple![2u64, 0u64]]);
}

#[test]
fn join_retires_unmatched_right_epochs_for_inner() {
    // Right epochs with no possible left partner must be dropped (not
    // leak) for inner joins; finish() asserts the buffers drain.
    let dag = build(&[
        (
            "by_src",
            "SELECT tb, srcIP, COUNT(*) as c FROM TCP WHERE destPort = 80 \
             GROUP BY time/60 as tb, srcIP",
        ),
        (
            "by_src_all",
            "SELECT tb, srcIP, COUNT(*) as c FROM TCP GROUP BY time/60 as tb, srcIP",
        ),
        (
            "j",
            "SELECT A.tb, A.srcIP FROM by_src A, by_src_all B \
             WHERE A.tb = B.tb and A.srcIP = B.srcIP",
        ),
    ]);
    // destPort in the trace helper is always 80, so craft one: epochs 0
    // and 1 have non-80 traffic only → by_src silent, by_src_all not.
    let mut trace = Vec::new();
    for t in [0u64, 70, 140] {
        let mut p = pkt(t, 1, 2, 0, 10);
        if t < 140 {
            // Rewrite destPort away from 80.
            let mut vals = p.into_values();
            vals[5] = Value::UInt(9999);
            p = Tuple::new(vals);
        }
        trace.push(p);
    }
    let outputs = run_logical(&dag, trace).unwrap();
    let rows = &outputs
        .iter()
        .find(|(id, _)| *id == dag.query_node("j").unwrap())
        .unwrap()
        .1;
    // Only epoch 2 matches on both sides.
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get(0), &Value::UInt(2));
}

#[test]
fn counters_track_flow() {
    let dag = build(&[(
        "flows",
        "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
         GROUP BY time/60 as tb, srcIP, destIP",
    )]);
    let trace: Vec<Tuple> = (0..100u64).map(|i| pkt(i, i % 5, 2, 0, 10)).collect();
    let outputs = run_logical(&dag, trace).unwrap();
    let _ = outputs;
    // Re-run with an engine to inspect counters.
    let mut engine = Engine::new(&dag).unwrap();
    let src = engine.source_nodes()[0];
    for i in 0..100u64 {
        push(&mut engine, src, pkt(i, i % 5, 2, 0, 10));
    }
    engine.finish().unwrap();
    let agg = dag.query_node("flows").unwrap();
    assert_eq!(engine.counters()[src].tuples_in, 100);
    assert_eq!(engine.counters()[src].tuples_out, 100);
    assert_eq!(engine.counters()[agg].tuples_in, 100);
    // 5 groups per minute, spanning 2 minutes (0..60, 60..100).
    assert_eq!(engine.counters()[agg].tuples_out, 10);
}

#[test]
fn oversized_column_feed_equals_max_batch_feeds() {
    use crate::BatchConfig;
    let dag = build(&[(
        "flows",
        "SELECT tb, srcIP, destIP, COUNT(*) as cnt, SUM(len) as bytes FROM TCP \
         GROUP BY time/60 as tb, srcIP, destIP",
    )]);
    let trace: Vec<Tuple> = (0..640u64)
        .map(|i| pkt(i / 4, i % 7, i % 3, 0, 100 + i))
        .collect();
    let run = |feeds: &[&[Tuple]]| {
        let mut engine = Engine::new(&dag).unwrap();
        engine.set_batch_config(BatchConfig::new(64));
        let src = engine.source_nodes()[0];
        for feed in feeds {
            let mut cols = ColumnBatch::from_rows(feed);
            engine.push_columns(src, &mut cols).unwrap();
            assert!(cols.is_empty(), "the feed is drained");
        }
        engine.finish().unwrap();
        let batches: Vec<u64> = engine.metrics().iter().map(|m| m.batches_in).collect();
        (
            engine.output(dag.roots()[0]),
            engine.counters().to_vec(),
            batches,
        )
    };
    // One 10 × max_batch feed is chunked into exactly the ten batches
    // that ten max_batch feeds deliver.
    let whole = run(&[&trace[..]]);
    let tens = run(&trace.chunks(64).collect::<Vec<_>>());
    assert_eq!(whole, tens);
    assert_eq!(whole.2[0], 10);
}

#[test]
fn frame_without_the_columnar_flag_is_a_wire_error_that_moves_nothing() {
    use qap_types::{encode_column_batch, Bytes, BytesMut, COLUMNAR_FLAG};
    let dag = build(&[(
        "flows",
        "SELECT tb, srcIP, COUNT(*) as cnt FROM TCP GROUP BY time/60 as tb, srcIP",
    )]);
    let trace: Vec<Tuple> = (0..20u64).map(|i| pkt(i, i % 3, 2, 0, 10)).collect();
    let frame = encode_column_batch(&ColumnBatch::from_rows(&trace), &mut BytesMut::new()).unwrap();
    let mut engine = Engine::new(&dag).unwrap();
    let src = engine.source_nodes()[0];
    // Well-formed in every other respect: only the flag is cleared.
    let mut raw = frame.to_vec();
    raw[4] &= !((COLUMNAR_FLAG >> 24) as u8);
    let err = engine.push_frame(src, Bytes::from(raw)).unwrap_err();
    assert!(matches!(err, ExecError::Wire(_)), "{err}");
    assert!(engine
        .counters()
        .iter()
        .all(|c| c.tuples_in == 0 && c.tuples_out == 0));
    // The same frame with its flag is ingested whole.
    assert_eq!(engine.push_frame(src, frame).unwrap(), trace.len());
    assert_eq!(engine.counters()[src].tuples_in, trace.len() as u64);
}

#[test]
fn a_boundary_sink_collects_what_an_output_sink_does() {
    // Every window but the last closes inside a feed; the last leaves
    // through `finish`.
    let dag = build(&[(
        "flows",
        "SELECT tb, srcIP, COUNT(*) as cnt, SUM(len) as bytes FROM TCP \
         GROUP BY time/60 as tb, srcIP HAVING COUNT(*) > 1",
    )]);
    let agg = dag.roots()[0];
    let trace: Vec<Tuple> = (0..600u64)
        .map(|i| pkt(i / 3, i % 11 % 7, 2, 0, 40 + i))
        .collect();
    let want = run_logical(&dag, trace.clone()).unwrap().remove(0).1;
    assert!(want.len() > 8);

    let mut engine = Engine::with_sinks(&dag, &[agg]).unwrap();
    let src = engine.source_nodes()[0];
    let mut got = ColumnBatch::new(dag.schema(agg).arity());
    for chunk in trace.chunks(50) {
        engine
            .push_columns(src, &mut ColumnBatch::from_rows(chunk))
            .unwrap();
        // Draining leaves the sink collecting.
        if let Some(drained) = engine.drain_boundary(agg) {
            got.append_range(&drained, 0..drained.rows());
        }
    }
    engine.finish().unwrap();
    let last = engine
        .drain_boundary(agg)
        .expect("the last window closes at finish");
    got.append_range(&last, 0..last.rows());
    assert_eq!(got.to_rows(), want);
    assert!(engine.drain_boundary(agg).is_none());
    assert!(engine.output(agg).is_empty(), "draining empties the sink");
}
