//! Robustness and failure-injection tests: disorder, loss, degenerate
//! partition layouts, runtime expression errors, and multi-stream
//! feeds.

use qap::exec::{ExecError, ExecResult};
use qap::prelude::*;
use qap::types::ColumnBatch;

fn pkt(time: u64, src: u64, dst: u64, len: u64) -> Tuple {
    Tuple::new(vec![
        Value::UInt(time),
        Value::UInt(time * 1000),
        Value::UInt(src),
        Value::UInt(dst),
        Value::UInt(1000),
        Value::UInt(80),
        Value::UInt(6),
        Value::UInt(0x10),
        Value::UInt(len),
    ])
}

/// Feeds one tuple to `source` as a one-row lane batch.
fn push(engine: &mut Engine, source: usize, t: Tuple) -> ExecResult<()> {
    engine.push_columns(source, &mut ColumnBatch::from_rows(&[t]))
}

fn flows_dag() -> QueryDag {
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    b.add_query(
        "flows",
        "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
         GROUP BY time/60 as tb, srcIP, destIP",
    )
    .unwrap();
    b.build()
}

#[test]
fn out_of_order_input_drops_late_without_crashing() {
    // A DSMS facing reordered input sheds late tuples and keeps going
    // (the paper's systems drop what misses the window).
    let dag = flows_dag();
    let mut engine = Engine::new(&dag).unwrap();
    let src = engine.source_nodes()[0];
    // Shuffled epochs: 2, 0, 1, 3.
    for &t in &[130u64, 5, 70, 200] {
        push(&mut engine, src, pkt(t, 1, 2, 100)).unwrap();
    }
    engine.finish().unwrap();
    let agg = dag.query_node("flows").unwrap();
    let c = engine.counters()[agg];
    assert_eq!(c.late_dropped, 2, "epochs 0 and 1 arrive behind the window");
    assert_eq!(c.tuples_out, 2, "epochs 2 and 3 still close correctly");
}

#[test]
fn lossy_splitter_degrades_gracefully() {
    // Simulate splitter loss: every k-th packet dropped before
    // ingestion. Counts shrink; nothing else breaks, and group keys
    // that survive are a subset of the lossless run's.
    let dag = flows_dag();
    let trace = generate(&TraceConfig::tiny(71));
    let lossless = run_logical(&dag, trace.clone()).unwrap().remove(0).1;
    let lossy_trace: Vec<Tuple> = trace
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 != 0)
        .map(|(_, t)| t.clone())
        .collect();
    let lossy = run_logical(&dag, lossy_trace).unwrap().remove(0).1;
    assert!(lossy.len() <= lossless.len());
    let keys = |rows: &[Tuple]| -> std::collections::HashSet<String> {
        rows.iter()
            .map(|t| format!("{}|{}|{}", t.get(0), t.get(1), t.get(2)))
            .collect()
    };
    assert!(keys(&lossy).is_subset(&keys(&lossless)));
}

#[test]
fn division_by_zero_mid_stream_surfaces_as_error() {
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    b.add_query(
        "bad",
        // len - 40 is 0 for 40-byte packets; dividing by it faults.
        "SELECT time, srcIP, len / (len - 40) as r FROM TCP",
    )
    .unwrap();
    let dag = b.build();
    let mut engine = Engine::new(&dag).unwrap();
    let src = engine.source_nodes()[0];
    push(&mut engine, src, pkt(0, 1, 2, 100)).unwrap();
    let err = push(&mut engine, src, pkt(1, 1, 2, 40)).unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
    // The reference model agrees.
    let err = run_logical(&dag, vec![pkt(0, 1, 2, 100), pkt(1, 1, 2, 40)]).unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
}

/// `i = 3 and u + u < 3` over `(u u64::MAX, i NULL)` then `(u 1, i 3)`:
/// the model evaluates the right conjunct where the left one is NULL,
/// and overflows there. At every batch size the engine fails with the
/// model's error rather than emitting the second row.
#[test]
fn an_error_behind_a_null_conjunct_surfaces_as_the_models() {
    let mut b = QuerySetBuilder::new(Catalog::new());
    b.parse_script(
        "STREAM S(ts uint increasing, u uint, i int);\n\
         QUERY q: SELECT ts, u FROM S WHERE i = 3 and u + u < 3;",
    )
    .unwrap();
    let dag = b.build();
    let input = [
        Tuple::new(vec![Value::UInt(1), Value::UInt(u64::MAX), Value::Null]),
        Tuple::new(vec![Value::UInt(2), Value::UInt(1), Value::Int(3)]),
    ];
    let model = run_logical(&dag, input.iter().cloned()).unwrap_err();
    assert!(model.to_string().contains("overflow"), "{model}");
    for batch in [1usize, 64, 1024] {
        let mut engine = Engine::new(&dag).unwrap();
        engine.set_batch_config(BatchConfig::new(batch));
        let src = engine.source_nodes()[0];
        let run = |engine: &mut Engine| -> ExecResult<()> {
            for chunk in input.chunks(batch) {
                engine.push_columns(src, &mut ColumnBatch::from_rows(chunk))?;
            }
            engine.finish()
        };
        assert_eq!(run(&mut engine), Err(model.clone()), "batch {batch}");
    }
}

#[test]
fn extreme_partition_imbalance_still_correct() {
    // All traffic from one source: under hash(srcIP) every packet lands
    // in one partition; merges must still align and flush.
    let dag = flows_dag();
    let trace: Vec<Tuple> = (0..300u64).map(|i| pkt(i, 42, i % 7, 64)).collect();
    let reference = run_logical(&dag, trace.clone()).unwrap().remove(0).1;
    let plan = optimize(
        &dag,
        &Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 4),
        &OptimizerConfig::full(),
    )
    .unwrap();
    let result = run_distributed(&plan, &trace, &SimConfig::default()).unwrap();
    assert_eq!(result.outputs[0].1.len(), reference.len());
    // Everything concentrated: imbalance at its theoretical max (one
    // host holds all leaf work beyond parsing).
    assert!(result.metrics.leaf_imbalance > 1.5);
}

#[test]
fn empty_trace_produces_empty_outputs() {
    for &config in Scenario::Complex.configs() {
        let result = run_point(Scenario::Complex, config, 3, &[], &SimConfig::default()).unwrap();
        for (name, rows) in &result.outputs {
            assert!(rows.is_empty(), "{config}/{name}");
        }
        assert_eq!(result.metrics.aggregator_rx_tuples, 0);
    }
}

#[test]
fn single_packet_trace() {
    let trace = vec![pkt(0, 1, 2, 64)];
    let result = run_point(
        Scenario::Complex,
        "Partitioned (full)",
        2,
        &trace,
        &SimConfig::default(),
    )
    .unwrap();
    // flows emits 1 row; heavy_flows 1; flow_pairs needs two epochs → 0.
    assert!(result.outputs[0].1.is_empty());
    assert_eq!(result.metrics.late_dropped, 0);
}

#[test]
fn multi_stream_join_across_tcp_and_pkt() {
    // A two-stream join: per-minute per-source counts on TCP matched
    // with per-minute per-source byte sums on PKT.
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    b.add_query(
        "tcp_cnt",
        "SELECT tb, srcIP, COUNT(*) as c FROM TCP GROUP BY time/60 as tb, srcIP",
    )
    .unwrap();
    b.add_query(
        "pkt_bytes",
        "SELECT tb, srcIP, SUM(len) as bytes FROM PKT GROUP BY time/60 as tb, srcIP",
    )
    .unwrap();
    b.add_query(
        "both",
        "SELECT A.tb, A.srcIP, A.c, B.bytes FROM tcp_cnt A, pkt_bytes B \
         WHERE A.tb = B.tb and A.srcIP = B.srcIP",
    )
    .unwrap();
    let dag = b.build();

    let tcp_trace: Vec<Tuple> = (0..120u64).map(|i| pkt(i, 1 + i % 3, 9, 100)).collect();
    // PKT(time, srcIP, destIP, len): sources 1 and 2 only.
    let pkt_trace: Vec<Tuple> = (0..120u64)
        .map(|i| {
            Tuple::new(vec![
                Value::UInt(i),
                Value::UInt(1 + i % 2),
                Value::UInt(9),
                Value::UInt(10),
            ])
        })
        .collect();

    let plan = optimize(
        &dag,
        &Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 3),
        &OptimizerConfig::full(),
    )
    .unwrap();
    let result = run_distributed_multi(
        &plan,
        &[("TCP", &tcp_trace), ("PKT", &pkt_trace)],
        &SimConfig::default(),
    )
    .unwrap();
    let rows = &result.outputs.iter().find(|(n, _)| n == "both").unwrap().1;
    // 2 epochs × sources {1, 2} present on both streams = 4 rows.
    assert_eq!(rows.len(), 4);
    for row in rows.iter() {
        let src = row.get(1).as_u64().unwrap();
        assert!(src == 1 || src == 2, "source 3 has no PKT match");
    }
}

#[test]
fn missing_feed_for_multi_stream_plan_rejected() {
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    b.add_query(
        "a",
        "SELECT tb, srcIP, COUNT(*) as c FROM TCP GROUP BY time/60 as tb, srcIP",
    )
    .unwrap();
    b.add_query(
        "b",
        "SELECT tb, srcIP, COUNT(*) as c FROM PKT GROUP BY time/60 as tb, srcIP",
    )
    .unwrap();
    let dag = b.build();
    let plan = optimize(
        &dag,
        &Partitioning::round_robin(2),
        &OptimizerConfig::naive(),
    )
    .unwrap();
    // Single-stream entry point refuses a multi-stream plan...
    let err = run_distributed(&plan, &[], &SimConfig::default()).unwrap_err();
    assert!(err.to_string().contains("streams"), "{err}");
    // ...and the multi-stream one demands every feed.
    let tcp: Vec<Tuple> = vec![pkt(0, 1, 2, 64)];
    let err = run_distributed_multi(&plan, &[("TCP", &tcp)], &SimConfig::default()).unwrap_err();
    assert!(err.to_string().to_lowercase().contains("pkt"), "{err}");
    // The single-trace runners refuse it the same way, before any unit
    // starts (or any host is contacted).
    let err = run_distributed_threaded(&plan, &tcp, &SimConfig::default()).unwrap_err();
    assert!(err.to_string().contains("plan reads 2 streams"), "{err}");
    let err = run_distributed_remote(&plan, &tcp, &SimConfig::default(), &[]).unwrap_err();
    assert!(err.to_string().contains("plan reads 2 streams"), "{err}");
}

/// A trace row of the wrong arity is the caller's mistake: every runner
/// answers with a typed `BadPlan` naming the row, on the hash route and
/// the round-robin one, for a row that is too short and one too long.
#[test]
fn wrong_arity_trace_tuple_is_a_typed_error_on_every_runner() {
    let dag = flows_dag();
    let good = pkt(17, 1, 2, 64);
    for part in [
        Partitioning::hash(PartitionSet::from_columns(["srcIP", "destIP"]), 3),
        Partitioning::round_robin(3),
    ] {
        let plan = optimize(&dag, &part, &OptimizerConfig::full()).unwrap();
        for bad in [good.project(&[0, 1, 2]), good.concat(&good)] {
            let mut trace: Vec<Tuple> = (0..40u64).map(|i| pkt(i, i % 5, i % 3, 64)).collect();
            trace[17] = bad.clone();
            let check = |runner: &str, result: Result<SimResult, ExecError>| match result {
                Err(ExecError::BadPlan(msg)) => assert_eq!(
                    msg,
                    format!(
                        "trace tuple 17 has arity {} but stream 'TCP' has arity 9",
                        bad.arity()
                    ),
                    "{runner}"
                ),
                other => panic!("{runner}: expected BadPlan, got {:?}", other.map(|_| ())),
            };
            let cfg = SimConfig::default();
            check("sim", run_distributed(&plan, &trace, &cfg));
            check("threaded", run_distributed_threaded(&plan, &trace, &cfg));

            let listeners: Vec<HostListener> = (0..remote_host_count(&plan, &cfg))
                .map(|_| HostListener::bind(&HostAddr::Tcp("127.0.0.1:0".into())).unwrap())
                .collect();
            let addrs: Vec<HostAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
            std::thread::scope(|scope| {
                for listener in &listeners {
                    scope.spawn(move || {
                        // The coordinator side reports the run's error.
                        let _ = serve_host(listener, &HostServerConfig { once: true });
                    });
                }
                check(
                    "remote",
                    run_distributed_remote(&plan, &trace, &cfg, &addrs),
                );
            });
        }
    }
}

/// A remote host plans from the plan's GSQL, so a plan without any —
/// one over a DAG a union extended, or one `plan_partitioning` built —
/// is a typed `BadPlan` before any host is contacted, not a link
/// failure against addresses that refuse every connection.
#[test]
fn plan_without_gsql_is_refused_before_any_host_is_contacted() {
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    b.add_union("packets", &["TCP"]).unwrap();
    let sql = "SELECT tb, COUNT(*) as c FROM packets GROUP BY time/60 as tb";
    b.add_query("per_epoch", sql).unwrap();
    let part = Partitioning::round_robin(2);
    let union = optimize(&b.build(), &part, &OptimizerConfig::naive()).unwrap();
    let placed = plan_partitioning(&flows_dag(), 2).unwrap();
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        HostAddr::parse(&l.local_addr().unwrap().to_string()).unwrap()
    };
    let cfg = SimConfig::default();
    for plan in [union, placed] {
        assert!(plan.source.is_none());
        let addrs = vec![dead.clone(); remote_host_count(&plan, &cfg)];
        match run_distributed_remote(&plan, &[], &cfg, &addrs) {
            Err(ExecError::BadPlan(msg)) => assert!(msg.contains("GSQL"), "{msg}"),
            other => panic!("expected BadPlan, got {:?}", other.map(|_| ())),
        }
    }
}
