//! Lane execution equivalence across the Section 6 deployments: the
//! SoA representation, the compiled expression kernels, the vectorized
//! group-key path and the column-contiguous wire frames must all be
//! invisible to results and to the semantic per-node counters — at
//! every batch size, in both the deterministic simulator and the
//! threaded runner. Results are held to `run_logical`, the reference
//! model over the unpartitioned query set, which shares no operator code
//! with the engine.

use qap::prelude::*;
use qap::types::{decode_column_batch, encode_column_batch, BytesMut, ColumnBatch};

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

/// Runs every configuration of one Section 6 scenario through the
/// simulator and the threaded runner at batch ∈ {1, 7, 1024}, holding
/// each output to `run_logical`'s rows for the same query and the
/// per-node flow counters to the simulator's at default batching.
fn assert_columnar_invariant(scenario: Scenario, hosts: usize, seed: u64) {
    let trace = generate(&TraceConfig::tiny(seed));
    let logical = run_logical(&scenario.dag(), trace.clone()).unwrap();
    for config in scenario.configs() {
        let plan = scenario.plan(config, hosts);
        let ref_outputs: Vec<Vec<Tuple>> = plan
            .outputs
            .iter()
            .map(|o| {
                let (_, rows) = logical
                    .iter()
                    .find(|(id, _)| *id == o.logical)
                    .expect("every plan output is a logical root");
                sorted(rows.clone())
            })
            .collect();
        let reference = run_distributed(&plan, &trace, &SimConfig::default()).unwrap();

        for batch in [1usize, 7, 1024] {
            let cfg = SimConfig {
                batch: BatchConfig { max_batch: batch },
                ..SimConfig::default()
            };
            let label = format!("{} [{config}] batch={batch}", scenario.name());
            for (runner, result) in [
                ("sim", run_distributed(&plan, &trace, &cfg)),
                ("threaded", run_distributed_threaded(&plan, &trace, &cfg)),
            ] {
                let result = result.unwrap_or_else(|e| panic!("{label} {runner}: {e}"));
                // Flow-conservation counters: per-node tuple flow is
                // batch-size- and runner-invariant.
                assert_eq!(
                    result.counters, reference.counters,
                    "{label} {runner}: counters"
                );
                assert_eq!(result.outputs.len(), ref_outputs.len(), "{label} {runner}");
                for ((name, rows), ref_rows) in result.outputs.iter().zip(&ref_outputs) {
                    assert_eq!(
                        &sorted(rows.clone()),
                        ref_rows,
                        "{label} {runner}: output {name}"
                    );
                }
                assert_eq!(result.metrics.late_dropped, 0, "{label} {runner}");
            }
        }
    }
}

#[test]
fn simple_agg_deployments_match() {
    assert_columnar_invariant(Scenario::SimpleAgg, 3, 31);
}

#[test]
fn query_set_deployments_match() {
    assert_columnar_invariant(Scenario::QuerySet, 3, 37);
}

#[test]
fn complex_deployments_match() {
    assert_columnar_invariant(Scenario::Complex, 4, 41);
}

/// Every batch an operator receives holds at most `max_batch` rows: the
/// ∪ releases the batches its ports delivered, one by one, and a window
/// closes in `max_batch`-row batches, so the Naive aggregator's
/// super-aggregate never receives a whole window of partials. Outputs
/// stay `run_logical`'s.
#[test]
fn every_operator_receives_at_most_max_batch_rows() {
    let trace = generate(&TraceConfig::tiny(43));
    for (scenario, config) in [
        (Scenario::SimpleAgg, "Naive"),
        (Scenario::SimpleAgg, "Partitioned"),
        (Scenario::QuerySet, "Partitioned (optimal)"),
    ] {
        let logical = run_logical(&scenario.dag(), trace.clone()).unwrap();
        let plan = scenario.plan(config, 3);
        for max_batch in [64, 1024] {
            let cfg = SimConfig {
                batch: BatchConfig { max_batch },
                ..SimConfig::default()
            };
            let label = format!("{} [{config}] max_batch={max_batch}", scenario.name());
            let run = run_distributed_threaded(&plan, &trace, &cfg).unwrap();
            for (id, m) in run.node_metrics.iter().enumerate() {
                let largest = m.batch_occupancy.max();
                assert!(
                    largest as usize <= max_batch,
                    "{label}: node {id} received {largest} rows"
                );
            }
            assert!(
                run.node_metrics
                    .iter()
                    .any(|m| m.batch_occupancy.count() > 0),
                "{label}"
            );
            for (o, (name, rows)) in plan.outputs.iter().zip(&run.outputs) {
                let (_, want) = (logical.iter()).find(|(id, _)| *id == o.logical).unwrap();
                assert_eq!(
                    sorted(rows.clone()),
                    sorted(want.clone()),
                    "{label}: {name}"
                );
            }
        }
    }
}

/// Sum of `kernel_fallbacks` over every operator of one engine running
/// the scenario's whole logical query set on a columnar feed. The feed
/// is the generated trace overlaid with its own echo one epoch later,
/// so every flow also exists in the following epoch and the self-joins
/// have pairs to evaluate (generated flows do not outlive their epoch).
fn engine_kernel_fallbacks(scenario: Scenario, seed: u64) -> u64 {
    let dag = scenario.dag();
    let mut trace = generate(&TraceConfig::tiny(seed));
    let echo: Vec<Tuple> = trace
        .iter()
        .map(|t| {
            let mut vals = t.values().to_vec();
            vals[0] = Value::UInt(vals[0].as_u64().unwrap() + 60);
            vals[1] = Value::UInt(vals[1].as_u64().unwrap() + 60_000_000);
            Tuple::new(vals)
        })
        .collect();
    trace.extend(echo);
    trace.sort_by_key(|t| t.get(1).as_u64());
    let mut engine = Engine::new(&dag).unwrap();
    let source = engine.source_nodes()[0];
    for chunk in trace.chunks(1024) {
        engine
            .push_columns(source, &mut ColumnBatch::from_rows(chunk))
            .unwrap();
    }
    engine.finish().unwrap();
    for root in dag.roots() {
        assert!(!engine.output(root).is_empty(), "{}", scenario.name());
    }
    engine.metrics().iter().map(|m| m.kernel_fallbacks).sum()
}

/// The §6.1 query — five word keys, `OR_AGGR`, `COUNT(*)` and a HAVING
/// — the one three of the four `bench_e2e` workloads run.
#[test]
fn simple_agg_never_leaves_the_kernels() {
    assert_eq!(engine_kernel_fallbacks(Scenario::SimpleAgg, 31), 0);
}

/// The §6.2 set — a computed group key, `MIN`, and the epoch self-join
/// — stays on lanes from scan to sink: no operator falls back.
#[test]
fn query_set_never_leaves_the_kernels() {
    assert_eq!(engine_kernel_fallbacks(Scenario::QuerySet, 37), 0);
}

/// Likewise the §6.3 chain `flows → heavy_flows → flow_pairs`.
#[test]
fn complex_chain_never_leaves_the_kernels() {
    assert_eq!(engine_kernel_fallbacks(Scenario::Complex, 41), 0);
}

/// A columnar feed never drops to rows between operators — not at a
/// window the feed closes, and not at the one the end of the stream
/// closes. Every routed batch is a column batch by construction, so
/// what is checked is that the lanes get through: on every `bench_e2e`
/// deployment (3 hosts, batch 1024, threaded runner) and on one engine
/// running each plan whose producer computes off the `uint` lanes,
/// every operator is fed, and those plans answer as the model does.
#[test]
fn no_row_batch_reaches_an_operator_of_a_lane_fed_plan() {
    // Each producer computes a lane of another kind on every batch: a
    // string constant, an unsigned subtraction that borrows into
    // signed, and a comparison key. Its consumer must still be fed
    // lanes.
    for (producer, consumer) in [
        (
            "SELECT time, srcIP, 'x' as tag FROM TCP",
            "SELECT tb, tag, COUNT(*) as cnt FROM p GROUP BY time/60 as tb, tag",
        ),
        (
            "SELECT time, srcIP, len - 100 as d FROM TCP",
            "SELECT tb, srcIP, SUM(d) as total FROM p GROUP BY time/60 as tb, srcIP",
        ),
        (
            "SELECT tb, big, COUNT(*) as cnt FROM TCP GROUP BY time/60 as tb, len > 100 as big",
            "SELECT tb, SUM(cnt) as total FROM p GROUP BY tb",
        ),
    ] {
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.add_query("p", producer).unwrap();
        b.add_query("q", consumer).unwrap();
        let dag = b.build();
        let root = dag.roots()[0];
        let trace = generate(&TraceConfig::tiny(43));
        let mut engine = Engine::new(&dag).unwrap();
        let source = engine.source_nodes()[0];
        for chunk in trace.chunks(1024) {
            engine
                .push_columns(source, &mut ColumnBatch::from_rows(chunk))
                .unwrap();
        }
        engine.finish().unwrap();
        let metrics = engine.metrics();
        for id in dag.topo_order().filter(|&id| !dag.node(id).is_source()) {
            let m = &metrics[id];
            assert!(m.batches_in > 0, "{producer}: node {id} was never fed");
        }
        let logical = run_logical(&dag, trace).unwrap();
        assert_eq!(engine.output(root), logical[0].1, "{producer}");
    }

    let cfg = SimConfig {
        batch: BatchConfig::new(1024),
        ..SimConfig::default()
    };
    for (scenario, config, seed) in [
        (Scenario::SimpleAgg, "Partitioned", 31),
        (Scenario::SimpleAgg, "Naive", 31),
        (Scenario::QuerySet, "Partitioned (optimal)", 37),
    ] {
        let plan = scenario.plan(config, 3);
        let trace = generate(&TraceConfig::tiny(seed));
        let run = run_distributed_threaded(&plan, &trace, &cfg).unwrap();
        let mut fed = 0;
        for id in plan.dag.topo_order() {
            if plan.dag.node(id).is_source() {
                continue;
            }
            fed += run.node_metrics[id].batches_in;
        }
        assert!(fed > 0, "{} [{config}]", scenario.name());
    }
}

/// A migration drain leaves on lanes too: `flush_before` on a lane-fed
/// aggregate hands the window it closes to the operator downstream as a
/// column batch, and the run's output does not change.
#[test]
fn a_migration_drain_reaches_downstream_as_lanes() {
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
    let dag = b.build();
    let heavy = dag.roots()[0];
    let flows = dag.node(heavy).children()[0];
    let trace = generate(&TraceConfig::tiny(43));
    let time = |t: &Tuple| t.get(0).as_u64().unwrap();
    // The first window's rows, then a drain at the start of the next.
    let boundary = (time(&trace[0]) / 60 + 1) * 60;
    let split = trace.iter().position(|t| time(t) >= boundary).unwrap();
    assert!(0 < split && split < trace.len());

    let feed = |engine: &mut Engine, rows: &[Tuple]| {
        let source = engine.source_nodes()[0];
        for chunk in rows.chunks(1024) {
            engine
                .push_columns(source, &mut ColumnBatch::from_rows(chunk))
                .unwrap();
        }
    };
    let mut reference = Engine::new(&dag).unwrap();
    feed(&mut reference, &trace);
    reference.finish().unwrap();

    let mut engine = Engine::new(&dag).unwrap();
    feed(&mut engine, &trace[..split]);
    assert_eq!(
        engine.metrics()[heavy].batches_in,
        0,
        "no window closed yet"
    );
    engine.flush_before(flows, boundary).unwrap();
    assert_eq!(engine.metrics()[heavy].batches_in, 1, "the drained window");
    feed(&mut engine, &trace[split..]);
    engine.finish().unwrap();
    assert_eq!(
        sorted(engine.output(heavy)),
        sorted(reference.output(heavy))
    );
}

/// A string column reaches every runner's engines as the same lane
/// type. The stream is `bench_kernels`' `FLOW(time, srcIP, proto
/// string, len)`, derived from the TCP trace. Partitioned on `proto`,
/// both queries run whole on the leaves, over the batches the splitter
/// staged: an aggregate grouped by `proto`, and a self-join keyed on
/// it. Both read their key lanes as they arrive and tally them by their
/// type. Partitioned on `srcIP`, the aggregate's central
/// super-aggregate is grouped by `proto` and fed the leaves' flushed
/// windows, which an engine writes into recycled batches: a batch whose
/// lanes kept an earlier user's types would tally under another lane
/// type in one runner and not the other. So the simulator and the
/// threaded runner agree on every node's kernel hits, fallbacks and
/// per-lane tallies only if they feed the same lanes. γ reads a string key as words, so every
/// aggregate node of both runners tallies its batches' `proto` lane as
/// a `str` hit, and no fallback.
#[test]
fn a_string_key_reaches_every_runner_as_the_same_lanes() {
    use qap::expr::LaneKind;
    use qap::obs::OpMetrics;
    use qap::types::{DataType, Field, Temporality};
    const PROTOS: [&str; 6] = ["tcp", "udp", "icmp", "gre", "esp", "sctp"];
    let mut catalog = Catalog::new();
    catalog
        .register(
            Schema::new(
                "FLOW",
                vec![
                    Field::temporal("time", DataType::UInt, Temporality::Increasing),
                    Field::new("srcIP", DataType::UInt),
                    Field::new("proto", DataType::Str),
                    Field::new("len", DataType::UInt),
                ],
            )
            .unwrap(),
        )
        .unwrap();
    let mut b = QuerySetBuilder::new(catalog);
    b.add_query(
        "by_proto",
        "SELECT tb, proto, COUNT(*) as cnt, SUM(len) as bytes FROM FLOW \
         GROUP BY time/60 as tb, proto",
    )
    .unwrap();
    b.add_query(
        "same_proto",
        "SELECT S1.time, S1.srcIP, S1.proto, S2.len FROM FLOW S1, FLOW S2 \
         WHERE S1.srcIP = S2.srcIP and S1.proto = S2.proto and S1.time = S2.time",
    )
    .unwrap();
    let dag = b.build();
    let flows: Vec<Tuple> = generate(&TraceConfig::tiny(47))
        .iter()
        .map(|t| {
            let v = t.values();
            let proto = PROTOS[v[5].as_u64().unwrap() as usize % PROTOS.len()];
            Tuple::new(vec![
                v[0].clone(),
                v[2].clone(),
                Value::from(proto),
                v[8].clone(),
            ])
        })
        .collect();
    let tally = |m: &OpMetrics| (m.kernel_hits, m.kernel_fallbacks, m.kernel_lane_hits);
    let cfg = SimConfig::default();
    for set in ["proto", "srcIP"] {
        let plan = optimize(
            &dag,
            &Partitioning::hash(PartitionSet::from_columns([set]), 3),
            &OptimizerConfig::full(),
        )
        .unwrap();
        let sim = run_distributed(&plan, &flows, &cfg).unwrap();
        let threaded = run_distributed_threaded(&plan, &flows, &cfg).unwrap();
        // γ reads `proto` as words: every aggregate node fed any batch
        // tallies it as a `str` lane hit, and never falls back.
        for (runner, result) in [("sim", &sim), ("threaded", &threaded)] {
            let fed: Vec<usize> = (0..result.node_metrics.len())
                .filter(|&id| matches!(plan.dag.node(id), LogicalNode::Aggregate { .. }))
                .filter(|&id| result.node_metrics[id].tuples_in > 0)
                .collect();
            assert!(!fed.is_empty(), "on {set}: {runner} feeds an aggregate");
            for id in fed {
                let m = &result.node_metrics[id];
                assert!(
                    m.kernel_lane_hits[LaneKind::Str as usize] > 0 && m.kernel_fallbacks == 0,
                    "on {set}: {runner} node {id} ({})",
                    plan.dag.node(id).label()
                );
            }
        }
        for (id, (t, s)) in threaded
            .node_metrics
            .iter()
            .zip(&sim.node_metrics)
            .enumerate()
        {
            assert_eq!(
                tally(t),
                tally(s),
                "on {set}: node {id} ({})",
                plan.dag.node(id).label()
            );
        }
        assert_eq!(threaded.counters, sim.counters, "{set}");
    }
}

/// The splitter always hashes the *row* view of a tuple, and a tuple
/// that has crossed the columnar wire must route to the same partition
/// as its original: transpose → encode → decode → materialize is the
/// identity as far as the hash partitioner is concerned.
#[test]
fn column_round_trip_preserves_partition_routing() {
    let schema = Catalog::with_network_schemas().get("TCP").unwrap().clone();
    let trace = generate(&TraceConfig::tiny(99));
    for cols in [vec!["srcIP"], vec!["srcIP", "destIP"], vec!["destPort"]] {
        let set = PartitionSet::from_columns(cols.clone());
        let splitter = HashPartitioner::new(&set, &schema, 8).unwrap();
        let batch = ColumnBatch::from_rows(&trace);
        let mut scratch = BytesMut::new();
        let decoded =
            decode_column_batch(encode_column_batch(&batch, &mut scratch).unwrap()).unwrap();
        assert_eq!(decoded.rows(), trace.len());
        for (i, t) in trace.iter().enumerate() {
            assert_eq!(
                splitter.partition(t),
                splitter.partition(&decoded.row(i)),
                "row {i} rerouted under {cols:?}"
            );
        }
    }
}
