//! Kernel-path benchmark: columnar engine ns/tuple per workload group
//! plus per-lane evaluation telemetry, written as machine-readable
//! `BENCH_kernels.json`.
//!
//! Each group stages a trace as SoA [`ColumnBatch`] chunks (outside the
//! timed region), drives a fresh engine through `push_columns`, and
//! reports the *minimum* wall time over several iterations — the right
//! statistic on a shared machine, where every disturbance only adds
//! time. After timing, one extra run harvests the engine's metrics
//! snapshot: kernel hits (total and per lane type) and fallbacks,
//! group-table inserts and probes, and flush latency.
//!
//! The process exits non-zero if any group reports a kernel fallback:
//! the column evaluator answers every batch, so a fallback is a
//! regression. CI runs this as the fallback-zero gate. The `qset_*`
//! groups decompose the §6.2 set the way EXPERIMENTS.md reports it: the subnet aggregate with and without
//! its `srcIP & 0xFFF0` key, `tcp_flows` alone, with the `jitter`
//! self-join on top, and the full set; `simple_agg_e2e` is the §6.1
//! query itself on that trace. Every case that aggregates also reports
//! its window close per group (`emit ns/group`: flush time over group
//! inserts). `naive_leaf_boundary` sizes the
//! other end of a leaf engine: what one §6.1 Naive leaf host spends per
//! tuple it *ships* — closing the window (emit), collecting it at the
//! boundary (sink), cutting and encoding frames (frame).
//! `naive_central_merge` is the stage behind the wire on that
//! deployment: the aggregator's super-aggregate fed what every leaf
//! host's sub-aggregates drain, per tuple received.
//! `splitter_route` sizes the stage in front of the engines: the
//! splitter's routing hash and its per-row route + scatter under the
//! §6.1 and §6.2 sets, timed but not gated.
//!
//! Usage: `cargo run --release -p qap-bench --bin bench_kernels [OUT.json]`
//! (default output path `BENCH_kernels.json` in the working directory).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use qap::cluster::rebalance::BUCKETS_PER_PARTITION;
use qap::obs::{OpMetrics, KERNEL_LANE_LABELS};
use qap::plan::NodeId;
use qap::prelude::*;
use qap::types::{
    encode_column_batch, tcp_schema, BytesMut, ColumnBatch, DataType, Field, Temporality,
};
use qap_bench::{small_trace, standard_trace_config};

const BATCH: usize = 1024;
const ITERS: usize = 101;

/// One measured workload group.
struct Case {
    group: &'static str,
    tuples: usize,
    ns_per_tuple: f64,
    metrics: OpMetrics,
    /// `ns_per_tuple` by stage — (emit, sink, frame) — for the boundary
    /// group.
    stages: Option<[f64; 3]>,
}

/// Window-close nanoseconds per group created, for a case that
/// aggregates.
fn emit_ns_per_group(m: &OpMetrics) -> Option<f64> {
    (m.group_inserts > 0).then(|| m.flush_ns as f64 / m.group_inserts as f64)
}

/// Sums the kernel/group counters across all operators of one engine
/// run into a single [`OpMetrics`] record.
fn summed_metrics(engine: &Engine) -> OpMetrics {
    let mut total = OpMetrics::default();
    for m in engine.metrics() {
        total.merge(&m);
    }
    total
}

/// Times `dag` over pre-staged columnar chunks: warm-up, then the
/// minimum of [`ITERS`] full runs, engine construction included.
fn measure(dag: &QueryDag, chunks: &[ColumnBatch], tuples: usize) -> (f64, OpMetrics) {
    let root = dag.roots()[0];
    let run = || {
        let mut engine = Engine::new(dag).expect("engine builds");
        engine.set_batch_config(BatchConfig::new(BATCH));
        let source = engine.source_nodes()[0];
        for cols in chunks {
            let mut cols = cols.clone();
            engine.push_columns(source, &mut cols).expect("push");
        }
        engine.finish().expect("finish");
        (engine.output(root).len(), engine)
    };
    let (warm_rows, _) = run();
    let mut best = f64::INFINITY;
    let mut metrics = OpMetrics::default();
    for it in 0..ITERS {
        let staged: Vec<ColumnBatch> = chunks.to_vec();
        let t0 = Instant::now();
        let mut engine = Engine::new(dag).expect("engine builds");
        engine.set_batch_config(BatchConfig::new(BATCH));
        let source = engine.source_nodes()[0];
        for mut cols in staged {
            engine.push_columns(source, &mut cols).expect("push");
        }
        engine.finish().expect("finish");
        let out = engine.output(root);
        let ns = t0.elapsed().as_nanos() as f64;
        assert_eq!(out.len(), warm_rows, "nondeterministic output");
        best = best.min(ns);
        // Counters are deterministic across runs; flush_ns is wall
        // time, so harvest it from a warm timed run, not the cold one.
        if it + 1 == ITERS {
            metrics = summed_metrics(&engine);
        }
    }
    (best / tuples as f64, metrics)
}

/// One host's leaf tier of the §6.1 Naive deployment as a stand-alone
/// plan: its partition scans and their sub-aggregates, the batches the
/// round-robin splitter hands it, and the nodes whose output crosses to
/// the aggregator.
struct NaiveLeaf {
    dag: QueryDag,
    feed: Vec<(NodeId, ColumnBatch)>,
    boundary: Vec<NodeId>,
}

fn naive_leaf(trace: &[Tuple], plan: &DistributedPlan, host: usize) -> NaiveLeaf {
    let mut dag = QueryDag::new(plan.dag.catalog().clone());
    let mut local: HashMap<NodeId, NodeId> = HashMap::new();
    let mut scan_of: HashMap<usize, NodeId> = HashMap::new();
    let leaf_tier = plan
        .dag
        .topo_order()
        .filter(|&id| plan.host[id] == host && !plan.central[id]);
    for id in leaf_tier {
        let lid = match plan.dag.node(id).clone() {
            LogicalNode::Source { stream, partition } => {
                let p = partition.expect("a distributed plan scans partitions");
                let lid = dag.add_partition_source(&stream, p).expect("scan");
                scan_of.insert(p as usize, lid);
                lid
            }
            LogicalNode::Aggregate {
                input,
                predicate,
                group_by,
                aggregates,
                having,
            } => dag
                .add_node(LogicalNode::Aggregate {
                    input: local[&input],
                    predicate,
                    group_by,
                    aggregates,
                    having,
                })
                .expect("sub-aggregate"),
            other => panic!(
                "a Naive leaf scans and sub-aggregates; found {}",
                other.label()
            ),
        };
        local.insert(id, lid);
    }
    // Tuple `i` goes to partition `i mod M`; a partition's batch leaves
    // when it fills, the residue in scan order.
    let partitions = plan.partitioning.partitions;
    let mut stage: Vec<ColumnBatch> = (0..partitions).map(|_| ColumnBatch::new(0)).collect();
    let mut feed = Vec::new();
    for (i, t) in trace.iter().enumerate() {
        let p = i % partitions;
        let Some(&scan) = scan_of.get(&p) else {
            continue;
        };
        if stage[p].is_empty() {
            stage[p] = ColumnBatch::with_row_budget(t.arity(), BATCH);
        }
        stage[p].push_row(t);
        if stage[p].rows() == BATCH {
            feed.push((scan, stage[p].take()));
        }
    }
    let mut residue: Vec<(NodeId, ColumnBatch)> = scan_of
        .iter()
        .map(|(&p, &scan)| (scan, stage[p].take()))
        .filter(|(_, rows)| !rows.is_empty())
        .collect();
    residue.sort_by_key(|(scan, _)| *scan);
    feed.extend(residue);
    NaiveLeaf {
        boundary: dag.roots(),
        dag,
        feed,
    }
}

/// How far one timed pass of [`NaiveLeaf`] goes.
#[derive(Clone, Copy, PartialEq)]
enum Upto {
    /// The engine alone: nothing collects the sub-aggregates' output.
    Emit,
    /// Plus a boundary sink per sub-aggregate, drained after every feed.
    Sink,
    /// Plus what a unit does with the drained lanes: `frame_batch`-row
    /// frames cut positionally, each encoded.
    Frame,
}

/// One pass over the leaf's feed: wall nanoseconds, tuples that reached
/// the boundary, and the engine for its metrics.
fn run_leaf(leaf: &NaiveLeaf, upto: Upto) -> (f64, usize, Engine) {
    let feed: Vec<(NodeId, ColumnBatch)> = leaf.feed.clone();
    let boundary: &[NodeId] = if upto == Upto::Emit {
        &[]
    } else {
        &leaf.boundary
    };
    let t0 = Instant::now();
    let mut engine = Engine::with_sinks(&leaf.dag, boundary).expect("engine builds");
    engine.set_batch_config(BatchConfig::new(BATCH));
    let mut pending: Vec<ColumnBatch> = boundary
        .iter()
        .map(|&b| ColumnBatch::new(leaf.dag.schema(b).arity()))
        .collect();
    let mut scratch = BytesMut::new();
    let mut shipped = 0;
    let mut forward = |engine: &mut Engine, last: bool| {
        for (&node, pending) in boundary.iter().zip(&mut pending) {
            let mut frame = |pending: &mut ColumnBatch| {
                black_box(encode_column_batch(pending, &mut scratch).expect("frame encodes"));
                pending.clear();
            };
            if let Some(drained) = engine.drain_boundary(node) {
                shipped += drained.rows();
                if upto == Upto::Sink {
                    black_box(&drained);
                    continue;
                }
                let mut at = 0;
                while pending.rows() + (drained.rows() - at) >= BATCH {
                    let cut = at + BATCH - pending.rows();
                    pending.append_range(&drained, at..cut);
                    at = cut;
                    frame(pending);
                }
                pending.append_range(&drained, at..drained.rows());
            }
            if last && !pending.is_empty() {
                frame(pending);
            }
        }
    };
    for (scan, mut cols) in feed {
        engine.push_columns(scan, &mut cols).expect("push");
        forward(&mut engine, false);
    }
    engine.finish().expect("finish");
    forward(&mut engine, true);
    let ns = t0.elapsed().as_nanos() as f64;
    (ns, shipped, engine)
}

/// The boundary's cost on one Naive leaf, per tuple shipped: the
/// minimum of [`ITERS`] passes at each depth — taken in rotation, so a
/// disturbance falls on all three alike — with emit read off the
/// sub-aggregates' own flush clocks and the two stages after it as
/// differences of minima.
fn measure_leaf_boundary(trace: &[Tuple]) -> Case {
    let plan = Scenario::SimpleAgg.plan("Naive", 3);
    let host = (0..plan.partitioning.hosts)
        .find(|&h| h != plan.partitioning.aggregator_host)
        .expect("three hosts");
    let leaf = naive_leaf(trace, &plan, host);
    let depths = [Upto::Emit, Upto::Sink, Upto::Frame];
    let mut best = [f64::INFINITY; 3];
    let (mut tuples, mut metrics) = (0, OpMetrics::default());
    for _ in 0..=ITERS {
        for (upto, best) in depths.into_iter().zip(&mut best) {
            let (ns, shipped, engine) = run_leaf(&leaf, upto);
            if ns < *best {
                *best = ns;
                if upto == Upto::Frame {
                    (tuples, metrics) = (shipped, summed_metrics(&engine));
                }
            }
        }
    }
    let [engine_ns, sink_ns, frame_ns] = best;
    let per = |ns: f64| ns / tuples as f64;
    let stages = [
        per(metrics.flush_ns as f64),
        per(sink_ns - engine_ns),
        per(frame_ns - sink_ns),
    ];
    let fed: usize = leaf.feed.iter().map(|(_, b)| b.rows()).sum();
    println!(
        "naive_leaf_boundary: {fed} tuples in at {:.1} ns/tuple, {tuples} out",
        frame_ns / fed as f64
    );
    Case {
        group: "naive_leaf_boundary",
        tuples,
        ns_per_tuple: stages.iter().sum(),
        metrics,
        stages: Some(stages),
    }
}

/// The §6.1 Naive aggregator's merge stage: its super-aggregate as a
/// stand-alone plan over a stream of the sub-aggregates' partials, fed
/// what every host's sub-aggregates drain at the boundary over one pass
/// of the trace — built once, the hosts' drains taken in turn, as the
/// aggregator's links deliver them — timed like every engine group.
fn measure_central_merge(trace: &[Tuple]) -> Case {
    let plan = Scenario::SimpleAgg.plan("Naive", 3);
    let mut drains: Vec<Vec<ColumnBatch>> = Vec::new();
    let mut partials = None;
    for host in 0..plan.partitioning.hosts {
        let leaf = naive_leaf(trace, &plan, host);
        let mut engine = Engine::with_sinks(&leaf.dag, &leaf.boundary).expect("engine builds");
        engine.set_batch_config(BatchConfig::new(BATCH));
        let mut drained = Vec::new();
        let mut drain = |engine: &mut Engine| {
            for &b in &leaf.boundary {
                drained.extend(engine.drain_boundary(b).filter(|d| !d.is_empty()));
            }
        };
        for (scan, mut cols) in leaf.feed.clone() {
            engine.push_columns(scan, &mut cols).expect("push");
            drain(&mut engine);
        }
        engine.finish().expect("finish");
        drain(&mut engine);
        drains.push(drained);
        partials = Some(leaf.dag.schema(leaf.boundary[0]).clone());
    }
    let longest = drains.iter().map(Vec::len).max().unwrap_or(0);
    let feed: Vec<ColumnBatch> = (0..longest)
        .flat_map(|i| drains.iter().filter_map(move |d| d.get(i).cloned()))
        .collect();
    let partials = partials.expect("three hosts");
    let mut catalog = Catalog::new();
    catalog
        .register(Schema::new("PARTIALS", partials.fields().to_vec()).expect("partials schema"))
        .expect("one stream");
    let mut dag = QueryDag::new(catalog);
    let source = dag.add_source("PARTIALS").expect("source");
    let central = plan
        .dag
        .topo_order()
        .find(|&id| {
            matches!(plan.dag.node(id), LogicalNode::Aggregate { input, .. }
                if matches!(plan.dag.node(*input), LogicalNode::Merge { .. }))
        })
        .expect("a Naive plan merges centrally");
    let LogicalNode::Aggregate {
        predicate,
        group_by,
        aggregates,
        having,
        ..
    } = plan.dag.node(central).clone()
    else {
        unreachable!("found as an aggregate");
    };
    let merge = dag
        .add_node(LogicalNode::Aggregate {
            input: source,
            predicate,
            group_by,
            aggregates,
            having,
        })
        .expect("super-aggregate");
    dag.name_query("suspicious_flows", merge).expect("names");
    let tuples = feed.iter().map(ColumnBatch::rows).sum();
    let (ns_per_tuple, metrics) = measure(&dag, &feed, tuples);
    Case {
        group: "naive_central_merge",
        tuples,
        ns_per_tuple,
        metrics,
        stages: None,
    }
}

/// The splitter's per-row cost under one deployed set, ns per trace
/// tuple: the routing hash alone, and the whole per-row body of the run
/// loop's `Splitter::route` around it.
struct RouteCase {
    set: String,
    tuples: usize,
    hash_ns: f64,
    route_scatter_ns: f64,
}

/// Times the splitter of `config`'s 3-host deployment over `trace`:
/// "hash" is `HashPartitioner::route` per row, "route + scatter" also
/// `push_row`s the row into its partition's [`BATCH`]-row staging batch
/// (a full batch is cleared, as the engine's swap would leave it). The
/// minimum of [`ITERS`] passes each, taken in rotation.
fn measure_splitter_route(trace: &[Tuple], scenario: Scenario, config: &str) -> RouteCase {
    let (partitioning, _) = scenario.deployment(config, 3);
    let SplitStrategy::Hash(set) = &partitioning.strategy else {
        panic!("{config} is a hash deployment");
    };
    let schema = tcp_schema();
    let router =
        HashPartitioner::with_buckets(set, &schema, partitioning.partitions, BUCKETS_PER_PARTITION)
            .expect("the set binds");
    let mut stage: Vec<ColumnBatch> = (0..partitioning.partitions)
        .map(|_| ColumnBatch::with_row_budget(schema.arity(), BATCH))
        .collect();
    let (mut hash_ns, mut route_scatter_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ITERS {
        let t0 = Instant::now();
        for t in trace {
            black_box(router.route(black_box(t)));
        }
        hash_ns = hash_ns.min(t0.elapsed().as_nanos() as f64);
        let t0 = Instant::now();
        for t in trace {
            let batch = &mut stage[router.route(t).partition];
            batch.push_row(t);
            if batch.rows() >= BATCH {
                batch.clear();
            }
        }
        route_scatter_ns = route_scatter_ns.min(t0.elapsed().as_nanos() as f64);
        black_box(&mut stage);
    }
    let n = trace.len() as f64;
    RouteCase {
        set: set.to_string(),
        tuples: trace.len(),
        hash_ns: hash_ns / n,
        route_scatter_ns: route_scatter_ns / n,
    }
}

fn tcp_dag(sql: &str) -> QueryDag {
    tcp_set(&[("q", sql)])
}

fn tcp_set(queries: &[(&str, &str)]) -> QueryDag {
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    for (name, sql) in queries {
        b.add_query(name, sql).expect("parses");
    }
    b.build()
}

const SUBNET_STATS: &str =
    "SELECT tb, subnet, destIP, COUNT(*) as cnt, SUM(len) as bytes FROM TCP \
     GROUP BY time/60 as tb, srcIP & 0xFFF0 as subnet, destIP";
const TCP_FLOWS: &str = "SELECT tb, srcIP, destIP, srcPort, destPort, \
     COUNT(*) as cnt, MIN(timestamp) as first_ts FROM TCP \
     GROUP BY time/60 as tb, srcIP, destIP, srcPort, destPort";
const JITTER: &str = "SELECT S1.tb, S1.srcIP, S1.destIP, S1.srcPort, S1.destPort, \
     S2.first_ts - S1.first_ts as delay FROM tcp_flows S1, tcp_flows S2 \
     WHERE S1.srcIP = S2.srcIP and S1.destIP = S2.destIP \
     and S1.srcPort = S2.srcPort and S1.destPort = S2.destPort and S2.tb = S1.tb + 1";

/// A flow-record stream with a string-typed protocol column, derived
/// from the TCP trace: `FLOW(time, srcIP, proto string, len)`. The
/// few protocol names recur per flow, and each row carries its own
/// string on the lane.
fn flow_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(
        Schema::new(
            "FLOW",
            vec![
                Field::temporal("time", DataType::UInt, Temporality::Increasing),
                Field::new("srcIP", DataType::UInt),
                Field::new("proto", DataType::Str),
                Field::new("len", DataType::UInt),
            ],
        )
        .expect("static schema"),
    )
    .expect("static schema");
    c
}

const PROTOS: [&str; 6] = ["tcp", "udp", "icmp", "gre", "esp", "sctp"];

fn flow_trace(tcp: &[Tuple]) -> Vec<Tuple> {
    tcp.iter()
        .map(|t| {
            let proto = PROTOS[(t.values()[5].as_u64().unwrap_or(0) as usize) % PROTOS.len()];
            Tuple::new(vec![
                t.values()[0].clone(),
                t.values()[2].clone(),
                Value::from(proto),
                t.values()[8].clone(),
            ])
        })
        .collect()
}

fn main() -> ExitCode {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_kernels.json".to_string());

    let tcp_trace = small_trace();
    let tcp_chunks: Vec<ColumnBatch> = tcp_trace
        .chunks(BATCH)
        .map(ColumnBatch::from_rows)
        .collect();
    let flows = flow_trace(&tcp_trace);
    let flow_chunks: Vec<ColumnBatch> = flows.chunks(BATCH).map(ColumnBatch::from_rows).collect();
    // The §6.2/§6.3 groups run on the trace `bench_e2e` replays
    // (~0.45 M packets, 20 k flows per epoch): their cost is group-table
    // and join-buffer misses, which a cache-resident trace hides.
    let e2e_trace = generate(&TraceConfig {
        flows_per_epoch: 20_000,
        ..standard_trace_config()
    });
    let e2e_chunks: Vec<ColumnBatch> = e2e_trace
        .chunks(BATCH)
        .map(ColumnBatch::from_rows)
        .collect();

    let mut cases: Vec<Case> = Vec::new();
    let mut gate_failures: Vec<String> = Vec::new();

    let groups: Vec<(&'static str, QueryDag, &[ColumnBatch])> = vec![
        (
            "columnar_simple_agg",
            tcp_dag(
                "SELECT tb, srcIP, destIP, COUNT(*) as cnt, SUM(len) as bytes FROM TCP \
                 GROUP BY time/60 as tb, srcIP, destIP",
            ),
            &tcp_chunks,
        ),
        (
            "columnar_selection",
            tcp_dag("SELECT time, srcIP, len FROM TCP WHERE destPort = 80"),
            &tcp_chunks,
        ),
        (
            "high_cardinality_agg",
            tcp_dag(
                "SELECT tb, srcIP, destIP, srcPort, destPort, COUNT(*) as cnt FROM TCP \
                 GROUP BY time/60 as tb, srcIP, destIP, srcPort, destPort",
            ),
            &tcp_chunks,
        ),
        (
            "qset_subnet_unmasked",
            tcp_dag(
                "SELECT tb, srcIP, destIP, COUNT(*) as cnt, SUM(len) as bytes FROM TCP \
                 GROUP BY time/60 as tb, srcIP, destIP",
            ),
            &e2e_chunks,
        ),
        ("qset_subnet_masked", tcp_dag(SUBNET_STATS), &e2e_chunks),
        ("qset_flows", tcp_dag(TCP_FLOWS), &e2e_chunks),
        (
            "qset_flows_jitter",
            tcp_set(&[("tcp_flows", TCP_FLOWS), ("jitter", JITTER)]),
            &e2e_chunks,
        ),
        ("qset_full", Scenario::QuerySet.dag(), &e2e_chunks),
        ("simple_agg_e2e", Scenario::SimpleAgg.dag(), &e2e_chunks),
        ("complex_full", Scenario::Complex.dag(), &e2e_chunks),
        (
            "columnar_str_filter",
            {
                let mut b = QuerySetBuilder::new(flow_catalog());
                b.add_query("q", "SELECT time, srcIP, len FROM FLOW WHERE proto = 'tcp'")
                    .expect("parses");
                b.build()
            },
            &flow_chunks,
        ),
    ];

    // Prints a finished case and holds it to the fallback-zero gate.
    let mut finish = |c: Case| {
        let (group, metrics) = (c.group, &c.metrics);
        print!(
            "{group}: {:.1} ns/tuple ({:.2} Mt/s), kernel {} hit / {} fallback, \
             {} group inserts, {} group probes",
            c.ns_per_tuple,
            1e3 / c.ns_per_tuple,
            metrics.kernel_hits,
            metrics.kernel_fallbacks,
            metrics.group_inserts,
            metrics.group_probes,
        );
        if let Some(emit) = emit_ns_per_group(metrics) {
            print!(", emit {emit:.1} ns/group");
        }
        match c.stages {
            Some([emit, sink, frame]) => {
                println!(" (per tuple shipped: emit {emit:.1} + sink {sink:.1} + frame {frame:.1})")
            }
            None => println!(),
        }
        if metrics.kernel_fallbacks > 0 {
            gate_failures.push(format!(
                "{group}: {} kernel fallbacks",
                metrics.kernel_fallbacks
            ));
        }
        cases.push(c);
    };
    for (group, dag, chunks) in &groups {
        let tuples = chunks.iter().map(ColumnBatch::rows).sum::<usize>();
        let (ns_per_tuple, metrics) = measure(dag, chunks, tuples);
        finish(Case {
            group,
            tuples,
            ns_per_tuple,
            metrics,
            stages: None,
        });
    }
    finish(measure_leaf_boundary(&e2e_trace));
    finish(measure_central_merge(&e2e_trace));

    let routes = [
        measure_splitter_route(&e2e_trace, Scenario::SimpleAgg, "Partitioned"),
        measure_splitter_route(&e2e_trace, Scenario::QuerySet, "Partitioned (optimal)"),
    ];
    for r in &routes {
        println!(
            "splitter_route {}: hash {:.1} ns/tuple, route + scatter {:.1} ns/tuple",
            r.set, r.hash_ns, r.route_scatter_ns
        );
    }

    let mut json = String::from("{\n  \"bench\": \"kernels\",\n  \"splitter_route\": [\n");
    for (i, r) in routes.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"set\": \"{}\", \"tuples\": {}, \"hash_ns_per_tuple\": {:.2}, \
             \"route_scatter_ns_per_tuple\": {:.2}}}{}",
            r.set,
            r.tuples,
            r.hash_ns,
            r.route_scatter_ns,
            if i + 1 < routes.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        let lanes = |arr: &[u64]| {
            let mut s = String::from("{");
            for (j, (label, v)) in KERNEL_LANE_LABELS.iter().zip(arr.iter()).enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "\"{label}\": {v}");
            }
            s.push('}');
            s
        };
        let _ = writeln!(
            json,
            "    {{\"group\": \"{}\", \"tuples\": {}, \"ns_per_tuple\": {:.2}, {}{}\
             \"mtuples_per_sec\": {:.2}, \"kernel_hits\": {}, \
             \"kernel_fallbacks\": {}, \"kernel_lane_hits\": {}, \
             \"group_inserts\": {}, \"group_probes\": {}, \
             \"flush_ns\": {}}}{}",
            c.group,
            c.tuples,
            c.ns_per_tuple,
            c.stages
                .map_or(String::new(), |[emit, sink, frame]| format!(
                    "\"emit_ns\": {emit:.2}, \"sink_ns\": {sink:.2}, \"frame_ns\": {frame:.2}, "
                )),
            emit_ns_per_group(&c.metrics).map_or(String::new(), |emit| format!(
                "\"emit_ns_per_group\": {emit:.2}, "
            )),
            1e3 / c.ns_per_tuple,
            c.metrics.kernel_hits,
            c.metrics.kernel_fallbacks,
            lanes(&c.metrics.kernel_lane_hits),
            c.metrics.group_inserts,
            c.metrics.group_probes,
            c.metrics.flush_ns,
            if i + 1 < cases.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("bench_kernels: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nwrote {out_path} ({} cases)", cases.len());

    if !gate_failures.is_empty() {
        eprintln!("\nKERNEL FALLBACK REGRESSIONS:");
        for f in &gate_failures {
            eprintln!("  {f}");
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
