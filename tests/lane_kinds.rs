//! Lanes carry the kinds the plan declares. On well-typed input no node
//! of any runner — the simulator, the threaded runner, and real
//! `qapctl host` children behind TCP — tallies a kernel fallback (there
//! is no `mixed` lane kind left to tally), every typed lane every node outputs has the
//! kind its schema declares, and so does every value the runners and
//! the model output. The plans are the §6 deployments and
//! `bench_kernels`' `FLOW` stream, whose string-keyed aggregate runs as
//! a central super-aggregate when the stream is partitioned on `srcIP`.
//! A trace row of another kind is refused by row and column, on every
//! runner.

use std::io::BufRead as _;
use std::process::{Child, Command, Stdio};

use qap::exec::{ExecError, ExecResult};
use qap::prelude::*;
use qap::types::{ColumnBatch, DataType, Field, Temporality, TypeError};

#[path = "support/kinds.rs"]
mod kinds;

/// A spawned `qapctl host --listen tcp:… --once` child.
struct ChildHost(Child, HostAddr);

impl Drop for ChildHost {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_host() -> ChildHost {
    let mut child = Command::new(env!("CARGO_BIN_EXE_qapctl"))
        .args(["host", "--listen", "tcp:127.0.0.1:0", "--once"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn qapctl host");
    let mut line = String::new();
    std::io::BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("host announces its address");
    let addr = line
        .trim()
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("unexpected host banner: {line:?}"));
    ChildHost(child, HostAddr::parse(addr).expect("host address parses"))
}

/// One plan on every runner: `(runner, result)`.
fn every_runner(
    plan: &DistributedPlan,
    trace: &[Tuple],
) -> Vec<(&'static str, ExecResult<SimResult>)> {
    let cfg = SimConfig::default();
    let hosts: Vec<ChildHost> = (0..remote_host_count(plan, &cfg))
        .map(|_| spawn_host())
        .collect();
    let addrs: Vec<HostAddr> = hosts.iter().map(|h| h.1.clone()).collect();
    vec![
        ("sim", run_distributed(plan, trace, &cfg)),
        ("threaded", run_distributed_threaded(plan, trace, &cfg)),
        ("tcp", run_distributed_remote(plan, trace, &cfg, &addrs)),
    ]
}

/// No node of any runner tallies a fallback, and every output lane and
/// value has its schema's kind.
fn assert_lanes_typed(label: &str, plan: &DistributedPlan, trace: &[Tuple]) {
    kinds::assert_plan_lanes_typed(label, plan, trace);
    for (runner, result) in every_runner(plan, trace) {
        let result = result.unwrap_or_else(|e| panic!("{label} {runner}: {e}"));
        assert!(result.failures.is_empty(), "{label} {runner}");
        for (out, (_, rows)) in plan.outputs.iter().zip(&result.outputs) {
            kinds::assert_values_typed(label, &plan.dag, out.node, rows);
        }
        for (id, m) in result.node_metrics.iter().enumerate() {
            assert_eq!(
                m.kernel_fallbacks,
                0,
                "{label} {runner}: node {id} ({})",
                plan.dag.node(id).label()
            );
        }
    }
}

/// `FLOW(time, srcIP, proto string, len)` off the TCP trace, and a
/// query set grouping and self-joining it on `proto`.
fn flow() -> (QueryDag, Vec<Tuple>) {
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
    let trace = generate(&TraceConfig::tiny(47))
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
    (b.build(), trace)
}

fn flow_plan(dag: &QueryDag) -> DistributedPlan {
    let srcip = Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 3);
    optimize(dag, &srcip, &OptimizerConfig::full()).unwrap()
}

#[test]
fn no_runner_tallies_a_mixed_lane_on_well_typed_input() {
    for (scenario, seed) in [
        (Scenario::SimpleAgg, 31),
        (Scenario::QuerySet, 37),
        (Scenario::Complex, 41),
    ] {
        let trace = generate(&TraceConfig::tiny(seed));
        kinds::assert_model_values_typed(scenario.name(), &scenario.dag(), &trace);
        for &config in scenario.configs() {
            let label = format!("{} [{config}]", scenario.name());
            assert_lanes_typed(&label, &scenario.plan(config, 3), &trace);
        }
    }
    let (dag, trace) = flow();
    kinds::assert_model_values_typed("FLOW", &dag, &trace);
    assert_lanes_typed("FLOW on srcIP", &flow_plan(&dag), &trace);
}

/// A trace row with a value of another kind than its column declares —
/// a signed `len`, a number for `proto` — fails the run on every runner
/// with a typed error naming the row and the column, as it fails the
/// model.
#[test]
fn an_off_kind_trace_row_is_refused_by_row_and_column() {
    let (dag, flows) = flow();
    let plan = flow_plan(&dag);
    for (at, column, odd, found) in [
        (57, "len", Value::Int(-3), DataType::Int),
        (3, "proto", Value::UInt(17), DataType::UInt),
    ] {
        let mut trace = flows.clone();
        let c = dag.catalog().get("FLOW").unwrap().index_of(column).unwrap();
        let mut values = trace[at].values().to_vec();
        values[c] = odd;
        trace[at] = Tuple::new(values);
        let want = ExecError::Wire(TypeError::KindMismatch {
            column: column.into(),
            row: at,
            expected: dag.catalog().get("FLOW").unwrap().fields()[c].data_type(),
            found,
        });
        assert_eq!(
            run_logical(&dag, trace.iter().cloned()).err(),
            Some(want.clone())
        );
        for (runner, result) in every_runner(&plan, &trace) {
            assert_eq!(result.err(), Some(want.clone()), "{runner}");
        }
    }
}

/// One engine running `dag`, every node a sink, fed `batches` in turn at
/// its one source: every typed lane every node outputs has the kind the
/// node's schema declares, and every root outputs the model's rows.
fn assert_engine_lanes_typed(label: &str, dag: &QueryDag, batches: &[Vec<Tuple>]) {
    let all: Vec<usize> = dag.topo_order().collect();
    let mut engine = Engine::with_sinks(dag, &all).expect("engine builds");
    let source = engine.source_nodes()[0];
    let mut got = vec![Vec::new(); dag.len()];
    let mut drain = |engine: &mut Engine| {
        for &id in &all {
            if let Some(lanes) = engine.drain_boundary(id) {
                kinds::assert_lanes_typed(label, dag, id, &lanes);
                got[id].extend(lanes.to_rows());
            }
        }
    };
    for rows in batches {
        let mut cols = ColumnBatch::from_rows(rows);
        engine.push_columns(source, &mut cols).expect("push");
        drain(&mut engine);
    }
    engine.finish().expect("finish");
    drain(&mut engine);
    let sorted = |mut rows: Vec<Tuple>| {
        rows.sort_by(|a, b| {
            let pairs = a.values().iter().zip(b.values());
            let first = pairs.map(|(x, y)| x.total_cmp(y)).find(|o| o.is_ne());
            first.unwrap_or(std::cmp::Ordering::Equal)
        });
        rows
    };
    for (id, want) in run_logical(dag, batches.concat()).expect("model runs") {
        let got = sorted(std::mem::take(&mut got[id]));
        assert_eq!(got, sorted(want), "{label}: node {id}");
    }
}

fn dag_of(script: &str) -> QueryDag {
    let mut b = QuerySetBuilder::new(Catalog::new());
    b.parse_script(script).expect("script parses");
    b.build()
}

fn row(values: &[Value]) -> Tuple {
    Tuple::new(values.to_vec())
}

/// A σπ that interprets a batch (`a + 1` bails on a negative `a`) emits
/// its rows into a pooled batch, which another node of the same arity
/// may have left typed `uint` in the column that here is `s string`: a
/// NULL first in `s` leaves the lane untyped, and the string after it
/// types it.
#[test]
fn a_row_fallback_into_a_pooled_batch_takes_the_plan_kinds() {
    let dag = dag_of(
        "STREAM S(ts uint increasing, v uint, s string, a int);\n\
         QUERY vs: SELECT ts, v, s, a + 1 as b FROM S;\n\
         QUERY sv: SELECT ts, s, v, a + 1 as b FROM S;",
    );
    let (u, i, s) = (Value::UInt, Value::Int, Value::from);
    let kernel = |t: u64| vec![row(&[u(t), u(t), s("x"), i(1)])];
    let fallback = |t: u64| {
        vec![
            row(&[u(t), u(t), Value::Null, i(-5)]),
            row(&[u(t), u(t), s("y"), i(2)]),
        ]
    };
    let batches: Vec<Vec<Tuple>> = (0..4).flat_map(|t| [kernel(t), fallback(t)]).collect();
    assert_engine_lanes_typed("pooled σπ fallback", &dag, &batches);
}

/// A kernel over an `int` column whose batch holds only NULLs (an
/// untyped lane) outputs no lane of another kind: the union after it
/// takes the next batch's `int`s.
#[test]
fn a_kernel_over_an_all_null_batch_types_no_lane() {
    let mut b = QuerySetBuilder::new(Catalog::new());
    b.parse_script(
        "STREAM S(ts uint increasing, v int);\n\
         QUERY twice: SELECT ts, v * 2 as w FROM S;\n\
         QUERY next: SELECT ts, v + 1 as w FROM S;",
    )
    .expect("script parses");
    b.add_union("both", &["twice", "next"]).expect("union");
    let (u, i) = (Value::UInt, Value::Int);
    assert_engine_lanes_typed(
        "σπ over all-NULL int into a union",
        &b.build(),
        &[
            vec![row(&[u(1), Value::Null]), row(&[u(1), Value::Null])],
            vec![row(&[u(1), i(3)]), row(&[u(2), i(4)])],
        ],
    );
}
