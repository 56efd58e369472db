//! Transport equivalence across process boundaries: every §6 deployment
//! must produce bit-identical results whether the leaf hosts run as
//! in-process engine threads behind bounded channels, or as *real OS
//! processes* (spawned `qapctl host --listen` children) behind TCP or
//! Unix-domain sockets.
//!
//! The reference is the deterministic simulator. For each scenario ×
//! host count × transport cell the suite asserts:
//!
//! - sorted output rows are bit-identical to the simulator's;
//! - cumulative per-node counters are identical;
//! - the run's trace span (`duration_secs`) is the simulator's;
//! - flow conservation holds over the stitched per-node metrics
//!   (`tuples_in(n) == Σ children tuples_out` across every edge, even
//!   when producer and consumer ran in different OS processes);
//! - no failure records on the clean path.

use std::io::BufRead as _;
use std::process::{Child, Command, Stdio};

use qap::exec::OpMetrics;
use qap::prelude::*;

/// Per-scenario partitioning column sets: each is compatible with the
/// scenario's aggregations, so the optimizer pushes work to the leaves
/// and the boundary actually carries partial-aggregate traffic.
fn partition_columns(scenario: Scenario) -> &'static [&'static str] {
    match scenario {
        Scenario::SimpleAgg => &["srcIP", "destIP", "srcPort", "destPort"],
        Scenario::QuerySet => &["srcIP", "destIP"],
        Scenario::Complex => &["srcIP"],
    }
}

fn plan_for(scenario: Scenario, hosts: usize) -> DistributedPlan {
    optimize(
        &scenario.dag(),
        &Partitioning::hash(
            PartitionSet::from_columns(partition_columns(scenario).iter().copied()),
            hosts,
        ),
        &OptimizerConfig::full(),
    )
    .unwrap()
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

/// Tuple conservation over every edge of the logical DAG, computed from
/// one run's stitched per-node metrics.
fn assert_conserves(dag: &QueryDag, metrics: &[OpMetrics], label: &str) {
    for id in dag.topo_order() {
        let children = dag.node(id).children();
        if children.is_empty() {
            continue; // Sources are fed externally.
        }
        let expected: u64 = children.iter().map(|&c| metrics[c].tuples_out).sum();
        assert_eq!(
            metrics[id].tuples_in, expected,
            "{label}: node {id} tuples_in vs children tuples_out"
        );
    }
}

/// A spawned `qapctl host --listen <addr> --once` child process plus
/// the (ephemeral-port-resolved) address it printed.
struct ChildHost {
    child: Child,
    addr: HostAddr,
}

impl Drop for ChildHost {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `n` real host processes for one run. `kind` is `"tcp"` or
/// `"unix"`; `tag` keeps unix socket paths unique across cells.
fn spawn_hosts(kind: &str, n: usize, tag: &str) -> Vec<ChildHost> {
    (0..n)
        .map(|i| {
            let listen = match kind {
                "tcp" => "tcp:127.0.0.1:0".to_string(),
                "unix" => format!(
                    "unix:{}/qap-se-{}-{tag}-{i}.sock",
                    std::env::temp_dir().display(),
                    std::process::id()
                ),
                other => panic!("unknown transport {other}"),
            };
            let mut child = Command::new(env!("CARGO_BIN_EXE_qapctl"))
                .args(["host", "--listen", &listen, "--once"])
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn qapctl host");
            let stdout = child.stdout.take().expect("piped stdout");
            let mut line = String::new();
            std::io::BufReader::new(stdout)
                .read_line(&mut line)
                .expect("host announces its address");
            let addr = line
                .trim()
                .strip_prefix("LISTENING ")
                .unwrap_or_else(|| panic!("unexpected host banner: {line:?}"));
            ChildHost {
                child,
                addr: HostAddr::parse(addr).expect("host address parses"),
            }
        })
        .collect()
}

/// Runs one cell of the matrix and checks it against the simulator.
fn check_cell(
    scenario: Scenario,
    plan: &DistributedPlan,
    trace: &[Tuple],
    reference: &SimResult,
    transport_kind: &str,
) {
    let label = format!(
        "{scenario:?} hosts={} transport={transport_kind}",
        plan.partitioning.hosts
    );
    let sim = SimConfig {
        transport: TransportConfig::default().host_serial(),
        ..SimConfig::default()
    };
    let result = match transport_kind {
        "channel" => run_distributed_threaded(plan, trace, &sim),
        kind => {
            let needed = remote_host_count(plan, &sim);
            let children = spawn_hosts(
                kind,
                needed,
                &format!("{scenario:?}{}", plan.partitioning.hosts),
            );
            let addrs: Vec<HostAddr> = children.iter().map(|c| c.addr.clone()).collect();
            let result = run_distributed_remote(plan, trace, &sim, &addrs);
            for mut c in children {
                let _ = c.child.wait();
            }
            result
        }
    }
    .unwrap_or_else(|e| panic!("{label}: {e}"));

    assert!(result.failures.is_empty(), "{label}: {:?}", result.failures);
    assert_eq!(result.counters, reference.counters, "{label}: counters");
    // Every runner takes the trace span from its splitter's pass.
    assert_eq!(
        result.metrics.duration_secs, reference.metrics.duration_secs,
        "{label}: duration"
    );
    for ((name, rows), (ref_name, ref_rows)) in result.outputs.iter().zip(reference.outputs.iter())
    {
        assert_eq!(name, ref_name, "{label}");
        assert_eq!(
            sorted(rows.clone()),
            sorted(ref_rows.clone()),
            "{label}: output {name}"
        );
    }
    assert_conserves(&plan.dag, &result.node_metrics, &label);
    // The splitter delivered every trace tuple to exactly one scan,
    // whatever process that scan ran in.
    let scanned: u64 = plan
        .dag
        .topo_order()
        .filter(|&id| plan.dag.node(id).children().is_empty())
        .map(|id| result.node_metrics[id].tuples_in)
        .sum();
    assert_eq!(scanned, trace.len() as u64, "{label}: splitter delivery");
}

/// The full sweep for one scenario: 2–4 hosts × {channel, tcp, unix},
/// with tcp/unix cells running real child processes.
fn sweep(scenario: Scenario, seed: u64) {
    let trace = generate(&TraceConfig::tiny(seed));
    for hosts in [2usize, 3, 4] {
        let plan = plan_for(scenario, hosts);
        let reference = run_distributed(&plan, &trace, &SimConfig::default()).unwrap();
        let times = trace.iter().map(|t| t.get(0).as_u64().unwrap());
        let span = times.clone().max().unwrap() - times.min().unwrap() + 1;
        assert_eq!(reference.metrics.duration_secs, span as f64);
        for transport_kind in ["channel", "tcp", "unix"] {
            check_cell(scenario, &plan, &trace, &reference, transport_kind);
        }
    }
}

#[test]
fn simple_aggregation_is_transport_invariant() {
    sweep(Scenario::SimpleAgg, 101);
}

#[test]
fn query_set_is_transport_invariant() {
    sweep(Scenario::QuerySet, 103);
}

#[test]
fn complex_dag_is_transport_invariant() {
    sweep(Scenario::Complex, 107);
}

/// String predicates and string keys, end to end: σ with a string
/// equality and a string order compare (`proto = 'udp' OR proto >
/// 'icmp'`) feeding a γ grouped by `proto`, and a self-join keyed on
/// `proto`. The stream is `columnar_equivalence`'s `FLOW(time, srcIP,
/// proto string, len)` with NULL and empty-string protos mixed in.
/// Partitioned on `proto` and on `srcIP`, the simulator, the threaded
/// runner and real `qapctl host` children over TCP all return
/// `run_logical`'s rows.
#[test]
fn string_predicates_and_keys_match_the_model_on_every_runner() {
    use qap::types::{DataType, Field, Temporality};
    const PROTOS: [Option<&str>; 8] = [
        Some("tcp"),
        Some("udp"),
        Some("icmp"),
        Some("gre"),
        Some("esp"),
        Some("sctp"),
        Some(""),
        None,
    ];
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
        "picked",
        "SELECT tb, proto, COUNT(*) as cnt, SUM(len) as bytes FROM FLOW \
         WHERE proto = 'udp' OR proto > 'icmp' \
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
                proto.map_or(Value::Null, Value::from),
                v[8].clone(),
            ])
        })
        .collect();
    let logical = run_logical(&dag, flows.clone()).unwrap();
    let cfg = SimConfig::default();
    for set in ["proto", "srcIP"] {
        let plan = optimize(
            &dag,
            &Partitioning::hash(PartitionSet::from_columns([set]), 3),
            &OptimizerConfig::full(),
        )
        .unwrap();
        let expected: Vec<Vec<Tuple>> = plan
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
        assert!(expected.iter().all(|rows| !rows.is_empty()), "{set}");
        // The join pairs empty-string protos (NULL never equals NULL).
        let empty = Value::from("");
        assert!(
            expected
                .iter()
                .flatten()
                .any(|t| t.values().contains(&empty)),
            "{set}"
        );
        let children = spawn_hosts("tcp", remote_host_count(&plan, &cfg), &format!("str-{set}"));
        let addrs: Vec<HostAddr> = children.iter().map(|c| c.addr.clone()).collect();
        for (runner, result) in [
            ("sim", run_distributed(&plan, &flows, &cfg)),
            ("threaded", run_distributed_threaded(&plan, &flows, &cfg)),
            ("tcp", run_distributed_remote(&plan, &flows, &cfg, &addrs)),
        ] {
            let result = result.unwrap_or_else(|e| panic!("on {set}: {runner}: {e}"));
            assert!(result.failures.is_empty(), "on {set}: {runner}");
            assert_eq!(result.outputs.len(), expected.len(), "on {set}: {runner}");
            for ((name, rows), want) in result.outputs.iter().zip(&expected) {
                assert_eq!(
                    &sorted(rows.clone()),
                    want,
                    "on {set}: {runner}: output {name}"
                );
            }
        }
        for mut c in children {
            let _ = c.child.wait();
        }
    }
}
