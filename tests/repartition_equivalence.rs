//! Adaptive re-partitioning equivalence: closing the loop from load
//! gauges to the splitter must never change *what* a deployment
//! computes — only where the work runs.
//!
//! For the §6 scenarios × 2–4 hosts × {simulated, threaded, tcp}
//! runners the suite asserts that a run with the rebalance controller
//! armed produces the same sorted output rows as the static splitter.
//! (Per-node counters legitimately differ: the migration drain flushes
//! partial aggregates at epoch boundaries the static run holds until
//! end of stream.) A dedicated skewed workload checks migrations
//! actually fire — an equivalence proof over zero migrations proves
//! nothing — and that every runner makes the same ones; property tests
//! drive the extract → ship → absorb machinery directly with randomized
//! boundaries and bucket moves.

use std::io::BufRead as _;
use std::process::{Child, Command, Stdio};

use proptest::prelude::*;

use qap::exec::Engine;
use qap::prelude::*;
use qap::types::ColumnBatch;

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

/// The controller config every adaptive cell runs: a hair trigger
/// (threshold 1.2, one epoch) sampled at 45s so epoch boundaries fall
/// inside 60s windows and migrations genuinely ship live state.
fn adaptive() -> RebalanceConfig {
    RebalanceConfig::adaptive()
        .with_threshold(1.2)
        .with_consecutive(1)
        .with_sample_secs(45)
}

fn flows_plan(hosts: usize) -> DistributedPlan {
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    b.add_query(
        "flows",
        "SELECT tb, srcIP, COUNT(*) as pkts, SUM(len) as bytes FROM TCP \
         GROUP BY time/60 as tb, srcIP",
    )
    .unwrap();
    optimize(
        &b.build(),
        &Partitioning::hash(PartitionSet::from_columns(["srcIP"]), hosts),
        &OptimizerConfig::full(),
    )
    .unwrap()
}

fn assert_same_outputs(label: &str, a: &SimResult, b: &SimResult) {
    assert_eq!(a.outputs.len(), b.outputs.len(), "{label}");
    for ((name, rows), (ref_name, ref_rows)) in a.outputs.iter().zip(b.outputs.iter()) {
        assert_eq!(name, ref_name, "{label}");
        assert_eq!(
            sorted(rows.clone()),
            sorted(ref_rows.clone()),
            "{label}: output {name}"
        );
    }
}

// ---------------------------------------------------------------------
// §6 scenario matrix: adaptive == static, sim + threaded runners
// ---------------------------------------------------------------------

fn scenario_partition_columns(scenario: Scenario) -> &'static [&'static str] {
    match scenario {
        Scenario::SimpleAgg => &["srcIP", "destIP", "srcPort", "destPort"],
        Scenario::QuerySet => &["srcIP", "destIP"],
        Scenario::Complex => &["srcIP"],
    }
}

fn scenario_sweep(scenario: Scenario, seed: u64) {
    let trace = generate_skew_ramp(&SkewRampConfig {
        base: TraceConfig::tiny(seed),
        ..SkewRampConfig::default()
    });
    for hosts in [2usize, 3, 4] {
        let plan = optimize(
            &scenario.dag(),
            &Partitioning::hash(
                PartitionSet::from_columns(scenario_partition_columns(scenario).iter().copied()),
                hosts,
            ),
            &OptimizerConfig::full(),
        )
        .unwrap();
        let static_ref = run_distributed(&plan, &trace, &SimConfig::default()).unwrap();
        let cfg = SimConfig {
            transport: TransportConfig {
                rebalance: adaptive(),
                ..TransportConfig::default()
            },
            ..SimConfig::default()
        };
        let sim = run_distributed(&plan, &trace, &cfg)
            .unwrap_or_else(|e| panic!("{scenario:?} hosts={hosts} sim: {e}"));
        assert!(sim.failures.is_empty(), "{scenario:?} hosts={hosts} sim");
        assert_same_outputs(
            &format!("{scenario:?} hosts={hosts} sim"),
            &sim,
            &static_ref,
        );

        let threaded = run_distributed_threaded(&plan, &trace, &cfg)
            .unwrap_or_else(|e| panic!("{scenario:?} hosts={hosts} threaded: {e}"));
        assert!(
            threaded.failures.is_empty(),
            "{scenario:?} hosts={hosts} threaded"
        );
        assert_same_outputs(
            &format!("{scenario:?} hosts={hosts} threaded"),
            &threaded,
            &static_ref,
        );
    }
}

#[test]
fn simple_agg_adaptive_matches_static() {
    scenario_sweep(Scenario::SimpleAgg, 11);
}

#[test]
fn query_set_adaptive_matches_static() {
    scenario_sweep(Scenario::QuerySet, 12);
}

#[test]
fn complex_adaptive_matches_static() {
    scenario_sweep(Scenario::Complex, 13);
}

// ---------------------------------------------------------------------
// Migrations genuinely fire — the same ones on every runner — and still
// agree, on the skewed workload
// ---------------------------------------------------------------------

/// Every runner deploys one unit per host and every unit's state can
/// move, the aggregator's own partitions included, so the controller
/// makes the same migrations on the same trace wherever the units run:
/// with one leaf host beside the aggregator as with three.
#[test]
fn skewed_workload_migrates_and_matches_static() {
    let trace = generate_skew_ramp(&SkewRampConfig::tiny(7));
    let cfg = SimConfig {
        transport: TransportConfig {
            rebalance: adaptive(),
            ..TransportConfig::default()
        },
        ..SimConfig::default()
    };
    let decisions = |r: &SimResult| (r.metrics.repartitions, r.metrics.migrated_keys);
    for hosts in [2usize, 4] {
        let plan = flows_plan(hosts);
        let static_ref = run_distributed(&plan, &trace, &SimConfig::default()).unwrap();
        let sim = run_distributed(&plan, &trace, &cfg).unwrap();
        let threaded = run_distributed_threaded(&plan, &trace, &cfg).unwrap();
        let children = spawn_hosts(remote_host_count(&plan, &cfg));
        let addrs: Vec<HostAddr> = children.iter().map(|c| c.addr.clone()).collect();
        let tcp = run_distributed_remote(&plan, &trace, &cfg, &addrs).unwrap();
        drop(children);
        for (runner, result) in [("sim", &sim), ("threaded", &threaded), ("tcp", &tcp)] {
            let label = format!("{runner} hosts={hosts}");
            assert_eq!(result.metrics.rebalance_fallback, None, "{label}");
            assert!(
                result.metrics.repartitions >= 1,
                "{label}: controller never fired"
            );
            assert!(
                result.metrics.migrated_keys > 0,
                "{label}: no live state shipped"
            );
            assert!(result.metrics.load_imbalance > 1.0, "{label}");
            assert!(result.failures.is_empty(), "{label}: {:?}", result.failures);
            assert_eq!(decisions(result), decisions(&sim), "{label}: decisions");
            assert_same_outputs(&label, result, &static_ref);
        }
    }
}

// ---------------------------------------------------------------------
// TCP host processes: adaptive == static across real sockets
// ---------------------------------------------------------------------

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

fn spawn_hosts(n: usize) -> Vec<ChildHost> {
    (0..n)
        .map(|_| {
            let mut child = Command::new(env!("CARGO_BIN_EXE_qapctl"))
                .args(["host", "--listen", "tcp:127.0.0.1:0", "--once"])
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

#[test]
fn tcp_adaptive_matches_static_and_migrates() {
    let trace = generate_skew_ramp(&SkewRampConfig::tiny(7));
    let plan = flows_plan(4);
    let static_cfg = SimConfig::default();
    let needed = remote_host_count(&plan, &static_cfg);

    let children = spawn_hosts(needed);
    let addrs: Vec<HostAddr> = children.iter().map(|c| c.addr.clone()).collect();
    let static_ref = run_distributed_remote(&plan, &trace, &static_cfg, &addrs).unwrap();
    drop(children);

    let cfg = SimConfig {
        transport: TransportConfig {
            rebalance: adaptive(),
            ..TransportConfig::default()
        },
        ..SimConfig::default()
    };
    let children = spawn_hosts(needed);
    let addrs: Vec<HostAddr> = children.iter().map(|c| c.addr.clone()).collect();
    let result = run_distributed_remote(&plan, &trace, &cfg, &addrs).unwrap();
    drop(children);

    assert!(
        result.metrics.rebalance_fallback.is_none(),
        "fell back: {:?}",
        result.metrics.rebalance_fallback
    );
    assert!(result.metrics.repartitions >= 1, "controller never fired");
    assert!(result.metrics.migrated_keys > 0, "no live state shipped");
    assert!(result.failures.is_empty(), "{:?}", result.failures);
    assert_same_outputs("tcp hosts=4", &result, &static_ref);
}

// ---------------------------------------------------------------------
// Static partitioning is the loop whose controller never fires
// ---------------------------------------------------------------------

#[test]
fn controller_that_never_fires_is_the_static_run() {
    let trace = generate_skew_ramp(&SkewRampConfig::tiny(7));
    let plan = flows_plan(4);
    let armed = |transport: TransportConfig| SimConfig {
        transport: TransportConfig {
            rebalance: RebalanceConfig::adaptive().with_threshold(f64::INFINITY),
            ..transport
        },
        ..SimConfig::default()
    };
    let off = |transport: TransportConfig| SimConfig {
        transport,
        ..SimConfig::default()
    };
    let check = |label: &str, armed: &SimResult, off: &SimResult| {
        assert!(
            armed.metrics.rebalance_fallback.is_none(),
            "{label}: fell back: {:?}",
            armed.metrics.rebalance_fallback
        );
        assert_eq!(armed.metrics.repartitions, 0, "{label}");
        assert_eq!(armed.metrics.migrated_keys, 0, "{label}");
        assert!(armed.failures.is_empty(), "{label}: {:?}", armed.failures);
        assert_same_outputs(label, armed, off);
        assert_eq!(armed.counters, off.counters, "{label}: counters");
    };

    let transport = TransportConfig::default();
    let sim_off = run_distributed(&plan, &trace, &off(transport)).unwrap();
    let sim_armed = run_distributed(&plan, &trace, &armed(transport)).unwrap();
    check("sim", &sim_armed, &sim_off);
    // One engine, one feed order: not even the row order may differ.
    assert_eq!(sim_armed.outputs, sim_off.outputs, "sim: unsorted outputs");

    let threaded_off = run_distributed_threaded(&plan, &trace, &off(transport)).unwrap();
    let threaded_armed = run_distributed_threaded(&plan, &trace, &armed(transport)).unwrap();
    check("threaded", &threaded_armed, &threaded_off);

    let needed = remote_host_count(&plan, &off(transport));
    let mut tcp = Vec::new();
    for cfg in [off(transport), armed(transport)] {
        let children = spawn_hosts(needed);
        let addrs: Vec<HostAddr> = children.iter().map(|c| c.addr.clone()).collect();
        tcp.push(run_distributed_remote(&plan, &trace, &cfg, &addrs).unwrap());
    }
    check("tcp", &tcp[1], &tcp[0]);
}

// ---------------------------------------------------------------------
// Mid-migration host failure: typed, partial, no deadlock
// ---------------------------------------------------------------------

#[test]
fn mid_migration_host_failure_is_typed_and_partial() {
    let trace = generate_skew_ramp(&SkewRampConfig::tiny(7));
    let plan = flows_plan(4);
    // Kill a non-aggregator leaf host partway through the stream: the
    // panic lands while epochs (and, on this workload, migrations) are
    // in flight. The run must complete — never hang on a dead peer's
    // ack — and surface the loss as one typed failure record.
    let agg = plan.partitioning.aggregator_host;
    let victim = (0..4).find(|&h| h != agg).unwrap();
    let cfg = SimConfig {
        transport: TransportConfig {
            rebalance: adaptive(),
            ..TransportConfig::default()
        }
        .with_fault(FaultPlan::seeded(21).panic_after(victim, 200))
        .with_partial_results(true),
        ..SimConfig::default()
    };
    let result = run_distributed_threaded(&plan, &trace, &cfg).unwrap();
    assert!(
        result
            .failures
            .iter()
            .any(|f| f.host == victim && matches!(f.cause, FailureCause::Panic(_))),
        "expected a typed panic failure for host {victim}: {:?}",
        result.failures
    );
    // Surviving hosts finished their epochs and produced output.
    assert!(result.outputs.iter().any(|(_, rows)| !rows.is_empty()));
}

// ---------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------

/// Locates the single aggregate node and the source of the flows dag.
fn agg_and_source(dag: &QueryDag) -> (usize, usize) {
    let mut agg = None;
    let mut src = None;
    for id in dag.topo_order() {
        match dag.node(id) {
            qap::plan::LogicalNode::Aggregate { .. } => agg = Some(id),
            qap::plan::LogicalNode::Source { .. } => src = Some(id),
            _ => {}
        }
    }
    (agg.unwrap(), src.unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// extract → ship → absorb preserves every aggregate: two engines
    /// split a stream by key, a randomized subset of buckets migrates
    /// at a randomized boundary (splitting a window more often than
    /// not), and the merged output equals the reference model's. The
    /// select list is drawn from every built-in accumulator, with an
    /// optional HAVING, and `len` is NULL for a third of the sources
    /// (and scattered elsewhere), so SUM's two-word state, AVG's sum and
    /// count, and MIN/MAX state holding NULL all cross as lanes.
    #[test]
    fn migration_preserves_every_aggregate(
        seed in 0u64..200,
        boundary_off in 10u64..170,
        flips in proptest::collection::vec(any::<bool>(), 16..17),
        picks in proptest::collection::vec(0usize..7, 1..5),
        having in any::<bool>(),
    ) {
        const AGGS: [&str; 7] = [
            "COUNT(*)",
            "SUM(len)",
            "MIN(len)",
            "MAX(len)",
            "AVG(len)",
            "OR_AGGR(flags)",
            "AND_AGGR(flags)",
        ];
        let select: Vec<String> =
            picks.iter().enumerate().map(|(i, &k)| format!("{} as a{i}", AGGS[k])).collect();
        let query = format!(
            "SELECT tb, srcIP, {} FROM TCP GROUP BY time/60 as tb, srcIP{}",
            select.join(", "),
            if having { " HAVING COUNT(*) > 2" } else { "" },
        );
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.add_query("flows", &query).unwrap();
        let dag = b.build();
        let (agg, src) = agg_and_source(&dag);
        let root = dag.roots()[0];
        let set = PartitionSet::from_columns(["srcIP"]);
        let schema = qap::types::tcp_schema();
        let (tidx, sidx) = (schema.index_of("time").unwrap(), schema.index_of("srcIP").unwrap());
        let lidx = schema.index_of("len").unwrap();
        let mut trace = generate(&TraceConfig::tiny(seed));
        for (i, t) in trace.iter_mut().enumerate() {
            if t.get(sidx).as_u64().unwrap_or(0) % 3 == 0 || i % 7 == 0 {
                let mut vals = std::mem::take(t).into_values();
                vals[lidx] = Value::Null;
                *t = Tuple::new(vals);
            }
        }
        let t0 = trace.first().map(|t| t.get(tidx).as_u64().unwrap_or(0)).unwrap_or(0);
        let boundary = t0 + boundary_off;

        // Reference: the model sees everything.
        let want = sorted(run_logical(&dag, trace.clone()).unwrap().remove(0).1);
        let one = |t: &Tuple| ColumnBatch::from_rows(std::slice::from_ref(t));

        // Split run: 2 engines, 8 buckets each, with the stream router
        // and the state router sharing one table.
        let mut route = HashPartitioner::with_buckets(&set, &schema, 2, 8).unwrap();
        let mut engines = [Engine::new(&dag).unwrap(), Engine::new(&dag).unwrap()];
        let mut next = route.assignment().to_vec();
        for (bkt, flip) in flips.iter().enumerate() {
            if *flip {
                next[bkt] = 1 - next[bkt];
            }
        }

        let split = trace.iter().position(|t| t.get(tidx).as_u64().unwrap_or(0) >= boundary)
            .unwrap_or(trace.len());
        for t in &trace[..split] {
            engines[route.partition(t)].push_columns(src, &mut one(t)).unwrap();
        }

        // Drain-and-handoff at the boundary, both directions at once:
        // flush everything older than the boundary, extract each
        // engine's groups that the new table assigns to its peer, then
        // absorb after both extractions complete (the all-extracts-
        // before-any-absorb barrier of the real coordinator).
        engines[0].flush_before(agg, boundary).unwrap();
        engines[1].flush_before(agg, boundary).unwrap();
        let mut state = HashPartitioner::with_buckets(&set, dag.schema(agg), 2, 8).unwrap();
        state.set_assignment(next.clone());
        let mut shipped: Vec<(usize, ColumnBatch)> = Vec::new();
        for (owner, engine) in engines.iter_mut().enumerate() {
            let lanes = engine.extract_state(agg, &mut |key| {
                state.partition(&Tuple::new(key.to_vec())) != owner
            }).unwrap();
            if !lanes.is_empty() {
                shipped.push((1 - owner, lanes));
            }
        }
        for (dest, lanes) in shipped {
            engines[dest].absorb_state(agg, &lanes).unwrap();
        }
        route.set_assignment(next);

        for t in &trace[split..] {
            engines[route.partition(t)].push_columns(src, &mut one(t)).unwrap();
        }
        let mut got = Vec::new();
        for e in &mut engines {
            e.finish().unwrap();
            got.extend(e.output(root));
        }
        prop_assert_eq!(sorted(got), want, "{}", query);
    }

    /// End-to-end randomized equivalence: whatever the trigger
    /// sensitivity, sampling cadence, and skew, the adaptive simulator
    /// agrees with the static splitter on every output row.
    #[test]
    fn adaptive_sim_matches_static_under_random_configs(
        seed in 0u64..200,
        hosts in 2usize..=4,
        threshold_pct in 105u32..180,
        sample_secs in prop_oneof![Just(30u64), Just(45), Just(60), Just(90)],
    ) {
        let trace = generate_skew_ramp(&SkewRampConfig {
            base: TraceConfig::tiny(seed),
            ..SkewRampConfig::default()
        });
        let plan = flows_plan(hosts);
        let static_ref = run_distributed(&plan, &trace, &SimConfig::default()).unwrap();
        let cfg = SimConfig {
            transport: TransportConfig {
                rebalance: RebalanceConfig::adaptive()
                    .with_threshold(f64::from(threshold_pct) / 100.0)
                    .with_consecutive(1)
                    .with_sample_secs(sample_secs),
                ..TransportConfig::default()
            },
            ..SimConfig::default()
        };
        let result = run_distributed(&plan, &trace, &cfg).unwrap();
        prop_assert!(result.failures.is_empty());
        prop_assert_eq!(result.outputs.len(), static_ref.outputs.len());
        for ((name, rows), (_, ref_rows)) in result.outputs.iter().zip(static_ref.outputs.iter()) {
            prop_assert_eq!(
                sorted(rows.clone()),
                sorted(ref_rows.clone()),
                "output {}", name
            );
        }
    }
}
