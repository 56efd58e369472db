//! Deterministic fault-injection chaos suite for the threaded cluster
//! runner.
//!
//! Every fault class the [`FaultPlan`] can inject is driven here under
//! a fixed seed and asserted to produce *exactly* the contracted
//! outcome — a typed [`HostFailure`] in strict mode, recorded partial
//! results in [`TransportConfig::with_partial_results`] mode — and
//! never a panic, a deadlock, or a silently wrong answer. With every
//! knob off, the runner must be bit-identical to the clean columnar
//! baseline (outputs, counters, and the deterministic transport
//! series), which is what makes the fault layer a pure overlay rather
//! than a behavioral fork.

use qap::exec::ExecError;
use qap::prelude::*;

fn query_set() -> QueryDag {
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
    b.build()
}

fn plan_for(hosts: usize) -> DistributedPlan {
    optimize(
        &query_set(),
        &Partitioning::hash(PartitionSet::from_columns(["srcIP", "destIP"]), hosts),
        &OptimizerConfig::full(),
    )
    .unwrap()
}

fn run_with(
    plan: &DistributedPlan,
    trace: &[Tuple],
    transport: TransportConfig,
) -> Result<SimResult, ExecError> {
    let cfg = SimConfig {
        transport,
        ..SimConfig::default()
    };
    run_distributed_threaded(plan, trace, &cfg)
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

/// One edge's deterministic series: (producer, from_host, frames,
/// tuples, bytes).
type EdgeSeries = (usize, usize, u64, u64, u64);

/// The deterministic slice of one run's telemetry: per-edge frame /
/// tuple / byte series (retries and queue peaks are timing-dependent
/// and excluded), plus the fault counters that must stay zero on the
/// clean path.
fn deterministic_fingerprint(r: &SimResult) -> (Vec<EdgeSeries>, u64, u64) {
    let t = &r.metrics.transport;
    (
        t.edges
            .iter()
            .map(|e| (e.producer, e.from_host, e.frames, e.tuples, e.bytes))
            .collect(),
        t.frames_dropped,
        t.frames_corrupt_dropped,
    )
}

/// A host to target with single-host faults: never the aggregator, so
/// the central unit (the calling thread) stays healthy and the fault
/// must travel through the typed propagation path.
fn leaf_host(plan: &DistributedPlan) -> usize {
    (plan.partitioning.aggregator_host + 1) % plan.partitioning.hosts
}

// ---------------------------------------------------------------------
// clean path: the fault layer is invisible when disabled
// ---------------------------------------------------------------------

#[test]
fn clean_fault_plan_is_bit_identical_to_baseline() {
    let trace = generate(&TraceConfig::tiny(77));
    for hosts in [2usize, 3, 4] {
        let plan = plan_for(hosts);
        let baseline = run_with(&plan, &trace, TransportConfig::default()).unwrap();
        // A seeded-but-clean plan, partial-results mode on a healthy
        // run, and a tightened (but generous) timeout must all be
        // no-ops.
        for transport in [
            TransportConfig::default().with_fault(FaultPlan::seeded(42)),
            TransportConfig::default().with_partial_results(true),
            TransportConfig::default().with_send_timeout_ms(5_000),
        ] {
            let r = run_with(&plan, &trace, transport).unwrap();
            assert!(r.failures.is_empty(), "{hosts} hosts: clean run failed");
            assert_eq!(r.counters, baseline.counters, "{hosts} hosts: counters");
            assert_eq!(
                deterministic_fingerprint(&r),
                deterministic_fingerprint(&baseline),
                "{hosts} hosts: transport series"
            );
            for (a, b) in r.outputs.iter().zip(baseline.outputs.iter()) {
                assert_eq!(a.0, b.0);
                assert_eq!(
                    sorted(a.1.clone()),
                    sorted(b.1.clone()),
                    "{hosts} hosts: output {}",
                    a.0
                );
            }
            let t = &r.metrics.transport;
            assert_eq!(t.frames_dropped, 0);
            assert_eq!(t.frames_corrupt_dropped, 0);
        }
    }
}

// ---------------------------------------------------------------------
// corruption and truncation: typed decode failures, never panics
// ---------------------------------------------------------------------

#[test]
fn corrupt_frames_fail_strict_runs_with_typed_decode_errors() {
    let trace = generate(&TraceConfig::tiny(11));
    let plan = plan_for(3);
    let transport = TransportConfig::new(16, 8).with_fault(FaultPlan::seeded(1).corrupt_every(1));
    let err = run_with(&plan, &trace, transport).unwrap_err();
    match err {
        ExecError::Host(f) => {
            assert!(
                matches!(f.cause, FailureCause::Decode(_)),
                "expected decode cause, got {f}"
            );
            assert!(f.host < 3, "attributed to a real host, got {}", f.host);
        }
        other => panic!("expected ExecError::Host, got {other}"),
    }
}

#[test]
fn truncated_frames_fail_strict_runs_with_typed_decode_errors() {
    let trace = generate(&TraceConfig::tiny(11));
    let plan = plan_for(3);
    let transport = TransportConfig::new(16, 8).with_fault(FaultPlan::seeded(2).truncate_every(1));
    let err = run_with(&plan, &trace, transport).unwrap_err();
    assert!(
        matches!(
            &err,
            ExecError::Host(HostFailure {
                cause: FailureCause::Decode(_),
                ..
            })
        ),
        "expected typed decode failure, got {err}"
    );
}

#[test]
fn corrupt_frames_in_partial_mode_are_recorded_and_survived() {
    let trace = generate(&TraceConfig::tiny(11));
    let plan = plan_for(3);
    let transport = TransportConfig::new(16, 8)
        .with_fault(FaultPlan::seeded(3).corrupt_every(2))
        .with_partial_results(true);
    let r = run_with(&plan, &trace, transport).unwrap();
    let t = &r.metrics.transport;
    assert!(t.frames_corrupt_dropped > 0, "no corrupt frames observed");
    // Every recorded failure is a decode fault, and the corrupt-frame
    // counter matches the record count one-to-one.
    assert_eq!(r.failures.len() as u64, t.frames_corrupt_dropped);
    for f in &r.failures {
        assert!(
            matches!(f.cause, FailureCause::Decode(_)),
            "unexpected failure {f}"
        );
        assert!(f.host < 3);
    }
    // Clean frames still flowed: surviving epochs produced output.
    assert!(r.outputs.iter().any(|(_, rows)| !rows.is_empty()));

    // The same seed injects the same faults: the chaos run is
    // reproducible record-for-record.
    let again = run_with(&plan, &trace, transport).unwrap();
    assert_eq!(again.failures.len(), r.failures.len());
    assert_eq!(
        again.metrics.transport.frames_corrupt_dropped,
        t.frames_corrupt_dropped
    );
}

// ---------------------------------------------------------------------
// lossy link: drops are gaps, not errors
// ---------------------------------------------------------------------

#[test]
fn dropped_frames_complete_with_an_accounted_deficit() {
    let trace = generate(&TraceConfig::tiny(11));
    let plan = plan_for(3);
    let clean = run_with(&plan, &trace, TransportConfig::new(16, 8)).unwrap();
    let transport = TransportConfig::new(16, 8).with_fault(FaultPlan::seeded(4).drop_every(2));
    let r = run_with(&plan, &trace, transport).unwrap();
    let t = &r.metrics.transport;
    assert!(t.frames_dropped > 0, "no frames dropped");
    assert!(r.failures.is_empty(), "a lossy link is not a host failure");
    // Shipped volume shows exactly the deficit: dropped frames never
    // count as shipped.
    assert!(
        t.frames < clean.metrics.transport.frames,
        "shipped {} vs clean {}",
        t.frames,
        clean.metrics.transport.frames
    );
    assert!(t.tuples() < clean.metrics.transport.tuples());
    // Determinism: per-edge every-Nth selection drops the same frames
    // on every run.
    let again = run_with(&plan, &trace, transport).unwrap();
    assert_eq!(again.metrics.transport.frames_dropped, t.frames_dropped);
    assert_eq!(again.metrics.transport.frames, t.frames);
}

// ---------------------------------------------------------------------
// the simulator: the same units, the same frame faults
// ---------------------------------------------------------------------

/// The simulator's units cut and fault frames like the threaded
/// runner's: under the same plan, a partial-results run drops and
/// rejects exactly the same frames and records the same failures. (How
/// many tuples the consumer had taken in when it saw each corrupt frame
/// depends on arrival order, so records compare by host and cause.)
#[test]
fn simulator_corrupts_and_drops_the_threaded_runners_frames() {
    let trace = generate(&TraceConfig::tiny(11));
    let plan = plan_for(3);
    for fault in [
        FaultPlan::seeded(3).corrupt_every(2),
        FaultPlan::seeded(4).drop_every(2),
    ] {
        let cfg = SimConfig {
            transport: TransportConfig::new(16, 8)
                .with_fault(fault)
                .with_partial_results(true),
            ..SimConfig::default()
        };
        let threaded = run_distributed_threaded(&plan, &trace, &cfg).unwrap();
        let simulated = run_distributed(&plan, &trace, &cfg).unwrap();
        let (t, s) = (&threaded.metrics.transport, &simulated.metrics.transport);
        assert!(s.frames_dropped + s.frames_corrupt_dropped > 0, "{fault:?}");
        assert_eq!(s.frames_dropped, t.frames_dropped, "{fault:?}");
        assert_eq!(
            s.frames_corrupt_dropped, t.frames_corrupt_dropped,
            "{fault:?}"
        );
        assert_eq!(
            deterministic_fingerprint(&simulated),
            deterministic_fingerprint(&threaded),
            "{fault:?}"
        );
        let records = |r: &SimResult| {
            let mut records: Vec<String> = (r.failures.iter())
                .map(|f| format!("host {}: {}", f.host, f.cause))
                .collect();
            records.sort();
            records
        };
        assert_eq!(records(&simulated), records(&threaded), "{fault:?}");
        assert_eq!(simulated.counters, threaded.counters, "{fault:?}");
    }
}

// ---------------------------------------------------------------------
// slowdowns, hangs, panics
// ---------------------------------------------------------------------

#[test]
fn slow_host_changes_timing_but_not_results() {
    let trace = generate(&TraceConfig::tiny(11));
    let plan = plan_for(3);
    let clean = run_with(&plan, &trace, TransportConfig::new(16, 8)).unwrap();
    let slow = leaf_host(&plan);
    let transport = TransportConfig::new(16, 8).with_fault(FaultPlan::seeded(5).slow(slow, 300));
    let r = run_with(&plan, &trace, transport).unwrap();
    assert!(r.failures.is_empty());
    assert_eq!(r.counters, clean.counters);
    for (a, b) in r.outputs.iter().zip(clean.outputs.iter()) {
        assert_eq!(sorted(a.1.clone()), sorted(b.1.clone()), "output {}", a.0);
    }
}

#[test]
fn hung_host_surfaces_as_timeout_instead_of_deadlock() {
    let trace = generate(&TraceConfig::tiny(11));
    let plan = plan_for(3);
    let agg = plan.partitioning.aggregator_host;
    let hung = leaf_host(&plan);
    // The hang (600 ms, finite) dwarfs the receive bound (100 ms): the
    // central consumer must give up and type the silence, not wedge.
    let transport = TransportConfig::default()
        .with_fault(FaultPlan::seeded(6).hang(hung, 600))
        .with_send_timeout_ms(100);
    let err = run_with(&plan, &trace, transport).unwrap_err();
    match err {
        ExecError::Host(f) => {
            assert!(
                matches!(f.cause, FailureCause::Timeout { .. }),
                "expected timeout cause, got {f}"
            );
            // Timeouts attribute to the observing (consumer) host.
            assert_eq!(f.host, agg);
        }
        other => panic!("expected ExecError::Host, got {other}"),
    }
}

#[test]
fn hung_host_in_partial_mode_is_recorded_and_survived() {
    let trace = generate(&TraceConfig::tiny(11));
    let plan = plan_for(3);
    let agg = plan.partitioning.aggregator_host;
    let hung = leaf_host(&plan);
    let transport = TransportConfig::default()
        .with_fault(FaultPlan::seeded(7).hang(hung, 600))
        .with_send_timeout_ms(100)
        .with_partial_results(true);
    let r = run_with(&plan, &trace, transport).unwrap();
    assert!(
        r.failures
            .iter()
            .any(|f| f.host == agg && matches!(f.cause, FailureCause::Timeout { .. })),
        "no timeout record in {:?}",
        r.failures
    );
    // The surviving hosts' epochs still closed.
    assert!(r.outputs.iter().any(|(_, rows)| !rows.is_empty()));
}

#[test]
fn hung_host_behind_a_full_inbox_is_a_timeout_too() {
    // One-tuple batches: the hung unit's bounded inbox fills long before
    // the feed ends, so it is the feed loop — not the final boundary
    // drain — that has to give up on it, with the same typed cause.
    let trace = generate(&TraceConfig::tiny(11));
    let plan = plan_for(3);
    let agg = plan.partitioning.aggregator_host;
    let hung = leaf_host(&plan);
    let transport = TransportConfig::default()
        .with_fault(FaultPlan::seeded(6).hang(hung, 600))
        .with_send_timeout_ms(100);
    let run = |transport| {
        let cfg = SimConfig {
            batch: BatchConfig::new(1),
            transport,
            ..SimConfig::default()
        };
        run_distributed_threaded(&plan, &trace, &cfg)
    };
    match run(transport).unwrap_err() {
        ExecError::Host(f) => {
            assert!(
                matches!(f.cause, FailureCause::Timeout { .. }),
                "expected timeout cause, got {f}"
            );
            assert_eq!(f.host, agg);
        }
        other => panic!("expected ExecError::Host, got {other}"),
    }
    let r = run(transport.with_partial_results(true)).unwrap();
    assert!(
        r.failures
            .iter()
            .any(|f| f.host == agg && matches!(f.cause, FailureCause::Timeout { .. })),
        "no timeout record in {:?}",
        r.failures
    );
    assert!(r.outputs.iter().any(|(_, rows)| !rows.is_empty()));
}

#[test]
fn worker_panic_surfaces_as_typed_failure_not_a_crash() {
    let trace = generate(&TraceConfig::tiny(11));
    let plan = plan_for(3);
    let victim = leaf_host(&plan);
    let transport =
        TransportConfig::default().with_fault(FaultPlan::seeded(8).panic_after(victim, 1));
    let err = run_with(&plan, &trace, transport).unwrap_err();
    match err {
        ExecError::Host(f) => {
            assert_eq!(f.host, victim);
            match &f.cause {
                FailureCause::Panic(msg) => {
                    assert!(msg.contains("injected worker fault"), "message: {msg}")
                }
                other => panic!("expected panic cause, got {other}"),
            }
            assert!(
                f.tuples_processed >= 1,
                "progress counter survived the unwind"
            );
        }
        other => panic!("expected ExecError::Host, got {other}"),
    }
}

#[test]
fn worker_panic_in_partial_mode_keeps_surviving_hosts() {
    let trace = generate(&TraceConfig::tiny(11));
    let plan = plan_for(3);
    let victim = leaf_host(&plan);
    let transport = TransportConfig::default()
        .with_fault(FaultPlan::seeded(9).panic_after(victim, 1))
        .with_partial_results(true);
    let r = run_with(&plan, &trace, transport).unwrap();
    assert!(
        r.failures
            .iter()
            .any(|f| f.host == victim && matches!(f.cause, FailureCause::Panic(_))),
        "no panic record in {:?}",
        r.failures
    );
    // Scans on surviving hosts still delivered tuples.
    let survivor_scans: u64 = r
        .counters
        .iter()
        .enumerate()
        .filter(|&(id, _)| plan.host[id] != victim)
        .map(|(_, c)| c.tuples_in)
        .sum();
    assert!(survivor_scans > 0, "survivors made no progress");
    assert!(r.outputs.iter().any(|(_, rows)| !rows.is_empty()));
}

// ---------------------------------------------------------------------
// socket chaos: process-level faults surface as typed Link failures
// ---------------------------------------------------------------------

mod socket_chaos {
    use super::*;
    use std::io::{BufRead as _, Write as _};
    use std::process::{Child, Command, Stdio};

    use qap::cluster::link::{read_control, write_control};
    use qap::types::{BytesMut, ControlFrame, PROTOCOL_VERSION};

    fn remote_cfg(transport: TransportConfig) -> SimConfig {
        SimConfig {
            transport,
            ..SimConfig::default()
        }
    }

    /// Spawns one real `qapctl host` child on an ephemeral TCP port.
    fn spawn_host() -> (Child, HostAddr) {
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
            .expect("LISTENING banner");
        let addr = HostAddr::parse(addr).expect("address parses");
        (child, addr)
    }

    /// The lowest non-aggregator host id: leaf units are deployed in
    /// ascending host order, so this is always the first spawned child.
    fn first_leaf_host(plan: &DistributedPlan) -> usize {
        (0..plan.partitioning.hosts)
            .find(|&h| h != plan.partitioning.aggregator_host)
            .unwrap()
    }

    #[test]
    fn killed_host_process_is_a_typed_link_failure() {
        let trace = generate(&TraceConfig::tiny(21));
        let plan = plan_for(3);
        let victim = first_leaf_host(&plan);
        // Hang the victim (the fault plan ships with the deployed
        // unit, so the sleep runs inside the child process) so it is
        // guaranteed mid-epoch when SIGKILL lands: the coordinator
        // cannot finish without its Result frame.
        let transport =
            TransportConfig::default().with_fault(FaultPlan::seeded(31).hang(victim, 60_000));
        let cfg = remote_cfg(transport);
        let needed = remote_host_count(&plan, &cfg);
        let hosts: Vec<(Child, HostAddr)> = (0..needed).map(|_| spawn_host()).collect();
        let addrs: Vec<HostAddr> = hosts.iter().map(|(_, a)| a.clone()).collect();

        let victim_pid = hosts[0].0.id();
        let killer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(150));
            let _ = Command::new("kill")
                .args(["-9", &victim_pid.to_string()])
                .status();
        });
        let err = run_distributed_remote(&plan, &trace, &cfg, &addrs).unwrap_err();
        killer.join().unwrap();
        for (mut c, _) in hosts {
            let _ = c.kill();
            let _ = c.wait();
        }
        match err {
            ExecError::Host(f) => {
                assert!(
                    matches!(f.cause, FailureCause::Link(_)),
                    "expected link cause, got {f}"
                );
                assert_eq!(f.host, victim, "attributed to the killed host");
            }
            other => panic!("expected ExecError::Host, got {other}"),
        }
    }

    #[test]
    fn killed_host_in_partial_mode_keeps_surviving_processes() {
        let trace = generate(&TraceConfig::tiny(23));
        let plan = plan_for(3);
        let victim = first_leaf_host(&plan);
        let transport = TransportConfig::default()
            .with_fault(FaultPlan::seeded(33).hang(victim, 60_000))
            .with_partial_results(true)
            .with_send_timeout_ms(2_000);
        let cfg = remote_cfg(transport);
        let needed = remote_host_count(&plan, &cfg);
        let hosts: Vec<(Child, HostAddr)> = (0..needed).map(|_| spawn_host()).collect();
        let addrs: Vec<HostAddr> = hosts.iter().map(|(_, a)| a.clone()).collect();

        let victim_pid = hosts[0].0.id();
        let killer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(150));
            let _ = Command::new("kill")
                .args(["-9", &victim_pid.to_string()])
                .status();
        });
        let r = run_distributed_remote(&plan, &trace, &cfg, &addrs).unwrap();
        killer.join().unwrap();
        for (mut c, _) in hosts {
            let _ = c.kill();
            let _ = c.wait();
        }
        assert!(
            r.failures
                .iter()
                .any(|f| matches!(f.cause, FailureCause::Link(_))),
            "no link record in {:?}",
            r.failures
        );
        // Surviving host processes still delivered their scans.
        let survivor_scans: u64 = r
            .counters
            .iter()
            .enumerate()
            .filter(|&(id, _)| plan.host[id] != victim && plan.dag.node(id).children().is_empty())
            .map(|(_, c)| c.tuples_in)
            .sum();
        assert!(survivor_scans > 0, "survivors made no progress");
    }

    #[test]
    fn refused_connection_is_a_typed_link_failure() {
        let trace = generate(&TraceConfig::tiny(25));
        let plan = plan_for(2);
        // Bind an ephemeral port, then free it: connecting gets RST.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            HostAddr::parse(&l.local_addr().unwrap().to_string()).unwrap()
        };
        let transport = TransportConfig::default().with_send_timeout_ms(400);
        let cfg = remote_cfg(transport);
        let needed = remote_host_count(&plan, &cfg);
        let addrs = vec![dead; needed];
        let err = run_distributed_remote(&plan, &trace, &cfg, &addrs).unwrap_err();
        match err {
            ExecError::Host(f) => {
                assert!(
                    matches!(f.cause, FailureCause::Link(_)),
                    "expected link cause, got {f}"
                );
            }
            other => panic!("expected ExecError::Host, got {other}"),
        }
    }

    #[test]
    fn refused_connection_in_partial_mode_completes() {
        let trace = generate(&TraceConfig::tiny(25));
        let plan = plan_for(2);
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            HostAddr::parse(&l.local_addr().unwrap().to_string()).unwrap()
        };
        let transport = TransportConfig::default()
            .with_send_timeout_ms(400)
            .with_partial_results(true);
        let cfg = remote_cfg(transport);
        let needed = remote_host_count(&plan, &cfg);
        let addrs = vec![dead; needed];
        let r = run_distributed_remote(&plan, &trace, &cfg, &addrs).unwrap();
        assert_eq!(
            r.failures.len(),
            needed,
            "every unreachable host recorded: {:?}",
            r.failures
        );
        for f in &r.failures {
            assert!(matches!(f.cause, FailureCause::Link(_)), "{f}");
        }
        // The central unit still closed its epochs over its own feed.
        let agg = plan.partitioning.aggregator_host;
        let central_scans: u64 = r
            .counters
            .iter()
            .enumerate()
            .filter(|&(id, _)| plan.host[id] == agg && plan.dag.node(id).children().is_empty())
            .map(|(_, c)| c.tuples_in)
            .sum();
        assert!(central_scans > 0, "central made no progress");
    }

    #[test]
    fn mid_frame_close_is_a_typed_link_failure() {
        let trace = generate(&TraceConfig::tiny(27));
        let plan = plan_for(2);
        // A rogue host: handshakes and acks deployment correctly, then
        // emits a truncated Data frame (header promises 64 bytes,
        // stream dies after 5) — the socket analogue of frame
        // truncation, which must surface as a typed mid-frame link
        // fault, not a hang or a panic.
        let listener = HostListener::bind(&HostAddr::parse("127.0.0.1:0").unwrap()).unwrap();
        let addr = listener.local_addr().unwrap();
        let rogue = std::thread::spawn(move || {
            let mut s = listener.accept().unwrap();
            let mut scratch = BytesMut::new();
            match read_control(&mut s).unwrap() {
                Some(ControlFrame::Hello { version, .. }) => {
                    assert_eq!(version, PROTOCOL_VERSION)
                }
                other => panic!("expected Hello, got {other:?}"),
            }
            write_control(
                &mut s,
                &ControlFrame::Welcome {
                    version: PROTOCOL_VERSION,
                },
                &mut scratch,
            )
            .unwrap();
            match read_control(&mut s).unwrap() {
                Some(ControlFrame::Deploy(_)) => {}
                other => panic!("expected Deploy, got {other:?}"),
            }
            write_control(&mut s, &ControlFrame::DeployAck, &mut scratch).unwrap();
            // Consume one feed frame so the run is demonstrably mid-
            // epoch, then die inside a frame.
            let _ = read_control(&mut s);
            s.write_all(&[0, 0, 0, 64, 5]).unwrap();
            s.flush().unwrap();
            s.shutdown();
        });
        let transport = TransportConfig::default();
        let cfg = remote_cfg(transport);
        let needed = remote_host_count(&plan, &cfg);
        assert_eq!(needed, 1, "2-host plan has one leaf unit");
        let err = run_distributed_remote(&plan, &trace, &cfg, &[addr]).unwrap_err();
        rogue.join().unwrap();
        match err {
            ExecError::Host(f) => match &f.cause {
                FailureCause::Link(msg) => {
                    assert!(msg.contains("mid-frame"), "message: {msg}")
                }
                other => panic!("expected link cause, got {other}"),
            },
            other => panic!("expected ExecError::Host, got {other}"),
        }
    }
}

// ---------------------------------------------------------------------
// observability: failures reach the exported registry
// ---------------------------------------------------------------------

#[test]
fn failures_flow_into_the_metrics_registry() {
    let trace = generate(&TraceConfig::tiny(11));
    let plan = plan_for(3);
    let transport = TransportConfig::new(16, 8)
        .with_fault(FaultPlan::seeded(10).corrupt_every(2))
        .with_partial_results(true);
    let r = run_with(&plan, &trace, transport).unwrap();
    assert!(!r.failures.is_empty());
    let reg = metrics_registry(&plan, &r);
    let recorded: u64 = reg.hosts.iter().map(|h| h.failures).sum();
    assert_eq!(recorded, r.failures.len() as u64);
    let agg = plan.partitioning.aggregator_host;
    assert_eq!(
        reg.hosts[agg].frames_corrupt_dropped,
        r.metrics.transport.frames_corrupt_dropped
    );
    let prom = reg.to_prometheus();
    assert!(prom.contains("qap_host_failures"));
    assert!(prom.contains("qap_frames_corrupt_dropped"));
    assert!(!prom.contains("qap_run_host_failures 0\n"));
}
