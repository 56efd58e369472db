//! Process-level cluster execution: a socket coordinator and the
//! `qapctl host --listen` server loop.
//!
//! [`run_distributed_threaded`](crate::run_distributed_threaded) keeps
//! every execution unit in one process; this module puts each leaf
//! unit in its *own* OS process and drives it over a TCP or
//! Unix-domain socket. The unit is the same [`crate::unit::Unit`] run
//! by the same [`run_unit`] loop over the same [`UnitCmd`]s; what this
//! module adds is the wire in between:
//!
//! 1. the coordinator slices the plan one unit per host (the threaded
//!    runner's [`Deployment::star`]), connects to each leaf host with bounded
//!    backoff, and performs the versioned handshake
//!    (`Hello`/`Welcome`, [`qap_types::PROTOCOL_VERSION`]);
//! 2. each host is sent a [`Deploy`] payload ([`crate::deploy`]) with
//!    what the coordinator planned from — catalog, GSQL, partitioning,
//!    knobs — and which leaf unit is its own. The host plans again,
//!    slices with the same [`Deployment::new`], and checks that its
//!    plan's fingerprint is the coordinator's: on a match it acks and
//!    runs [`run_unit`] over a [`StreamPort`], on a mismatch it rejects
//!    the deployment (`ERROR_DEPLOY`) rather than run a different plan;
//! 3. the coordinator side of that port is two threads per session
//!    around the shared carrier ([`Units`]): a **writer** drains the
//!    unit's command inbox into `Data` frames (one wire frame per
//!    splitter batch — the same batch boundaries the in-process engines
//!    see), `Migrate` frames when a rebalance controller hands state
//!    off, and `Eos` when the inbox closes; a **reader pump** forwards
//!    the host's boundary `Data` frames into the bounded channel the
//!    central unit consumes and its `MigrateAck`s back to the carrier;
//! 4. after `Eos` the host sends a serialized
//!    [`UnitOutcome`](crate::unit::UnitOutcome), which the coordinator
//!    stitches into the run's [`SimResult`] exactly as it stitches a
//!    worker thread's.
//!
//! Backpressure composes across the boundary: a slow central consumer
//! blocks the pump, the socket buffer fills, and the host's frame
//! writes block — the socket counterpart of a full bounded channel. It
//! composes toward the hosts too: a slow host blocks its writer on the
//! socket, the writer's bounded inbox fills, and the feed loop waits —
//! draining the boundary while it does.
//!
//! Link faults (refused/reset connections, a peer killed mid-frame,
//! handshake rejections, failures a host reports before dying) surface
//! as typed [`FailureCause::Link`] records; corrupt *inner* wire
//! frames keep their in-process attribution
//! ([`FailureCause::Decode`] against the producing host) because the
//! pump forwards payloads untouched. `--partial-results` semantics are
//! identical to the in-process runner's.
//!
//! [`Deploy`]: qap_types::ControlFrame::Deploy

use std::io::BufWriter;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crossbeam::channel as chan;
use qap_exec::{BatchConfig, ExecError, ExecResult, FailureCause, HostFailure};
use qap_obs::SharedGauge;
use qap_optimizer::{optimize, DistributedPlan};
use qap_plan::{LogicalNode, NodeId};
use qap_sql::QuerySetBuilder;
use qap_types::{
    encode_column_batch, Bytes, BytesMut, Catalog, ControlFrame, Tuple, ERROR_DEPLOY, ERROR_EXEC,
    ERROR_VERSION, PROTOCOL_VERSION,
};

use crate::deploy::{
    decode_deploy, decode_unit_outcome, decode_unit_reply, encode_deploy, encode_unit_cmd,
    encode_unit_outcome, plan_fingerprint, DeployInputs,
};
use crate::link::{
    read_control, write_control, ChannelSink, ChannelTransport, DuplexStream, FrameSink, HostAddr,
    HostListener, SendOutcome, StreamSink, Transport,
};
use crate::sim::{SimConfig, SimResult};
use crate::splitter::Batch;
use crate::threaded::{
    compute_units, feed_and_aggregate, panic_message, Central, Deployment, Feed,
};
use crate::transport::TransportConfig;
use crate::unit::{run_unit, StreamPort, UnitCmd, UnitOutcome, UnitReply, Units};

// ---------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------

/// One connected, deployed host session on the coordinator side.
struct HostSession {
    /// Index of the leaf unit in the deployment (≥ 1).
    unit: usize,
    stream: DuplexStream,
}

fn link_failure(host: usize, tuples: u64, msg: String) -> HostFailure {
    HostFailure {
        host,
        cause: FailureCause::Link(msg),
        tuples_processed: tuples,
    }
}

/// Connects, handshakes and deploys one leaf unit. Every failure mode
/// — refused/reset connection, handshake rejection (version mismatch),
/// deployment rejection — comes back as a typed Link failure. Each
/// control-plane step, like every later write, is bounded by the run's
/// send timeout.
fn deploy_host(
    addr: &HostAddr,
    unit: usize,
    slice_host: usize,
    payload: Bytes,
    timeout_ms: u64,
) -> Result<HostSession, HostFailure> {
    let fail = |msg: String| link_failure(slice_host, 0, msg);
    let stream = crate::link::connect_with_backoff(addr, timeout_ms).map_err(&fail)?;
    let bound = Some(Duration::from_millis(timeout_ms));
    stream.set_read_timeout(bound).map_err(&fail)?;
    stream.set_write_timeout(bound).map_err(&fail)?;
    let mut write_half = stream.try_clone().map_err(&fail)?;
    let mut scratch = BytesMut::new();
    // The host's answer to `step`: the frame, unless it is a typed
    // rejection or no frame at all.
    let expect = |half: &mut DuplexStream, what, step| -> Result<ControlFrame, HostFailure> {
        match read_control(half) {
            Ok(Some(ControlFrame::Error { kind, message })) => Err(fail(format!(
                "{addr}: host rejected {step} ({kind}): {message}"
            ))),
            Ok(Some(frame)) => Ok(frame),
            Ok(None) => Err(fail(format!("{addr}: connection closed awaiting {what}"))),
            Err(e) => Err(fail(format!("{addr}: {e} (awaiting {what})"))),
        }
    };
    write_control(
        &mut write_half,
        &ControlFrame::Hello {
            version: PROTOCOL_VERSION,
            host: slice_host as u32,
        },
        &mut scratch,
    )
    .map_err(&fail)?;
    let mut read_half = stream.try_clone().map_err(&fail)?;
    match expect(&mut read_half, "Welcome", "handshake")? {
        ControlFrame::Welcome { version } if version == PROTOCOL_VERSION => {}
        ControlFrame::Welcome { version } => {
            return Err(fail(format!(
                "{addr}: protocol version mismatch (ours {PROTOCOL_VERSION}, theirs {version})"
            )))
        }
        other => return Err(fail(format!("{addr}: protocol violation: {other:?}"))),
    }
    write_control(
        &mut write_half,
        &ControlFrame::Deploy(payload),
        &mut scratch,
    )
    .map_err(&fail)?;
    match expect(&mut read_half, "DeployAck", "deployment")? {
        ControlFrame::DeployAck => {}
        other => return Err(fail(format!("{addr}: protocol violation: {other:?}"))),
    }
    // From here reads block until the host produces; the central unit's
    // receive timeout — not a per-read socket bound — decides when a
    // quiet boundary means a hung peer.
    stream.set_read_timeout(None).map_err(&fail)?;
    Ok(HostSession { unit, stream })
}

/// Number of leaf host processes (and thus addresses) a plan needs: one
/// per non-aggregator host with work. No knob changes it; `_cfg` stays
/// in the signature because the `bench_e2e` workloads pass one.
pub fn remote_host_count(plan: &DistributedPlan, _cfg: &SimConfig) -> usize {
    compute_units(plan, plan.partitioning.aggregator_host).len() - 1
}

/// What every host is sent to plan from (`unit` left for the caller).
/// A host plans from GSQL and runs only the functions its own binary
/// has, so two kinds of plan cannot be deployed and are a
/// [`ExecError::BadPlan`] before any host is contacted: one without a
/// [`DistributedPlan::source`] (its DAG was extended past what GSQL text
/// says, or [`qap_optimizer::plan_partitioning`] built it), and one that
/// calls a UDAF, whose code lives in the coordinator's catalog.
fn deploy_inputs(plan: &DistributedPlan, cfg: &SimConfig) -> ExecResult<DeployInputs> {
    let source = plan.source.clone().ok_or_else(|| {
        ExecError::BadPlan("remote hosts plan from GSQL, and this plan has no GSQL source".into())
    })?;
    let udaf = plan
        .dag
        .topo_order()
        .find_map(|id| match plan.dag.node(id) {
            LogicalNode::Aggregate { aggregates, .. } => {
                aggregates.iter().find(|a| a.call.builtin_kind().is_none())
            }
            _ => None,
        });
    if let Some(a) = udaf {
        return Err(ExecError::BadPlan(format!(
            "UDAF '{}' cannot be deployed to a remote host: \
             user-defined aggregates live in the coordinator's catalog",
            a.call.func
        )));
    }
    Ok(DeployInputs {
        catalog: plan.dag.catalog().stream_defs(),
        source,
        partitioning: plan.partitioning.clone(),
        unit: 0,
        max_batch: cfg.batch.max_batch as u32,
        frame_batch: cfg.transport.frame_batch as u32,
        fault: cfg.transport.fault,
        fingerprint: plan_fingerprint(plan),
    })
}

impl DeployInputs {
    /// The run configuration as far as a leaf unit sees it: what the
    /// host slices the plan with.
    fn sim_config(&self) -> SimConfig {
        SimConfig {
            batch: BatchConfig::new(self.max_batch as usize),
            transport: TransportConfig {
                frame_batch: self.frame_batch as usize,
                fault: self.fault,
                ..TransportConfig::default()
            },
            ..SimConfig::default()
        }
    }
}

/// Plans the deployed query set again, as the coordinator did, and
/// holds the result to the coordinator's fingerprint: a host never runs
/// a plan other than the one it was sent.
fn replan(inputs: &DeployInputs) -> Result<DistributedPlan, String> {
    let mut b = QuerySetBuilder::new(Catalog::new());
    b.parse_script(&inputs.catalog)
        .and_then(|_| b.parse_script(&inputs.source.gsql))
        .map_err(|e| format!("deployed query set: {e}"))?;
    let plan = optimize(&b.build(), &inputs.partitioning, &inputs.source.config)
        .map_err(|e| format!("deployed plan: {e}"))?;
    let ours = plan_fingerprint(&plan);
    if ours != inputs.fingerprint {
        return Err(format!(
            "plan fingerprint mismatch: coordinator {:016x}, host {ours:016x}",
            inputs.fingerprint
        ));
    }
    Ok(plan)
}

/// The coordinator's write half of a unit's port: drains the unit's
/// command inbox into its socket — one `Data` frame per splitter batch
/// (the same batch boundaries, and thus the same engine-visible feed,
/// as the in-process runner), `Migrate` frames in inbox order, and
/// `Eos` once the inbox closes — at end of stream, or when the splitter
/// gave up on the host — so the host can always finish. The inbox and
/// the socket are both FIFO, so a `Migrate` reaches the host only after
/// every feed batch queued before it.
fn write_session(
    stream: DuplexStream,
    inbox: chan::Receiver<UnitCmd>,
    fed: &AtomicU64,
) -> Result<(), String> {
    let mut writer = BufWriter::new(stream);
    let mut enc_scratch = BytesMut::new();
    let mut ctl_scratch = BytesMut::new();
    while let Ok(cmd) = inbox.recv() {
        let (frame, tuples) = match cmd {
            UnitCmd::Feed(producer, batch) => {
                let tuples = batch.len() as u64;
                let frame = match batch {
                    Batch::Columns(cols) => encode_column_batch(&cols, &mut enc_scratch),
                    Batch::Frame(frame) => Ok(frame),
                };
                let frame = frame.map_err(|e| e.to_string())?;
                (ControlFrame::Data { producer, frame }, tuples)
            }
            migrate => {
                let payload =
                    encode_unit_cmd(&migrate, &mut enc_scratch).map_err(|e| e.to_string())?;
                (ControlFrame::Migrate(payload), 0)
            }
        };
        write_control(&mut writer, &frame, &mut ctl_scratch)?;
        fed.fetch_add(tuples, Ordering::Relaxed);
    }
    write_control(&mut writer, &ControlFrame::Eos, &mut ctl_scratch)
}

/// How one session's reader pump ended.
struct PumpEnd {
    /// The host's terminal `Result`, when it got that far.
    outcome: Option<UnitOutcome>,
    /// Why the session ended early, as diagnosed from the read side.
    cause: Option<String>,
}

/// The coordinator's read half of a unit's port: forwards the host's
/// boundary `Data` frames into the central channel and its `MigrateAck`
/// replies to the carrier, until the terminal `Result`; everything else
/// ends the session with a cause.
fn pump_session(
    mut stream: DuplexStream,
    mut sink: ChannelSink,
    replies: chan::Sender<UnitReply>,
    depth: &SharedGauge,
) -> PumpEnd {
    let mut outcome = None;
    let cause = loop {
        match read_control(&mut stream) {
            Ok(Some(ControlFrame::Data { producer, frame })) => {
                depth.inc();
                // Central gone (strict-mode abort): stop pumping; the
                // driver shuts the sockets down.
                if !matches!(
                    sink.send((producer as NodeId, frame)),
                    Ok(SendOutcome::Sent)
                ) {
                    break None;
                }
            }
            Ok(Some(ControlFrame::MigrateAck(payload))) => match decode_unit_reply(payload) {
                // Splitter gone (abort path): keep pumping boundary
                // frames regardless.
                Ok(reply) => drop(replies.send(reply)),
                Err(e) => break Some(format!("migrate ack corrupt: {e}")),
            },
            Ok(Some(ControlFrame::Result(payload))) => match decode_unit_outcome(payload) {
                Ok(decoded) => {
                    outcome = Some(decoded);
                    break None;
                }
                Err(e) => break Some(format!("result payload corrupt: {e}")),
            },
            Ok(Some(ControlFrame::Error { kind, message })) => {
                break Some(format!("host reported failure ({kind}): {message}"))
            }
            Ok(Some(ControlFrame::Eos)) => continue,
            Ok(Some(other)) => break Some(format!("protocol violation: {other:?}")),
            Ok(None) => break Some("connection closed before result".into()),
            Err(e) => break Some(e.to_string()),
        }
    };
    PumpEnd { outcome, cause }
}

/// Executes a distributed plan with each leaf host running as its own
/// OS process behind `hosts[i]` (one address per leaf unit, in unit
/// order — ascending host id). Semantically identical to
/// [`crate::run_distributed_threaded`]: same units, same splitter
/// routing, same central engine, same strict / partial-results
/// semantics, bit-identical outputs.
///
/// With a rebalance controller attached the splitter drives
/// drain-and-handoff over the sessions' `Migrate`/`MigrateAck`
/// exchanges, and the central unit hands its own partitions' state off
/// in place, exactly as in the threaded runner.
pub fn run_distributed_remote(
    plan: &DistributedPlan,
    trace: &[Tuple],
    cfg: &SimConfig,
    hosts: &[HostAddr],
) -> ExecResult<SimResult> {
    let mut inputs = deploy_inputs(plan, cfg)?;
    let (dep, scans) = Deployment::star(plan, cfg)?;
    if hosts.len() != dep.units.len() - 1 {
        return Err(ExecError::BadPlan(format!(
            "plan needs {} leaf host processes, got {} addresses",
            dep.units.len() - 1,
            hosts.len()
        )));
    }
    let mut feed = Feed::new(&dep, &scans, trace)?;

    // Connect + handshake + deploy every leaf host up front, so a
    // refused or mismatched host fails fast (strict) or is recorded and
    // excluded (partial) before any data moves.
    let mut sessions: Vec<HostSession> = Vec::new();
    let host_of = |s: &HostSession| dep.units[s.unit].0.host as usize;
    let mut failures: Vec<HostFailure> = Vec::new();
    for ((u, (spec, _)), addr) in dep.units.iter().enumerate().skip(1).zip(hosts) {
        inputs.unit = u as u32;
        let payload = encode_deploy(&inputs);
        let timeout_ms = dep.cfg.transport.send_timeout_ms;
        match deploy_host(addr, u, spec.host as usize, payload, timeout_ms) {
            Ok(session) => sessions.push(session),
            Err(failure) if cfg.transport.partial_results => failures.push(failure),
            Err(failure) => return Err(failure.into()),
        }
    }

    // The boundary data path, as in the threaded runner: the sessions'
    // reader pumps block when `channel_capacity` frames are in flight.
    // They also carry the `MigrateAck`s; the feed loop keeps draining
    // the boundary while it waits for one, so a pump never parks on a
    // full channel with an ack behind it.
    let (tx, rx) = ChannelTransport.pair(cfg.transport.channel_capacity.max(1));
    let depth = SharedGauge::new();
    // Coordinator-side fed counters, for failure attribution.
    let fed: Vec<AtomicU64> = sessions.iter().map(|_| AtomicU64::new(0)).collect();

    let central = Central::new(&dep, rx, &depth)?;

    let (central, ends) = std::thread::scope(|scope| {
        let mut units = Units::new(&dep, central);
        let mut threads = Vec::new();
        for (i, session) in sessions.iter().enumerate() {
            let halves = session
                .stream
                .try_clone()
                .and_then(|w| Ok((w, session.stream.try_clone()?)));
            match halves {
                Ok((write_half, read_half)) => {
                    let (inbox, replies) = units.open(session.unit);
                    let (fed, sink, depth) = (&fed[i], tx.clone(), &depth);
                    threads.push((
                        i,
                        scope.spawn(move || write_session(write_half, inbox, fed)),
                        scope.spawn(move || pump_session(read_half, sink, replies, depth)),
                    ));
                }
                Err(e) => failures.push(link_failure(host_of(session), 0, e)),
            }
        }
        drop(tx);
        // Once the central unit is done, unblock any writer or pump
        // still parked on a socket — a strict-mode abort must not leave
        // threads behind (the scope would otherwise never join).
        let stop = || sessions.iter().for_each(|s| s.stream.shutdown());
        let central = feed_and_aggregate(&dep, &mut feed, units, stop);
        let ends: Vec<_> = threads
            .into_iter()
            .map(|(i, writer, pump)| {
                let written = writer.join().unwrap_or_else(|payload| {
                    Err(format!(
                        "session writer panicked: {}",
                        panic_message(payload)
                    ))
                });
                let pumped = pump.join().unwrap_or_else(|payload| PumpEnd {
                    outcome: None,
                    cause: Some(format!(
                        "session reader panicked: {}",
                        panic_message(payload)
                    )),
                });
                (i, written, pumped)
            })
            .collect();
        (central, ends)
    });

    let mut outcomes = Vec::new();
    for (i, written, pumped) in ends {
        // The read side diagnoses why a session ended; a write error on
        // top of that (EPIPE on a socket the host already closed) is its
        // consequence, not a second failure.
        if let Some(msg) = pumped.cause.or(written.err()) {
            let fed = fed[i].load(Ordering::Relaxed);
            failures.push(link_failure(host_of(&sessions[i]), fed, msg));
        }
        if let Some(outcome) = pumped.outcome {
            outcomes.push((sessions[i].unit, outcome));
        }
    }
    feed.finish(&dep, central?, outcomes, failures)
}

// ---------------------------------------------------------------------
// Host server
// ---------------------------------------------------------------------

/// Knobs for [`serve_host`].
#[derive(Debug, Clone, Copy, Default)]
pub struct HostServerConfig {
    /// Serve exactly one coordinator session, then return (tests and
    /// one-shot child processes); `false` accepts sessions forever.
    pub once: bool,
}

/// Handles one coordinator session on an accepted stream: versioned
/// handshake, deployment (plan again, slice, check the fingerprint),
/// execution, result. Protocol and execution failures are reported to
/// the coordinator as typed `Error` frames; only transport-level
/// failures (the session socket itself dying) surface as `Err`.
fn serve_session(mut stream: DuplexStream) -> Result<(), String> {
    let mut scratch = BytesMut::new();
    let step = |stream: &mut DuplexStream, what: &str| match read_control(stream) {
        Ok(Some(frame)) => Ok(frame),
        Ok(None) => Err(format!("connection closed before {what}")),
        Err(e) => Err(e.to_string()),
    };
    let reject = |stream: &mut DuplexStream, kind, message| {
        let frame = ControlFrame::Error { kind, message };
        write_control(stream, &frame, &mut BytesMut::new())
    };
    let version = match step(&mut stream, "Hello")? {
        ControlFrame::Hello { version, .. } => version,
        other => return Err(format!("protocol violation: expected Hello, got {other:?}")),
    };
    if version != PROTOCOL_VERSION {
        let message = format!(
            "protocol version mismatch: host speaks {PROTOCOL_VERSION}, coordinator sent {version}"
        );
        return reject(&mut stream, ERROR_VERSION, message);
    }
    write_control(
        &mut stream,
        &ControlFrame::Welcome {
            version: PROTOCOL_VERSION,
        },
        &mut scratch,
    )?;

    let payload = match step(&mut stream, "Deploy")? {
        ControlFrame::Deploy(payload) => payload,
        other => {
            return Err(format!(
                "protocol violation: expected Deploy, got {other:?}"
            ))
        }
    };
    let planned = decode_deploy(payload)
        .map_err(|e| format!("deployment payload corrupt: {e}"))
        .and_then(|inputs| Ok((replan(&inputs)?, inputs)));
    let (plan, inputs) = match planned {
        Ok(planned) => planned,
        Err(message) => return reject(&mut stream, ERROR_DEPLOY, message),
    };
    let dep = Deployment::new(&plan, &inputs.sim_config());
    let u = inputs.unit as usize;
    let unit = match &dep {
        Ok(dep) => dep.units.get(u).filter(|_| u > 0),
        Err(e) => return reject(&mut stream, ERROR_DEPLOY, e.to_string()),
    };
    let Some((spec, dag)) = unit else {
        let message = format!("the deployed plan has no leaf unit {}", inputs.unit);
        return reject(&mut stream, ERROR_DEPLOY, message);
    };
    write_control(&mut stream, &ControlFrame::DeployAck, &mut scratch)?;

    let mut port = StreamPort {
        sink: StreamSink::new(stream.try_clone()?),
        stream,
    };
    let progress = AtomicU64::new(0);
    // A panic (organic or injected by the shipped fault plan) must not
    // tear down the acceptor silently: catch it and report a typed
    // execution error before ending the session.
    let ran = catch_unwind(AssertUnwindSafe(|| {
        run_unit(spec, dag, &mut port, &progress)
    }));
    let report = match ran {
        Ok(Ok(outcome)) => ControlFrame::Result(
            encode_unit_outcome(&outcome, &mut scratch)
                .map_err(|e| format!("encode outcome: {e}"))?,
        ),
        Ok(Err(e)) => ControlFrame::Error {
            kind: ERROR_EXEC,
            message: e.to_string(),
        },
        Err(panic) => ControlFrame::Error {
            kind: ERROR_EXEC,
            message: format!("host worker panicked: {}", panic_message(panic)),
        },
    };
    port.sink.write_control(&report)
}

/// Runs a cluster host process: accepts coordinator sessions on
/// `listener` and executes each deployed unit to completion. With
/// [`HostServerConfig::once`] the first session (successful or not)
/// ends the loop — the mode `qapctl run --transport` children and the
/// socket test suites use.
pub fn serve_host(listener: &HostListener, cfg: &HostServerConfig) -> Result<(), String> {
    loop {
        let stream = listener.accept()?;
        let outcome = serve_session(stream);
        if cfg.once {
            return outcome;
        }
        if let Err(msg) = outcome {
            eprintln!("qapctl host: session failed: {msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qap_optimizer::{optimize, OptimizerConfig, Partitioning};
    use qap_partition::PartitionSet;
    use qap_sql::QuerySetBuilder;
    use qap_trace::{generate, TraceConfig};
    use qap_types::decode_control;

    use crate::link::{connect_with_backoff, Frame};
    use crate::rebalance::{Carrier, BUCKETS_PER_PARTITION};
    use crate::run_distributed_threaded;
    use crate::sim::tests::{skew_case, sorted};
    use crate::splitter::single_stream;
    use crate::splitter::Splitter;
    use crate::transport::TransportConfig;
    use crate::unit::{ChannelPort, LocalRows};

    fn flows_dag() -> qap_plan::QueryDag {
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.add_query(
            "flows",
            "SELECT tb, srcIP, COUNT(*) as cnt FROM TCP GROUP BY time/60 as tb, srcIP",
        )
        .unwrap();
        b.build()
    }

    /// Spawns in-process `serve_host` acceptors (one per leaf unit) on
    /// ephemeral TCP ports and returns their addresses.
    fn spawn_hosts(n: usize) -> Vec<HostAddr> {
        let mut addrs = Vec::new();
        for _ in 0..n {
            let listener = HostListener::bind(&HostAddr::Tcp("127.0.0.1:0".into())).expect("bind");
            addrs.push(listener.local_addr().expect("local addr"));
            std::thread::spawn(move || {
                let _ = serve_host(&listener, &HostServerConfig { once: true });
            });
        }
        addrs
    }

    #[test]
    fn tcp_run_matches_threaded_runner() {
        let dag = flows_dag();
        let trace = generate(&TraceConfig::tiny(33));
        let plan = optimize(
            &dag,
            &Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 3),
            &OptimizerConfig::full(),
        )
        .unwrap();
        let cfg = SimConfig::default();
        let threaded = run_distributed_threaded(&plan, &trace, &cfg).unwrap();

        let addrs = spawn_hosts(remote_host_count(&plan, &cfg));
        let remote = run_distributed_remote(&plan, &trace, &cfg, &addrs).unwrap();

        assert!(remote.failures.is_empty(), "{:?}", remote.failures);
        assert_eq!(threaded.outputs.len(), remote.outputs.len());
        for (t, r) in threaded.outputs.iter().zip(remote.outputs.iter()) {
            assert_eq!(t.0, r.0);
            assert_eq!(sorted(t.1.clone()), sorted(r.1.clone()), "output {}", t.0);
        }
        assert_eq!(threaded.counters, remote.counters);
        assert_eq!(
            threaded.metrics.transport.tuples(),
            remote.metrics.transport.tuples()
        );
    }

    #[test]
    fn adaptive_tcp_is_bit_identical_and_migrates() {
        let (plan, trace, rebalance) = skew_case();
        let cfg = SimConfig::default();
        let needed = remote_host_count(&plan, &cfg);
        let addrs = spawn_hosts(needed);
        let stat = run_distributed_remote(&plan, &trace, &cfg, &addrs).unwrap();

        let mut acfg = cfg;
        acfg.transport.rebalance = rebalance;
        let addrs = spawn_hosts(needed);
        let adap = run_distributed_remote(&plan, &trace, &acfg, &addrs).unwrap();

        assert!(
            adap.metrics.rebalance_fallback.is_none(),
            "{:?}",
            adap.metrics.rebalance_fallback
        );
        assert!(adap.metrics.repartitions >= 1, "no repartition fired");
        assert!(adap.metrics.migrated_keys > 0, "no state shipped");
        assert!(adap.failures.is_empty(), "{:?}", adap.failures);
        assert_eq!(stat.outputs.len(), adap.outputs.len());
        for (s, a) in stat.outputs.iter().zip(adap.outputs.iter()) {
            assert_eq!(s.0, a.0);
            assert_eq!(sorted(s.1.clone()), sorted(a.1.clone()), "{}", s.0);
        }
    }

    #[test]
    fn adaptive_tcp_migrates_behind_a_one_frame_boundary() {
        // The acks ride the reader pumps, and a one-frame boundary has a
        // pump parked on it most of the time: the feed loop must drain
        // the boundary while it waits for an ack (and for inbox room —
        // eight-tuple batches fill every inbox), or each handoff sits
        // out the two-second timeout and disables the controller.
        let (plan, trace, rebalance) = skew_case();
        let cfg = SimConfig {
            batch: qap_exec::BatchConfig::new(8),
            transport: TransportConfig::new(1, 2).with_send_timeout_ms(2_000),
            ..SimConfig::default()
        };
        let reference = run_distributed_threaded(&plan, &trace, &cfg).unwrap();

        let mut acfg = cfg;
        acfg.transport.rebalance = rebalance;
        let addrs = spawn_hosts(remote_host_count(&plan, &cfg));
        let adap = run_distributed_remote(&plan, &trace, &acfg, &addrs).unwrap();

        assert_eq!(adap.metrics.rebalance_fallback, None);
        assert!(adap.metrics.repartitions >= 1, "no repartition fired");
        assert!(adap.failures.is_empty(), "{:?}", adap.failures);
        for (s, a) in reference.outputs.iter().zip(adap.outputs.iter()) {
            assert_eq!(sorted(s.1.clone()), sorted(a.1.clone()), "{}", s.0);
        }
    }

    /// Everything observable about one unit's run: its outcome, the
    /// state rows its `Extract` returned, and its boundary frames.
    type UnitTrace = (UnitOutcome, Vec<LocalRows>, Vec<Frame>);

    /// Drives leaf unit `u` through the carrier with one fixed script —
    /// the first half of the trace, an `Extract` of everything the unit
    /// holds, an `Absorb` of the rows back, the second half, close —
    /// while `start` runs the unit behind the port ends it is handed.
    fn scripted_unit<'s>(
        dep: &Deployment<'_>,
        trace: &[Tuple],
        u: usize,
        start: impl FnOnce(
            chan::Receiver<UnitCmd>,
            chan::Sender<UnitReply>,
            ChannelSink,
        ) -> Box<dyn FnOnce() -> UnitOutcome + 's>,
    ) -> UnitTrace {
        // The central unit sits on a boundary of its own that nothing
        // ships to: the unit's frames go to `rx` instead, to be compared.
        let (_quiet, boundary) = ChannelTransport.pair(1);
        let depth = SharedGauge::new();
        let mut units = Units::new(dep, Central::new(dep, boundary, &depth).unwrap());
        let (inbox, replies) = units.open(u);
        let (tx, rx) = chan::unbounded();
        let finish = start(inbox, replies, ChannelSink(tx));

        let plan = dep.plan;
        let scans = single_stream(plan).unwrap();
        let mut splitter = Splitter::new(plan, &scans, &dep.cfg, false).unwrap();
        let (early, late) = trace.split_at(trace.len() / 2);
        let family = &crate::migration_spec(plan).unwrap().families[0];
        let member = family.members.iter().find(|m| dep.unit_of[m.node] == u);
        let partitions = plan.partitioning.partitions;
        let extract = UnitCmd::Extract {
            boundary: late[0].get(0).as_u64().unwrap(),
            partitions: partitions as u32,
            assignment: qap_partition::identity_assignment(partitions, BUCKETS_PER_PARTITION),
            jobs: vec![(dep.local_of[member.unwrap().node] as u32, Vec::new())],
        };

        let mut feed = |part: &[Tuple], units: &mut Units<'_>| {
            splitter
                .route(part, &mut |scan, b| units.feed(scan, b))
                .unwrap();
            splitter.flush(&mut |scan, b| units.feed(scan, b)).unwrap();
        };
        feed(early, &mut units);
        let mut replies = units.round(vec![(u, extract)]).unwrap();
        let rows = replies.remove(0).1.expect("extract answered");
        assert!(rows.iter().any(|(_, r)| !r.is_empty()), "{rows:?}");
        let absorbed = units.round(vec![(u, UnitCmd::Absorb(rows.clone()))]);
        assert!(absorbed.unwrap()[0].1.is_some());
        feed(late, &mut units);
        drop(units);
        let outcome = finish();
        (
            outcome,
            rows,
            std::iter::from_fn(|| rx.recv().ok()).collect(),
        )
    }

    #[test]
    fn one_loop_two_ports_agree() {
        let plan = optimize(
            &flows_dag(),
            &Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 2),
            &OptimizerConfig::full(),
        )
        .unwrap();
        let cfg = SimConfig {
            batch: qap_exec::BatchConfig::new(64),
            transport: TransportConfig::new(4, 8).host_serial(),
            ..SimConfig::default()
        };
        let dep = Deployment::new(&plan, &cfg).unwrap();
        let (u, (spec, dag)) = (1, &dep.units[1]);
        let trace = generate(&TraceConfig::tiny(33));
        let (depth, fed) = (&SharedGauge::new(), &AtomicU64::new(0));

        let (by_channel, by_stream) = std::thread::scope(|scope| {
            let by_channel = scripted_unit(&dep, &trace, u, |inbox, replies, sink| {
                let mut port = ChannelPort {
                    inbox,
                    replies,
                    sink,
                    depth,
                    timeout: Duration::from_millis(dep.cfg.transport.send_timeout_ms),
                };
                let unit = scope.spawn(move || run_unit(spec, dag, &mut port, fed));
                Box::new(move || unit.join().unwrap().unwrap())
            });
            let by_stream = scripted_unit(&dep, &trace, u, |inbox, replies, sink| {
                let mut inputs = deploy_inputs(&plan, &cfg).unwrap();
                inputs.unit = u as u32;
                let payload = encode_deploy(&inputs);
                let addr = spawn_hosts(1).remove(0);
                let host = spec.host as usize;
                let session = deploy_host(&addr, u, host, payload, 5_000).unwrap();
                let (w, r) = (session.stream.try_clone(), session.stream.try_clone());
                let writer = scope.spawn(move || write_session(w.unwrap(), inbox, fed));
                let pump = scope.spawn(move || pump_session(r.unwrap(), sink, replies, depth));
                Box::new(move || {
                    writer.join().unwrap().unwrap();
                    let end = pump.join().unwrap();
                    assert_eq!(end.cause, None);
                    end.outcome.unwrap()
                })
            });
            (by_channel, by_stream)
        });

        let (a, b) = (&by_channel.0, &by_stream.0);
        assert!(a.edges.iter().all(|e| e.frames > 1), "{:?}", a.edges);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.edges, b.edges);
        let sends = |o: &UnitOutcome| (o.stalls, o.dropped);
        assert_eq!(sends(a), sends(b));
        assert_eq!(by_channel.1, by_stream.1, "extracted state rows");
        assert_eq!(by_channel.2, by_stream.2, "boundary frame sequence");
    }

    #[test]
    fn version_mismatch_is_rejected_with_typed_error() {
        let listener = HostListener::bind(&HostAddr::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = listener.local_addr().unwrap();
        let server =
            std::thread::spawn(move || serve_host(&listener, &HostServerConfig { once: true }));

        let mut stream = connect_with_backoff(&addr, 2_000).unwrap();
        let mut scratch = BytesMut::new();
        write_control(
            &mut stream,
            &ControlFrame::Hello {
                version: PROTOCOL_VERSION + 1,
                host: 0,
            },
            &mut scratch,
        )
        .unwrap();
        match read_control(&mut stream).unwrap() {
            Some(ControlFrame::Error { kind, message }) => {
                assert_eq!(kind, ERROR_VERSION);
                assert!(message.contains("version"), "{message}");
            }
            other => panic!("expected version rejection, got {other:?}"),
        }
        server.join().unwrap().unwrap();
        // And the codec agrees end to end: a re-encoded rejection still
        // decodes to the same kind.
        let bytes = qap_types::encode_control(
            &ControlFrame::Error {
                kind: ERROR_VERSION,
                message: "version 1 != 2".into(),
            },
            &mut scratch,
        )
        .unwrap();
        assert!(matches!(
            decode_control(bytes).unwrap(),
            ControlFrame::Error {
                kind: ERROR_VERSION,
                ..
            }
        ));
    }

    #[test]
    fn corrupt_deploy_payload_is_rejected_not_panicked() {
        let listener = HostListener::bind(&HostAddr::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = listener.local_addr().unwrap();
        let server =
            std::thread::spawn(move || serve_host(&listener, &HostServerConfig { once: true }));

        let mut stream = connect_with_backoff(&addr, 2_000).unwrap();
        let mut scratch = BytesMut::new();
        write_control(
            &mut stream,
            &ControlFrame::Hello {
                version: PROTOCOL_VERSION,
                host: 1,
            },
            &mut scratch,
        )
        .unwrap();
        assert!(matches!(
            read_control(&mut stream).unwrap(),
            Some(ControlFrame::Welcome { .. })
        ));
        write_control(
            &mut stream,
            &ControlFrame::Deploy(Bytes::from(vec![0xde, 0xad, 0xbe, 0xef])),
            &mut scratch,
        )
        .unwrap();
        match read_control(&mut stream).unwrap() {
            Some(ControlFrame::Error { kind, .. }) => assert_eq!(kind, ERROR_DEPLOY),
            other => panic!("expected deploy rejection, got {other:?}"),
        }
        server.join().unwrap().unwrap();
    }

    /// A host whose plan does not hash to the coordinator's refuses the
    /// unit, naming both fingerprints, instead of running its own plan.
    #[test]
    fn altered_fingerprint_is_a_typed_deploy_rejection() {
        let plan = optimize(
            &flows_dag(),
            &Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 2),
            &OptimizerConfig::full(),
        )
        .unwrap();
        let mut inputs = deploy_inputs(&plan, &SimConfig::default()).unwrap();
        inputs.unit = 1;
        inputs.fingerprint ^= 1;

        let listener = HostListener::bind(&HostAddr::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = listener.local_addr().unwrap();
        let server =
            std::thread::spawn(move || serve_host(&listener, &HostServerConfig { once: true }));
        let err = deploy_host(&addr, 1, 1, encode_deploy(&inputs), 5_000)
            .err()
            .expect("deployment refused");
        server.join().unwrap().unwrap();
        assert!(matches!(err.cause, FailureCause::Link(_)), "{err}");
        let (sent, ours) = (inputs.fingerprint, plan_fingerprint(&plan));
        for part in [
            format!("({ERROR_DEPLOY})"),
            format!("{sent:016x}"),
            format!("{ours:016x}"),
        ] {
            assert!(err.to_string().contains(&part), "{err}");
        }
    }
}
