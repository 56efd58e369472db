//! Process-level cluster execution: a socket coordinator and the
//! `qapctl host --listen` server loop.
//!
//! [`run_distributed_threaded`](crate::run_distributed_threaded) keeps
//! every execution unit in one process; this module puts each leaf
//! host in its *own* OS process and drives it over a TCP or
//! Unix-domain socket:
//!
//! 1. the coordinator slices the plan host-serially (exactly the
//!    threaded runner's decomposition), connects to each host with
//!    bounded backoff, and performs the versioned handshake
//!    (`Hello`/`Welcome`, [`qap_types::PROTOCOL_VERSION`]);
//! 2. each leaf unit ships as a serialized [`Deploy`] payload
//!    ([`crate::deploy`]); the host rebuilds the sliced DAG by
//!    replaying its build script, so schema inference and local node
//!    ids reproduce exactly;
//! 3. a splitter thread runs the shared feed loop
//!    ([`crate::rebalance::drive`]) with the sessions as its carrier: a
//!    per-host **writer** thread drains the session's command queue
//!    into `Data` frames (one wire frame per splitter batch — the same
//!    batch boundaries the in-process engines see), `Migrate` frames
//!    when a rebalance controller hands state off, and `Eos` when the
//!    queue closes; a per-host **reader pump** forwards the host's
//!    boundary `Data` frames into the same bounded channel the threaded
//!    central unit consumes, so
//!    [`run_central_unit`](crate::threaded) runs *unchanged* (fed its
//!    own share of the trace through an inbox, like every unit);
//! 4. the host streams back its boundary frames and, after `Eos`, a
//!    serialized [`UnitOutcome`] — per-node counters, metrics,
//!    outputs, measured edge transport — which the coordinator
//!    stitches into the run's [`SimResult`] exactly as it stitches
//!    in-process worker results.
//!
//! Backpressure composes across the boundary: a slow central consumer
//! blocks the pump, the socket buffer fills, and the host's frame
//! writes block — the socket counterpart of a full bounded channel.
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

use std::collections::{BTreeMap, HashMap};
use std::io::BufWriter;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crossbeam::channel as chan;
use qap_exec::{BatchConfig, Engine, ExecError, ExecResult, FailureCause, HostFailure};
use qap_obs::SharedGauge;
use qap_optimizer::DistributedPlan;
use qap_partition::HashPartitioner;
use qap_plan::{LogicalNode, NodeId, QueryDag};
use qap_types::{
    encode_batch, encode_column_batch, Bytes, BytesMut, Catalog, ColumnBatch, ControlFrame, Tuple,
    ERROR_DEPLOY, ERROR_EXEC, ERROR_VERSION, PROTOCOL_VERSION,
};

use crate::deploy::{
    decode_migrate_cmd, decode_migrate_reply, decode_remote_unit, decode_unit_outcome,
    encode_migrate_cmd, encode_migrate_reply, encode_remote_unit, encode_unit_outcome, MigrateCmd,
    RemoteUnit, UnitOutcome,
};
use crate::link::{
    read_control, write_control, ChannelSink, ChannelSource, ChannelTransport, DuplexStream,
    FrameSink, HostAddr, HostListener, SendOutcome, StreamSink, Transport,
};
use crate::rebalance::{
    drive, extract_rerouted, Carrier, Controller, ExtractJob, Handoff, StateRows,
};
use crate::sim::{SimConfig, SimResult};
use crate::splitter::{Batch, Splitter, Staged};
use crate::threaded::{
    compute_units, forward_boundary, panic_message, run_central_unit, send_or_close, stitch,
    Deployment, EdgeStage, FeedBatch, RunTotals, TxShared, UnitPlan, UnitRun,
};
use crate::transport::EdgeTransport;

/// How long a handshake step may block before the coordinator declares
/// the peer dead (used when `send_timeout_ms` is 0).
const HANDSHAKE_FALLBACK_MS: u64 = 10_000;

/// The bound on one control-plane round trip (a handshake step, a
/// `MigrateAck`): the run's `send_timeout_ms`, or the fallback when
/// that is unbounded.
fn control_timeout(send_timeout_ms: u64) -> Duration {
    Duration::from_millis(if send_timeout_ms == 0 {
        HANDSHAKE_FALLBACK_MS
    } else {
        send_timeout_ms
    })
}

// ---------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------

/// Builds the deployment payload for one leaf slice.
fn remote_unit_of(
    plan: &DistributedPlan,
    slice: &UnitPlan,
    cfg: &SimConfig,
) -> ExecResult<RemoteUnit> {
    let transport = cfg.transport;
    let mut schemas: Vec<_> = plan.dag.catalog().schemas().cloned().collect();
    schemas.sort_by(|a, b| {
        a.name()
            .to_ascii_lowercase()
            .cmp(&b.name().to_ascii_lowercase())
    });
    let nodes: Vec<LogicalNode> = {
        // Local dag nodes in id order: replaying this list reproduces
        // the dag (ids are assigned sequentially by insertion).
        let dag = &slice.dag;
        (0..dag.len()).map(|id| dag.node(id).clone()).collect()
    };
    let mut scans: Vec<(u32, u32)> = slice
        .local
        .iter()
        .filter(|(&g, _)| plan.dag.node(g).is_source())
        .map(|(&g, &l)| (g as u32, l as u32))
        .collect();
    scans.sort_unstable();
    let boundary = slice
        .boundary
        .iter()
        .map(|&g| (g as u32, slice.local[&g] as u32))
        .collect();
    let outputs = slice
        .outputs
        .iter()
        .map(|&(idx, g)| (idx as u32, slice.local[&g] as u32))
        .collect();
    Ok(RemoteUnit {
        host: slice.host as u32,
        schemas,
        nodes,
        scans,
        boundary,
        outputs,
        max_batch: cfg.batch.max_batch as u32,
        frame_batch: transport.frame_batch.max(1) as u32,
        columnar: transport.columnar,
        send_timeout_ms: transport.send_timeout_ms,
        fault: transport.fault,
    })
}

/// One connected, deployed host session on the coordinator side.
struct HostSession {
    /// Index into `slices` (≥ 1; 0 is the central unit).
    unit: usize,
    /// Cluster host id.
    host: usize,
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
/// deployment rejection — comes back as a typed Link failure.
fn deploy_host(
    addr: &HostAddr,
    unit: usize,
    slice_host: usize,
    payload: Bytes,
    timeout_ms: u64,
) -> Result<HostSession, HostFailure> {
    let fail = |msg: String| link_failure(slice_host, 0, msg);
    let stream = crate::link::connect_with_backoff(addr, timeout_ms).map_err(&fail)?;
    let handshake = control_timeout(timeout_ms);
    stream.set_read_timeout(Some(handshake)).map_err(&fail)?;
    stream.set_write_timeout(Some(handshake)).map_err(&fail)?;
    let mut write_half = stream.try_clone().map_err(&fail)?;
    let mut scratch = BytesMut::new();
    let expect = |half: &mut DuplexStream, what: &str| -> Result<ControlFrame, HostFailure> {
        match read_control(half) {
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
    match expect(&mut read_half, "Welcome")? {
        ControlFrame::Welcome { version } if version == PROTOCOL_VERSION => {}
        ControlFrame::Welcome { version } => {
            return Err(fail(format!(
                "{addr}: protocol version mismatch (ours {PROTOCOL_VERSION}, theirs {version})"
            )))
        }
        ControlFrame::Error { kind, message } => {
            return Err(fail(format!(
                "{addr}: host rejected handshake ({kind}): {message}"
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
    match expect(&mut read_half, "DeployAck")? {
        ControlFrame::DeployAck => {}
        ControlFrame::Error { kind, message } => {
            return Err(fail(format!(
                "{addr}: host rejected deployment ({kind}): {message}"
            )))
        }
        other => return Err(fail(format!("{addr}: protocol violation: {other:?}"))),
    }
    // Reads block until the host produces; the central unit's receive
    // timeout — not a per-read socket bound — decides when a quiet
    // boundary means a hung peer.
    stream.set_read_timeout(None).map_err(&fail)?;
    if timeout_ms > 0 {
        stream
            .set_write_timeout(Some(Duration::from_millis(timeout_ms)))
            .map_err(&fail)?;
    } else {
        stream.set_write_timeout(None).map_err(&fail)?;
    }
    Ok(HostSession {
        unit,
        host: slice_host,
        stream,
    })
}

/// Encodes one splitter feed batch as a single wire frame in the
/// representation it was staged in — the same batch boundaries (and
/// thus the same engine-visible feed) as the in-process runner.
fn encode_feed_frame(batch: &Batch, scratch: &mut BytesMut) -> ExecResult<Bytes> {
    Ok(match batch {
        Batch::Rows(rows) => encode_batch(rows, scratch)?,
        Batch::Columns(cols) => encode_column_batch(cols, scratch)?,
    })
}

/// Number of leaf host processes (and thus addresses) a plan needs
/// under the remote decomposition: one per non-aggregator host with
/// work, independent of the in-process parallelism knob.
pub fn remote_host_count(plan: &DistributedPlan, cfg: &SimConfig) -> usize {
    compute_units(
        plan,
        plan.partitioning.aggregator_host,
        &cfg.transport.host_serial(),
    )
    .len()
        - 1
}

/// Commands the splitter queues to one host session's writer thread.
/// The queue and the socket are both FIFO, so a `Migrate` reaches the
/// host only after every feed batch queued before it — the socket
/// counterpart of the in-process drain ordering. Dropping the queue is
/// end-of-stream.
enum HostCmd {
    /// One splitter batch for the given (global) scan node.
    Feed(u32, Batch),
    /// An encoded [`MigrateCmd`] payload.
    Migrate(Bytes),
}

/// Drains one session's command queue into its socket: one `Data`
/// frame per splitter batch (the same batch boundaries the in-process
/// engines see), `Migrate` frames in queue order, and `Eos` once the
/// queue closes — at end of stream, or when the splitter gave up on the
/// host — so the host can always finish.
fn write_session(
    stream: DuplexStream,
    queue: chan::Receiver<HostCmd>,
    fed: &AtomicU64,
) -> Result<(), String> {
    let mut writer = BufWriter::new(stream);
    let mut enc_scratch = BytesMut::new();
    let mut ctl_scratch = BytesMut::new();
    while let Ok(cmd) = queue.recv() {
        let (frame, tuples) = match cmd {
            HostCmd::Feed(producer, batch) => {
                let frame =
                    encode_feed_frame(&batch, &mut enc_scratch).map_err(|e| e.to_string())?;
                (ControlFrame::Data { producer, frame }, batch.len() as u64)
            }
            HostCmd::Migrate(payload) => (ControlFrame::Migrate(payload), 0),
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

/// Forwards a session's boundary `Data` frames into the central
/// channel and its `MigrateAck` payloads to the splitter, until the
/// terminal `Result`; everything else ends the session with a cause.
fn pump_session(
    mut stream: DuplexStream,
    mut sink: impl FrameSink,
    acks: chan::Sender<Bytes>,
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
            Ok(Some(ControlFrame::MigrateAck(payload))) => {
                // Splitter gone (abort path): keep pumping boundary
                // frames regardless.
                let _ = acks.send(payload);
            }
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
/// order — ascending host id under the host-serial decomposition).
/// Semantically identical to
/// [`crate::run_distributed_threaded`] with
/// [`TransportConfig::host_serial`](crate::TransportConfig::host_serial):
/// same splitter routing, same central engine, same strict /
/// partial-results semantics, bit-identical outputs.
///
/// The central unit runs on the calling thread, the splitter on one of
/// its own. With a rebalance controller attached the splitter drives drain-and-handoff over the sessions'
/// `Migrate`/`MigrateAck` exchanges; the aggregator host's partitions
/// are **pinned** (its scans run in the central unit, where no socket
/// reaches them), so
/// [`plan_assignment_pinned`](crate::plan_assignment_pinned) balances
/// the dedicated leaf host processes around it.
pub fn run_distributed_remote(
    plan: &DistributedPlan,
    trace: &[Tuple],
    cfg: &SimConfig,
    hosts: &[HostAddr],
) -> ExecResult<SimResult> {
    let agg = plan.partitioning.aggregator_host;
    // One process per host: the decomposition is host-serial by
    // construction, whatever the in-process parallelism knob says.
    let transport = cfg.transport.host_serial();
    let dep = Deployment::new(plan, &transport)?;
    let slices = &dep.slices;
    if hosts.len() != slices.len() - 1 {
        return Err(ExecError::BadPlan(format!(
            "plan needs {} leaf host processes, got {} addresses",
            slices.len() - 1,
            hosts.len()
        )));
    }
    let veto =
        (hosts.len() < 2).then_some("fewer than two leaf host processes: nothing to rebalance");
    let (mut controller, mut control) = Controller::attach(
        plan,
        transport.rebalance,
        std::slice::from_ref(&dep.scans),
        veto,
        Some(agg),
    );
    let mut splitter = Splitter::new(plan, &dep.scans, cfg, controller.is_some())?;

    // Connect + handshake + deploy every leaf host up front, so a
    // refused or mismatched host fails fast (strict) or is recorded and
    // excluded (partial) before any data moves.
    let mut scratch = BytesMut::new();
    let mut sessions: Vec<HostSession> = Vec::new();
    let mut failures: Vec<HostFailure> = Vec::new();
    for (addr, u) in hosts.iter().zip(1..) {
        let payload = encode_remote_unit(&remote_unit_of(plan, &slices[u], cfg)?, &mut scratch)?;
        match deploy_host(addr, u, slices[u].host, payload, transport.send_timeout_ms) {
            Ok(session) => sessions.push(session),
            Err(failure) if transport.partial_results => failures.push(failure),
            Err(failure) => return Err(failure.into()),
        }
    }

    // With a controller attached the pumps also carry `MigrateAck`s, and
    // the central unit reads no boundary frame until the splitter is
    // done — which it is not while it awaits an ack. A pump parked on a
    // full boundary channel would close that cycle, so the channel is
    // unbounded then (the coordinator already holds the whole trace; an
    // eligible plan's boundary volume is a fraction of it).
    let (tx, rx) = if controller.is_some() {
        let (tx, rx) = chan::unbounded();
        (ChannelSink(tx), ChannelSource(rx))
    } else {
        ChannelTransport.pair(transport.channel_capacity.max(1))
    };
    let depth = SharedGauge::new();
    let batch_cfg = cfg.batch;
    // Coordinator-side fed counters, for failure attribution.
    let fed: Vec<AtomicU64> = sessions.iter().map(|_| AtomicU64::new(0)).collect();

    let (driven, central, ends) = std::thread::scope(|scope| {
        let mut carrier = Sessions {
            queues: Vec::new(),
            acks: Vec::new(),
            central: None,
            session_of_unit: vec![None; slices.len()],
            dep: &dep,
            ack_timeout: control_timeout(transport.send_timeout_ms),
        };
        let mut threads = Vec::new();
        for (i, session) in sessions.iter().enumerate() {
            carrier.session_of_unit[session.unit] = Some(i);
            let (cmd_tx, cmd_rx) = chan::unbounded();
            let (ack_tx, ack_rx) = chan::unbounded();
            carrier.acks.push(ack_rx);
            let halves = session
                .stream
                .try_clone()
                .and_then(|w| Ok((w, session.stream.try_clone()?)));
            match halves {
                Ok((write_half, read_half)) => {
                    carrier.queues.push(Some(cmd_tx));
                    let (fed, sink, depth) = (&fed[i], tx.clone(), &depth);
                    threads.push((
                        i,
                        scope.spawn(move || write_session(write_half, cmd_rx, fed)),
                        scope.spawn(move || pump_session(read_half, sink, ack_tx, depth)),
                    ));
                }
                Err(e) => {
                    carrier.queues.push(None);
                    failures.push(link_failure(session.host, 0, e));
                }
            }
        }
        drop(tx);
        let (central_tx, central_rx) = chan::unbounded();
        carrier.central = dep.central_owns_scans().then_some(central_tx);
        // As in the threaded runner: the splitter on a thread of its own,
        // the central unit on the calling thread.
        let (splitter, controller, control) = (&mut splitter, &mut controller, &mut control);
        let splitter_handle = scope.spawn(move || {
            let driven = drive(splitter, controller.as_mut(), control, trace, &mut carrier);
            // End of stream: the writers append Eos behind the queued
            // feed.
            drop(carrier);
            driven
        });
        let central = run_central_unit(
            &slices[0], central_rx, batch_cfg, rx, &depth, &plan.host, &transport, agg,
        );
        // Unblock any writer or pump still parked on a socket — a
        // strict-mode abort must not leave threads behind (the scope
        // would otherwise never join).
        for session in &sessions {
            session.stream.shutdown();
        }
        let driven = splitter_handle.join().unwrap_or_else(|payload| {
            Err(link_failure(
                agg,
                0,
                format!("splitter panicked: {}", panic_message(payload)),
            )
            .into())
        });
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
        (driven, central, ends)
    });
    driven?;
    let central = central?;

    let mut runs = vec![(0, central.run)];
    let mut totals = RunTotals {
        stalls: 0,
        dropped: 0,
        corrupt_dropped: central.corrupt_dropped,
        queue_peak: depth.peak(),
    };
    for (i, written, pumped) in ends {
        // The read side diagnoses why a session ended; a write error on
        // top of that (EPIPE on a socket the host already closed) is its
        // consequence, not a second failure.
        if let Some(msg) = pumped.cause.or(written.err()) {
            failures.push(link_failure(
                sessions[i].host,
                fed[i].load(Ordering::Relaxed),
                msg,
            ));
        }
        if let Some(outcome) = pumped.outcome {
            totals.stalls += outcome.stalls;
            totals.dropped += outcome.dropped;
            runs.push((
                sessions[i].unit,
                UnitRun {
                    counters: outcome.counters,
                    node_metrics: outcome.node_metrics,
                    outputs: outcome
                        .outputs
                        .into_iter()
                        .map(|(idx, rows)| (idx as usize, rows))
                        .collect(),
                    edges: outcome.edges,
                },
            ));
        }
    }
    failures.extend(central.failures);
    stitch(plan, cfg, &dep, trace, runs, failures, totals, control)
}

/// State rows keyed by a unit-local node id, as they cross the wire.
type LocalRows = (u32, Vec<Tuple>);

/// The socket carrier: per-session command queues out, `MigrateAck`
/// payloads back. A session whose queue is gone (its host died, timed
/// out on an ack, or never deployed) is fed no more; its typed failure
/// surfaces through its pump.
struct Sessions<'a> {
    /// Writer queues by session index.
    queues: Vec<Option<chan::Sender<HostCmd>>>,
    /// `MigrateAck` payloads by session index.
    acks: Vec<chan::Receiver<Bytes>>,
    central: Option<chan::Sender<FeedBatch>>,
    /// Unit index → session index; `None` for the central unit and for
    /// hosts that failed to deploy.
    session_of_unit: Vec<Option<usize>>,
    dep: &'a Deployment,
    ack_timeout: Duration,
}

impl Sessions<'_> {
    fn send(&mut self, si: usize, cmd: HostCmd) -> bool {
        send_or_close(&mut self.queues[si], cmd)
    }

    /// Sends one encoded `Migrate` payload per session, then collects
    /// the replies; a session that cannot be reached or does not answer
    /// within the ack timeout yields `None` and is marked dead.
    fn migrate_round(
        &mut self,
        outbound: Vec<(usize, Bytes)>,
    ) -> Vec<(usize, Option<Vec<LocalRows>>)> {
        let sent: Vec<(usize, bool)> = outbound
            .into_iter()
            .map(|(si, payload)| (si, self.send(si, HostCmd::Migrate(payload))))
            .collect();
        sent.into_iter()
            .map(|(si, sent)| {
                let reply = sent
                    .then(|| self.acks[si].recv_timeout(self.ack_timeout).ok())
                    .flatten()
                    .and_then(|payload| decode_migrate_reply(payload).ok());
                if reply.is_none() {
                    self.queues[si] = None;
                }
                (si, reply)
            })
            .collect()
    }
}

impl Carrier for Sessions<'_> {
    fn feed(&mut self, scan: NodeId, batch: Staged<'_>) -> ExecResult<()> {
        match self.dep.unit_of[scan] {
            0 => {
                if let Some(tx) = &self.central {
                    let _ = tx.send((scan, batch.take()));
                }
            }
            u => {
                if let Some(si) = self.session_of_unit[u] {
                    self.send(si, HostCmd::Feed(scan as u32, batch.take()));
                }
            }
        }
        Ok(())
    }

    /// One `Migrate(Extract)` round trip per leaf session: flush to the
    /// boundary, then extract. Combining the two per host is sound
    /// because no absorb goes out until *every* reply is in — by then
    /// the whole fleet is flushed to the boundary. The central unit's
    /// members sit on the pinned aggregator host: their keys never
    /// re-route, so they take part in no exchange.
    fn extract(
        &mut self,
        handoff: &Handoff<'_>,
        jobs: Vec<ExtractJob>,
    ) -> ExecResult<(Vec<StateRows>, bool)> {
        let aborted = Ok((Vec::new(), true));
        // session → (global node, local node, owned partitions)
        let mut by_session: BTreeMap<usize, Vec<(NodeId, u32, Vec<u32>)>> = BTreeMap::new();
        for job in jobs {
            let u = self.dep.unit_of[job.node];
            if u == 0 {
                continue;
            }
            let Some(si) = self.session_of_unit[u] else {
                return aborted;
            };
            let local = self.dep.slices[u].local[&job.node] as u32;
            by_session
                .entry(si)
                .or_default()
                .push((job.node, local, job.owned));
        }
        // Build every payload before sending anything: a failure here
        // aborts with all state still in place.
        let mut scratch = BytesMut::new();
        let mut outbound = Vec::new();
        for (&si, jobs) in &by_session {
            let cmd = MigrateCmd::Extract {
                boundary: handoff.boundary,
                partitions: handoff.partitions as u32,
                buckets_per_partition: handoff.buckets_per_partition as u32,
                assignment: handoff.next.to_vec(),
                set: handoff.set.clone(),
                jobs: jobs
                    .iter()
                    .map(|(_, l, owned)| (*l, owned.clone()))
                    .collect(),
            };
            match encode_migrate_cmd(&cmd, &mut scratch) {
                Ok(payload) => outbound.push((si, payload)),
                Err(_) => return aborted,
            }
        }
        let mut any_dead = false;
        let mut extracted = Vec::new();
        for (si, reply) in self.migrate_round(outbound) {
            let Some(batches) = reply else {
                any_dead = true;
                continue;
            };
            for (local, rows) in batches {
                match by_session[&si].iter().find(|(_, l, _)| *l == local) {
                    Some(&(global, ..)) => extracted.push((global, rows)),
                    None => any_dead = true,
                }
            }
        }
        Ok((extracted, any_dead))
    }

    fn absorb(&mut self, batches: Vec<StateRows>) -> ExecResult<bool> {
        let mut ok = true;
        let mut by_session: BTreeMap<usize, Vec<LocalRows>> = BTreeMap::new();
        for (node, rows) in batches {
            let u = self.dep.unit_of[node];
            // Moved buckets never land on the pinned aggregator host,
            // so only a host that never deployed has no session here.
            match self.session_of_unit[u] {
                Some(si) => by_session
                    .entry(si)
                    .or_default()
                    .push((self.dep.slices[u].local[&node] as u32, rows)),
                None => ok = false,
            }
        }
        let mut scratch = BytesMut::new();
        let mut outbound = Vec::new();
        for (si, batches) in by_session {
            match encode_migrate_cmd(&MigrateCmd::Absorb { batches }, &mut scratch) {
                Ok(payload) => outbound.push((si, payload)),
                Err(_) => ok = false,
            }
        }
        for (_, reply) in self.migrate_round(outbound) {
            ok &= reply.is_some();
        }
        Ok(ok)
    }
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

/// Rebuilds the deployed unit's DAG by replaying its build script over
/// a fresh catalog — the exact construction [`slice_unit`] performed on
/// the coordinator, so node ids and inferred schemas reproduce.
fn rebuild_dag(unit: &RemoteUnit) -> ExecResult<QueryDag> {
    let mut catalog = Catalog::new();
    for s in &unit.schemas {
        catalog
            .register(s.clone())
            .map_err(|e| ExecError::BadPlan(format!("deployed catalog: {e}")))?;
    }
    let mut dag = QueryDag::new(catalog);
    for node in &unit.nodes {
        match node {
            LogicalNode::Source { stream, partition } => {
                let p = partition.ok_or_else(|| {
                    ExecError::BadPlan("deployed scan is missing its partition".into())
                })?;
                dag.add_partition_source(stream, p)
                    .map_err(|e| ExecError::BadPlan(format!("deployed scan: {e}")))?;
            }
            other => {
                dag.add_node(other.clone())
                    .map_err(|e| ExecError::BadPlan(format!("deployed node: {e}")))?;
            }
        }
    }
    Ok(dag)
}

/// Executes one deployed unit against a stream of `Data` frames,
/// shipping boundary frames back through `sink` as they materialize
/// and returning the final outcome after `Eos`.
fn run_deployed_unit(
    unit: &RemoteUnit,
    dag: &QueryDag,
    stream: &mut DuplexStream,
    sink: &mut StreamSink<DuplexStream>,
) -> ExecResult<UnitOutcome> {
    let host = unit.host as usize;
    let fault = unit.fault;
    // Injected hang: same placement as the in-process worker — once,
    // before the first frame.
    if fault.hang_host == Some(host) && fault.hang_millis > 0 {
        std::thread::sleep(Duration::from_millis(fault.hang_millis));
    }
    let panic_at = (fault.panic_host == Some(host)).then_some(fault.panic_after_tuples);

    let mut sinks: Vec<NodeId> = unit.boundary.iter().map(|&(_, l)| l as NodeId).collect();
    for &(_, l) in &unit.outputs {
        let l = l as NodeId;
        if !sinks.contains(&l) {
            sinks.push(l);
        }
    }
    let mut engine = Engine::with_sinks(dag, &sinks)?;
    engine.set_batch_config(BatchConfig::new(unit.max_batch as usize));

    let depth = SharedGauge::new();
    let stalls = AtomicU64::new(0);
    let dropped = AtomicU64::new(0);
    let tuples = AtomicU64::new(0);
    let mut shared = TxShared {
        sink: ForwardSink(sink),
        depth: &depth,
        stalls: &stalls,
        dropped: &dropped,
        tuples: &tuples,
        fault,
        send_timeout_ms: unit.send_timeout_ms,
        host,
    };
    let mut edges: Vec<EdgeStage> = unit
        .boundary
        .iter()
        .map(|&(g, l)| EdgeStage {
            producer: g as NodeId,
            local: l as NodeId,
            pending: Vec::new(),
            col_stage: ColumnBatch::new(dag.schema(l as NodeId).arity()),
            seq: 0,
            stats: EdgeTransport {
                producer: g as usize,
                from_host: host,
                ..EdgeTransport::default()
            },
        })
        .collect();
    let scan_local: HashMap<u32, NodeId> =
        unit.scans.iter().map(|&(g, l)| (g, l as NodeId)).collect();

    let mut scratch = BytesMut::new();
    let mut fed: u64 = 0;
    let frame_batch = unit.frame_batch.max(1) as usize;
    loop {
        match read_control(stream).map_err(|e| ExecError::BadPlan(format!("feed link: {e}")))? {
            Some(ControlFrame::Data { producer, frame }) => {
                let local = *scan_local.get(&producer).ok_or_else(|| {
                    ExecError::BadPlan(format!("feed for unknown scan node {producer}"))
                })?;
                fed += engine.push_frame(local, frame)? as u64;
                tuples.store(fed, Ordering::Relaxed);
                if let Some(at) = panic_at {
                    if fed >= at {
                        panic!("injected worker fault after {fed} tuples (plan: panic at {at})");
                    }
                }
                forward_boundary(
                    &mut engine,
                    &mut edges,
                    frame_batch,
                    unit.columnar,
                    false,
                    &mut scratch,
                    &mut shared,
                )?;
            }
            Some(ControlFrame::Migrate(payload)) => {
                let cmd = decode_migrate_cmd(payload)
                    .map_err(|e| ExecError::BadPlan(format!("migrate command corrupt: {e}")))?;
                let reply = match cmd {
                    MigrateCmd::Extract {
                        boundary,
                        partitions,
                        buckets_per_partition,
                        assignment,
                        set,
                        jobs,
                    } => {
                        // Socket FIFO means every feed frame queued
                        // before this command is already in the engine:
                        // flushing to the boundary here is the same
                        // drain the in-process worker performs.
                        for &(node, _) in &jobs {
                            let local = node as NodeId;
                            if local >= dag.len() {
                                return Err(ExecError::BadPlan(format!(
                                    "migrate job for unknown node {node}"
                                )));
                            }
                            engine.flush_before(local, boundary)?;
                        }
                        forward_boundary(
                            &mut engine,
                            &mut edges,
                            frame_batch,
                            unit.columnar,
                            false,
                            &mut scratch,
                            &mut shared,
                        )?;
                        let mut out: Vec<(u32, Vec<Tuple>)> = Vec::new();
                        for (node, owned) in jobs {
                            let local = node as NodeId;
                            let mut keyp = HashPartitioner::with_buckets(
                                &set,
                                dag.schema(local),
                                partitions as usize,
                                buckets_per_partition as usize,
                            )
                            .map_err(|e| ExecError::BadPlan(format!("migrate partitioner: {e}")))?;
                            keyp.set_assignment(assignment.clone());
                            let rows = extract_rerouted(&mut engine, local, &keyp, &owned);
                            if !rows.is_empty() {
                                out.push((node, rows));
                            }
                        }
                        encode_migrate_reply(&out, &mut scratch)
                    }
                    MigrateCmd::Absorb { batches } => {
                        for (node, mut rows) in batches {
                            let local = node as NodeId;
                            if local >= dag.len() {
                                return Err(ExecError::BadPlan(format!(
                                    "migrate batch for unknown node {node}"
                                )));
                            }
                            engine.absorb_state(local, &mut rows)?;
                        }
                        forward_boundary(
                            &mut engine,
                            &mut edges,
                            frame_batch,
                            unit.columnar,
                            false,
                            &mut scratch,
                            &mut shared,
                        )?;
                        encode_migrate_reply(&[], &mut scratch)
                    }
                }
                .map_err(|e| ExecError::BadPlan(format!("encode migrate reply: {e}")))?;
                shared
                    .sink
                    .0
                    .write_control(&ControlFrame::MigrateAck(reply))
                    .map_err(|e| ExecError::BadPlan(format!("migrate ack link: {e}")))?;
            }
            Some(ControlFrame::Eos) => break,
            Some(other) => {
                return Err(ExecError::BadPlan(format!(
                    "protocol violation mid-feed: {other:?}"
                )))
            }
            None => {
                return Err(ExecError::BadPlan(
                    "coordinator closed the feed before Eos".into(),
                ))
            }
        }
    }
    engine.finish()?;
    forward_boundary(
        &mut engine,
        &mut edges,
        frame_batch,
        unit.columnar,
        true,
        &mut scratch,
        &mut shared,
    )?;

    let outputs = unit
        .outputs
        .iter()
        .map(|&(idx, l)| (idx, engine.output(l as NodeId)))
        .collect();
    Ok(UnitOutcome {
        counters: engine.counters().to_vec(),
        node_metrics: engine.metrics(),
        outputs,
        edges: edges.into_iter().map(|e| e.stats).collect(),
        stalls: stalls.load(Ordering::Relaxed),
        dropped: dropped.load(Ordering::Relaxed),
        tuples_fed: fed,
    })
}

/// A [`FrameSink`] borrowing the session's [`StreamSink`], so the unit
/// can interleave boundary `Data` frames with the terminal `Result` on
/// one ordered stream.
struct ForwardSink<'a>(&'a mut StreamSink<DuplexStream>);

impl FrameSink for ForwardSink<'_> {
    fn try_send(&mut self, frame: crate::link::Frame) -> Result<crate::link::SendOutcome, String> {
        self.0.try_send(frame)
    }

    fn send(&mut self, frame: crate::link::Frame) -> Result<crate::link::SendOutcome, String> {
        self.0.send(frame)
    }
}

/// Handles one coordinator session on an accepted stream: versioned
/// handshake, deployment, execution, result. Protocol and execution
/// failures are reported to the coordinator as typed `Error` frames;
/// only transport-level failures (the session socket itself dying)
/// surface as `Err`.
fn serve_session(mut stream: DuplexStream) -> Result<(), String> {
    let mut scratch = BytesMut::new();
    let hello = match read_control(&mut stream) {
        Ok(Some(ControlFrame::Hello { version, host })) => (version, host),
        Ok(Some(other)) => {
            return Err(format!("protocol violation: expected Hello, got {other:?}"))
        }
        Ok(None) => return Err("connection closed before Hello".into()),
        Err(e) => return Err(e.to_string()),
    };
    let (version, _host) = hello;
    if version != PROTOCOL_VERSION {
        let reject = ControlFrame::Error {
            kind: ERROR_VERSION,
            message: format!(
                "protocol version mismatch: host speaks {PROTOCOL_VERSION}, coordinator sent {version}"
            ),
        };
        write_control(&mut stream, &reject, &mut scratch)?;
        return Ok(());
    }
    write_control(
        &mut stream,
        &ControlFrame::Welcome {
            version: PROTOCOL_VERSION,
        },
        &mut scratch,
    )?;

    let payload = match read_control(&mut stream) {
        Ok(Some(ControlFrame::Deploy(payload))) => payload,
        Ok(Some(other)) => {
            return Err(format!(
                "protocol violation: expected Deploy, got {other:?}"
            ))
        }
        Ok(None) => return Err("connection closed before Deploy".into()),
        Err(e) => return Err(e.to_string()),
    };
    let unit = match decode_remote_unit(payload) {
        Ok(unit) => unit,
        Err(e) => {
            let reject = ControlFrame::Error {
                kind: ERROR_DEPLOY,
                message: format!("deployment payload corrupt: {e}"),
            };
            write_control(&mut stream, &reject, &mut scratch)?;
            return Ok(());
        }
    };
    let dag = match rebuild_dag(&unit) {
        Ok(dag) => dag,
        Err(e) => {
            let reject = ControlFrame::Error {
                kind: ERROR_DEPLOY,
                message: format!("deployment rejected: {e}"),
            };
            write_control(&mut stream, &reject, &mut scratch)?;
            return Ok(());
        }
    };
    write_control(&mut stream, &ControlFrame::DeployAck, &mut scratch)?;

    let write_half = stream.try_clone()?;
    let mut sink = StreamSink::new(write_half);
    // A panic (organic or injected by the shipped fault plan) must not
    // tear down the acceptor silently: catch it and report a typed
    // execution error before ending the session.
    let ran = catch_unwind(AssertUnwindSafe(|| {
        run_deployed_unit(&unit, &dag, &mut stream, &mut sink)
    }));
    match ran {
        Ok(Ok(outcome)) => {
            let payload = encode_unit_outcome(&outcome, &mut scratch)
                .map_err(|e| format!("encode outcome: {e}"))?;
            sink.write_control(&ControlFrame::Result(payload))?;
            Ok(())
        }
        Ok(Err(e)) => {
            let report = ControlFrame::Error {
                kind: ERROR_EXEC,
                message: e.to_string(),
            };
            sink.write_control(&report)?;
            Ok(())
        }
        Err(panic) => {
            let report = ControlFrame::Error {
                kind: ERROR_EXEC,
                message: format!("host worker panicked: {}", panic_message(panic)),
            };
            sink.write_control(&report)?;
            Ok(())
        }
    }
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

    use crate::link::connect_with_backoff;
    use crate::run_distributed_threaded;
    use crate::transport::TransportConfig;

    fn flows_dag() -> qap_plan::QueryDag {
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.add_query(
            "flows",
            "SELECT tb, srcIP, COUNT(*) as cnt FROM TCP GROUP BY time/60 as tb, srcIP",
        )
        .unwrap();
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
        let cfg = SimConfig {
            transport: TransportConfig::default().host_serial(),
            ..SimConfig::default()
        };
        let threaded = run_distributed_threaded(&plan, &trace, &cfg).unwrap();

        let units = compute_units(&plan, plan.partitioning.aggregator_host, &cfg.transport);
        let addrs = spawn_hosts(units.len() - 1);
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
        use crate::rebalance::RebalanceConfig;
        use qap_trace::{generate_skew_ramp, SkewRampConfig};

        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.add_query(
            "flows",
            "SELECT tb, srcIP, COUNT(*) as pkts, SUM(len) as bytes FROM TCP \
             GROUP BY time/60 as tb, srcIP",
        )
        .unwrap();
        let dag = b.build();
        let plan = optimize(
            &dag,
            &Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 4),
            &OptimizerConfig::full(),
        )
        .unwrap();
        let trace = generate_skew_ramp(&SkewRampConfig::tiny(7));
        let cfg = SimConfig {
            transport: TransportConfig::default().host_serial(),
            ..SimConfig::default()
        };

        let units = compute_units(&plan, plan.partitioning.aggregator_host, &cfg.transport);
        let addrs = spawn_hosts(units.len() - 1);
        let stat = run_distributed_remote(&plan, &trace, &cfg, &addrs).unwrap();

        // 45s samples against 60s windows: the drain boundary splits
        // live windows, so group state genuinely ships between hosts.
        let mut acfg = cfg;
        acfg.transport.rebalance = RebalanceConfig::adaptive()
            .with_threshold(1.2)
            .with_consecutive(1)
            .with_sample_secs(45);
        let addrs = spawn_hosts(units.len() - 1);
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
}
