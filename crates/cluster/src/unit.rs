//! One leaf execution unit: what it is told to run ([`UnitSpec`]), the
//! three things it is asked to do ([`UnitCmd`]), the loop that does
//! them ([`run_unit`]), the two ports a command can arrive on, and the
//! carrier the splitter reaches every unit through ([`Units`]).
//!
//! A unit is the same thing wherever it runs — a worker thread beside
//! the aggregator ([`crate::run_distributed_threaded`]) or a `qapctl
//! host` process across a socket ([`crate::serve_host`]). Only its
//! [`UnitPort`] differs: [`ChannelPort`] hands it commands by move over
//! an in-process inbox, [`StreamPort`] reads them off the session
//! socket as control frames. Per-port FIFO is the protocol's ordering
//! guarantee: by the time a unit sees `Extract`, every earlier `Feed`
//! on the same port has been applied — the drain step of
//! drain-and-handoff. The end of the port is end-of-stream.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crossbeam::channel as chan;
use qap_exec::{
    BatchConfig, Engine, ExecError, ExecResult, FailureCause, HostFailure, OpCounters, OpMetrics,
};
use qap_obs::SharedGauge;
use qap_partition::{HashPartitioner, PartitionSet};
use qap_plan::{NodeId, QueryDag};
use qap_types::{
    encode_column_batch, Bytes, BytesMut, ColumnBatch, ControlFrame, Tuple, FRAME_HEADER_LEN,
};

use crate::deploy::{decode_unit_cmd, encode_unit_reply};
use crate::link::{
    read_control, ChannelSink, DuplexStream, Frame, FrameSink, SendOutcome, StreamSink,
};
use crate::rebalance::{
    absorb_in_engine, extract_in_engine, Carrier, ExtractJob, Handoff, StateRows,
    BUCKETS_PER_PARTITION,
};
use crate::splitter::Batch;
use crate::threaded::{Central, Deployment};
use crate::transport::{EdgeTransport, FaultPlan};

/// One leaf execution unit's description: the id maps that address its
/// data, the deployed partitioning set, and every knob that shapes its
/// execution — batch size, frame size, timeout and fault plan.
///
/// [`Deployment::new`] builds it next to the sliced DAG, and [`run_unit`]
/// takes both. Nothing serializes it: a host process derives the same
/// pair from the same plan, which it plans again from the `Deploy`
/// payload's text ([`crate::deploy`]).
#[derive(Debug, Clone)]
pub(crate) struct UnitSpec {
    /// Cluster host id this unit executes as.
    pub(crate) host: u32,
    /// The deployed partitioning set (empty under round-robin): what an
    /// `Extract` re-keys the unit's aggregates by.
    pub(crate) set: PartitionSet,
    /// Partition scans: (global node id, local node id).
    pub(crate) scans: Vec<(u32, u32)>,
    /// Boundary producers: (global node id, local node id).
    pub(crate) boundary: Vec<(u32, u32)>,
    /// Plan outputs hosted here: (output index, local node id).
    pub(crate) outputs: Vec<(u32, u32)>,
    /// Engine batch size ([`qap_exec::BatchConfig::max_batch`]).
    pub(crate) max_batch: u32,
    /// Tuples staged per boundary frame.
    pub(crate) frame_batch: u32,
    /// Bound on the full-buffer retry loop, in milliseconds.
    pub(crate) send_timeout_ms: u64,
    /// Deterministic fault plan, part of the description so chaos tests
    /// inject the same faults in-process and across processes.
    pub(crate) fault: FaultPlan,
}

/// One unit's results, stitched back into global vectors by the
/// coordinator: per-local-node counters and metrics, any plan outputs
/// hosted on the unit, the measured per-edge transport, and the
/// send-path tallies the coordinator sums into
/// [`crate::TransportMetrics`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct UnitOutcome {
    /// Per-local-node semantic counters.
    pub(crate) counters: Vec<OpCounters>,
    /// Per-local-node observability metrics.
    pub(crate) node_metrics: Vec<OpMetrics>,
    /// Plan outputs hosted on this unit: (output index, rows).
    pub(crate) outputs: Vec<(u32, Vec<Tuple>)>,
    /// Measured per-edge transport.
    pub(crate) edges: Vec<EdgeTransport>,
    /// Backpressure stalls the unit's send path observed.
    pub(crate) stalls: u64,
    /// Frames the fault plan dropped before the wire.
    pub(crate) dropped: u64,
    /// Tuples the unit fed its engine (failure attribution).
    pub(crate) tuples_fed: u64,
}

impl UnitOutcome {
    /// Reads a finished engine: counters, metrics and the rows of the
    /// hosted `outputs` (output index, local node id). The send-path
    /// fields start at zero.
    pub(crate) fn collect(
        engine: &mut Engine,
        outputs: impl Iterator<Item = (u32, NodeId)>,
        tuples_fed: u64,
    ) -> UnitOutcome {
        UnitOutcome {
            counters: engine.counters().to_vec(),
            node_metrics: engine.metrics(),
            outputs: outputs.map(|(idx, l)| (idx, engine.output(l))).collect(),
            edges: Vec::new(),
            stalls: 0,
            dropped: 0,
            tuples_fed,
        }
    }
}

/// State rows keyed by a unit-local node id, as they cross a port.
pub(crate) type LocalRows = (u32, Vec<Tuple>);

/// Row sets keyed by a unit's node ids, as a port carries them.
fn local_rows(rows: Vec<StateRows>) -> Vec<LocalRows> {
    rows.into_iter().map(|(l, r)| (l as u32, r)).collect()
}

/// What a leaf unit is asked to do. Node ids are the unit's *local*
/// ids: [`Units`] is the one place that translates.
#[derive(Debug)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) enum UnitCmd {
    /// Consume one splitter batch at the given scan. No reply.
    Feed(u32, Batch),
    /// Force-close windows before `boundary` on each job's node, then
    /// extract every group whose key re-routes away from the node's
    /// owned partitions under the new table; reply with the rows. The
    /// command carries the table recipe — the partition count and the
    /// *next* assignment, at [`BUCKETS_PER_PARTITION`] buckets per
    /// partition — and the unit rebuilds the key partitioner from it
    /// and its deployed set ([`UnitSpec::set`]) against each node's
    /// aggregate schema, because a host process shares no memory with
    /// the coordinator's splitter.
    Extract {
        /// Drain boundary (a trace timestamp).
        boundary: u64,
        /// Partition count `M` of the deployed splitter.
        partitions: u32,
        /// The *new* bucket→partition table the extraction routes by.
        assignment: Vec<u32>,
        /// Per-node jobs: (local node id, owned partitions).
        jobs: Vec<(u32, Vec<u32>)>,
    },
    /// Merge shipped state rows into each node's group table; reply
    /// with an empty acknowledgement.
    Absorb(Vec<LocalRows>),
}

/// A unit's answer to `Extract` (the non-empty extracted row sets) or
/// `Absorb` (empty).
pub(crate) type UnitReply = Vec<LocalRows>;

/// How commands reach a unit and how its replies and boundary frames
/// leave it.
pub(crate) trait UnitPort {
    /// The next command, in order; `None` is end-of-stream.
    fn next(&mut self) -> ExecResult<Option<UnitCmd>>;
    /// Answers the `Extract`/`Absorb` just applied.
    fn reply(&mut self, reply: UnitReply) -> ExecResult<()>;
    /// Offers one boundary frame to the port's [`FrameSink`] without
    /// blocking on capacity.
    fn ship(&mut self, frame: Frame) -> Result<SendOutcome, String>;
}

/// The in-process port: commands arrive by move over the unit's inbox,
/// so a feed batch is never copied or encoded on its way in, and
/// boundary frames leave through the central unit's shared channel.
pub(crate) struct ChannelPort<'a> {
    pub(crate) inbox: chan::Receiver<UnitCmd>,
    pub(crate) replies: chan::Sender<UnitReply>,
    pub(crate) sink: ChannelSink,
    /// Live boundary-buffer depth (in-flight frames).
    pub(crate) depth: &'a SharedGauge,
}

impl UnitPort for ChannelPort<'_> {
    fn next(&mut self) -> ExecResult<Option<UnitCmd>> {
        Ok(self.inbox.recv().ok())
    }

    fn reply(&mut self, reply: UnitReply) -> ExecResult<()> {
        // Splitter gone (abort path): nobody is waiting.
        let _ = self.replies.send(reply);
        Ok(())
    }

    fn ship(&mut self, frame: Frame) -> Result<SendOutcome, String> {
        self.depth.inc();
        let sent = self.sink.try_send(frame);
        if !matches!(sent, Ok(SendOutcome::Sent)) {
            self.depth.dec();
        }
        sent
    }
}

/// The socket port of a `qapctl host` session: commands are the
/// coordinator's `Data`/`Migrate` control frames, replies go back as
/// `MigrateAck`, and boundary frames interleave with them (and with the
/// terminal `Result`) on the one ordered stream behind `sink`.
pub(crate) struct StreamPort {
    pub(crate) stream: DuplexStream,
    pub(crate) sink: StreamSink<DuplexStream>,
}

impl UnitPort for StreamPort {
    fn next(&mut self) -> ExecResult<Option<UnitCmd>> {
        let frame = read_control(&mut self.stream)
            .map_err(|e| ExecError::BadPlan(format!("feed link: {e}")))?;
        match frame {
            // The batch stays encoded until `Engine::push_frame`.
            Some(ControlFrame::Data { producer, frame }) => {
                Ok(Some(UnitCmd::Feed(producer, Batch::Frame(frame))))
            }
            Some(ControlFrame::Migrate(payload)) => decode_unit_cmd(payload)
                .map(Some)
                .map_err(|e| ExecError::BadPlan(format!("migrate command corrupt: {e}"))),
            Some(ControlFrame::Eos) => Ok(None),
            Some(other) => Err(ExecError::BadPlan(format!(
                "protocol violation mid-feed: {other:?}"
            ))),
            None => Err(ExecError::BadPlan(
                "coordinator closed the feed before Eos".into(),
            )),
        }
    }

    fn reply(&mut self, reply: UnitReply) -> ExecResult<()> {
        let payload = encode_unit_reply(&reply, &mut BytesMut::new())
            .map_err(|e| ExecError::BadPlan(format!("encode migrate reply: {e}")))?;
        self.sink
            .write_control(&ControlFrame::MigrateAck(payload))
            .map_err(|e| ExecError::BadPlan(format!("migrate ack link: {e}")))
    }

    fn ship(&mut self, frame: Frame) -> Result<SendOutcome, String> {
        self.sink.try_send(frame)
    }
}

/// Feeds one splitter batch to a unit engine, staged or still encoded;
/// returns the tuples ingested.
pub(crate) fn push_feed(engine: &mut Engine, local: NodeId, batch: Batch) -> ExecResult<usize> {
    match batch {
        Batch::Columns(mut cols) => {
            let n = cols.rows();
            engine.push_columns(local, &mut cols)?;
            Ok(n)
        }
        Batch::Frame(frame) => engine.push_frame(local, frame),
    }
}

/// Resolves a node id a command names; one the unit does not run is a
/// typed error, never an index out of bounds.
fn known(dag: &QueryDag, node: u32, what: &str) -> ExecResult<NodeId> {
    if (node as usize) < dag.len() {
        Ok(node as NodeId)
    } else {
        Err(ExecError::BadPlan(format!(
            "{what} for unknown node {node}"
        )))
    }
}

/// Runs one leaf unit to completion: applies the port's commands in
/// order — feed batches into the scans, and the two halves of a
/// drain-and-handoff — shipping boundary frames as they materialize;
/// the end of the port finishes the engine and flushes the tail frames.
/// `progress` follows the tuples fed, batch by batch, so a panic
/// mid-run leaves the last consistent count behind for the failure
/// record. An error mid-handoff returns before the reply: the splitter
/// sees the unit as dead and aborts the handoff, and whoever started
/// the unit records the typed cause.
pub(crate) fn run_unit<P: UnitPort>(
    spec: &UnitSpec,
    dag: &QueryDag,
    port: &mut P,
    progress: &AtomicU64,
) -> ExecResult<UnitOutcome> {
    let host = spec.host as usize;
    let fault = spec.fault;
    // Injected hang: stall once, before the first frame, long enough
    // for the consumer's receive timeout to notice. Finite by
    // construction — whoever started the unit must eventually join it.
    if fault.hang_host == Some(host) && fault.hang_millis > 0 {
        std::thread::sleep(Duration::from_millis(fault.hang_millis));
    }
    let panic_at = (fault.panic_host == Some(host)).then_some(fault.panic_after_tuples);

    let boundary: Vec<NodeId> = spec.boundary.iter().map(|&(_, l)| l as NodeId).collect();
    let outputs: Vec<NodeId> = spec.outputs.iter().map(|&(_, l)| l as NodeId).collect();
    let mut engine = Engine::with_boundary(dag, &outputs, &boundary)?;
    engine.set_batch_config(BatchConfig::new(spec.max_batch as usize));
    let mut edges: Vec<EdgeStage> = spec
        .boundary
        .iter()
        .map(|&(g, l)| EdgeStage {
            producer: g as NodeId,
            local: l as NodeId,
            pending: ColumnBatch::new(dag.schema(l as NodeId).arity()),
            seq: 0,
            stats: EdgeTransport {
                producer: g as NodeId,
                from_host: host,
                ..EdgeTransport::default()
            },
        })
        .collect();
    let mut tx = Tx {
        spec,
        scratch: BytesMut::new(),
        stalls: 0,
        dropped: 0,
        fed: 0,
    };

    while let Some(cmd) = port.next()? {
        let reply = match cmd {
            UnitCmd::Feed(scan, batch) => {
                if !spec.scans.iter().any(|&(_, l)| l == scan) {
                    return Err(ExecError::BadPlan(format!(
                        "feed for unknown scan node {scan}"
                    )));
                }
                tx.fed += push_feed(&mut engine, scan as NodeId, batch)? as u64;
                progress.store(tx.fed, Ordering::Relaxed);
                if let Some(at) = panic_at {
                    if tx.fed >= at {
                        let fed = tx.fed;
                        panic!("injected worker fault after {fed} tuples (plan: panic at {at})");
                    }
                }
                None
            }
            UnitCmd::Extract {
                boundary,
                partitions,
                assignment,
                jobs,
            } => {
                if assignment.is_empty() || assignment.iter().any(|&p| p >= partitions) {
                    return Err(ExecError::BadPlan(
                        "migrate table is empty or names a nonexistent partition".into(),
                    ));
                }
                let jobs = jobs
                    .into_iter()
                    .map(|(node, owned)| {
                        let node = known(dag, node, "migrate job")?;
                        let mut keyp = HashPartitioner::with_buckets(
                            &spec.set,
                            dag.schema(node),
                            partitions as usize,
                            BUCKETS_PER_PARTITION,
                        )
                        .map_err(|e| ExecError::BadPlan(format!("migrate partitioner: {e}")))?;
                        keyp.set_assignment(assignment.clone());
                        Ok(ExtractJob { node, keyp, owned })
                    })
                    .collect::<ExecResult<Vec<_>>>()?;
                let extracted = extract_in_engine(&mut engine, boundary, &jobs)?;
                Some(local_rows(extracted))
            }
            UnitCmd::Absorb(batches) => {
                let batches = batches
                    .into_iter()
                    .map(|(node, rows)| Ok((known(dag, node, "migrate batch")?, rows)))
                    .collect::<ExecResult<_>>()?;
                absorb_in_engine(&mut engine, batches)?;
                Some(Vec::new())
            }
        };
        if let Some(reply) = reply {
            port.reply(reply)?;
        }
        forward_boundary(&mut engine, &mut edges, &mut tx, port, false)?;
    }
    engine.finish()?;
    forward_boundary(&mut engine, &mut edges, &mut tx, port, true)?;

    let outputs = spec.outputs.iter().map(|&(idx, l)| (idx, l as NodeId));
    Ok(UnitOutcome {
        edges: edges.into_iter().map(|e| e.stats).collect(),
        stalls: tx.stalls,
        dropped: tx.dropped,
        ..UnitOutcome::collect(&mut engine, outputs, tx.fed)
    })
}

/// Per-boundary-producer framing state within one leaf unit.
struct EdgeStage {
    /// Global producer node id.
    producer: NodeId,
    /// Local sink id inside the unit's engine.
    local: NodeId,
    /// The frame being filled: the producer's output not yet shipped,
    /// always short of `frame_batch` rows between calls. Rows are cut
    /// into these lanes straight from the engine's boundary sink
    /// ([`ColumnBatch::append_range`]) and encoded from them, so
    /// steady-state framing reuses the lane allocations and no tuple is
    /// built on the way out.
    pending: ColumnBatch,
    /// 1-based frame sequence number for deterministic fault selection;
    /// advances even for frames the fault plan drops (unlike
    /// `stats.frames`, which counts only shipped frames).
    seq: u64,
    /// Measured transport for this edge.
    stats: EdgeTransport,
}

/// A unit's send-path state across its boundary edges.
struct Tx<'a> {
    spec: &'a UnitSpec,
    scratch: BytesMut,
    /// First-refusal backpressure stalls.
    stalls: u64,
    /// Frames discarded by the fault plan's `drop_every` knob.
    dropped: u64,
    /// Tuples fed so far (failure attribution).
    fed: u64,
}

/// Applies the per-frame fault knobs to an encoded frame about to be
/// shipped. `seq` is the edge's 1-based frame sequence number (advanced
/// even for dropped frames), so a fixed plan hits the same frames on
/// every run. Returns `None` when the frame is dropped.
///
/// Corruption flips the high byte of the big-endian payload-length
/// header word — the consumer's decoder deterministically reports
/// `FrameLengthMismatch`. Truncation halves the frame (cutting either
/// mid-payload or into the header), which decodes as
/// `Truncated`/`FrameLengthMismatch`. Both mutations copy the frame —
/// the clean path stays zero-copy.
// `seq % n == 0` spelled out rather than `is_multiple_of` to hold the
// workspace MSRV (1.75; the method stabilized in 1.87).
#[allow(clippy::manual_is_multiple_of)]
fn inject_frame_fault(fault: &FaultPlan, seq: u64, frame: Bytes) -> Option<Bytes> {
    if fault.drop_every > 0 && seq % fault.drop_every == 0 {
        return None;
    }
    let corrupt = fault.corrupt_every > 0 && seq % fault.corrupt_every == 0;
    let truncate = fault.truncate_every > 0 && seq % fault.truncate_every == 0;
    if !corrupt && !truncate {
        return Some(frame);
    }
    let mut bytes = frame.as_ref().to_vec();
    if corrupt && !bytes.is_empty() {
        bytes[0] ^= 0x80;
    }
    if truncate {
        bytes.truncate(bytes.len() / 2);
    }
    Some(Bytes::from(bytes))
}

/// Drains each boundary sink, as lanes, and ships every frame the
/// drained rows complete: `frame_batch` rows each, cut off the front of
/// the producer's output sequence (plus, on `final_flush`, the partial
/// tail frame). Frames per edge are deterministic: that sequence is
/// fixed by the plan and trace, and chunking is positional.
fn forward_boundary<P: UnitPort>(
    engine: &mut Engine,
    edges: &mut [EdgeStage],
    tx: &mut Tx<'_>,
    port: &mut P,
    final_flush: bool,
) -> ExecResult<()> {
    let frame_batch = tx.spec.frame_batch.max(1) as usize;
    for edge in edges.iter_mut() {
        if let Some(drained) = engine.drain_boundary(edge.local) {
            let mut at = 0;
            while edge.pending.rows() + (drained.rows() - at) >= frame_batch {
                let cut = at + frame_batch - edge.pending.rows();
                edge.pending.append_range(&drained, at..cut);
                at = cut;
                ship(edge, tx, port)?;
            }
            edge.pending.append_range(&drained, at..drained.rows());
        }
        if final_flush && !edge.pending.is_empty() {
            ship(edge, tx, port)?;
        }
    }
    Ok(())
}

/// Encodes the edge's pending rows as one frame straight off their
/// lanes, applies the fault plan, and ships it through the port: a
/// non-blocking attempt first, and on a full buffer one counted
/// backpressure stall followed by a retry-with-backoff loop bounded by
/// the unit's send timeout.
/// Exhausting the bound surfaces as a typed [`FailureCause::Timeout`]
/// instead of wedging the unit. A dropped receiver (central error path)
/// discards the frame — never a deadlock. A sink whose *link* breaks
/// (socket ports only) surfaces as a typed [`FailureCause::Link`].
fn ship<P: UnitPort>(edge: &mut EdgeStage, tx: &mut Tx<'_>, port: &mut P) -> ExecResult<()> {
    let spec = tx.spec;
    let frame = encode_column_batch(&edge.pending, &mut tx.scratch)?;
    let tuples = edge.pending.rows() as u64;
    edge.pending.clear();
    edge.seq += 1;
    let frame_len = frame.len();
    let Some(frame) = inject_frame_fault(&spec.fault, edge.seq, frame) else {
        // Dropped by the fault plan: the frame never reaches the wire,
        // so it counts as a drop, not a shipment.
        tx.dropped += 1;
        return Ok(());
    };
    let host = spec.host as usize;
    if spec.fault.slow_host == Some(host) && spec.fault.slow_micros > 0 {
        std::thread::sleep(Duration::from_micros(spec.fault.slow_micros));
    }
    edge.stats.frames += 1;
    edge.stats.tuples += tuples;
    edge.stats.bytes += (frame_len - FRAME_HEADER_LEN) as u64;
    let fed = tx.fed;
    let failed = move |cause| -> ExecError {
        HostFailure {
            host,
            cause,
            tuples_processed: fed,
        }
        .into()
    };
    let first = port
        .ship((edge.producer, frame))
        .map_err(|e| failed(FailureCause::Link(e)))?;
    let SendOutcome::Full(mut msg) = first else {
        return Ok(());
    };
    tx.stalls += 1;
    // Bounded retry with exponential backoff, capped at the send
    // timeout: a consumer that never drains surfaces as a typed timeout
    // failure instead of a wedged unit.
    let deadline = Duration::from_millis(spec.send_timeout_ms.max(1));
    let started = Instant::now();
    let mut backoff = Duration::from_micros(100);
    loop {
        match port.ship(msg).map_err(|e| failed(FailureCause::Link(e)))? {
            SendOutcome::Sent | SendOutcome::Closed => return Ok(()),
            SendOutcome::Full(m) => {
                msg = m;
                edge.stats.retries += 1;
                let waited = started.elapsed();
                if waited >= deadline {
                    return Err(failed(FailureCause::Timeout {
                        waited_ms: waited.as_millis() as u64,
                    }));
                }
                std::thread::sleep(backoff.min(deadline - waited));
                backoff = (backoff * 2).min(Duration::from_millis(10));
            }
        }
    }
}

/// Commands a leaf unit's inbox holds before the feed loop waits for
/// the unit (~1.2 MB of 1024-row TCP batches): what bounds how far the
/// splitter runs ahead of the slowest unit.
const INBOX_COMMANDS: usize = 16;

/// How long the feed loop sits on the boundary before it looks at a
/// full inbox or an awaited reply again — well under the time a unit
/// needs to work off a full inbox.
const PUMP_WAIT: Duration = Duration::from_micros(200);

/// The coordinator's ends of one live leaf unit's port.
struct UnitLink {
    inbox: chan::Sender<UnitCmd>,
    replies: chan::Receiver<UnitReply>,
}

/// The carrier of every runner whose leaf units sit behind ports:
/// per-unit command inboxes out, replies back, and the central unit —
/// which runs on the feed loop's own thread — fed directly. In-process
/// the worker thread holds the other ends ([`ChannelPort`]); over
/// sockets a session's writer drains the inbox into control frames and
/// its reader pump turns `MigrateAck`s into replies. A unit without a
/// link — it never deployed, its inbox closed, or it stayed silent past
/// the control timeout — is dead: it is fed no more, and its typed
/// failure surfaces where the unit is harvested. This is also the one
/// place global plan ids become unit-local ids, and back.
///
/// Every inbox is bounded. That is safe because the feed loop never
/// just waits: whenever an inbox is full or a reply is outstanding it
/// pumps the boundary into the central unit, so a unit stalled on a
/// full boundary channel always gets to drain its inbox eventually —
/// and each wait is bounded by the run's one timeout.
pub(crate) struct Units<'a> {
    /// By unit index; slot 0, the central unit, never has one.
    links: Vec<Option<UnitLink>>,
    central: Central<'a>,
    dep: &'a Deployment<'a>,
    /// Bound on one wait for inbox room or for an `Extract`/`Absorb`
    /// round trip.
    timeout: Duration,
}

impl<'a> Units<'a> {
    /// A carrier around the central unit, with no leaf unit linked yet.
    pub(crate) fn new(dep: &'a Deployment<'a>, central: Central<'a>) -> Units<'a> {
        Units {
            links: dep.slices.iter().map(|_| None).collect(),
            central,
            dep,
            timeout: Duration::from_millis(dep.cfg.transport.send_timeout_ms),
        }
    }

    /// Links leaf unit `u`, returning the unit-side ends of its port.
    pub(crate) fn open(&mut self, u: usize) -> (chan::Receiver<UnitCmd>, chan::Sender<UnitReply>) {
        let (inbox, cmds) = chan::bounded(INBOX_COMMANDS);
        let (reply_tx, replies) = chan::unbounded();
        self.links[u] = Some(UnitLink { inbox, replies });
        (cmds, reply_tx)
    }

    /// Closes every inbox — end of stream for the leaf units — and
    /// hands the central unit back.
    pub(crate) fn close(self) -> Central<'a> {
        self.central
    }

    /// Queues `cmd` on unit `u`'s inbox, pumping the boundary while the
    /// inbox is full. `false` marks the unit dead: the link was already
    /// gone, the unit's end of it is, or the inbox stayed full past the
    /// timeout — a hung unit, which the central unit records.
    fn send(&mut self, u: usize, mut cmd: UnitCmd) -> ExecResult<bool> {
        let mut waiting: Option<Instant> = None;
        while let Some(link) = &self.links[u] {
            match link.inbox.try_send(cmd) {
                Ok(()) => return Ok(true),
                Err(chan::TrySendError::Disconnected(_)) => break,
                Err(chan::TrySendError::Full(back)) => cmd = back,
            }
            let waited = waiting.get_or_insert_with(Instant::now).elapsed();
            if waited >= self.timeout {
                self.central.timed_out(waited)?;
                break;
            }
            self.central.pump(PUMP_WAIT)?;
        }
        self.links[u] = None;
        Ok(false)
    }

    /// Sends one command per unit, then collects the replies, pumping
    /// the boundary while it waits; a unit that cannot be reached or
    /// does not answer within the control timeout yields `None` and is
    /// marked dead.
    fn round(
        &mut self,
        cmds: Vec<(usize, UnitCmd)>,
    ) -> ExecResult<Vec<(usize, Option<UnitReply>)>> {
        // Every command goes out before the first wait; a failed send
        // leaves no link, which reads as no reply below.
        let mut asked = Vec::new();
        for (u, cmd) in cmds {
            self.send(u, cmd)?;
            asked.push(u);
        }
        let mut answers = Vec::new();
        for u in asked {
            let started = Instant::now();
            let reply = loop {
                let Some(link) = &self.links[u] else {
                    break None;
                };
                match link.replies.recv_timeout(PUMP_WAIT) {
                    Ok(reply) => break Some(reply),
                    Err(chan::RecvTimeoutError::Disconnected) => break None,
                    Err(chan::RecvTimeoutError::Timeout) => {}
                }
                if started.elapsed() >= self.timeout {
                    break None;
                }
                self.central.pump(Duration::ZERO)?;
            };
            if reply.is_none() {
                self.links[u] = None;
            }
            answers.push((u, reply));
        }
        Ok(answers)
    }
}

impl Carrier for Units<'_> {
    fn feed(&mut self, scan: NodeId, batch: &mut ColumnBatch) -> ExecResult<()> {
        let (u, local) = (self.dep.unit_of[scan], self.dep.local_of[scan]);
        if u == 0 {
            self.central.feed(local, batch)?;
        } else {
            self.send(u, UnitCmd::Feed(local as u32, Batch::Columns(batch.take())))?;
        }
        // Whatever reached the boundary meanwhile.
        self.central.pump(Duration::ZERO)
    }

    /// One `Extract` round trip per leaf unit: flush to the boundary,
    /// then extract. Combining the two per unit is sound because no
    /// absorb goes out until *every* reply is in — by then the whole
    /// fleet is flushed to the boundary. The central unit's jobs — the
    /// aggregator host's own partitions — are applied to its engine in
    /// place, before any command goes out.
    fn extract(
        &mut self,
        handoff: &Handoff<'_>,
        jobs: Vec<ExtractJob>,
    ) -> ExecResult<(Vec<StateRows>, bool)> {
        // unit → (global node ids, the jobs by the unit's local ids)
        let mut by_unit: BTreeMap<usize, (Vec<NodeId>, Vec<ExtractJob>)> = BTreeMap::new();
        for job in jobs {
            let u = self.dep.unit_of[job.node];
            // Nothing has been extracted yet: aborting here leaves all
            // state in place.
            if u != 0 && self.links[u].is_none() {
                return Ok((Vec::new(), true));
            }
            let (globals, local) = by_unit.entry(u).or_default();
            globals.push(job.node);
            local.push(ExtractJob {
                node: self.dep.local_of[job.node],
                ..job
            });
        }
        let mut replies = Vec::new();
        if let Some((_, jobs)) = by_unit.get(&0) {
            let rows = self.central.extract(handoff.boundary, jobs)?;
            replies.push((0, Some(local_rows(rows))));
        }
        let cmds = by_unit
            .iter()
            .filter(|(&u, _)| u != 0)
            .map(|(&u, (_, jobs))| {
                let cmd = UnitCmd::Extract {
                    boundary: handoff.boundary,
                    partitions: handoff.partitions as u32,
                    assignment: handoff.next.to_vec(),
                    jobs: jobs
                        .iter()
                        .map(|j| (j.node as u32, j.owned.clone()))
                        .collect(),
                };
                (u, cmd)
            })
            .collect();
        replies.extend(self.round(cmds)?);
        let mut any_dead = false;
        let mut extracted = Vec::new();
        for (u, reply) in replies {
            let Some(batches) = reply else {
                any_dead = true;
                continue;
            };
            let (globals, jobs) = &by_unit[&u];
            for (local, rows) in batches {
                match jobs.iter().position(|j| j.node == local as NodeId) {
                    Some(i) => extracted.push((globals[i], rows)),
                    None => any_dead = true,
                }
            }
        }
        Ok((extracted, any_dead))
    }

    fn absorb(&mut self, batches: Vec<StateRows>) -> ExecResult<bool> {
        let mut by_unit: BTreeMap<usize, Vec<StateRows>> = BTreeMap::new();
        for (node, rows) in batches {
            by_unit
                .entry(self.dep.unit_of[node])
                .or_default()
                .push((self.dep.local_of[node], rows));
        }
        if let Some(batches) = by_unit.remove(&0) {
            self.central.absorb(batches)?;
        }
        let cmds = by_unit
            .into_iter()
            .map(|(u, batches)| (u, UnitCmd::Absorb(local_rows(batches))))
            .collect();
        // Only a dead unit fails to answer here.
        Ok(self.round(cmds)?.iter().all(|(_, reply)| reply.is_some()))
    }
}
