//! One execution unit ([`Unit`]), the loop that runs it behind a port
//! ([`run_unit`]), and the carrier the splitter reaches ported units
//! through ([`Units`]).
//!
//! A unit is one host's share of the plan in one engine, and a plain
//! value that never waits, sleeps or reads a clock: [`Unit::apply`]
//! takes one [`UnitCmd`] — a feed batch, or one half of a
//! drain-and-handoff — and answers it; the boundary output that
//! produces is cut into frames, encoded, and put through the fault
//! plan's per-edge corruptions, truncations and drops (functions of the
//! frame sequence alone), for [`Unit::take_frames`]; [`Unit::finish`]
//! ends the stream. Three drivers run it. A worker thread
//! ([`crate::run_distributed_threaded`]) and a `qapctl host` session
//! ([`crate::serve_host`]) run [`run_unit`] over a [`UnitPort`] — an
//! in-process inbox ([`ChannelPort`]) or the session socket
//! ([`StreamPort`]); the loop owns the injected hang, slow sends and
//! worker panic, and the channel port the bounded retry on a full
//! boundary buffer. The simulator ([`crate::run_distributed`]) owns
//! every unit on one thread and delivers their frames itself.
//!
//! Per-port FIFO is the protocol's ordering guarantee: by the time a
//! unit sees `Extract`, every earlier `Feed` on the same port has been
//! applied — the drain step of drain-and-handoff. The end of the port
//! is end-of-stream.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crossbeam::channel as chan;
use qap_exec::{
    BatchConfig, Engine, ExecError, ExecResult, FailureCause, HostFailure, OpCounters, OpMetrics,
};
use qap_obs::SharedGauge;
use qap_optimizer::DistributedPlan;
use qap_partition::{HashPartitioner, PartitionSet};
use qap_plan::{NodeId, QueryDag};
use qap_types::{
    encode_column_batch, Bytes, BytesMut, ColumnBatch, ControlFrame, Tuple, FRAME_HEADER_LEN,
};

use crate::deploy::{decode_unit_cmd, encode_unit_reply};
use crate::link::{
    read_control, ChannelSink, DuplexStream, Frame, FrameSink, SendOutcome, StreamSink,
};
use crate::rebalance::{Carrier, BUCKETS_PER_PARTITION};
use crate::splitter::Batch;
use crate::threaded::{Central, Deployment};
use crate::transport::{EdgeTransport, FaultPlan};

/// One execution unit's description: the id maps that address its
/// data, the deployed partitioning set, and every knob that shapes its
/// execution — batch size, frame size and fault plan.
///
/// [`crate::threaded::slice_unit`] builds it next to the sliced DAG,
/// and [`Unit::new`] takes both. Nothing serializes it: a host process
/// derives the same pair from the same plan, which it plans again from
/// the `Deploy` payload's text ([`crate::deploy`]).
#[derive(Debug, Clone)]
pub(crate) struct UnitSpec {
    /// Cluster host id this unit executes as.
    pub(crate) host: u32,
    /// The deployed partitioning set (empty under round-robin): what an
    /// `Extract` re-keys the unit's aggregates by.
    pub(crate) set: PartitionSet,
    /// Boundary inputs: (global producer id, local pseudo-source id).
    pub(crate) inputs: Vec<(u32, u32)>,
    /// Boundary producers: (global node id, local node id).
    pub(crate) boundary: Vec<(u32, u32)>,
    /// Plan outputs hosted here: (output index, local node id).
    pub(crate) outputs: Vec<(u32, u32)>,
    /// Engine batch size ([`qap_exec::BatchConfig::max_batch`]).
    pub(crate) max_batch: u32,
    /// Tuples staged per boundary frame.
    pub(crate) frame_batch: u32,
    /// Deterministic fault plan, part of the description so chaos tests
    /// inject the same faults in-process and across processes.
    pub(crate) fault: FaultPlan,
}

/// One unit's results, stitched back into global vectors by
/// [`crate::sim::stitch`]: per-local-node counters and metrics, any
/// plan outputs hosted on the unit, the measured per-edge transport,
/// and the send-path tallies summed into [`crate::TransportMetrics`].
#[derive(Debug, Clone)]
pub(crate) struct UnitOutcome {
    /// Per-local-node semantic counters.
    pub(crate) counters: Vec<OpCounters>,
    /// Per-local-node observability metrics.
    pub(crate) node_metrics: Vec<OpMetrics>,
    /// Plan outputs hosted on this unit: (output index, lanes).
    pub(crate) outputs: Vec<(u32, ColumnBatch)>,
    /// Measured per-edge transport.
    pub(crate) edges: Vec<EdgeTransport>,
    /// Backpressure stalls the unit's send path observed.
    pub(crate) stalls: u64,
    /// Frames the fault plan dropped before the wire.
    pub(crate) dropped: u64,
}

/// What a unit is asked to do. Node ids are the unit's *local* ids.
#[derive(Debug)]
pub(crate) enum UnitCmd {
    /// Consume one batch at the given scan or boundary input. No reply.
    Feed(u32, Batch),
    /// Force-close windows before `boundary` on each job's node, then
    /// extract every group whose key re-routes away from the node's
    /// owned partitions under the new table; reply with the state rows
    /// and each row's partition under that table. The
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
    /// Merge shipped state rows, (local node id, state), into each
    /// node's group table; reply with an empty acknowledgement.
    Absorb(Vec<(u32, ColumnBatch)>),
}

/// A unit's answer to `Extract` or `Absorb` (empty): per local node
/// that shipped state, the state rows and each row's partition under
/// the new table — where the row goes, decided here and nowhere else.
pub(crate) type UnitReply = Vec<(u32, ColumnBatch, Vec<u32>)>;

/// Per-boundary-producer framing state within one unit.
struct EdgeStage {
    /// Local sink id inside the unit's engine.
    local: NodeId,
    /// The frame being filled, short of `frame_batch` rows between
    /// calls: cut into straight from the engine's boundary sink and
    /// encoded off these lanes, so no tuple is built on the way out.
    pending: ColumnBatch,
    /// 1-based frame sequence number for deterministic fault selection;
    /// advances even for frames the fault plan drops (unlike
    /// `stats.frames`, which counts only shipped frames).
    seq: u64,
    /// Measured transport for this edge.
    stats: EdgeTransport,
}

/// One execution unit: its engine, its boundary framing, and the frames
/// cut but not yet taken.
pub(crate) struct Unit<'a> {
    spec: &'a UnitSpec,
    dag: &'a QueryDag,
    engine: Engine,
    edges: Vec<EdgeStage>,
    scratch: BytesMut,
    frames: Vec<Frame>,
    /// Frames the fault plan dropped.
    dropped: u64,
    /// Local operators ended so far: a prefix of the topological order.
    done: usize,
    /// Tuples fed to the engine so far.
    pub(crate) fed: u64,
}

impl<'a> Unit<'a> {
    /// Builds the unit's one engine over its slice of the plan.
    pub(crate) fn new(spec: &'a UnitSpec, dag: &'a QueryDag) -> ExecResult<Unit<'a>> {
        let locals =
            |ids: &[(u32, u32)]| -> Vec<NodeId> { ids.iter().map(|&(_, l)| l as NodeId).collect() };
        let sinks = [locals(&spec.outputs), locals(&spec.boundary)].concat();
        let mut engine = Engine::with_sinks(dag, &sinks)?;
        engine.set_batch_config(BatchConfig::new(spec.max_batch as usize));
        let edges = spec
            .boundary
            .iter()
            .map(|&(g, l)| EdgeStage {
                local: l as NodeId,
                pending: ColumnBatch::new(dag.schema(l as NodeId).arity()),
                seq: 0,
                stats: EdgeTransport {
                    producer: g as NodeId,
                    from_host: spec.host as usize,
                    ..EdgeTransport::default()
                },
            })
            .collect();
        Ok(Unit {
            spec,
            dag,
            engine,
            edges,
            scratch: BytesMut::new(),
            frames: Vec::new(),
            dropped: 0,
            done: 0,
            fed: 0,
        })
    }

    /// Applies one command, cutting the boundary frames it completes;
    /// `Extract` and `Absorb` are answered, a feed is not. A node the
    /// unit does not run (a feed to a non-source) is a typed error.
    pub(crate) fn apply(&mut self, cmd: UnitCmd) -> ExecResult<Option<UnitReply>> {
        let reply = match cmd {
            UnitCmd::Feed(local, Batch::Columns(mut cols)) => {
                return self.feed(local as NodeId, &mut cols).map(|()| None);
            }
            UnitCmd::Feed(local, Batch::Frame(frame)) => {
                self.fed += self.engine.push_frame(local as NodeId, frame)? as u64;
                None
            }
            UnitCmd::Extract {
                boundary,
                partitions,
                assignment,
                jobs,
            } => Some(self.extract(boundary, partitions, assignment, jobs)?),
            UnitCmd::Absorb(batches) => {
                for (node, state) in batches {
                    self.engine.absorb_state(node as NodeId, &state)?;
                }
                Some(Vec::new())
            }
        };
        self.cut()?;
        Ok(reply)
    }

    /// A `Feed` of lanes the caller keeps: drains `batch` in place, the
    /// engine swapping it against a pooled buffer.
    pub(crate) fn feed(&mut self, local: NodeId, batch: &mut ColumnBatch) -> ExecResult<()> {
        self.fed += batch.rows() as u64;
        self.engine.push_columns(local, batch)?;
        self.cut()
    }

    /// The extract half of a handoff: force-close windows before
    /// `boundary` on every job's node, then extract from each the groups
    /// that route outside its owned partitions under the new table,
    /// noting each one's partition there.
    fn extract(
        &mut self,
        boundary: u64,
        partitions: u32,
        assignment: Vec<u32>,
        jobs: Vec<(u32, Vec<u32>)>,
    ) -> ExecResult<UnitReply> {
        if assignment.is_empty() || assignment.iter().any(|&p| p >= partitions) {
            return Err(ExecError::BadPlan(
                "migrate table is empty or names a nonexistent partition".into(),
            ));
        }
        let mut keyed = Vec::with_capacity(jobs.len());
        for (node, owned) in jobs {
            // Every node is flushed before any is extracted from; one the
            // unit does not run is a typed error.
            let node = node as NodeId;
            self.engine.flush_before(node, boundary)?;
            let mut keyp = HashPartitioner::with_buckets(
                &self.spec.set,
                self.dag.schema(node),
                partitions as usize,
                BUCKETS_PER_PARTITION,
            )
            .map_err(|e| ExecError::BadPlan(format!("migrate partitioner: {e}")))?;
            keyp.set_assignment(assignment.clone());
            keyed.push((node, keyp, owned));
        }
        let mut extracted = Vec::new();
        let mut key = Tuple::default();
        for (node, keyp, owned) in keyed {
            let mut parts = Vec::new();
            let state = self.engine.extract_state(node, &mut |vals| {
                key.clear();
                vals.iter().for_each(|v| key.push(v.clone()));
                let p = keyp.partition(&key) as u32;
                let moves = !owned.contains(&p);
                if moves {
                    parts.push(p);
                }
                moves
            })?;
            if !state.is_empty() {
                extracted.push((node as u32, state, parts));
            }
        }
        Ok(extracted)
    }

    /// The boundary frames cut since the last call, in cut order:
    /// encoded, with the fault plan applied.
    pub(crate) fn take_frames(&mut self) -> std::vec::Drain<'_, Frame> {
        self.frames.drain(..)
    }

    /// Ends the stream for the local operators up to `last` only (see
    /// [`Engine::finish_through`]), cutting the final frame of every
    /// boundary producer among them: how the simulator ends units that
    /// feed each other.
    pub(crate) fn finish_through(&mut self, last: NodeId) -> ExecResult<()> {
        self.engine.finish_through(last)?;
        self.done = self.done.max(last.saturating_add(1));
        self.cut()
    }

    /// Ends the stream: the engine finishes, the final frames are cut,
    /// and the unit's results are read out.
    pub(crate) fn finish(&mut self) -> ExecResult<UnitOutcome> {
        self.finish_through(NodeId::MAX)?;
        let engine = &mut self.engine;
        Ok(UnitOutcome {
            counters: engine.counters().to_vec(),
            node_metrics: engine.metrics(),
            outputs: (self.spec.outputs.iter())
                .map(|&(idx, l)| (idx, engine.drain_boundary(l as NodeId).unwrap_or_default()))
                .collect(),
            edges: self.edges.iter().map(|e| e.stats).collect(),
            stalls: 0,
            dropped: self.dropped,
        })
    }

    /// Drains each boundary sink, as lanes, and cuts every frame the
    /// drained rows complete: `frame_batch` rows each, off the front of
    /// the producer's output sequence — plus, once the producer has
    /// ended, the partial tail frame. Frames per edge are deterministic:
    /// that sequence is fixed by the plan and trace, and chunking is
    /// positional.
    fn cut(&mut self) -> ExecResult<()> {
        let Unit {
            spec,
            engine,
            edges,
            scratch,
            frames,
            dropped,
            done,
            ..
        } = self;
        // Encodes the edge's pending rows as one frame straight off their
        // lanes and applies the fault plan; a dropped frame never counts
        // as shipped.
        let mut encode = |edge: &mut EdgeStage| -> ExecResult<()> {
            let frame = encode_column_batch(&edge.pending, scratch)?;
            let (tuples, len) = (edge.pending.rows() as u64, frame.len());
            edge.pending.clear();
            edge.seq += 1;
            match inject_frame_fault(&spec.fault, edge.seq, frame) {
                None => *dropped += 1,
                Some(frame) => {
                    edge.stats.frames += 1;
                    edge.stats.tuples += tuples;
                    edge.stats.bytes += (len - FRAME_HEADER_LEN) as u64;
                    frames.push((edge.stats.producer, frame));
                }
            }
            Ok(())
        };
        let frame_batch = spec.frame_batch.max(1) as usize;
        for edge in edges.iter_mut() {
            if let Some(drained) = engine.drain_boundary(edge.local) {
                let mut at = 0;
                while edge.pending.rows() + (drained.rows() - at) >= frame_batch {
                    let cut = at + frame_batch - edge.pending.rows();
                    edge.pending.append_range(&drained, at..cut);
                    at = cut;
                    encode(edge)?;
                }
                edge.pending.append_range(&drained, at..drained.rows());
            }
            if edge.local < *done && !edge.pending.is_empty() {
                encode(edge)?;
            }
        }
        Ok(())
    }
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

/// A run's receive side: boundary frames applied at the units that
/// consume them, and the failures observed there. Strict mode fails the
/// run on the first failure; partial mode records each and carries on.
#[derive(Default)]
pub(crate) struct Inbound {
    partial: bool,
    /// Tuples received across the boundary (failure attribution).
    rx_tuples: u64,
    pub(crate) failures: Vec<HostFailure>,
    /// Corrupt frames detected, recorded and discarded (partial mode).
    pub(crate) corrupt_dropped: u64,
    /// Peak boundary frames in flight over the run.
    pub(crate) queue_peak: u64,
}

impl Inbound {
    pub(crate) fn new(partial: bool) -> Inbound {
        Inbound {
            partial,
            ..Inbound::default()
        }
    }

    /// A failure observed on the receive side, charged to `host`.
    pub(crate) fn observe(&mut self, host: usize, cause: FailureCause) -> ExecResult<()> {
        let failure = HostFailure {
            host,
            cause,
            tuples_processed: self.rx_tuples,
        };
        if self.partial {
            self.failures.push(failure);
            Ok(())
        } else {
            Err(failure.into())
        }
    }

    /// Applies one boundary frame at the unit consuming it, decoded
    /// straight into the engine's pooled buffers. A frame that does not
    /// decode is a [`FailureCause::Decode`] charged to the producer's
    /// host; partial mode drops it and keeps consuming.
    pub(crate) fn deliver(
        &mut self,
        unit: &mut Unit<'_>,
        plan: &DistributedPlan,
        (producer, frame): Frame,
    ) -> ExecResult<()> {
        let inputs = &unit.spec.inputs;
        let Some(&(_, local)) = inputs.iter().find(|&&(g, _)| g as NodeId == producer) else {
            return Err(ExecError::BadPlan(format!(
                "boundary frame from node {producer}, which the unit does not consume"
            )));
        };
        let fed = unit.fed;
        match unit.apply(UnitCmd::Feed(local, Batch::Frame(frame))) {
            Ok(_) => self.rx_tuples += unit.fed - fed,
            Err(ExecError::Wire(e)) => {
                self.observe(plan.host[producer], FailureCause::Decode(e))?;
                self.corrupt_dropped += 1;
            }
            Err(other) => return Err(other),
        }
        Ok(())
    }
}

/// How commands reach a unit and how its replies and boundary frames
/// leave it.
pub(crate) trait UnitPort {
    /// The next command, in order; `None` is end-of-stream.
    fn next(&mut self) -> ExecResult<Option<UnitCmd>>;
    /// Answers the `Extract`/`Absorb` just applied.
    fn reply(&mut self, reply: UnitReply) -> ExecResult<()>;
    /// Ships one boundary frame; returns how many times the port found
    /// its buffer full first.
    fn ship(&mut self, frame: Frame) -> Result<u64, FailureCause>;
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
    /// Bound on the retries of one frame against a full channel.
    pub(crate) timeout: Duration,
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

    /// A non-blocking attempt first; on a full channel, retries with
    /// exponential backoff bounded by the send timeout, so a consumer
    /// that never drains surfaces as a typed [`FailureCause::Timeout`]
    /// instead of wedging the unit. A dropped receiver (central error
    /// path) discards the frame — never a deadlock.
    fn ship(&mut self, mut frame: Frame) -> Result<u64, FailureCause> {
        let (mut fulls, started) = (0, Instant::now());
        let mut backoff = Duration::from_micros(100);
        loop {
            self.depth.inc();
            let sent = self.sink.try_send(frame).map_err(FailureCause::Link);
            if let Ok(SendOutcome::Sent) = sent {
                return Ok(fulls);
            }
            self.depth.dec();
            let Ok(SendOutcome::Full(back)) = sent else {
                return sent.map(|_| fulls);
            };
            frame = back;
            fulls += 1;
            let waited = started.elapsed();
            if fulls > 1 {
                if waited >= self.timeout {
                    let waited_ms = waited.as_millis() as u64;
                    return Err(FailureCause::Timeout { waited_ms });
                }
                std::thread::sleep(backoff.min(self.timeout - waited));
                backoff = (backoff * 2).min(Duration::from_millis(10));
            }
        }
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

    /// A socket never reports a full buffer: a slow consumer blocks the
    /// write instead. A broken link is a typed [`FailureCause::Link`].
    fn ship(&mut self, frame: Frame) -> Result<u64, FailureCause> {
        self.sink.try_send(frame).map_err(FailureCause::Link)?;
        Ok(0)
    }
}

/// Runs one unit to completion behind a port: applies the port's
/// commands in order, answers each handoff half, and ships the boundary
/// frames each command produced; the end of the port finishes the unit
/// and ships its tail. The injected hang (once, before the first
/// command), slow sends and the worker panic happen here, not in the
/// unit. `progress` follows the tuples fed, batch by batch, so a panic
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
    let (host, fault) = (spec.host as usize, spec.fault);
    // Finite by construction — whoever started the unit must eventually
    // join it.
    if fault.hang_host == Some(host) && fault.hang_millis > 0 {
        std::thread::sleep(Duration::from_millis(fault.hang_millis));
    }
    let panic_at = (fault.panic_host == Some(host)).then_some(fault.panic_after_tuples);
    let mut unit = Unit::new(spec, dag)?;
    // The send path's tallies: frames that first found the port's
    // buffer full, and further full-buffer attempts per boundary edge.
    let (mut stalls, mut retries) = (0, vec![0; spec.boundary.len()]);
    // Ships the unit's new frames, each after the slow host's delay; a
    // port that fails is this host's typed failure.
    let mut ship = |unit: &mut Unit<'_>, port: &mut P| -> ExecResult<()> {
        let fed = unit.fed;
        for (producer, frame) in unit.take_frames() {
            if fault.slow_host == Some(host) && fault.slow_micros > 0 {
                std::thread::sleep(Duration::from_micros(fault.slow_micros));
            }
            let failed = |cause| HostFailure {
                host,
                cause,
                tuples_processed: fed,
            };
            let fulls = port.ship((producer, frame)).map_err(failed)?;
            if fulls > 0 {
                stalls += 1;
                let edge = spec
                    .boundary
                    .iter()
                    .position(|&(g, _)| g as NodeId == producer);
                retries[edge.unwrap_or(0)] += fulls - 1;
            }
        }
        Ok(())
    };
    while let Some(cmd) = port.next()? {
        let reply = unit.apply(cmd)?;
        progress.store(unit.fed, Ordering::Relaxed);
        if let Some(at) = panic_at.filter(|&at| unit.fed >= at) {
            let fed = unit.fed;
            panic!("injected worker fault after {fed} tuples (plan: panic at {at})");
        }
        if let Some(reply) = reply {
            port.reply(reply)?;
        }
        ship(&mut unit, port)?;
    }
    let mut outcome = unit.finish()?;
    ship(&mut unit, port)?;
    outcome.stalls = stalls;
    for (edge, retries) in outcome.edges.iter_mut().zip(retries) {
        edge.retries = retries;
    }
    Ok(outcome)
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
/// which runs on the feed loop's own thread — applied in place. In-process
/// the worker thread holds the other ends ([`ChannelPort`]); over
/// sockets a session's writer drains the inbox into control frames and
/// its reader pump turns `MigrateAck`s into replies. A unit without a
/// link — it never deployed, its inbox closed, or it stayed silent past
/// the control timeout — is dead: it is fed no more, and its typed
/// failure surfaces where the unit is harvested.
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
            links: dep.units.iter().map(|_| None).collect(),
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
}

impl Carrier for Units<'_> {
    fn feed(&mut self, scan: NodeId, batch: &mut ColumnBatch) -> ExecResult<()> {
        let (u, local) = (self.dep.unit_of[scan], self.dep.local_of[scan]);
        if u == 0 {
            self.central.unit.feed(local, batch)?;
        } else {
            let cmd = UnitCmd::Feed(local as u32, Batch::Columns(batch.take()));
            self.send(u, cmd)?;
        }
        // Whatever reached the boundary meanwhile.
        self.central.pump(Duration::ZERO)
    }

    /// The central unit's command is applied in place before any other
    /// goes out; then every leaf command goes out before the first wait
    /// for a reply, pumping the boundary meanwhile. A unit that cannot
    /// be reached or does not answer within the control timeout yields
    /// `None` and is marked dead.
    fn round(
        &mut self,
        cmds: Vec<(usize, UnitCmd)>,
    ) -> ExecResult<Vec<(usize, Option<UnitReply>)>> {
        let mut answers = Vec::new();
        let mut asked = Vec::new();
        for (u, cmd) in cmds {
            if u == 0 {
                answers.push((0, self.central.unit.apply(cmd)?));
            } else {
                // A failed send leaves no link, which reads as no reply.
                self.send(u, cmd)?;
                asked.push(u);
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::tests::skew_case;
    use crate::SimConfig;
    use qap_plan::LogicalNode;
    use qap_types::{DataType, TypeError, Value};

    /// Migrated state sent to an operator that keeps no keyed state (a
    /// scan, σπ, ⋈ or ∪) is a typed error, never a silent drop.
    #[test]
    fn absorb_into_a_stateless_node_is_an_error() {
        let (plan, _, _) = skew_case();
        let dep = Deployment::new(&plan, &SimConfig::default()).unwrap();
        let (spec, dag) = &dep.units[1];
        let mut unit = Unit::new(spec, dag).unwrap();
        let stateless: Vec<NodeId> = (dag.topo_order())
            .filter(|&n| !matches!(dag.node(n), LogicalNode::Aggregate { .. }))
            .collect();
        assert!(!stateless.is_empty());
        let row = Tuple::new(vec![Value::UInt(60), Value::UInt(7), Value::UInt(1)]);
        for local in stateless {
            let state = ColumnBatch::from_rows(std::slice::from_ref(&row));
            let got = unit.apply(UnitCmd::Absorb(vec![(local as u32, state)]));
            assert!(
                matches!(got, Err(ExecError::BadPlan(_))),
                "node {local}: {got:?}"
            );
        }
    }

    /// Migrated state whose lanes are not of the aggregate's state kinds
    /// — a string where the group key is `uint` — is a typed error,
    /// never a lane of another kind in the group table.
    #[test]
    fn absorb_of_another_kind_is_an_error() {
        let (plan, _, _) = skew_case();
        let dep = Deployment::new(&plan, &SimConfig::default()).unwrap();
        let (spec, dag) = &dep.units[1];
        let mut unit = Unit::new(spec, dag).unwrap();
        let agg = (dag.topo_order())
            .find(|&n| matches!(dag.node(n), LogicalNode::Aggregate { .. }))
            .unwrap();
        // `flows`' state row: tb, srcIP, COUNT's count, SUM's two words.
        let row = |src: Value| {
            Tuple::new(vec![
                Value::UInt(60),
                src,
                Value::UInt(1),
                Value::UInt(0),
                Value::UInt(5),
            ])
        };
        let good = ColumnBatch::from_rows(&[row(Value::UInt(7))]);
        assert!(unit
            .apply(UnitCmd::Absorb(vec![(agg as u32, good)]))
            .is_ok());
        let odd = ColumnBatch::from_rows(&[row(Value::from("7"))]);
        let got = unit.apply(UnitCmd::Absorb(vec![(agg as u32, odd)]));
        let Err(ExecError::Wire(TypeError::KindMismatch {
            column,
            row,
            expected,
            found,
        })) = got
        else {
            panic!("{got:?}");
        };
        assert_eq!((column.as_str(), row), ("srcIP", 0));
        assert_eq!((expected, found), (DataType::UInt, DataType::Str));
    }

    /// A boundary frame whose lanes are not of the kinds its consumer's
    /// input declares is a `Decode` failure charged to the producing
    /// host: strict mode returns it, partial mode records it, drops the
    /// frame and keeps consuming to the end of the run.
    #[test]
    fn an_off_kind_boundary_frame_is_a_decode_failure_of_its_producer() {
        let plan = crate::experiments::Scenario::SimpleAgg.plan("Naive", 3);
        let dep = Deployment::new(&plan, &SimConfig::default()).unwrap();
        let (spec, dag) = &dep.units[0];
        let &(producer, local) = spec.inputs.first().expect("the central unit has inputs");
        let fields = dag.schema(local as NodeId).fields();
        let frame = |text: bool| {
            let row = fields.iter().map(|f| match (text, f.data_type()) {
                (true, DataType::UInt) => Value::from("x"),
                _ => Value::UInt(3),
            });
            let batch = ColumnBatch::from_rows(&[Tuple::new(row.collect())]);
            (
                producer as NodeId,
                encode_column_batch(&batch, &mut BytesMut::new()).unwrap(),
            )
        };
        let host = plan.host[producer as NodeId];
        let is_kind_mismatch = |c: &FailureCause| {
            matches!(
                c,
                FailureCause::Decode(TypeError::KindMismatch {
                    found: DataType::Str,
                    ..
                })
            )
        };

        let mut unit = Unit::new(spec, dag).unwrap();
        let got = Inbound::new(false).deliver(&mut unit, &plan, frame(true));
        let Err(ExecError::Host(failure)) = got else {
            panic!("{got:?}");
        };
        assert_eq!(failure.host, host);
        assert!(is_kind_mismatch(&failure.cause), "{:?}", failure.cause);

        let mut unit = Unit::new(spec, dag).unwrap();
        let mut inbound = Inbound::new(true);
        inbound.deliver(&mut unit, &plan, frame(true)).unwrap();
        inbound.deliver(&mut unit, &plan, frame(false)).unwrap();
        assert_eq!(inbound.corrupt_dropped, 1);
        assert_eq!(inbound.failures.len(), 1);
        assert_eq!(inbound.failures[0].host, host);
        assert!(is_kind_mismatch(&inbound.failures[0].cause));
        assert_eq!(unit.fed, 1, "the well-typed frame is consumed");
        unit.finish().expect("the run finishes");
    }
}
