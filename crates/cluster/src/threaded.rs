//! Multi-threaded cluster execution over framed, bounded boundary
//! transport.
//!
//! Where [`crate::run_distributed`] executes the whole physical plan in
//! one deterministic engine, this runner actually *distributes* it. The
//! plan is decomposed into **execution units**:
//!
//! - the **central unit** — the aggregation tier (`plan.central`
//!   nodes), run by the calling thread;
//! - one **leaf unit** per independent partition pipeline — a connected
//!   component of non-central nodes on one host — each run by its own
//!   worker thread. A host owning N partition scans therefore runs N
//!   workers, so a 4-host deployment scales with cores instead of
//!   serializing each host's partitions on one thread
//!   ([`TransportConfig::partition_parallel`]; turning it off restores
//!   the one-thread-per-host baseline).
//!
//! A splitter thread runs the shared feed loop
//! ([`crate::rebalance::drive`]): it routes the trace and streams each
//! staged batch into the owning unit's unbounded inbox. Leaf units
//! apply their inbox in order; the central unit, when the decomposition
//! leaves it scans of its own (host-serial), drains its inbox first and
//! then the boundary. Static partitioning is that loop with no
//! rebalance controller attached; with one, the same inboxes carry the
//! two halves of each drain-and-handoff. One [`stitch`] merges the unit
//! results (the socket coordinator in [`crate::remote`] reuses it, the
//! decomposition and the central unit).
//!
//! Boundary data crosses units as **length-prefixed wire frames** (up
//! to [`TransportConfig::frame_batch`] tuples per frame, staged through
//! reusable scratch) over a **bounded** channel of
//! [`TransportConfig::channel_capacity`] frames: a producer that
//! outruns the central consumer blocks — backpressure — instead of
//! buffering unboundedly. Frames carry either representation: columnar
//! (SoA) payloads ([`qap_types::encode_column_batch`], the default —
//! the receiving engine keeps them columnar through its vectorized hot
//! path) or row-major payloads ([`qap_types::encode_batch`], the
//! [`TransportConfig::with_columnar`]`(false)` baseline, whose payload
//! length is exactly `Σ encoded_len(tuple)` — the Section 4.2.1 cost
//! model's estimate). The encoded frames double as the *measured* byte
//! source ([`TransportMetrics`]) either way.
//!
//! Results are identical to the single-threaded simulator at every
//! capacity/frame-size setting (the engines' merge operators align
//! independently-progressing inputs), which the transport equivalence
//! suite checks.
//!
//! # Fault tolerance
//!
//! Host faults are first-class operating conditions, not panics. A
//! worker panic is caught ([`std::panic::catch_unwind`]) and surfaces
//! as a typed [`HostFailure`] with
//! [`FailureCause::Panic`]; a corrupt boundary frame surfaces as
//! [`FailureCause::Decode`] attributed to the producing host; a peer
//! that neither produces nor accepts a frame within
//! [`TransportConfig::send_timeout_ms`] surfaces as
//! [`FailureCause::Timeout`] instead of deadlocking the run (producers
//! retry a full channel with bounded backoff; the central consumer
//! bounds its receive wait). In strict mode (the default) the first
//! failure aborts the run as `Err(ExecError::Host(..))`; with
//! [`TransportConfig::partial_results`] surviving hosts finish their
//! epochs and the [`SimResult`] carries the per-host failure records
//! plus conservation-checked partial counters. A deterministic
//! [`FaultPlan`] injects each fault class on demand for the chaos
//! suite; the default plan injects nothing and leaves the clean path
//! bit-identical.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use qap_exec::{
    BatchConfig, Engine, ExecError, ExecResult, FailureCause, HostFailure, OpCounters, OpMetrics,
};
use crossbeam::channel as chan;
use qap_obs::SharedGauge;
use qap_optimizer::DistributedPlan;
use qap_plan::{LogicalNode, NodeId, QueryDag};
use qap_types::{
    encode_batch, encode_column_batch, Bytes, BytesMut, ColumnBatch, Tuple, FRAME_HEADER_LEN,
};

use crate::link::{ChannelTransport, FrameSink, FrameSource, RecvOutcome, SendOutcome, Transport};
use crate::rebalance::{
    drive, extract_rerouted, Carrier, ControlStats, Controller, ExtractJob, Handoff, StateRows,
};
use crate::sim::{account, named_outputs, trace_duration, SimConfig, SimResult};
use crate::splitter::{single_stream, Batch, Splitter, Staged, StreamScans};
use crate::transport::{EdgeTransport, FaultPlan, TransportConfig, TransportMetrics};

/// One execution unit's slice of the plan.
#[derive(Debug)]
pub(crate) struct UnitPlan {
    /// Executing host (for transport attribution).
    pub(crate) host: usize,
    pub(crate) dag: QueryDag,
    /// global node id → local node id.
    pub(crate) local: HashMap<NodeId, NodeId>,
    /// global producer id → local pseudo-source id (remote inputs).
    pub(crate) remote_in: HashMap<NodeId, NodeId>,
    /// Global ids (in this unit) whose output crosses to another unit.
    pub(crate) boundary: Vec<NodeId>,
    /// Plan outputs hosted here: (output index, global node id).
    pub(crate) outputs: Vec<(usize, NodeId)>,
}

/// Clones the sub-plan induced by `nodes` (a deterministic, topo-ordered
/// subset), registering a pseudo-source for every edge arriving from
/// outside the unit.
pub(crate) fn slice_unit(plan: &DistributedPlan, nodes: &[NodeId]) -> ExecResult<UnitPlan> {
    let mut in_unit = vec![false; plan.dag.len()];
    for &id in nodes {
        in_unit[id] = true;
    }
    // An empty node set is a decomposition bug: silently pinning a
    // hostless unit to host 0 would mis-attribute its work (and its
    // failures) — reject it at planning time instead.
    let host = match nodes.first() {
        Some(&id) => plan.host[id],
        None => {
            return Err(ExecError::BadPlan(
                "execution unit has no nodes (empty component in the unit decomposition)".into(),
            ))
        }
    };

    let mut local: HashMap<NodeId, NodeId> = HashMap::new();
    let mut remote_in: HashMap<NodeId, NodeId> = HashMap::new();
    let mut catalog = plan.dag.catalog().clone();

    // First pass: register pseudo-streams for outside producers.
    for id in plan.dag.topo_order() {
        if !in_unit[id] {
            continue;
        }
        for child in plan.dag.node(id).children() {
            if !in_unit[child] && !remote_in.contains_key(&child) {
                let name = format!("__remote_{child}");
                catalog
                    .register(plan.dag.schema(child).renamed(name))
                    .map_err(|e| ExecError::BadPlan(format!("pseudo-stream clash: {e}")))?;
                remote_in.insert(child, usize::MAX); // placeholder
            }
        }
    }
    let mut dag = QueryDag::new(catalog);
    // Deterministic pseudo-source numbering: ascending producer id.
    let mut producers: Vec<NodeId> = remote_in.keys().copied().collect();
    producers.sort_unstable();
    for child in producers {
        let sid = dag
            .add_source(&format!("__remote_{child}"))
            .map_err(|e| ExecError::BadPlan(format!("pseudo-source: {e}")))?;
        remote_in.insert(child, sid);
    }

    // Second pass: clone this unit's nodes with remapped children.
    for id in plan.dag.topo_order() {
        if !in_unit[id] {
            continue;
        }
        let remap = |c: NodeId| -> NodeId {
            if in_unit[c] {
                local[&c]
            } else {
                remote_in[&c]
            }
        };
        let node = match plan.dag.node(id).clone() {
            LogicalNode::Source { stream, partition } => {
                let partition = partition.ok_or_else(|| {
                    ExecError::BadPlan("distributed plan contains an unpartitioned source".into())
                })?;
                let lid = dag
                    .add_partition_source(&stream, partition)
                    .map_err(|e| ExecError::BadPlan(e.to_string()))?;
                local.insert(id, lid);
                continue;
            }
            LogicalNode::SelectProject {
                input,
                predicate,
                projections,
            } => LogicalNode::SelectProject {
                input: remap(input),
                predicate,
                projections,
            },
            LogicalNode::Aggregate {
                input,
                predicate,
                group_by,
                aggregates,
                having,
            } => LogicalNode::Aggregate {
                input: remap(input),
                predicate,
                group_by,
                aggregates,
                having,
            },
            LogicalNode::Join {
                left,
                right,
                left_alias,
                right_alias,
                join_type,
                temporal,
                equi,
                residual,
                projections,
            } => LogicalNode::Join {
                left: remap(left),
                right: remap(right),
                left_alias,
                right_alias,
                join_type,
                temporal,
                equi,
                residual,
                projections,
            },
            LogicalNode::Merge { inputs } => LogicalNode::Merge {
                inputs: inputs.into_iter().map(remap).collect(),
            },
        };
        let lid = dag
            .add_node(node)
            .map_err(|e| ExecError::BadPlan(format!("unit subplan: {e}")))?;
        local.insert(id, lid);
    }

    // Boundary producers: nodes here consumed outside the unit.
    let mut boundary = Vec::new();
    for id in plan.dag.topo_order() {
        if !in_unit[id] {
            continue;
        }
        let crosses = plan.dag.parents(id).into_iter().any(|p| !in_unit[p]);
        if crosses {
            boundary.push(id);
        }
    }
    let outputs = plan
        .outputs
        .iter()
        .enumerate()
        .filter(|(_, o)| in_unit[o.node])
        .map(|(i, o)| (i, o.node))
        .collect();

    Ok(UnitPlan {
        host,
        dag,
        local,
        remote_in,
        boundary,
        outputs,
    })
}

/// Splits the plan into execution units: element 0 is the central unit
/// (run by the calling thread), the rest are leaf units (one worker
/// thread each). Falls back to one-unit-per-host when the
/// partition-parallel decomposition is not applicable (no central tier,
/// central nodes off the aggregator host, or leaf pipelines that span
/// hosts or consume central output).
pub(crate) fn compute_units(
    plan: &DistributedPlan,
    agg: usize,
    transport: &TransportConfig,
) -> Vec<Vec<NodeId>> {
    let n = plan.dag.len();
    let parallel_ok = transport.partition_parallel && {
        let mut any_central = false;
        let mut ok = true;
        for id in plan.dag.topo_order() {
            if plan.central[id] {
                any_central = true;
                if plan.host[id] != agg {
                    ok = false;
                }
            } else {
                for c in plan.dag.node(id).children() {
                    if plan.central[c] || plan.host[c] != plan.host[id] {
                        ok = false;
                    }
                }
            }
        }
        ok && any_central
    };

    if parallel_ok {
        // Union-find over the non-central subgraph: each connected
        // component is an independently schedulable leaf pipeline.
        let mut uf: Vec<usize> = (0..n).collect();
        fn find(uf: &mut [usize], mut x: usize) -> usize {
            while uf[x] != x {
                uf[x] = uf[uf[x]];
                x = uf[x];
            }
            x
        }
        for id in plan.dag.topo_order() {
            if plan.central[id] {
                continue;
            }
            for c in plan.dag.node(id).children() {
                if !plan.central[c] {
                    let (a, b) = (find(&mut uf, id), find(&mut uf, c));
                    uf[a.max(b)] = a.min(b);
                }
            }
        }
        let mut groups: HashMap<usize, Vec<NodeId>> = HashMap::new();
        for id in plan.dag.topo_order() {
            if !plan.central[id] {
                groups.entry(find(&mut uf, id)).or_default().push(id);
            }
        }
        let central: Vec<NodeId> = plan
            .dag
            .topo_order()
            .filter(|&id| plan.central[id])
            .collect();
        let mut leaves: Vec<Vec<NodeId>> = groups.into_values().collect();
        // Deterministic unit order: by smallest member id.
        leaves.sort_unstable_by_key(|g| g[0]);
        let mut units = vec![central];
        units.extend(leaves);
        units
    } else {
        // Host-serial baseline: the aggregator host is the central
        // unit, every other host one leaf unit.
        let hosts = plan.partitioning.hosts;
        let mut per_host: Vec<Vec<NodeId>> = vec![Vec::new(); hosts];
        for id in plan.dag.topo_order() {
            per_host[plan.host[id]].push(id);
        }
        let central = std::mem::take(&mut per_host[agg]);
        let mut units = vec![central];
        units.extend(per_host.into_iter().filter(|u| !u.is_empty()));
        units
    }
}

/// Everything a leaf worker's send path shares with the driver: the
/// boundary frame sink plus telemetry counters, the fault plan, and the
/// retry bound. One per worker (a channel sink is a cheap sender clone,
/// a socket sink owns its stream's write half; the counters are shared
/// references into driver-owned atomics).
pub(crate) struct TxShared<'a, S: FrameSink> {
    pub(crate) sink: S,
    /// Live boundary-buffer depth (in-flight frames).
    pub(crate) depth: &'a SharedGauge,
    /// First-refusal backpressure stalls, run-wide.
    pub(crate) stalls: &'a AtomicU64,
    /// Frames discarded by the fault plan's `drop_every` knob, run-wide.
    pub(crate) dropped: &'a AtomicU64,
    /// Tuples this worker has fed its engine — advanced batch by batch
    /// so a panic or fault mid-run reports the last consistent count in
    /// its [`HostFailure`].
    pub(crate) tuples: &'a AtomicU64,
    pub(crate) fault: FaultPlan,
    /// Bound on the full-buffer retry loop, in milliseconds (0 =
    /// unbounded blocking send, the pre-fault-tolerance behavior).
    pub(crate) send_timeout_ms: u64,
    /// Host this worker executes on (fault targeting + attribution).
    pub(crate) host: usize,
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

/// Renders a caught panic payload as the `FailureCause::Panic` message.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked (non-string payload)".into()
    }
}

/// One unit's results: stitched back into global vectors by the driver.
pub(crate) struct UnitRun {
    pub(crate) counters: Vec<OpCounters>,
    pub(crate) node_metrics: Vec<OpMetrics>,
    pub(crate) outputs: Vec<(usize, Vec<Tuple>)>,
    pub(crate) edges: Vec<EdgeTransport>,
}

/// The plan cut into execution units for one single-stream feed: what
/// the threaded runner and the socket coordinator both deploy.
pub(crate) struct Deployment {
    /// Unit slices; element 0 is the central unit.
    pub(crate) slices: Vec<UnitPlan>,
    /// Plan node → index of the unit that runs it.
    pub(crate) unit_of: Vec<usize>,
    pub(crate) scans: StreamScans,
}

impl Deployment {
    pub(crate) fn new(plan: &DistributedPlan, transport: &TransportConfig) -> ExecResult<Self> {
        let scans = single_stream(plan)?;
        let unit_nodes = compute_units(plan, plan.partitioning.aggregator_host, transport);
        let slices: Vec<UnitPlan> = unit_nodes
            .iter()
            .map(|nodes| slice_unit(plan, nodes))
            .collect::<ExecResult<_>>()?;
        // Leaf units must be channel-source-free: their only inputs are
        // trace partitions (the lowering sends leaf-tier data toward the
        // central tier, never back out), and the central unit must not
        // ship anything onward — otherwise the single rendezvous at the
        // central unit could deadlock.
        for s in &slices[1..] {
            if !s.remote_in.is_empty() {
                return Err(ExecError::BadPlan(format!(
                    "leaf unit on host {} unexpectedly consumes remote streams",
                    s.host
                )));
            }
        }
        if !slices[0].boundary.is_empty() {
            return Err(ExecError::BadPlan(
                "central unit unexpectedly ships boundary output".into(),
            ));
        }
        let mut unit_of = vec![0; plan.dag.len()];
        for (u, nodes) in unit_nodes.iter().enumerate() {
            for &id in nodes {
                unit_of[id] = u;
            }
        }
        Ok(Deployment {
            slices,
            unit_of,
            scans,
        })
    }

    /// Whether the central unit owns partition scans (host-serial: the
    /// aggregator host's own partitions run in its unit).
    pub(crate) fn central_owns_scans(&self) -> bool {
        self.scans.scan_of.iter().any(|&s| self.unit_of[s] == 0)
    }
}

/// One splitter batch for a (global) scan node — what the central
/// unit's inbox carries.
pub(crate) type FeedBatch = (NodeId, Batch);

/// Splitter→worker commands. Per-inbox FIFO is the protocol's ordering
/// guarantee: by the time a worker sees `Extract`, every earlier `Feed`
/// on the same inbox has been applied, which is exactly the drain step
/// of drain-and-handoff. Dropping the inbox is end-of-stream.
enum WorkerCmd {
    Feed(NodeId, Batch),
    /// Force-close windows before the boundary on every job's
    /// aggregate, then extract re-routed group state; reply with
    /// `(global node, rows)`. A dropped reply means the worker failed.
    Extract(u64, Vec<ExtractJob>, chan::Sender<Vec<StateRows>>),
    /// Merge shipped state rows into the listed (global) aggregates,
    /// then ack.
    Absorb(Vec<StateRows>, chan::Sender<()>),
}

/// Executes a distributed plan with partition-parallel worker threads
/// and framed, bounded boundary transport. Semantically identical to
/// [`crate::run_distributed`]; metrics are computed from the merged
/// per-unit counters with the same accounting, plus the *measured*
/// [`TransportMetrics`] from the frame path.
///
/// A splitter thread streams batches into the units' unbounded inboxes
/// as it routes and, when a rebalance controller is attached, brackets
/// each migration with `Extract` → `Absorb` over the same inboxes.
pub fn run_distributed_threaded(
    plan: &DistributedPlan,
    trace: &[Tuple],
    cfg: &SimConfig,
) -> ExecResult<SimResult> {
    let agg = plan.partitioning.aggregator_host;
    let transport = cfg.transport;
    let dep = Deployment::new(plan, &transport)?;
    let slices = &dep.slices;
    // Migration commands reach leaf workers only.
    let veto = dep
        .central_owns_scans()
        .then_some("host-serial unit decomposition: the central unit owns partition scans");
    let (mut controller, mut control) = Controller::attach(
        plan,
        transport.rebalance,
        std::slice::from_ref(&dep.scans),
        veto,
        None,
    );
    let mut splitter = Splitter::new(plan, &dep.scans, cfg, controller.is_some())?;

    // The boundary data path: one bounded frame channel fanning into
    // the central unit — producers block when `channel_capacity` frames
    // are in flight.
    let (tx, rx) = ChannelTransport.pair(transport.channel_capacity.max(1));
    let depth = SharedGauge::new();
    let stalls = AtomicU64::new(0);
    let dropped = AtomicU64::new(0);
    // Per-worker progress counters, owned by the driver so a panicking
    // worker's last consistent tuple count survives into its failure
    // record.
    let worker_tuples: Vec<AtomicU64> = (0..slices.len()).map(|_| AtomicU64::new(0)).collect();
    let batch_cfg = cfg.batch;
    let frame_batch = transport.frame_batch.max(1);
    let columnar = transport.columnar;

    let (driven, mut runs, mut failures, central) = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let mut inboxes = vec![None];
        for (u, slice) in slices.iter().enumerate().skip(1) {
            // Unbounded: a bounded inbox, a feed-first central unit and
            // a full boundary channel would deadlock three ways.
            let (cmd_tx, cmd_rx) = chan::unbounded();
            inboxes.push(Some(cmd_tx));
            let shared = TxShared {
                sink: tx.clone(),
                depth: &depth,
                stalls: &stalls,
                dropped: &dropped,
                tuples: &worker_tuples[u],
                fault: transport.fault,
                send_timeout_ms: transport.send_timeout_ms,
                host: slice.host,
            };
            // A worker panic (organic or injected) must not propagate:
            // catch it and let the harvest turn it into a typed
            // HostFailure. The closure's state is moved in and
            // abandoned on unwind, so AssertUnwindSafe is sound.
            handles.push(scope.spawn(move || {
                catch_unwind(AssertUnwindSafe(|| {
                    run_leaf_unit(slice, cmd_rx, batch_cfg, frame_batch, columnar, shared)
                }))
            }));
        }
        drop(tx);
        let (central_tx, central_rx) = chan::unbounded();
        let mut workers = Workers {
            inboxes,
            // A central unit without scans starts on the boundary at
            // once: its inbox closes here.
            central: dep.central_owns_scans().then_some(central_tx),
            unit_of: &dep.unit_of,
        };
        // The splitter gets a thread of its own; the central unit stays
        // on the calling thread, whose allocator arena outlives the run —
        // so a caller that runs many plans re-uses the central tier's
        // (large) working memory instead of stranding it per run.
        let (splitter, controller, control) = (&mut splitter, &mut controller, &mut control);
        let splitter_handle = scope.spawn(move || {
            let driven = drive(splitter, controller.as_mut(), control, trace, &mut workers);
            // End of stream: closing the inboxes lets each unit drain its
            // queue, finish its engine, and flush its tail frames.
            drop(workers);
            driven
        });
        let central = run_central_unit(
            &slices[0], central_rx, batch_cfg, rx, &depth, &plan.host, &transport, agg,
        );
        let driven = splitter_handle.join().unwrap_or_else(|payload| {
            Err(HostFailure {
                host: agg,
                cause: FailureCause::Panic(panic_message(payload)),
                tuples_processed: 0,
            }
            .into())
        });

        // Join every worker before inspecting the central result: even
        // a failing run must not leave a thread behind, and collecting
        // the outcomes here is what turns panics into typed records.
        let mut runs = Vec::new();
        let mut failures: Vec<HostFailure> = Vec::new();
        for (handle, u) in handles.into_iter().zip(1..) {
            let failed = |cause| HostFailure {
                host: slices[u].host,
                cause,
                tuples_processed: worker_tuples[u].load(Ordering::Relaxed),
            };
            match handle.join().unwrap_or_else(Err) {
                Ok(Ok(run)) => runs.push((u, run)),
                Ok(Err(ExecError::Host(f))) => failures.push(f),
                Ok(Err(e)) => failures.push(failed(FailureCause::Exec(Box::new(e)))),
                Err(payload) => failures.push(failed(FailureCause::Panic(panic_message(payload)))),
            }
        }
        (driven, runs, failures, central)
    });
    driven?;
    let central = central?;
    runs.insert(0, (0, central.run));
    failures.extend(central.failures);
    let totals = RunTotals {
        stalls: stalls.load(Ordering::Relaxed),
        dropped: dropped.load(Ordering::Relaxed),
        corrupt_dropped: central.corrupt_dropped,
        queue_peak: depth.peak(),
    };
    stitch(plan, cfg, &dep, trace, runs, failures, totals, control)
}

/// The threaded carrier: unit inboxes. A unit whose inbox has closed is
/// dead; its typed failure is harvested at join, and it is fed no more.
struct Workers<'a> {
    /// Leaf-unit inboxes by unit index (slot 0, the central unit, is
    /// never used).
    inboxes: Vec<Option<chan::Sender<WorkerCmd>>>,
    central: Option<chan::Sender<FeedBatch>>,
    unit_of: &'a [usize],
}

/// Queues `msg` on a unit's inbox; `false` — the inbox was already gone,
/// or its receiver is — marks the unit dead by closing the slot.
pub(crate) fn send_or_close<T>(inbox: &mut Option<chan::Sender<T>>, msg: T) -> bool {
    let sent = inbox.as_ref().is_some_and(|tx| tx.send(msg).is_ok());
    if !sent {
        *inbox = None;
    }
    sent
}

impl Workers<'_> {
    fn send(&mut self, u: usize, cmd: WorkerCmd) -> bool {
        send_or_close(&mut self.inboxes[u], cmd)
    }

    /// Groups per-node items by owning unit, in ascending unit order.
    fn by_unit<T>(&self, items: Vec<T>, node: impl Fn(&T) -> NodeId) -> BTreeMap<usize, Vec<T>> {
        let mut grouped: BTreeMap<usize, Vec<T>> = BTreeMap::new();
        for item in items {
            grouped
                .entry(self.unit_of[node(&item)])
                .or_default()
                .push(item);
        }
        grouped
    }
}

impl Carrier for Workers<'_> {
    fn feed(&mut self, scan: NodeId, batch: Staged<'_>) -> ExecResult<()> {
        match self.unit_of[scan] {
            0 => {
                if let Some(tx) = &self.central {
                    let _ = tx.send((scan, batch.take()));
                }
            }
            u => {
                self.send(u, WorkerCmd::Feed(scan, batch.take()));
            }
        }
        Ok(())
    }

    fn extract(
        &mut self,
        handoff: &Handoff<'_>,
        jobs: Vec<ExtractJob>,
    ) -> ExecResult<(Vec<StateRows>, bool)> {
        let mut any_dead = false;
        let mut replies = Vec::new();
        for (u, jobs) in self.by_unit(jobs, |j| j.node) {
            let (reply_tx, reply_rx) = chan::bounded(1);
            if self.send(u, WorkerCmd::Extract(handoff.boundary, jobs, reply_tx)) {
                replies.push((u, reply_rx));
            } else {
                any_dead = true;
            }
        }
        let mut extracted = Vec::new();
        for (u, reply) in replies {
            match reply.recv() {
                Ok(batches) => extracted.extend(batches),
                Err(_) => {
                    self.inboxes[u] = None;
                    any_dead = true;
                }
            }
        }
        Ok((extracted, any_dead))
    }

    fn absorb(&mut self, batches: Vec<StateRows>) -> ExecResult<bool> {
        let mut ok = true;
        let mut acks = Vec::new();
        for (u, batches) in self.by_unit(batches, |b| b.0) {
            let (ack_tx, ack_rx) = chan::bounded(1);
            if self.send(u, WorkerCmd::Absorb(batches, ack_tx)) {
                acks.push((u, ack_rx));
            } else {
                ok = false;
            }
        }
        for (u, ack) in acks {
            if ack.recv().is_err() {
                self.inboxes[u] = None;
                ok = false;
            }
        }
        Ok(ok)
    }
}

/// Run-wide transport tallies handed to [`stitch`].
pub(crate) struct RunTotals {
    pub(crate) stalls: u64,
    pub(crate) dropped: u64,
    pub(crate) corrupt_dropped: u64,
    pub(crate) queue_peak: u64,
}

/// Merges per-unit results into the run's [`SimResult`]: counters and
/// metrics back onto global node ids through each slice's local map,
/// outputs by plan index, edges into the measured [`TransportMetrics`],
/// and the accounting of [`account`] over the merged counters. In
/// strict mode the first failure is the run's error instead.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stitch(
    plan: &DistributedPlan,
    cfg: &SimConfig,
    dep: &Deployment,
    trace: &[Tuple],
    runs: Vec<(usize, UnitRun)>,
    mut failures: Vec<HostFailure>,
    totals: RunTotals,
    control: ControlStats,
) -> ExecResult<SimResult> {
    if !cfg.transport.partial_results && !failures.is_empty() {
        return Err(failures.swap_remove(0).into());
    }
    let mut counters = vec![OpCounters::default(); plan.dag.len()];
    let mut node_metrics = vec![OpMetrics::default(); plan.dag.len()];
    let mut outputs = named_outputs(plan);
    let mut edges: Vec<EdgeTransport> = Vec::new();
    for (u, run) in runs {
        for (&global, &local) in &dep.slices[u].local {
            counters[global] = run.counters[local];
            node_metrics[global] = run.node_metrics[local].clone();
        }
        for (idx, rows) in run.outputs {
            outputs[idx].1 = rows;
        }
        edges.extend(run.edges);
    }
    edges.sort_unstable_by_key(|e| e.producer);
    let frames: u64 = edges.iter().map(|e| e.frames).sum();
    let payload: u64 = edges.iter().map(|e| e.bytes).sum();
    let retries: u64 = edges.iter().map(|e| e.retries).sum();
    let transport = TransportMetrics {
        edges,
        frames,
        frame_bytes: payload + frames * FRAME_HEADER_LEN as u64,
        backpressure_stalls: totals.stalls,
        queue_peak: totals.queue_peak,
        retries,
        frames_dropped: totals.dropped,
        frames_corrupt_dropped: totals.corrupt_dropped,
        channel_capacity: cfg.transport.channel_capacity.max(1),
        frame_batch: cfg.transport.frame_batch.max(1),
    };
    let duration = trace_duration(&dep.scans.schema, trace);
    let mut metrics = account(plan, &counters, duration, cfg);
    metrics.boundary_queue_peak = transport.queue_peak;
    metrics.transport = transport;
    control.apply(&mut metrics);
    Ok(SimResult {
        metrics,
        outputs,
        counters,
        node_metrics,
        failures,
    })
}

/// Per-boundary-producer framing state within one leaf unit.
pub(crate) struct EdgeStage {
    /// Global producer node id.
    pub(crate) producer: NodeId,
    /// Local sink id inside the unit's engine.
    pub(crate) local: NodeId,
    /// Tuples drained but not yet framed.
    pub(crate) pending: Vec<Tuple>,
    /// Reused columnar staging batch (columnar transport only): each
    /// frame's tuples transpose into these lanes before encoding, so
    /// steady-state framing reuses the lane allocations.
    pub(crate) col_stage: ColumnBatch,
    /// 1-based frame sequence number for deterministic fault selection;
    /// advances even for frames the fault plan drops (unlike
    /// `stats.frames`, which counts only shipped frames).
    pub(crate) seq: u64,
    /// Measured transport for this edge.
    pub(crate) stats: EdgeTransport,
}

impl EdgeStage {
    /// Fresh framing state for one boundary edge of `slice`.
    pub(crate) fn new(slice: &UnitPlan, global: NodeId) -> EdgeStage {
        EdgeStage {
            producer: global,
            local: slice.local[&global],
            pending: Vec::new(),
            col_stage: ColumnBatch::new(slice.dag.schema(slice.local[&global]).arity()),
            seq: 0,
            stats: EdgeTransport {
                producer: global,
                from_host: slice.host,
                ..EdgeTransport::default()
            },
        }
    }
}

/// Feeds one splitter batch to a unit engine, in the representation it
/// was staged in.
fn push_feed(engine: &mut Engine, local: NodeId, batch: Batch) -> ExecResult<()> {
    match batch {
        Batch::Rows(mut rows) => engine.push_batch(local, &mut rows),
        Batch::Columns(mut cols) => engine.push_columns(local, &mut cols),
    }
}

/// One leaf unit: applies its inbox in order — feed batches into the
/// scans, and the two halves of a drain-and-handoff — shipping boundary
/// frames as they materialize; a closed inbox is end-of-stream. An
/// engine error mid-handoff drops the reply channel (the splitter sees
/// the unit as dead and aborts the handoff) and is returned, so the
/// join harvest records the typed cause.
fn run_leaf_unit<S: FrameSink>(
    slice: &UnitPlan,
    inbox: chan::Receiver<WorkerCmd>,
    batch_cfg: BatchConfig,
    frame_batch: usize,
    columnar: bool,
    mut shared: TxShared<'_, S>,
) -> ExecResult<UnitRun> {
    // Injected hang: stall once, before the first frame, long enough
    // for the consumer's receive timeout to notice. Finite by
    // construction — the scoped runner must eventually join us.
    if shared.fault.hang_host == Some(shared.host) && shared.fault.hang_millis > 0 {
        std::thread::sleep(Duration::from_millis(shared.fault.hang_millis));
    }
    let panic_at =
        (shared.fault.panic_host == Some(shared.host)).then_some(shared.fault.panic_after_tuples);

    let mut sinks: Vec<NodeId> = slice.boundary.iter().map(|&g| slice.local[&g]).collect();
    for &(_, g) in &slice.outputs {
        let l = slice.local[&g];
        if !sinks.contains(&l) {
            sinks.push(l);
        }
    }
    let mut engine = Engine::with_sinks(&slice.dag, &sinks)?;
    engine.set_batch_config(batch_cfg);
    let mut edges: Vec<EdgeStage> = slice
        .boundary
        .iter()
        .map(|&g| EdgeStage::new(slice, g))
        .collect();
    let mut scratch = BytesMut::new();

    let mut fed: u64 = 0;
    while let Ok(cmd) = inbox.recv() {
        match cmd {
            WorkerCmd::Feed(scan, batch) => {
                fed += batch.len() as u64;
                push_feed(&mut engine, slice.local[&scan], batch)?;
                shared.tuples.store(fed, Ordering::Relaxed);
                if let Some(at) = panic_at {
                    if fed >= at {
                        panic!("injected worker fault after {fed} tuples (plan: panic at {at})");
                    }
                }
            }
            WorkerCmd::Extract(boundary, jobs, reply) => {
                for job in &jobs {
                    engine.flush_before(slice.local[&job.node], boundary)?;
                }
                let extracted = jobs
                    .iter()
                    .map(|job| {
                        let local = slice.local[&job.node];
                        (
                            job.node,
                            extract_rerouted(&mut engine, local, &job.keyp, &job.owned),
                        )
                    })
                    .collect();
                let _ = reply.send(extracted);
            }
            WorkerCmd::Absorb(batches, ack) => {
                for (g, mut rows) in batches {
                    engine.absorb_state(slice.local[&g], &mut rows)?;
                }
                let _ = ack.send(());
            }
        }
        forward_boundary(
            &mut engine,
            &mut edges,
            frame_batch,
            columnar,
            false,
            &mut scratch,
            &mut shared,
        )?;
    }
    engine.finish()?;
    forward_boundary(
        &mut engine,
        &mut edges,
        frame_batch,
        columnar,
        true,
        &mut scratch,
        &mut shared,
    )?;

    let counters = engine.counters().to_vec();
    let node_metrics = engine.metrics();
    let outputs = slice
        .outputs
        .iter()
        .map(|&(idx, g)| (idx, engine.output(slice.local[&g])))
        .collect();
    Ok(UnitRun {
        counters,
        node_metrics,
        outputs,
        edges: edges.into_iter().map(|e| e.stats).collect(),
    })
}

/// Drains each boundary sink into its staging buffer and ships every
/// full `frame_batch`-tuple frame (plus, on `final_flush`, the partial
/// tail frame). Frames per edge are deterministic: the producer's
/// output sequence is fixed by the plan and trace, and chunking is
/// positional.
pub(crate) fn forward_boundary<S: FrameSink>(
    engine: &mut Engine,
    edges: &mut [EdgeStage],
    frame_batch: usize,
    columnar: bool,
    final_flush: bool,
    scratch: &mut BytesMut,
    shared: &mut TxShared<'_, S>,
) -> ExecResult<()> {
    for edge in edges.iter_mut() {
        let mut drained = engine.drain_output(edge.local);
        if !drained.is_empty() {
            if edge.pending.is_empty() {
                edge.pending = drained;
            } else {
                edge.pending.append(&mut drained);
            }
        }
        let mut start = 0;
        while edge.pending.len() - start >= frame_batch {
            ship(edge, start..start + frame_batch, columnar, scratch, shared)?;
            start += frame_batch;
        }
        if final_flush && start < edge.pending.len() {
            let end = edge.pending.len();
            ship(edge, start..end, columnar, scratch, shared)?;
            start = end;
        }
        if start > 0 {
            edge.pending.drain(..start);
        }
    }
    Ok(())
}

/// Encodes one frame — column-contiguous through the edge's reused
/// staging batch when `columnar`, row-major otherwise — applies the
/// fault plan, and sends it through the unit's [`FrameSink`]: a
/// non-blocking attempt first, and on a full buffer one counted
/// backpressure stall followed by a bounded retry-with-backoff loop
/// (or, with `send_timeout_ms == 0`, the pre-fault-tolerance blocking
/// send). Exhausting the retry bound surfaces as a typed
/// [`FailureCause::Timeout`] instead of wedging the worker. A dropped
/// receiver (central error path) discards the frame — never a
/// deadlock. A sink whose *link* breaks (socket transports only)
/// surfaces as a typed [`FailureCause::Link`].
fn ship<S: FrameSink>(
    edge: &mut EdgeStage,
    range: std::ops::Range<usize>,
    columnar: bool,
    scratch: &mut BytesMut,
    shared: &mut TxShared<'_, S>,
) -> ExecResult<()> {
    let chunk = &edge.pending[range];
    let frame = if columnar {
        edge.col_stage.clear();
        edge.col_stage.extend_rows(chunk);
        encode_column_batch(&edge.col_stage, scratch)?
    } else {
        encode_batch(chunk, scratch)?
    };
    edge.seq += 1;
    let frame_len = frame.len();
    let frame = match inject_frame_fault(&shared.fault, edge.seq, frame) {
        Some(f) => f,
        None => {
            // Dropped by the fault plan: the frame never reaches the
            // wire, so it counts as a drop, not a shipment.
            shared.dropped.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
    };
    if shared.fault.slow_host == Some(shared.host) && shared.fault.slow_micros > 0 {
        std::thread::sleep(Duration::from_micros(shared.fault.slow_micros));
    }
    edge.stats.frames += 1;
    edge.stats.tuples += chunk.len() as u64;
    edge.stats.bytes += (frame_len - FRAME_HEADER_LEN) as u64;
    shared.depth.inc();
    let link_failure = |shared: &TxShared<'_, S>, msg: String| -> ExecError {
        HostFailure {
            host: shared.host,
            cause: FailureCause::Link(msg),
            tuples_processed: shared.tuples.load(Ordering::Relaxed),
        }
        .into()
    };
    let first = shared
        .sink
        .try_send((edge.producer, frame))
        .map_err(|e| link_failure(shared, e))?;
    match first {
        SendOutcome::Sent => Ok(()),
        SendOutcome::Closed => {
            shared.depth.dec();
            Ok(())
        }
        SendOutcome::Full(mut msg) => {
            shared.stalls.fetch_add(1, Ordering::Relaxed);
            if shared.send_timeout_ms == 0 {
                // Unbounded mode: plain blocking send, as before.
                let outcome = shared.sink.send(msg).map_err(|e| link_failure(shared, e))?;
                if let SendOutcome::Closed = outcome {
                    shared.depth.dec();
                }
                return Ok(());
            }
            // Bounded retry with exponential backoff, capped at the
            // send timeout: a consumer that never drains surfaces as a
            // typed timeout failure instead of a wedged worker.
            let deadline = Duration::from_millis(shared.send_timeout_ms);
            let started = Instant::now();
            let mut backoff = Duration::from_micros(100);
            loop {
                match shared
                    .sink
                    .try_send(msg)
                    .map_err(|e| link_failure(shared, e))?
                {
                    SendOutcome::Sent => return Ok(()),
                    SendOutcome::Closed => {
                        shared.depth.dec();
                        return Ok(());
                    }
                    SendOutcome::Full(m) => {
                        msg = m;
                        edge.stats.retries += 1;
                        let waited = started.elapsed();
                        if waited >= deadline {
                            shared.depth.dec();
                            return Err(HostFailure {
                                host: shared.host,
                                cause: FailureCause::Timeout {
                                    waited_ms: waited.as_millis() as u64,
                                },
                                tuples_processed: shared.tuples.load(Ordering::Relaxed),
                            }
                            .into());
                        }
                        std::thread::sleep(backoff.min(deadline - waited));
                        backoff = (backoff * 2).min(Duration::from_millis(10));
                    }
                }
            }
        }
    }
}

/// The central unit's outcome: its engine results plus the failure
/// records it observed on the receive side (always empty in strict
/// mode, where the first such failure aborts instead).
pub(crate) struct CentralOutcome {
    pub(crate) run: UnitRun,
    pub(crate) failures: Vec<HostFailure>,
    /// Corrupt frames detected, recorded, and discarded (partial mode).
    pub(crate) corrupt_dropped: u64,
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn run_central_unit<R: FrameSource>(
    slice: &UnitPlan,
    feed: chan::Receiver<FeedBatch>,
    batch_cfg: BatchConfig,
    mut rx: R,
    depth: &SharedGauge,
    host_of: &[usize],
    transport: &TransportConfig,
    agg: usize,
) -> ExecResult<CentralOutcome> {
    let sinks: Vec<NodeId> = slice
        .outputs
        .iter()
        .map(|&(_, g)| slice.local[&g])
        .collect();
    let mut engine = Engine::with_sinks(&slice.dag, &sinks)?;
    engine.set_batch_config(batch_cfg);
    // Local partitions first, until the splitter closes the inbox
    // (host-serial mode keeps the aggregator host's own scans in this
    // unit; workers stream concurrently into the channel buffer)...
    while let Ok((scan, batch)) = feed.recv() {
        push_feed(&mut engine, slice.local[&scan], batch)?;
    }
    // ...then every boundary frame, decoded straight into the engine's
    // pooled buffers; merge operators align the independently-
    // progressing inputs. Dropping `rx` on an early error unblocks any
    // producer stalled on a full channel. The receive wait is bounded
    // (`send_timeout_ms`, 0 = unbounded): a quiet-but-connected
    // boundary past the bound means a hung peer, surfaced as a typed
    // timeout attributed to this observer host.
    let mut failures: Vec<HostFailure> = Vec::new();
    let mut corrupt_dropped: u64 = 0;
    let mut rx_tuples: u64 = 0;
    let timeout = Duration::from_millis(transport.send_timeout_ms);
    loop {
        let outcome = if transport.send_timeout_ms == 0 {
            rx.recv()
        } else {
            rx.recv_timeout(timeout)
        };
        let (producer, frame) = match outcome {
            Ok(RecvOutcome::Frame(msg)) => msg,
            Ok(RecvOutcome::Closed) => break,
            Ok(RecvOutcome::Timeout) => {
                let failure = HostFailure {
                    host: agg,
                    cause: FailureCause::Timeout {
                        waited_ms: transport.send_timeout_ms,
                    },
                    tuples_processed: rx_tuples,
                };
                if transport.partial_results {
                    // Give up on the quiet boundary but keep what
                    // arrived: record the failure and finish the
                    // surviving epochs.
                    failures.push(failure);
                    break;
                }
                return Err(failure.into());
            }
            Err(msg) => {
                // The receive side's link itself broke (socket
                // transports only; channels cannot fail). Attribute to
                // the observing aggregator host.
                let failure = HostFailure {
                    host: agg,
                    cause: FailureCause::Link(msg),
                    tuples_processed: rx_tuples,
                };
                if transport.partial_results {
                    failures.push(failure);
                    break;
                }
                return Err(failure.into());
            }
        };
        depth.dec();
        let pseudo = slice.remote_in[&producer];
        match engine.push_frame(pseudo, frame) {
            Ok(n) => rx_tuples += n as u64,
            Err(ExecError::Wire(e)) => {
                // Corrupt boundary frame: attribute to the producing
                // host. Strict mode fails the run; partial mode drops
                // the frame, records the failure, and keeps consuming.
                let failure = HostFailure {
                    host: host_of[producer],
                    cause: FailureCause::Decode(e),
                    tuples_processed: rx_tuples,
                };
                if transport.partial_results {
                    corrupt_dropped += 1;
                    failures.push(failure);
                } else {
                    return Err(failure.into());
                }
            }
            Err(other) => return Err(other),
        }
    }
    engine.finish()?;
    let counters = engine.counters().to_vec();
    let node_metrics = engine.metrics();
    let outputs = slice
        .outputs
        .iter()
        .map(|&(idx, g)| (idx, engine.output(slice.local[&g])))
        .collect();
    Ok(CentralOutcome {
        run: UnitRun {
            counters,
            node_metrics,
            outputs,
            edges: Vec::new(),
        },
        failures,
        corrupt_dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qap_optimizer::{optimize, OptimizerConfig, Partitioning};
    use qap_partition::PartitionSet;
    use qap_sql::QuerySetBuilder;
    use qap_trace::{generate, TraceConfig};
    use qap_types::Catalog;

    use crate::run_distributed;

    fn section_3_2() -> QueryDag {
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
        b.add_query(
            "flow_pairs",
            "SELECT S1.tb, S1.srcIP, S1.max_cnt, S2.max_cnt \
             FROM heavy_flows S1, heavy_flows S2 \
             WHERE S1.srcIP = S2.srcIP and S1.tb = S2.tb+1",
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

    fn check_matches(cfg: &SimConfig) {
        let dag = section_3_2();
        let trace = generate(&TraceConfig::tiny(21));
        for (hosts, part) in [
            (
                3,
                Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 3),
            ),
            (
                2,
                Partitioning::hash(PartitionSet::from_columns(["srcIP", "destIP"]), 2),
            ),
            (4, Partitioning::round_robin(4)),
        ] {
            let plan = optimize(&dag, &part, &OptimizerConfig::full()).unwrap();
            let single = run_distributed(&plan, &trace, cfg).unwrap();
            let threaded = run_distributed_threaded(&plan, &trace, cfg).unwrap();
            assert_eq!(single.outputs.len(), threaded.outputs.len());
            for (s, t) in single.outputs.iter().zip(threaded.outputs.iter()) {
                assert_eq!(s.0, t.0);
                assert_eq!(
                    sorted(s.1.clone()),
                    sorted(t.1.clone()),
                    "{} hosts, output {}",
                    hosts,
                    s.0
                );
            }
            // Same tuple-flow totals ⇒ same accounted work.
            assert_eq!(
                single.metrics.aggregator_rx_tuples,
                threaded.metrics.aggregator_rx_tuples
            );
            // The measured frame path must carry exactly the transfer
            // tuples the derived accounting charges. Partition-parallel
            // runs ship *every* transfer (including the aggregator
            // host's own leaf→central loopback edges) as frames;
            // host-serial keeps agg-local leaf output in-engine, so its
            // frames carry only the cross-host subset.
            let expected = if cfg.transport.partition_parallel {
                threaded.metrics.total_transfers
            } else {
                let agg = plan.partitioning.aggregator_host;
                threaded
                    .metrics
                    .host_tx_tuples
                    .iter()
                    .enumerate()
                    .filter(|&(h, _)| h != agg)
                    .map(|(_, &t)| t)
                    .sum()
            };
            assert_eq!(
                threaded.metrics.transport.tuples(),
                expected,
                "{hosts} hosts: frame path vs derived accounting"
            );
        }
    }

    #[test]
    fn threaded_matches_single_threaded() {
        check_matches(&SimConfig::default());
    }

    #[test]
    fn empty_unit_is_a_planning_error() {
        // An empty node set used to silently pin a phantom unit to host
        // 0; it must surface as a planning error instead.
        let dag = section_3_2();
        let plan = optimize(
            &dag,
            &Partitioning::round_robin(2),
            &OptimizerConfig::full(),
        )
        .unwrap();
        let err = slice_unit(&plan, &[]).unwrap_err();
        assert!(
            matches!(&err, ExecError::BadPlan(msg) if msg.contains("no nodes")),
            "got {err}"
        );
    }

    #[test]
    fn host_serial_matches_single_threaded() {
        let cfg = SimConfig {
            transport: TransportConfig::default().host_serial(),
            ..SimConfig::default()
        };
        check_matches(&cfg);
    }

    #[test]
    fn tight_channel_small_frames_match() {
        let cfg = SimConfig {
            transport: TransportConfig::new(1, 7),
            ..SimConfig::default()
        };
        check_matches(&cfg);
    }

    #[test]
    fn row_frames_match_single_threaded() {
        let cfg = SimConfig {
            transport: TransportConfig::default().with_columnar(false),
            ..SimConfig::default()
        };
        check_matches(&cfg);
    }

    #[test]
    fn columnar_and_row_frames_carry_identical_streams() {
        // The frame representation is a pure encoding choice: both
        // modes ship the same tuple streams chunked into the same
        // frames; only the payload bytes differ (columnar drops the
        // per-tuple headers and per-value tags on typed lanes).
        let dag = section_3_2();
        let trace = generate(&TraceConfig::tiny(13));
        let plan = optimize(
            &dag,
            &Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 3),
            &OptimizerConfig::full(),
        )
        .unwrap();
        let col = run_distributed_threaded(&plan, &trace, &SimConfig::default()).unwrap();
        let row_cfg = SimConfig {
            transport: TransportConfig::default().with_columnar(false),
            ..SimConfig::default()
        };
        let row = run_distributed_threaded(&plan, &trace, &row_cfg).unwrap();
        let (ct, rt) = (&col.metrics.transport, &row.metrics.transport);
        assert_eq!(ct.tuples(), rt.tuples());
        assert_eq!(ct.frames, rt.frames);
        for (ce, re) in ct.edges.iter().zip(&rt.edges) {
            assert_eq!(
                (ce.producer, ce.frames, ce.tuples),
                (re.producer, re.frames, re.tuples)
            );
        }
        assert!(ct.payload_bytes() > 0);
        for (c, r) in col.outputs.iter().zip(row.outputs.iter()) {
            assert_eq!(sorted(c.1.clone()), sorted(r.1.clone()), "output {}", c.0);
        }
    }

    #[test]
    fn partition_parallel_spawns_per_component_units() {
        let dag = section_3_2();
        let plan = optimize(
            &dag,
            &Partitioning::round_robin(4),
            &OptimizerConfig::full(),
        )
        .unwrap();
        let agg = plan.partitioning.aggregator_host;
        let parallel = compute_units(&plan, agg, &TransportConfig::default());
        let serial = compute_units(&plan, agg, &TransportConfig::default().host_serial());
        // Host-serial: at most one unit per host. Partition-parallel:
        // one leaf unit per partition pipeline — strictly more workers
        // whenever hosts own multiple partitions.
        assert!(serial.len() <= plan.partitioning.hosts);
        assert!(
            parallel.len() > serial.len(),
            "parallel {} vs serial {}",
            parallel.len(),
            serial.len()
        );
        // Every node lands in exactly one unit, and unit 0 is exactly
        // the central tier.
        let total: usize = parallel.iter().map(|u| u.len()).sum();
        assert_eq!(total, plan.dag.len());
        for &id in &parallel[0] {
            assert!(plan.central[id]);
        }
        for unit in &parallel[1..] {
            for &id in unit {
                assert!(!plan.central[id]);
            }
        }
    }

    #[test]
    fn adaptive_threaded_is_bit_identical_and_migrates() {
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

        let stat = run_distributed_threaded(&plan, &trace, &SimConfig::default()).unwrap();
        let mut cfg = SimConfig::default();
        // 45s samples against 60s windows: the drain boundary splits
        // live windows, so group state genuinely ships between workers.
        cfg.transport.rebalance = RebalanceConfig::adaptive()
            .with_threshold(1.2)
            .with_consecutive(1)
            .with_sample_secs(45);
        let adap = run_distributed_threaded(&plan, &trace, &cfg).unwrap();

        assert!(adap.metrics.rebalance_fallback.is_none());
        assert!(adap.metrics.repartitions >= 1, "no repartition fired");
        assert!(adap.metrics.migrated_keys > 0, "no state shipped");
        assert!(adap.failures.is_empty());
        assert_eq!(stat.outputs.len(), adap.outputs.len());
        for (s, a) in stat.outputs.iter().zip(adap.outputs.iter()) {
            assert_eq!(s.0, a.0);
            assert_eq!(sorted(s.1.clone()), sorted(a.1.clone()), "{}", s.0);
        }
        // The detector, greedy planner and splitter are shared with the
        // simulator — the whole control loop must agree run for run.
        let sim = run_distributed(&plan, &trace, &cfg).unwrap();
        assert_eq!(adap.metrics.repartitions, sim.metrics.repartitions);
        assert_eq!(adap.metrics.migrated_keys, sim.metrics.migrated_keys);
        for (s, a) in sim.outputs.iter().zip(adap.outputs.iter()) {
            assert_eq!(sorted(s.1.clone()), sorted(a.1.clone()), "vs sim: {}", s.0);
        }
    }

    #[test]
    fn adaptive_threaded_falls_back_on_ineligible_plans() {
        use crate::rebalance::RebalanceConfig;

        let dag = section_3_2();
        let trace = generate(&TraceConfig::tiny(21));
        let mut cfg = SimConfig::default();
        cfg.transport.rebalance = RebalanceConfig::adaptive();
        // Round-robin has no key to re-route: static fallback.
        let rr_plan = optimize(
            &dag,
            &Partitioning::round_robin(3),
            &OptimizerConfig::full(),
        )
        .unwrap();
        let r = run_distributed_threaded(&rr_plan, &trace, &cfg).unwrap();
        assert!(r.metrics.rebalance_fallback.is_some());
        assert_eq!(r.metrics.repartitions, 0);
        let s = run_distributed_threaded(&rr_plan, &trace, &SimConfig::default()).unwrap();
        for (a, b) in s.outputs.iter().zip(r.outputs.iter()) {
            assert_eq!(sorted(a.1.clone()), sorted(b.1.clone()));
        }
        // Host-serial decomposition parks the aggregator's scans in the
        // central unit, out of the driver's reach: static fallback too
        // (on a plan the migration spec itself accepts).
        let mut fb = QuerySetBuilder::new(Catalog::with_network_schemas());
        fb.add_query(
            "flows",
            "SELECT tb, srcIP, COUNT(*) as pkts FROM TCP GROUP BY time/60 as tb, srcIP",
        )
        .unwrap();
        let hash_plan = optimize(
            &fb.build(),
            &Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 3),
            &OptimizerConfig::full(),
        )
        .unwrap();
        let mut serial = cfg;
        serial.transport = serial.transport.host_serial();
        let r = run_distributed_threaded(&hash_plan, &trace, &serial).unwrap();
        assert!(
            r.metrics
                .rebalance_fallback
                .as_deref()
                .is_some_and(|m| m.contains("host-serial")),
            "got {:?}",
            r.metrics.rebalance_fallback
        );
    }

    #[test]
    fn measured_frame_bytes_match_derived_estimate() {
        // All-numeric schemas: the *row* wire encoding costs exactly
        // 2 + 9·arity bytes per tuple, so under row frames the measured
        // payload must equal the cost model's derived estimate.
        // (Columnar frames pack typed lanes and cost less — the
        // estimate deliberately models the row encoding.)
        let dag = section_3_2();
        let trace = generate(&TraceConfig::tiny(5));
        let plan = optimize(
            &dag,
            &Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 4),
            &OptimizerConfig::full(),
        )
        .unwrap();
        let cfg = SimConfig {
            transport: TransportConfig::default().with_columnar(false),
            ..SimConfig::default()
        };
        let result = run_distributed_threaded(&plan, &trace, &cfg).unwrap();
        let derived: f64 = result
            .metrics
            .host_rx_bytes_per_sec
            .iter()
            .map(|b| b * result.metrics.duration_secs)
            .sum();
        let measured = result.metrics.transport.payload_bytes() as f64;
        assert!(
            (derived - measured).abs() < 0.5,
            "derived {derived} vs measured {measured}"
        );
    }
}
