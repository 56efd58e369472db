//! Multi-threaded cluster execution over framed, bounded boundary
//! transport — and the coordinator half every port-based runner shares.
//!
//! This runner *distributes* the physical plan, one **execution unit**
//! per host ([`Deployment`]), as the paper deploys one Gigascope
//! instance per host:
//!
//! - the **central unit** — every node on the aggregator host: the
//!   aggregation tier (`plan.central` nodes) and the aggregator's own
//!   partitions beside it — run by the calling thread inside
//!   [`Central`], which adds the receive half of the boundary;
//! - one **leaf unit** per other host with nodes, running [`run_unit`]
//!   on its own worker thread.
//!
//! Every unit is the same [`crate::unit::Unit`] the simulator and the
//! host processes run. The calling thread also runs the shared feed
//! loop ([`crate::rebalance::drive`]) with the unit ports as its
//! carrier ([`Units`]): it routes the trace and moves each staged batch
//! into the owning leaf unit's bounded inbox — or, for the aggregator
//! host's own scans, straight into the central unit — and applies the
//! boundary frames that have arrived in between. When an inbox is full
//! it waits *on the boundary*, so a leaf stalled on a full boundary
//! channel is always drained and every queue of the run can be bounded:
//! the splitter is never more than an inbox ahead of its slowest unit.
//! Once the feed is over the inboxes close and the central unit drains
//! the boundary to its end. With a rebalance controller attached, the
//! same inboxes carry the two halves of each drain-and-handoff to the
//! leaf units, and the central unit applies its own halves in place.
//! The socket coordinator in [`crate::remote`] is this runner with its
//! leaf units in other processes: it shares the deployment, [`Feed`],
//! [`feed_and_aggregate`] and [`crate::sim::stitch`], and differs only
//! in how a leaf unit is started and how its end is harvested. Both
//! deploy only a star around the central unit ([`Deployment::star`]).
//!
//! There is no splitter thread, on purpose. Every thread a run spawns
//! takes an allocator arena that keeps its high-water mark after the
//! thread is gone and is handed to *some* thread of the next run; a
//! splitter thread (small footprint) next to leaf threads (large) makes
//! a process's resident memory depend on which of them happened to
//! inherit which arena. Leaf threads are alike, and what the splitter
//! and the central unit allocate lives in the caller's own arena.
//!
//! Boundary data crosses units as **length-prefixed wire frames** (up
//! to [`TransportConfig::frame_batch`] tuples per frame) over a
//! **bounded** channel of [`TransportConfig::channel_capacity`] frames:
//! a producer that outruns the central consumer blocks — backpressure —
//! instead of buffering unboundedly. Every frame is a lane frame
//! ([`qap_types::encode_column_batch`]), decoded straight into lanes,
//! so the receiving engine stays on its vectorized path. The encoded
//! frames double as the *measured* byte source ([`TransportMetrics`]),
//! which sits below the Section 4.2.1 cost model's tagged per-tuple
//! estimate. Results are identical to the simulator's at every
//! capacity/frame-size setting (the engines' merge operators align
//! independently-progressing inputs), which the transport equivalence
//! suite checks.
//!
//! # Fault tolerance
//!
//! Host faults are first-class operating conditions, not panics. A
//! worker panic is caught ([`std::panic::catch_unwind`]) and surfaces
//! as a typed [`HostFailure`] with [`FailureCause::Panic`]; a corrupt
//! boundary frame surfaces as [`FailureCause::Decode`] attributed to
//! the producing host; a peer that neither produces nor accepts a frame
//! within [`TransportConfig::send_timeout_ms`] surfaces as
//! [`FailureCause::Timeout`] instead of deadlocking the run (producers
//! retry a full channel with bounded backoff; the central consumer
//! bounds its receive wait; the feed loop bounds its wait for room in
//! an inbox and for a migration reply). In strict mode (the default)
//! the first failure aborts the run as `Err(ExecError::Host(..))`; with
//! [`TransportConfig::partial_results`] surviving hosts finish their
//! epochs and the [`SimResult`] carries the per-host failure records
//! plus conservation-checked partial counters. A deterministic
//! [`FaultPlan`](crate::FaultPlan) injects each fault class on demand
//! for the chaos suite; the default plan injects nothing and leaves the
//! clean path bit-identical.
//!
//! [`TransportMetrics`]: crate::TransportMetrics
//! [`TransportConfig::frame_batch`]: crate::TransportConfig::frame_batch
//! [`TransportConfig::channel_capacity`]: crate::TransportConfig::channel_capacity
//! [`TransportConfig::send_timeout_ms`]: crate::TransportConfig::send_timeout_ms
//! [`TransportConfig::partial_results`]: crate::TransportConfig::partial_results

use std::collections::{BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use qap_exec::{ExecError, ExecResult, FailureCause, HostFailure};
use qap_obs::SharedGauge;
use qap_optimizer::DistributedPlan;
use qap_plan::{LogicalNode, NodeId, QueryDag};
use qap_types::Tuple;

use crate::link::{ChannelSource, ChannelTransport, Frame, FrameSource, RecvOutcome, Transport};
use crate::rebalance::{drive, ControlStats, Controller};
use crate::sim::{stitch, SimConfig, SimResult};
use crate::splitter::{single_stream, Splitter, StreamScans};
use crate::unit::{run_unit, ChannelPort, Inbound, Unit, UnitOutcome, UnitSpec, Units};

/// Clones the sub-plan induced by `nodes` (a deterministic, topo-ordered
/// subset) into one unit's DAG, registering a pseudo-source for every
/// edge arriving from outside the unit, and describes the unit for
/// `cfg`'s run. Also returns each node's (global id → local id).
pub(crate) fn slice_unit(
    plan: &DistributedPlan,
    nodes: &[NodeId],
    cfg: &SimConfig,
) -> ExecResult<(UnitSpec, QueryDag, HashMap<NodeId, NodeId>)> {
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

    // Pseudo-sources for the producers outside the unit, numbered by
    // ascending producer id.
    let producers: BTreeSet<NodeId> = (nodes.iter())
        .flat_map(|&id| plan.dag.node(id).children())
        .filter(|&c| !in_unit[c])
        .collect();
    let mut catalog = plan.dag.catalog().clone();
    for &p in &producers {
        catalog
            .register(plan.dag.schema(p).renamed(format!("__remote_{p}")))
            .map_err(|e| ExecError::BadPlan(format!("pseudo-stream clash: {e}")))?;
    }
    let mut dag = QueryDag::new(catalog);
    let mut remote_in: HashMap<NodeId, NodeId> = HashMap::new();
    for &p in &producers {
        let sid = dag
            .add_source(&format!("__remote_{p}"))
            .map_err(|e| ExecError::BadPlan(format!("pseudo-source: {e}")))?;
        remote_in.insert(p, sid);
    }

    // Clone this unit's nodes with remapped children.
    let mut local: HashMap<NodeId, NodeId> = HashMap::new();
    for &id in nodes {
        let remap = |c: NodeId| -> NodeId {
            if in_unit[c] {
                local[&c]
            } else {
                remote_in[&c]
            }
        };
        let mut node = plan.dag.node(id).clone();
        match &mut node {
            LogicalNode::Source { stream, partition } => {
                let partition = partition.ok_or_else(|| {
                    ExecError::BadPlan("distributed plan contains an unpartitioned source".into())
                })?;
                let lid = dag
                    .add_partition_source(stream, partition)
                    .map_err(|e| ExecError::BadPlan(e.to_string()))?;
                local.insert(id, lid);
                continue;
            }
            LogicalNode::SelectProject { input, .. } | LogicalNode::Aggregate { input, .. } => {
                *input = remap(*input)
            }
            LogicalNode::Join { left, right, .. } => {
                *left = remap(*left);
                *right = remap(*right);
            }
            LogicalNode::Merge { inputs } => inputs.iter_mut().for_each(|c| *c = remap(*c)),
        }
        let lid = dag
            .add_node(node)
            .map_err(|e| ExecError::BadPlan(format!("unit subplan: {e}")))?;
        local.insert(id, lid);
    }

    // Boundary producers: nodes here consumed outside the unit.
    let boundary = (nodes.iter())
        .filter(|&&id| plan.dag.parents(id).into_iter().any(|p| !in_unit[p]))
        .map(|&id| (id as u32, local[&id] as u32))
        .collect();
    let outputs = (plan.outputs.iter().enumerate())
        .filter(|(_, o)| in_unit[o.node])
        .map(|(i, o)| (i as u32, local[&o.node] as u32))
        .collect();
    let transport = cfg.transport;
    let spec = UnitSpec {
        host: host as u32,
        set: plan.partitioning.strategy.effective_set(),
        inputs: (producers.iter())
            .map(|p| (*p as u32, remote_in[p] as u32))
            .collect(),
        boundary,
        outputs,
        max_batch: cfg.batch.max_batch as u32,
        frame_batch: transport.frame_batch.max(1) as u32,
        fault: transport.fault,
    };
    Ok((spec, dag, local))
}

/// Splits the plan into execution units, one per host: element 0 is the
/// central unit — every node on the aggregator host `agg` — and the
/// rest are one leaf unit per other host that has nodes, in ascending
/// host order.
pub(crate) fn compute_units(plan: &DistributedPlan, agg: usize) -> Vec<Vec<NodeId>> {
    let mut per_host: Vec<Vec<NodeId>> = vec![Vec::new(); plan.partitioning.hosts];
    for id in plan.dag.topo_order() {
        per_host[plan.host[id]].push(id);
    }
    let central = std::mem::take(&mut per_host[agg]);
    let mut units = vec![central];
    units.extend(per_host.into_iter().filter(|u| !u.is_empty()));
    units
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

/// The plan cut into execution units, one per host: what every runner
/// deploys.
pub(crate) struct Deployment<'a> {
    pub(crate) plan: &'a DistributedPlan,
    /// The run's configuration, as deployed.
    pub(crate) cfg: SimConfig,
    /// Each unit's description and sliced DAG; unit 0 is the central
    /// unit, on the aggregator host.
    pub(crate) units: Vec<(UnitSpec, QueryDag)>,
    /// Plan node → index of the unit that runs it.
    pub(crate) unit_of: Vec<usize>,
    /// Plan node → its local id inside that unit.
    pub(crate) local_of: Vec<NodeId>,
}

impl<'a> Deployment<'a> {
    pub(crate) fn new(plan: &'a DistributedPlan, cfg: &SimConfig) -> ExecResult<Self> {
        // One bound for every wait of the run, and never "no bound".
        let mut cfg = *cfg;
        cfg.transport.send_timeout_ms = cfg.transport.send_timeout_ms.max(1);
        let mut unit_of = vec![0; plan.dag.len()];
        let mut local_of = vec![0; plan.dag.len()];
        let (mut units, agg) = (Vec::new(), plan.partitioning.aggregator_host);
        for (u, nodes) in compute_units(plan, agg).iter().enumerate() {
            let (spec, dag, local) = slice_unit(plan, nodes, &cfg)?;
            for (global, local) in local {
                unit_of[global] = u;
                local_of[global] = local;
            }
            units.push((spec, dag));
        }
        Ok(Deployment {
            plan,
            cfg,
            units,
            unit_of,
            local_of,
        })
    }

    /// The deployment of the threaded and socket runners, and the one
    /// stream it is fed: leaf units whose only inputs are trace
    /// partitions, and a central unit that ships nothing onward. Their
    /// one boundary rendezvous is the central unit, which could deadlock
    /// on any other shape.
    pub(crate) fn star(
        plan: &'a DistributedPlan,
        cfg: &SimConfig,
    ) -> ExecResult<(Self, StreamScans)> {
        let scans = single_stream(plan)?;
        let dep = Deployment::new(plan, cfg)?;
        for (spec, _) in &dep.units[1..] {
            if !spec.inputs.is_empty() {
                return Err(ExecError::BadPlan(format!(
                    "leaf unit on host {} unexpectedly consumes remote streams",
                    spec.host
                )));
            }
        }
        if !dep.units[0].0.boundary.is_empty() {
            return Err(ExecError::BadPlan(
                "central unit unexpectedly ships boundary output".into(),
            ));
        }
        Ok((dep, scans))
    }
}

/// Executes a distributed plan with one worker thread per leaf host and
/// framed, bounded boundary transport. Semantically identical to
/// [`crate::run_distributed`]; metrics are computed from the merged
/// per-unit counters with the same accounting, plus the *measured*
/// [`crate::TransportMetrics`] from the frame path.
///
/// The calling thread routes the trace into the leaf units' bounded
/// inboxes and runs the central unit; when a rebalance controller is
/// attached it brackets each migration with `Extract` → `Absorb` over
/// the same inboxes, and applies the central unit's share in place.
pub fn run_distributed_threaded(
    plan: &DistributedPlan,
    trace: &[Tuple],
    cfg: &SimConfig,
) -> ExecResult<SimResult> {
    let (dep, scans) = Deployment::star(plan, cfg)?;
    let mut feed = Feed::new(&dep, &scans, trace)?;

    // The boundary data path: one bounded frame channel fanning into
    // the central unit — producers block when `channel_capacity` frames
    // are in flight.
    let (tx, rx) = ChannelTransport.pair(cfg.transport.channel_capacity.max(1));
    let depth = SharedGauge::new();
    // Per-worker progress counters, owned by the driver so a panicking
    // worker's last consistent tuple count survives into its failure
    // record.
    let fed: Vec<AtomicU64> = dep.units.iter().map(|_| AtomicU64::new(0)).collect();

    let central = Central::new(&dep, rx, &depth)?;

    let (central, outcomes, failures) = std::thread::scope(|scope| {
        let mut units = Units::new(&dep, central);
        let mut handles = Vec::new();
        for (u, (spec, dag)) in dep.units.iter().enumerate().skip(1) {
            let (inbox, replies) = units.open(u);
            let mut port = ChannelPort {
                inbox,
                replies,
                sink: tx.clone(),
                depth: &depth,
                timeout: Duration::from_millis(dep.cfg.transport.send_timeout_ms),
            };
            let fed = &fed[u];
            // A worker panic (organic or injected) must not propagate:
            // catch it and let the harvest turn it into a typed
            // HostFailure. The closure's state is moved in and
            // abandoned on unwind, so AssertUnwindSafe is sound.
            handles.push(scope.spawn(move || {
                catch_unwind(AssertUnwindSafe(|| run_unit(spec, dag, &mut port, fed)))
            }));
        }
        drop(tx);
        let central = feed_and_aggregate(&dep, &mut feed, units, || ());

        // Join every worker before inspecting the central result: even
        // a failing run must not leave a thread behind, and collecting
        // the outcomes here is what turns panics into typed records.
        let mut outcomes = Vec::new();
        let mut failures: Vec<HostFailure> = Vec::new();
        for (handle, (u, (spec, _))) in handles
            .into_iter()
            .zip(dep.units.iter().enumerate().skip(1))
        {
            let failed = |cause| HostFailure {
                host: spec.host as usize,
                cause,
                tuples_processed: fed[u].load(Ordering::Relaxed),
            };
            match handle.join().unwrap_or_else(Err) {
                Ok(Ok(outcome)) => outcomes.push((u, outcome)),
                Ok(Err(ExecError::Host(f))) => failures.push(f),
                Ok(Err(e)) => failures.push(failed(FailureCause::Exec(Box::new(e)))),
                Err(payload) => failures.push(failed(FailureCause::Panic(panic_message(payload)))),
            }
        }
        (central, outcomes, failures)
    });
    feed.finish(&dep, central?, outcomes, failures)
}

/// What the feed loop drives: the one splitter over the one trace, and
/// the rebalance controller when the run attached one.
pub(crate) struct Feed<'a> {
    splitter: Splitter,
    controller: Option<Controller>,
    control: ControlStats,
    trace: &'a [Tuple],
}

impl<'a> Feed<'a> {
    pub(crate) fn new(
        dep: &Deployment<'_>,
        scans: &StreamScans,
        trace: &'a [Tuple],
    ) -> ExecResult<Feed<'a>> {
        let (controller, control) = Controller::attach(
            dep.plan,
            dep.cfg.transport.rebalance,
            std::slice::from_ref(scans),
        );
        let splitter = Splitter::new(dep.plan, scans, &dep.cfg, controller.is_some())?;
        Ok(Feed {
            splitter,
            controller,
            control,
            trace,
        })
    }

    /// The run's result once every unit is harvested: the central
    /// unit's outcome, and what its receive side observed, stitched
    /// with the leaf units'.
    pub(crate) fn finish(
        self,
        dep: &Deployment<'_>,
        (central, inbound): (UnitOutcome, Inbound),
        mut units: Vec<(usize, UnitOutcome)>,
        failures: Vec<HostFailure>,
    ) -> ExecResult<SimResult> {
        units.push((0, central));
        let duration = self.splitter.duration();
        stitch(dep, duration, self.control, units, inbound, failures)
    }
}

/// The part of a run every port-based runner shares once its leaf
/// units are started, all of it on the calling thread: the feed loop
/// routes the trace into `units` — the central unit's own scans
/// straight into it, boundary frames applied as they arrive — then the
/// inboxes close and the central unit drains the boundary to its end.
/// The calling thread's allocator arena outlives the run, so a caller
/// that runs many plans re-uses the splitter's batches and the central
/// tier's (large) working memory instead of stranding them in a per-run
/// thread's arena. `stop` runs once the central unit is done: whatever
/// it takes for the runner's leaf units to wind down even when the run
/// is aborting. Returns the central unit's outcome and what the receive
/// side observed.
pub(crate) fn feed_and_aggregate(
    dep: &Deployment<'_>,
    feed: &mut Feed<'_>,
    mut units: Units<'_>,
    stop: impl FnOnce(),
) -> ExecResult<(UnitOutcome, Inbound)> {
    // A panic in the feed loop is the aggregator host's typed failure,
    // like a worker's; what it abandons is dropped with the run.
    let driven = catch_unwind(AssertUnwindSafe(|| {
        drive(
            dep,
            &mut feed.splitter,
            feed.controller.as_mut(),
            &mut feed.control,
            feed.trace,
            &mut units,
        )
    }))
    .unwrap_or_else(|payload| {
        Err(HostFailure {
            host: dep.plan.partitioning.aggregator_host,
            cause: FailureCause::Panic(panic_message(payload)),
            tuples_processed: 0,
        }
        .into())
    });
    // End of stream: closing the inboxes lets each unit drain its
    // queue, finish its engine, and flush its tail frames. A failed
    // feed drops the central unit with them, which unblocks any
    // producer stalled on the boundary.
    let central = units.close();
    let outcome = driven.and_then(|()| central.finish());
    stop();
    outcome
}

/// The central unit as the calling thread runs it — the aggregation
/// tier, plus the aggregator host's own partitions — with the receive
/// half of the boundary: fed and handed off in place by the feed loop,
/// applying boundary frames whenever the loop has a moment or has to
/// wait, and draining the boundary to its end once the feed is over.
/// Merge operators align the independently-progressing inputs, so the
/// order in which feed batches and boundary frames reach the unit does
/// not change its results.
pub(crate) struct Central<'a> {
    dep: &'a Deployment<'a>,
    pub(crate) unit: Unit<'a>,
    rx: ChannelSource,
    depth: &'a SharedGauge,
    /// The boundary still has producers and has not been given up on.
    open: bool,
    inbound: Inbound,
}

impl<'a> Central<'a> {
    pub(crate) fn new(
        dep: &'a Deployment<'a>,
        rx: ChannelSource,
        depth: &'a SharedGauge,
    ) -> ExecResult<Central<'a>> {
        let (spec, dag) = &dep.units[0];
        Ok(Central {
            dep,
            unit: Unit::new(spec, dag)?,
            rx,
            depth,
            open: true,
            inbound: Inbound::new(dep.cfg.transport.partial_results),
        })
    }

    /// A timeout this unit's host observed while waiting on a peer.
    pub(crate) fn timed_out(&mut self, waited: Duration) -> ExecResult<()> {
        let waited_ms = waited.as_millis() as u64;
        let agg = self.dep.plan.partitioning.aggregator_host;
        self.inbound
            .observe(agg, FailureCause::Timeout { waited_ms })
    }

    fn apply(&mut self, frame: Frame) -> ExecResult<()> {
        self.depth.dec();
        self.inbound.deliver(&mut self.unit, self.dep.plan, frame)
    }

    /// Waits up to `wait` for the next boundary frame. `None` with the
    /// boundary still open is a quiet boundary; otherwise every producer
    /// is done, or the receive side's link itself broke (socket
    /// transports only; channels cannot fail), which this host observes.
    fn next_frame(&mut self, wait: Duration) -> ExecResult<Option<Frame>> {
        match self.rx.recv_timeout(wait) {
            Ok(RecvOutcome::Frame(msg)) => return Ok(Some(msg)),
            Ok(RecvOutcome::Timeout) => return Ok(None),
            Ok(RecvOutcome::Closed) => {}
            Err(msg) => {
                let agg = self.dep.plan.partitioning.aggregator_host;
                self.inbound.observe(agg, FailureCause::Link(msg))?;
            }
        }
        self.open = false;
        Ok(None)
    }

    /// Applies every boundary frame that is already waiting; with
    /// nothing waiting, blocks up to `wait` for one. This is how the
    /// feed loop waits for anything: no producer stays stalled on a full
    /// boundary while the thread that drains it sleeps.
    pub(crate) fn pump(&mut self, mut wait: Duration) -> ExecResult<()> {
        if !self.open {
            std::thread::sleep(wait);
            return Ok(());
        }
        while let Some(frame) = self.next_frame(wait)? {
            self.apply(frame)?;
            wait = Duration::ZERO;
        }
        Ok(())
    }

    /// The rest of the boundary, then the unit's results. The receive
    /// wait is bounded (`send_timeout_ms`): a quiet-but-connected
    /// boundary past the bound means a hung peer, surfaced as a typed
    /// timeout attributed to this observer host — give up on it but
    /// keep what arrived, and finish the surviving epochs. Dropping
    /// `self` on an early error unblocks any producer stalled on a full
    /// channel.
    fn finish(mut self) -> ExecResult<(UnitOutcome, Inbound)> {
        let timeout = Duration::from_millis(self.dep.cfg.transport.send_timeout_ms);
        while self.open {
            match self.next_frame(timeout)? {
                Some(frame) => self.apply(frame)?,
                None if self.open => {
                    self.timed_out(timeout)?;
                    break;
                }
                None => {}
            }
        }
        let outcome = self.unit.finish()?;
        self.inbound.queue_peak = self.depth.peak();
        Ok((outcome, self.inbound))
    }
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
    use crate::sim::tests::{skew_case, sorted};
    use crate::transport::TransportConfig;

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

    /// The plans every `check_matches` run covers: (hosts, partitioning).
    fn cases() -> [(usize, Partitioning); 3] {
        [
            (
                3,
                Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 3),
            ),
            (
                2,
                Partitioning::hash(PartitionSet::from_columns(["srcIP", "destIP"]), 2),
            ),
            (4, Partitioning::round_robin(4)),
        ]
    }

    fn check_matches(cfg: &SimConfig) {
        let dag = section_3_2();
        let trace = generate(&TraceConfig::tiny(21));
        for (hosts, part) in cases() {
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
            // The measured frame path must carry exactly the cross-host
            // transfers the derived accounting charges: the aggregator
            // host's own leaf output stays inside the central unit.
            let agg = plan.partitioning.aggregator_host;
            let expected: u64 = (0..hosts)
                .filter(|&h| h != agg)
                .map(|h| threaded.metrics.host_tx_tuples[h])
                .sum();
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
    fn host_serial_matches_single_threaded() {
        // Every host runs as exactly one unit: the central unit holds all
        // of the aggregator host's nodes and each other host with nodes
        // gets one leaf unit of its own.
        let dag = section_3_2();
        for (hosts, part) in cases() {
            let plan = optimize(&dag, &part, &OptimizerConfig::full()).unwrap();
            let dep = Deployment::new(&plan, &SimConfig::default()).unwrap();
            let agg = plan.partitioning.aggregator_host;
            let host = |u: usize| dep.units[u].0.host as usize;
            assert_eq!(host(0), agg, "{hosts} hosts");
            let mut unit_hosts: Vec<usize> = (0..dep.units.len()).map(host).collect();
            unit_hosts.sort_unstable();
            let mut plan_hosts = plan.host.clone();
            plan_hosts.sort_unstable();
            plan_hosts.dedup();
            assert_eq!(unit_hosts, plan_hosts, "{hosts} hosts: one unit per host");
            for id in 0..plan.dag.len() {
                assert_eq!(host(dep.unit_of[id]), plan.host[id], "node {id}");
            }
        }
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
        let err = slice_unit(&plan, &[], &SimConfig::default()).unwrap_err();
        assert!(
            matches!(&err, ExecError::BadPlan(msg) if msg.contains("no nodes")),
            "got {err}"
        );
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
    fn full_inboxes_behind_a_tight_boundary_match() {
        // Four-tuple batches put hundreds of commands through every
        // 16-deep inbox while leaves stall on a one-frame boundary: the
        // feed loop has to keep the boundary moving to get its own
        // batches accepted, between feeding scans of its own.
        check_matches(&SimConfig {
            batch: qap_exec::BatchConfig::new(4),
            transport: TransportConfig::new(1, 2),
            ..SimConfig::default()
        });
    }

    #[test]
    fn adaptive_threaded_is_bit_identical_and_migrates() {
        let (plan, trace, rebalance) = skew_case();
        let stat = run_distributed_threaded(&plan, &trace, &SimConfig::default()).unwrap();
        let mut cfg = SimConfig::default();
        cfg.transport.rebalance = rebalance;
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
    }

    #[test]
    fn measured_frame_bytes_match_derived_estimate() {
        // All-numeric, NULL-free boundary schemas: a lane frame of n rows
        // and arity a is the 2-byte arity word plus, per column, a 2-byte
        // lane header and n 8-byte values — 2 + a·(2 + 8n) bytes. Summed
        // over an edge's frames that is its exact payload, and it stays
        // below the cost model's derived estimate, which prices the
        // tagged 2 + 9·a-byte tuple encoding.
        let dag = section_3_2();
        let trace = generate(&TraceConfig::tiny(5));
        let plan = optimize(
            &dag,
            &Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 4),
            &OptimizerConfig::full(),
        )
        .unwrap();
        let result = run_distributed_threaded(&plan, &trace, &SimConfig::default()).unwrap();
        let transport = &result.metrics.transport;
        assert!(transport.frames > 0);
        for e in &transport.edges {
            let a = plan.dag.schema(e.producer).arity() as u64;
            assert_eq!(
                e.bytes,
                2 * e.frames + a * (2 * e.frames + 8 * e.tuples),
                "edge from producer {}",
                e.producer
            );
        }
        let derived: f64 = result
            .metrics
            .host_rx_bytes_per_sec
            .iter()
            .map(|b| b * result.metrics.duration_secs)
            .sum();
        let measured = transport.payload_bytes() as f64;
        assert!(
            measured < derived,
            "derived {derived} vs measured {measured}"
        );
    }
}
