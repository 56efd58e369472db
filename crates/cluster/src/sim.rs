//! The deterministic cluster simulator: the same per-host units every
//! runner deploys ([`crate::unit::Unit`]), driven on one thread by a
//! seeded scheduler, and the one path from unit outcomes to a run's
//! [`SimResult`] ([`stitch`], with per-host work accounted from the
//! operator counters by [`account`]).
//!
//! The scheduler is the carrier of the shared splitter loop
//! ([`crate::rebalance::drive`]): it applies each feed batch and each
//! handoff command to the owning unit in place, and keeps the boundary
//! frames the units cut pending per edge — a producer node and a unit
//! that consumes it. After every feed and every handoff round it
//! delivers a prefix of each edge's pending frames, oldest first, whose
//! length it draws from [`crate::FaultPlan::seed`] stepped by
//! SplitMix64; the default seed, 0, delivers everything. Each edge stays
//! FIFO, as every real transport is, so every schedule is one the
//! threaded runner could take. At end of stream the rest is delivered,
//! and the units end one after another, each producer's last frames
//! delivered before a consumer of it ends — which also ends units that
//! feed each other, as query-per-host plans do.

use std::collections::{BTreeMap, VecDeque};

use serde::Serialize;

use qap_exec::{BatchConfig, ExecError, ExecResult, HostFailure, OpCounters, OpMetrics};
use qap_optimizer::{DistributedPlan, PlanOutput};
use qap_plan::NodeId;
use qap_types::{estimated_tuple_size, Bytes, ColumnBatch, Tuple, FRAME_HEADER_LEN};

use crate::rebalance::{drive, Carrier, ControlStats, Controller};
use crate::splitter::{plan_streams, single_stream, Splitter};
use crate::threaded::Deployment;
use crate::transport::{EdgeTransport, TransportConfig, TransportMetrics};
use crate::unit::{Inbound, Unit, UnitCmd, UnitOutcome, UnitReply};

/// Per-tuple work-unit charges. The absolute scale is arbitrary — CPU
/// percentages divide by [`SimConfig::host_budget`] — but the *ratio*
/// between `remote_rx` and `op` encodes the paper's premise that
/// processing a tuple received from another process costs several times
/// a local operator application (message framing, copies, scheduling).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CostConstants {
    /// Charged per raw packet at a partition scan (link-layer +
    /// protocol parse).
    pub parse: f64,
    /// Charged per tuple entering any non-scan operator.
    pub op: f64,
    /// Charged at the producing host per transferred tuple.
    pub send: f64,
    /// Charged at the receiving host per transferred tuple, *in
    /// addition* to `op`.
    pub remote_rx: f64,
}

impl Default for CostConstants {
    fn default() -> Self {
        // Calibrated so the Section 6 dynamics reproduce: the
        // remote-receive overhead dominates a local operator application
        // by ~7x (the paper's premise that shipping partials can cost
        // more than local processing), while parse+local-op per raw
        // packet stays cheap enough that central partial-merge work —
        // which grows with cluster size under query-independent
        // partitioning — overtakes the shrinking per-host leaf share.
        CostConstants {
            parse: 0.4,
            op: 0.4,
            send: 0.2,
            remote_rx: 3.0,
        }
    }
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Per-tuple charges.
    pub costs: CostConstants,
    /// Work units per second one host can sustain (100% CPU). Calibrate
    /// with a reference run (the experiments anchor the single-host
    /// Naive configuration of Section 6.1 at the paper's 80.4%).
    pub host_budget: f64,
    /// Batch size for the splitter feeds and engine routing. A pure
    /// performance knob: metrics and outputs are batch-size-invariant
    /// (the equivalence suite enforces it).
    pub batch: BatchConfig,
    /// Boundary-transport knobs: channel capacity, frame size, fault
    /// plan, failure mode and the rebalance controller. The simulator
    /// frames and faults the boundary like every runner, and draws its
    /// delivery order from the fault plan's seed; it has no channel to
    /// bound, and no clock for the hang, slow and panic faults.
    pub transport: TransportConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            costs: CostConstants::default(),
            host_budget: 1_000_000.0,
            batch: BatchConfig::default(),
            transport: TransportConfig::default(),
        }
    }
}

/// The measured quantities of one simulated run.
#[derive(Debug, Clone, Serialize)]
pub struct ClusterMetrics {
    /// Cluster size.
    pub hosts: usize,
    /// Partition count.
    pub partitions: usize,
    /// Simulated wall-clock seconds (span of the trace's time
    /// attribute).
    pub duration_secs: f64,
    /// Total work units per host.
    pub work: Vec<f64>,
    /// CPU load percentage per host.
    pub cpu_pct: Vec<f64>,
    /// CPU load on the aggregator host — the paper's Figures 8/10/13.
    pub aggregator_cpu_pct: f64,
    /// Average per-host CPU of the partitioned (leaf) tier only.
    pub leaf_cpu_pct: f64,
    /// Average *total* CPU of the non-aggregator hosts — the paper's
    /// "load on each host" for leaf nodes. Falls back to the leaf-tier
    /// share of the single host when the cluster has one machine.
    pub leaf_host_cpu_pct: f64,
    /// Tuples received by processes on the aggregator host over
    /// process-to-process transfers — the paper's Figures 9/11/14.
    pub aggregator_rx_tuples: u64,
    /// The same, per simulated second.
    pub aggregator_rx_tps: f64,
    /// Estimated bytes/sec into the aggregator (wire encoding of the
    /// transferred tuples' schemas).
    pub aggregator_rx_bytes_per_sec: f64,
    /// All transferred tuples (any host).
    pub total_transfers: u64,
    /// Leaf-tier load imbalance: max over hosts of leaf-tier work
    /// divided by the mean (1.0 = perfectly even). Hash partitioning on
    /// skewed keys drives this up — the imbalance FLUX (reference 20) combats with
    /// adaptive repartitioning, at the price of operator-independent
    /// splitting.
    pub leaf_imbalance: f64,
    /// Result cardinality per named output.
    pub output_rows: Vec<(String, u64)>,
    /// Tuples dropped by window discipline (should be 0 for ordered
    /// traces).
    pub late_dropped: u64,
    /// Tuples received per host over process-to-process transfers.
    pub host_rx_tuples: Vec<u64>,
    /// Estimated wire bytes/sec received per host over transfers — the
    /// quantity the Section 4.2.1 cost model predicts per node.
    pub host_rx_bytes_per_sec: Vec<f64>,
    /// Tuples shipped per host to other processes.
    pub host_tx_tuples: Vec<u64>,
    /// Estimated wire bytes/sec shipped per host.
    pub host_tx_bytes_per_sec: Vec<f64>,
    /// Peak boundary-queue depth (in-flight frames): the threaded and
    /// socket runners' live channel peak, the simulator's peak of frames
    /// cut but not yet delivered.
    pub boundary_queue_peak: u64,
    /// Re-partitioning events the online controller fired (0 when the
    /// controller is disabled or the plan fell back to static).
    pub repartitions: u64,
    /// Group-state rows shipped between hosts across all migrations.
    pub migrated_keys: u64,
    /// Wall-clock milliseconds the feed was paused for drain-and-handoff,
    /// summed over migrations (measured, so not deterministic; the
    /// simulator's single-process migrations report real but tiny
    /// values).
    pub migration_pause_ms: f64,
    /// Peak per-sample-epoch splitter load imbalance (max/mean of
    /// per-host routed tuples). 1.0 when the controller never sampled.
    pub load_imbalance: f64,
    /// Why an enabled rebalance controller fell back to static
    /// partitioning (plan ineligible), if it did.
    pub rebalance_fallback: Option<String>,
    /// Measured boundary transport (frames, encoded bytes, stalls),
    /// from the frames the units cut, on every runner.
    pub transport: TransportMetrics,
}

/// Metrics plus the actual result streams (for correctness checks).
#[derive(Debug)]
pub struct SimResult {
    /// Measured loads.
    pub metrics: ClusterMetrics,
    /// `(output name, rows)` per plan output.
    pub outputs: Vec<(String, Vec<Tuple>)>,
    /// Raw per-node tuple-flow counters, indexed by plan node id — the
    /// input to [`account`], exposed so equivalence tests can assert
    /// batched and per-tuple execution agree tuple-for-tuple.
    pub counters: Vec<OpCounters>,
    /// Full per-node operator metrics (bytes, batches, occupancy, flush
    /// latency, group-table telemetry), indexed by plan node id,
    /// stitched from the per-host units.
    pub node_metrics: Vec<OpMetrics>,
    /// Per-host failure records from a partial-results run
    /// ([`crate::TransportConfig::partial_results`]): who failed, why,
    /// and how far each got. Empty on the clean path and in strict mode
    /// (the first failure aborts as `Err` instead).
    pub failures: Vec<HostFailure>,
}

/// Executes a distributed plan over a time-ordered trace of its (single)
/// source stream, with full work accounting. For plans reading several
/// base streams use [`run_distributed_multi`].
pub fn run_distributed(
    plan: &DistributedPlan,
    trace: &[Tuple],
    cfg: &SimConfig,
) -> ExecResult<SimResult> {
    let scans = single_stream(plan)?;
    run_distributed_multi(plan, &[(&scans.stream, trace)], cfg)
}

/// Executes a distributed plan over time-ordered traces of its source
/// streams. The paper's framework partitions every source with the same
/// partitioning set (Section 4's simplifying assumption), so one
/// splitter configuration drives all feeds, one splitter per stream,
/// over the same units.
pub fn run_distributed_multi(
    plan: &DistributedPlan,
    feeds: &[(&str, &[Tuple])],
    cfg: &SimConfig,
) -> ExecResult<SimResult> {
    let streams = plan_streams(plan)?;
    for s in &streams {
        if !feeds.iter().any(|(f, _)| f.eq_ignore_ascii_case(&s.stream)) {
            return Err(ExecError::BadPlan(format!(
                "plan reads stream '{}' but no feed was provided",
                s.stream.to_ascii_lowercase()
            )));
        }
    }
    let (mut controller, mut control) = Controller::attach(plan, cfg.transport.rebalance, &streams);
    let dep = Deployment::new(plan, cfg)?;
    let mut scheduler = Scheduler::new(&dep)?;
    let mut duration = 1.0f64;
    for (stream, trace) in feeds {
        // A feed for a stream the plan never reads is ignored.
        let Some(scans) = streams
            .iter()
            .find(|s| s.stream.eq_ignore_ascii_case(stream))
        else {
            continue;
        };
        let mut splitter = Splitter::new(plan, scans, cfg, controller.is_some())?;
        drive(
            &dep,
            &mut splitter,
            controller.as_mut(),
            &mut control,
            trace,
            &mut scheduler,
        )?;
        duration = duration.max(splitter.duration());
    }
    let (outcomes, inbound) = scheduler.finish()?;
    stitch(&dep, duration, control, outcomes, inbound, Vec::new())
}

/// The simulator's carrier: every unit of the deployment, on the
/// calling thread, and the boundary frames cut but not yet delivered.
struct Scheduler<'a> {
    dep: &'a Deployment<'a>,
    units: Vec<Unit<'a>>,
    /// Per edge — (producer, consuming unit) — the frames in cut order.
    pending: BTreeMap<(NodeId, usize), VecDeque<Bytes>>,
    /// SplitMix64 state, from a nonzero seed; the default seed delivers
    /// everything at once.
    draw: Option<u64>,
    inbound: Inbound,
}

impl<'a> Scheduler<'a> {
    fn new(dep: &'a Deployment<'a>) -> ExecResult<Scheduler<'a>> {
        let seed = dep.cfg.transport.fault.seed;
        Ok(Scheduler {
            dep,
            units: (dep.units.iter())
                .map(|(spec, dag)| Unit::new(spec, dag))
                .collect::<ExecResult<_>>()?,
            pending: BTreeMap::new(),
            draw: (seed != 0).then_some(seed),
            inbound: Inbound::new(dep.cfg.transport.partial_results),
        })
    }

    /// Queues the frames unit `u` cut on every edge they take.
    fn collect(&mut self, u: usize) {
        for (producer, frame) in self.units[u].take_frames() {
            for (c, (spec, _)) in self.dep.units.iter().enumerate() {
                if spec.inputs.iter().any(|&(g, _)| g as NodeId == producer) {
                    let edge = self.pending.entry((producer, c)).or_default();
                    edge.push_back(frame.clone());
                }
            }
        }
        let queued = self.pending.values().map(VecDeque::len).sum::<usize>();
        self.inbound.queue_peak = self.inbound.queue_peak.max(queued as u64);
    }

    /// Delivers the oldest pending frame of `edge` to its consumer.
    fn deliver(&mut self, edge: (NodeId, usize)) -> ExecResult<()> {
        let Some(queue) = self.pending.get_mut(&edge) else {
            return Ok(());
        };
        let frame = queue.pop_front();
        if queue.is_empty() {
            self.pending.remove(&edge);
        }
        if let Some(frame) = frame {
            let (producer, c) = edge;
            (self.inbound).deliver(&mut self.units[c], self.dep.plan, (producer, frame))?;
            self.collect(c);
        }
        Ok(())
    }

    /// Delivers until no frame is pending.
    fn drain(&mut self) -> ExecResult<()> {
        while let Some(&edge) = self.pending.keys().next() {
            self.deliver(edge)?;
        }
        Ok(())
    }

    /// The delivery step after a feed or a handoff round: a seed-drawn
    /// prefix of each edge's pending frames.
    fn step(&mut self) -> ExecResult<()> {
        let Some(mut state) = self.draw else {
            return self.drain();
        };
        let edges: Vec<_> = self.pending.iter().map(|(&e, q)| (e, q.len())).collect();
        for (edge, queued) in edges {
            for _ in 0..splitmix64(&mut state) % (queued as u64 + 1) {
                self.deliver(edge)?;
            }
        }
        self.draw = Some(state);
        Ok(())
    }

    /// End of stream: everything pending is delivered, then the units
    /// end — the leaf units first and the central unit last, as on the
    /// threaded runner. Each ends its operators in topological order as
    /// far as their inputs have ended, and the frames that cuts are
    /// delivered before the next unit's turn; units that feed each
    /// other take turns until every operator has ended. (The plan's
    /// topologically first open operator can always end, so each pass
    /// ends at least one.)
    fn finish(mut self) -> ExecResult<(Vec<(usize, UnitOutcome)>, Inbound)> {
        self.drain()?;
        let dep = self.dep;
        let dag = &dep.plan.dag;
        let mut ended = vec![false; dag.len()];
        while ended.contains(&false) {
            for u in (1..self.units.len()).chain([0]) {
                let mut last = None;
                for node in dag.topo_order().filter(|&g| dep.unit_of[g] == u) {
                    if ended[node] {
                        continue;
                    }
                    if !dag.node(node).children().iter().all(|&c| ended[c]) {
                        break;
                    }
                    ended[node] = true;
                    last = Some(node);
                }
                if let Some(node) = last {
                    self.units[u].finish_through(dep.local_of[node])?;
                    self.collect(u);
                    self.drain()?;
                }
            }
        }
        let outcomes = (self.units.iter_mut())
            .map(Unit::finish)
            .enumerate()
            .map(|(u, outcome)| Ok((u, outcome?)))
            .collect::<ExecResult<_>>()?;
        Ok((outcomes, self.inbound))
    }
}

/// One SplitMix64 step.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Carrier for Scheduler<'_> {
    fn feed(&mut self, scan: NodeId, batch: &mut ColumnBatch) -> ExecResult<()> {
        let u = self.dep.unit_of[scan];
        self.units[u].feed(self.dep.local_of[scan], batch)?;
        self.collect(u);
        self.step()
    }

    fn round(
        &mut self,
        cmds: Vec<(usize, UnitCmd)>,
    ) -> ExecResult<Vec<(usize, Option<UnitReply>)>> {
        let mut replies = Vec::new();
        for (u, cmd) in cmds {
            replies.push((u, self.units[u].apply(cmd)?));
            self.collect(u);
        }
        self.step()?;
        Ok(replies)
    }
}

/// Merges per-unit results into the run's [`SimResult`], whichever
/// runner ran the units: counters and metrics back onto global node ids,
/// outputs by plan index (lanes transposed to rows, one output at a
/// time), edges and send-path tallies into the measured
/// [`TransportMetrics`], and the accounting of [`account`] over the
/// merged counters. The failures the runner observed come first, then
/// the receive side's; in strict mode the first is the run's error
/// instead.
pub(crate) fn stitch(
    dep: &Deployment<'_>,
    duration: f64,
    control: ControlStats,
    units: Vec<(usize, UnitOutcome)>,
    inbound: Inbound,
    mut failures: Vec<HostFailure>,
) -> ExecResult<SimResult> {
    let (plan, cfg) = (dep.plan, &dep.cfg);
    failures.extend(inbound.failures);
    if !cfg.transport.partial_results && !failures.is_empty() {
        return Err(failures.swap_remove(0).into());
    }
    let mut counters = vec![OpCounters::default(); plan.dag.len()];
    let mut node_metrics = vec![OpMetrics::default(); plan.dag.len()];
    let name = |o: &PlanOutput| o.name.clone().unwrap_or(format!("query{}", o.logical));
    let mut outputs: Vec<(String, Vec<Tuple>)> =
        plan.outputs.iter().map(|o| (name(o), Vec::new())).collect();
    let mut edges: Vec<EdgeTransport> = Vec::new();
    let (mut stalls, mut dropped) = (0, 0);
    for (u, unit) in units {
        for global in (0..plan.dag.len()).filter(|&g| dep.unit_of[g] == u) {
            let local = dep.local_of[global];
            counters[global] = unit.counters[local];
            node_metrics[global] = unit.node_metrics[local].clone();
        }
        // Each output's lanes go as soon as it is rows.
        for (idx, lanes) in unit.outputs {
            outputs[idx as usize].1 = lanes.to_rows();
        }
        edges.extend(unit.edges);
        stalls += unit.stalls;
        dropped += unit.dropped;
    }
    edges.sort_unstable_by_key(|e| e.producer);
    let frames: u64 = edges.iter().map(|e| e.frames).sum();
    let payload: u64 = edges.iter().map(|e| e.bytes).sum();
    let retries: u64 = edges.iter().map(|e| e.retries).sum();
    let transport = TransportMetrics {
        edges,
        frames,
        frame_bytes: payload + frames * FRAME_HEADER_LEN as u64,
        backpressure_stalls: stalls,
        queue_peak: inbound.queue_peak,
        retries,
        frames_dropped: dropped,
        frames_corrupt_dropped: inbound.corrupt_dropped,
        channel_capacity: cfg.transport.channel_capacity.max(1),
        frame_batch: cfg.transport.frame_batch.max(1),
    };
    let mut metrics = account(plan, &counters, duration, cfg);
    metrics.boundary_queue_peak = transport.queue_peak;
    metrics.transport = transport;
    control.apply(&mut metrics);
    metrics.output_rows = (outputs.iter())
        .map(|(n, rows)| (n.clone(), rows.len() as u64))
        .collect();
    Ok(SimResult {
        metrics,
        outputs,
        counters,
        node_metrics,
        failures,
    })
}

/// Turns raw per-operator counters into per-host work and the paper's
/// load metrics.
pub(crate) fn account(
    plan: &DistributedPlan,
    counters: &[OpCounters],
    duration_secs: f64,
    cfg: &SimConfig,
) -> ClusterMetrics {
    let hosts = plan.partitioning.hosts;
    let agg = plan.partitioning.aggregator_host;
    let c = cfg.costs;

    let mut work = vec![0.0f64; hosts];
    let mut leaf_work = vec![0.0f64; hosts];
    let mut agg_rx = 0u64;
    let mut agg_rx_bytes = 0.0f64;
    let mut transfers = 0u64;
    let mut late = 0u64;
    let mut host_rx_tuples = vec![0u64; hosts];
    let mut host_rx_bytes = vec![0.0f64; hosts];
    let mut host_tx_tuples = vec![0u64; hosts];
    let mut host_tx_bytes = vec![0.0f64; hosts];

    let wire_size = |id: usize| estimated_tuple_size(plan.dag.schema(id).arity());

    for id in plan.dag.topo_order() {
        let h = plan.host[id];
        let node = plan.dag.node(id);
        late += counters[id].late_dropped;
        let processing = if node.is_source() {
            c.parse * counters[id].tuples_out as f64
        } else {
            c.op * counters[id].tuples_in as f64
        };
        work[h] += processing;
        if !plan.central[id] {
            leaf_work[h] += processing;
        }
        // A self-join lists the same child twice, but the stream crosses
        // into the process once — dedupe edge endpoints.
        let mut children = node.children();
        children.sort_unstable();
        children.dedup();
        for child in children {
            let edge_tuples = counters[child].tuples_out;
            // A transfer crosses hosts, or crosses from the partitioned
            // tier into the central tier (process-to-process even on the
            // same machine — the paper's measurements count loopback
            // traffic into the aggregation process).
            let is_transfer = plan.host[child] != h || (!plan.central[child] && plan.central[id]);
            if is_transfer && edge_tuples > 0 {
                let send_cost = c.send * edge_tuples as f64;
                work[plan.host[child]] += send_cost;
                if !plan.central[child] {
                    leaf_work[plan.host[child]] += send_cost;
                }
                work[h] += c.remote_rx * edge_tuples as f64;
                transfers += edge_tuples;
                let edge_bytes = edge_tuples as f64 * wire_size(child);
                host_tx_tuples[plan.host[child]] += edge_tuples;
                host_tx_bytes[plan.host[child]] += edge_bytes;
                host_rx_tuples[h] += edge_tuples;
                host_rx_bytes[h] += edge_bytes;
                if h == agg {
                    agg_rx += edge_tuples;
                    agg_rx_bytes += edge_bytes;
                }
            }
        }
    }

    let cpu_pct: Vec<f64> = work
        .iter()
        .map(|w| w / duration_secs / cfg.host_budget * 100.0)
        .collect();
    let leaf_cpu_pct = {
        let per_host: Vec<f64> = leaf_work
            .iter()
            .map(|w| w / duration_secs / cfg.host_budget * 100.0)
            .collect();
        per_host.iter().sum::<f64>() / hosts as f64
    };
    let leaf_imbalance = {
        let mean = leaf_work.iter().sum::<f64>() / hosts as f64;
        if mean > 0.0 {
            leaf_work.iter().fold(0.0f64, |a, &b| a.max(b)) / mean
        } else {
            1.0
        }
    };
    let leaf_host_cpu_pct = if hosts > 1 {
        cpu_pct
            .iter()
            .enumerate()
            .filter(|&(h, _)| h != agg)
            .map(|(_, c)| *c)
            .sum::<f64>()
            / (hosts - 1) as f64
    } else {
        // A single machine is both leaf and aggregator; its full load is
        // the paper's n=1 anchor point.
        cpu_pct[0]
    };

    ClusterMetrics {
        hosts,
        partitions: plan.partitioning.partitions,
        duration_secs,
        aggregator_cpu_pct: cpu_pct[agg],
        leaf_cpu_pct,
        leaf_host_cpu_pct,
        cpu_pct,
        work,
        aggregator_rx_tuples: agg_rx,
        aggregator_rx_tps: agg_rx as f64 / duration_secs,
        aggregator_rx_bytes_per_sec: agg_rx_bytes / duration_secs,
        total_transfers: transfers,
        leaf_imbalance,
        output_rows: Vec::new(),
        late_dropped: late,
        host_rx_tuples,
        host_rx_bytes_per_sec: host_rx_bytes.iter().map(|b| b / duration_secs).collect(),
        host_tx_tuples,
        host_tx_bytes_per_sec: host_tx_bytes.iter().map(|b| b / duration_secs).collect(),
        boundary_queue_peak: 0,
        repartitions: 0,
        migrated_keys: 0,
        migration_pause_ms: 0.0,
        load_imbalance: 1.0,
        rebalance_fallback: None,
        transport: TransportMetrics::default(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::rebalance::RebalanceConfig;
    use crate::transport::FaultPlan;
    use qap_optimizer::{optimize, OptimizerConfig, Partitioning};
    use qap_partition::PartitionSet;
    use qap_plan::QueryDag;
    use qap_sql::QuerySetBuilder;
    use qap_trace::{generate, generate_skew_ramp, SkewRampConfig, TraceConfig};
    use qap_types::Catalog;

    fn flows_dag() -> QueryDag {
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.add_query(
            "flows",
            "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
             GROUP BY time/60 as tb, srcIP, destIP",
        )
        .unwrap();
        b.build()
    }

    /// The case every runner's adaptive test migrates: a per-source
    /// aggregation hash-partitioned over 4 hosts, a skew-ramp trace, and
    /// a trigger-happy controller sampling at 45s — deliberately
    /// unaligned with the 60s window, so the drain boundary splits live
    /// windows and group state genuinely ships.
    pub(crate) fn skew_case() -> (DistributedPlan, Vec<Tuple>, RebalanceConfig) {
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.add_query(
            "flows",
            "SELECT tb, srcIP, COUNT(*) as pkts, SUM(len) as bytes FROM TCP \
             GROUP BY time/60 as tb, srcIP",
        )
        .unwrap();
        let part = Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 4);
        let plan = optimize(&b.build(), &part, &OptimizerConfig::full()).unwrap();
        let rebalance = RebalanceConfig::adaptive()
            .with_threshold(1.2)
            .with_consecutive(1)
            .with_sample_secs(45);
        let trace = generate_skew_ramp(&SkewRampConfig::tiny(7));
        (plan, trace, rebalance)
    }

    pub(crate) fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
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

    /// Batches keyed by node or output index, as rows: tests compare
    /// lanes through `to_rows()`.
    pub(crate) fn rows_of(batches: &[(u32, ColumnBatch)]) -> Vec<(u32, Vec<Tuple>)> {
        batches.iter().map(|(k, b)| (*k, b.to_rows())).collect()
    }

    #[test]
    fn adaptive_rebalance_is_bit_identical_to_static_and_migrates() {
        let (plan, trace, rebalance) = skew_case();
        let stat = run_distributed(&plan, &trace, &SimConfig::default()).unwrap();
        let mut cfg = SimConfig::default();
        cfg.transport.rebalance = rebalance;
        let adap = run_distributed(&plan, &trace, &cfg).unwrap();

        assert!(adap.metrics.rebalance_fallback.is_none());
        assert!(adap.metrics.repartitions >= 1, "no repartition fired");
        assert!(adap.metrics.migrated_keys > 0, "no state shipped");
        assert_eq!(stat.outputs.len(), adap.outputs.len());
        for (s, a) in stat.outputs.iter().zip(adap.outputs.iter()) {
            assert_eq!(s.0, a.0);
            assert_eq!(sorted(s.1.clone()), sorted(a.1.clone()), "{}", s.0);
        }
    }

    #[test]
    fn adaptive_on_round_robin_falls_back_to_static() {
        let dag = flows_dag();
        let plan = optimize(
            &dag,
            &Partitioning::round_robin(3),
            &OptimizerConfig::full(),
        )
        .unwrap();
        let trace = generate(&TraceConfig::tiny(5));
        let mut cfg = SimConfig::default();
        cfg.transport.rebalance = RebalanceConfig::adaptive();
        let r = run_distributed(&plan, &trace, &cfg).unwrap();
        assert!(r.metrics.rebalance_fallback.is_some());
        assert_eq!(r.metrics.repartitions, 0);
        // The fallback run is the static run.
        let s = run_distributed(&plan, &trace, &SimConfig::default()).unwrap();
        for (a, b) in s.outputs.iter().zip(r.outputs.iter()) {
            assert_eq!(sorted(a.1.clone()), sorted(b.1.clone()));
        }
    }

    #[test]
    fn distributed_matches_centralized_rr() {
        let dag = flows_dag();
        let trace = generate(&TraceConfig::tiny(1));
        let reference = qap_exec::run_logical(&dag, trace.clone()).unwrap();
        let ref_rows = sorted(reference.into_iter().next().unwrap().1);

        for hosts in [1, 2, 4] {
            let plan = optimize(
                &dag,
                &Partitioning::round_robin(hosts),
                &OptimizerConfig::naive(),
            )
            .unwrap();
            let result = run_distributed(&plan, &trace, &SimConfig::default()).unwrap();
            assert_eq!(
                sorted(result.outputs[0].1.clone()),
                ref_rows,
                "round-robin {hosts} hosts"
            );
            assert_eq!(result.metrics.late_dropped, 0);
        }
    }

    #[test]
    fn distributed_matches_centralized_hash() {
        let dag = flows_dag();
        let trace = generate(&TraceConfig::tiny(2));
        let reference = qap_exec::run_logical(&dag, trace.clone()).unwrap();
        let ref_rows = sorted(reference.into_iter().next().unwrap().1);

        for hosts in [1, 3] {
            let plan = optimize(
                &dag,
                &Partitioning::hash(PartitionSet::from_columns(["srcIP", "destIP"]), hosts),
                &OptimizerConfig::full(),
            )
            .unwrap();
            let result = run_distributed(&plan, &trace, &SimConfig::default()).unwrap();
            assert_eq!(
                sorted(result.outputs[0].1.clone()),
                ref_rows,
                "hash {hosts} hosts"
            );
        }
    }

    #[test]
    fn hash_partitioning_reduces_aggregator_rx() {
        let dag = flows_dag();
        let trace = generate(&TraceConfig::tiny(3));
        let hosts = 4;
        let naive = run_distributed(
            &optimize(
                &dag,
                &Partitioning::round_robin(hosts),
                &OptimizerConfig::naive(),
            )
            .unwrap(),
            &trace,
            &SimConfig::default(),
        )
        .unwrap();
        let partitioned = run_distributed(
            &optimize(
                &dag,
                &Partitioning::hash(PartitionSet::from_columns(["srcIP", "destIP"]), hosts),
                &OptimizerConfig::full(),
            )
            .unwrap(),
            &trace,
            &SimConfig::default(),
        )
        .unwrap();
        assert!(
            partitioned.metrics.aggregator_rx_tuples < naive.metrics.aggregator_rx_tuples,
            "partitioned {} vs naive {}",
            partitioned.metrics.aggregator_rx_tuples,
            naive.metrics.aggregator_rx_tuples
        );
    }

    /// The seed is live: two seeds hold different frames back from the
    /// central unit after the same feeds.
    #[test]
    fn two_seeds_deliver_in_different_orders() {
        let naive = OptimizerConfig::naive();
        let plan = optimize(&flows_dag(), &Partitioning::round_robin(4), &naive).unwrap();
        let trace = generate(&TraceConfig::tiny(6));
        let schedule = |seed| {
            let cfg = SimConfig {
                transport: TransportConfig::new(64, 16).with_fault(FaultPlan::seeded(seed)),
                ..SimConfig::default()
            };
            let dep = Deployment::new(&plan, &cfg).unwrap();
            let mut scheduler = Scheduler::new(&dep).unwrap();
            let scans = single_stream(&plan).unwrap();
            let mut splitter = Splitter::new(&plan, &scans, &cfg, false).unwrap();
            let mut held = Vec::new();
            let mut feed = |scan, batch: &mut ColumnBatch| {
                scheduler.feed(scan, batch)?;
                let into_central = scheduler.pending.iter().filter(|((_, c), _)| *c == 0);
                held.push(
                    into_central
                        .map(|(&(p, _), q)| (p, q.len()))
                        .collect::<Vec<_>>(),
                );
                Ok(())
            };
            splitter.route(&trace, &mut feed).unwrap();
            splitter.flush(&mut feed).unwrap();
            held
        };
        let (one, two) = (schedule(1), schedule(2));
        assert!(
            one.iter().any(|h| !h.is_empty()),
            "seed 1 holds frames back"
        );
        assert_ne!(one, two);
        assert!(
            schedule(0).iter().all(Vec::is_empty),
            "the default delivers all"
        );
    }

    #[test]
    fn work_accounts_every_host() {
        let dag = flows_dag();
        let trace = generate(&TraceConfig::tiny(4));
        let plan = optimize(
            &dag,
            &Partitioning::hash(PartitionSet::from_columns(["srcIP", "destIP"]), 4),
            &OptimizerConfig::full(),
        )
        .unwrap();
        let result = run_distributed(&plan, &trace, &SimConfig::default()).unwrap();
        // Every host parses its partitions: nonzero work everywhere.
        for (h, w) in result.metrics.work.iter().enumerate() {
            assert!(*w > 0.0, "host {h} did no work");
        }
        assert!(result.metrics.aggregator_cpu_pct > 0.0);
        assert!(result.metrics.duration_secs > 0.0);
    }
}
