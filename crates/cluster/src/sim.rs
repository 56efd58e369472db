//! The deterministic cluster simulator: the whole physical plan in one
//! engine, fed by the shared splitter loop ([`crate::rebalance::drive`])
//! through a carrier that is a direct engine call, with per-host work
//! accounted from the operator counters afterwards.

use serde::Serialize;

use qap_exec::{BatchConfig, Engine, ExecError, ExecResult, HostFailure, OpCounters, OpMetrics};
use qap_optimizer::DistributedPlan;
use qap_types::{estimated_tuple_size, ColumnBatch, Tuple};

use crate::rebalance::{
    absorb_in_engine, drive, extract_in_engine, Carrier, Controller, ExtractJob, Handoff, StateRows,
};
use crate::splitter::{plan_streams, single_stream, Splitter};
use crate::transport::{TransportConfig, TransportMetrics};

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
    /// Boundary-transport knobs for the threaded runner (channel
    /// capacity, frame size). The channel knobs are ignored by the
    /// deterministic simulator, which delivers boundaries in-process;
    /// the rebalance controller is honored by every runner.
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
    /// Peak boundary-queue depth (in-flight frames). Zero in the
    /// deterministic simulator (batches deliver synchronously); the
    /// threaded runner reports its live channel peak.
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
    /// Measured boundary transport (frames, encoded bytes, stalls).
    /// Empty in the deterministic simulator; the threaded runner fills
    /// it from its framed channel path.
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
    /// latency, group-table telemetry), indexed by plan node id. The
    /// threaded runner stitches these from its per-host engines.
    pub node_metrics: Vec<OpMetrics>,
    /// Per-host failure records from a partial-results threaded run
    /// ([`crate::TransportConfig::partial_results`]): who failed, why,
    /// and how far each got. Empty on the clean path, in strict mode
    /// (the first failure aborts as `Err` instead), and always in the
    /// deterministic simulator.
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
/// splitter configuration drives all feeds.
///
/// Every host lives in one engine here, so the splitter's carrier is a
/// direct engine call, and a migration "ships" state by
/// extract→absorb between plan nodes — the same
/// [`Engine::flush_before`]/[`Engine::extract_state`]/
/// [`Engine::absorb_state`] contract the threaded and remote runners
/// drive over their transports.
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

    let sink_nodes: Vec<usize> = plan.outputs.iter().map(|o| o.node).collect();
    let mut engine = Engine::with_sinks(&plan.dag, &sink_nodes)?;
    engine.set_batch_config(cfg.batch);

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
            &mut splitter,
            controller.as_mut(),
            &mut control,
            trace,
            &mut InEngine(&mut engine),
        )?;
        duration = duration.max(splitter.duration());
    }
    engine.finish()?;

    let counters = engine.counters().to_vec();
    let node_metrics = engine.metrics();
    let mut metrics = account(plan, &counters, duration, cfg);
    control.apply(&mut metrics);

    let mut outputs = named_outputs(plan);
    for (o, out) in plan.outputs.iter().zip(&mut outputs) {
        out.1 = engine.output(o.node);
    }
    metrics.output_rows = outputs
        .iter()
        .map(|(n, rows)| (n.clone(), rows.len() as u64))
        .collect();
    Ok(SimResult {
        metrics,
        outputs,
        counters,
        node_metrics,
        failures: Vec::new(),
    })
}

/// The plan's output names, each with an empty row set to fill in.
pub(crate) fn named_outputs(plan: &DistributedPlan) -> Vec<(String, Vec<Tuple>)> {
    plan.outputs
        .iter()
        .map(|o| {
            let name = o
                .name
                .clone()
                .unwrap_or_else(|| format!("query{}", o.logical));
            (name, Vec::new())
        })
        .collect()
}

/// The simulator's carrier: every unit is the one engine.
struct InEngine<'a>(&'a mut Engine);

impl Carrier for InEngine<'_> {
    fn feed(&mut self, scan: usize, batch: &mut ColumnBatch) -> ExecResult<()> {
        self.0.push_columns(scan, batch)
    }

    fn extract(
        &mut self,
        handoff: &Handoff<'_>,
        jobs: Vec<ExtractJob>,
    ) -> ExecResult<(Vec<StateRows>, bool)> {
        Ok((extract_in_engine(self.0, handoff.boundary, &jobs)?, false))
    }

    fn absorb(&mut self, batches: Vec<StateRows>) -> ExecResult<bool> {
        absorb_in_engine(self.0, batches)?;
        Ok(true)
    }
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
