//! Adaptive re-partitioning: detector, re-planner and migration spec.
//!
//! The PR 6 planner picks a partitioning *before* the run from trace
//! statistics; this module closes the loop online. Each sample epoch
//! the splitter reports per-host tuple loads; an [`ImbalanceDetector`]
//! fires once the max/mean ratio stays over a threshold for K
//! consecutive epochs. Firing triggers two things:
//!
//! 1. **Re-plan** — [`plan_assignment`] greedily moves virtual buckets
//!    (the `k·M`-entry assignment table behind the splitter's hash
//!    partitioner) from the most- to the
//!    least-loaded host, using the per-bucket tuple counts the splitter
//!    already gathers while routing.
//! 2. **Migrate** — [`migration_spec`] proves the deployed plan can
//!    move group state at all (the *eligibility* rules below) and
//!    precomputes the replica families the runners use to drain, ship
//!    and absorb group-table state at an epoch boundary.
//!
//! # Eligibility
//!
//! Moving a group between hosts is only sound when the leaf tier's
//! windows line up and the state rows can be re-routed by the same hash
//! the splitter applies to raw tuples:
//!
//! - the deployed strategy is `Hash` with a non-empty set (round-robin
//!   has no key → nothing addressable to move);
//! - no `Join` in the leaf tier (join state is keyed per side and is
//!   not addressable by the partitioning set);
//! - every leaf aggregate's temporal group expression is a plain
//!   column or `column / constant` (the executor's fast window path —
//!   the general path cannot force-close a window at a boundary, so
//!   different hosts could sit at different windows and absorbed state
//!   would be late-dropped);
//! - that temporal column is the source time itself, passed through
//!   identity projections (the drain boundary is a *trace* timestamp);
//! - every partitioning-set column survives to the aggregate output as
//!   an identically-named plain group column, so the partitioner a
//!   unit binds against the aggregate schema routes a state row
//!   exactly as the splitter routes the group's raw tuples;
//! - a leaf aggregate with no central super-aggregate over the same
//!   origin (an exact pushed aggregate) additionally requires a pure
//!   `Source → σπ*` input chain: a `Merge` below it buffers tuples
//!   across the drain boundary, and a group split across hosts would
//!   emit duplicate rows with nobody downstream to re-combine them.
//!   Sub-aggregates feeding a central super tolerate the split — the
//!   super re-aggregates partials by design (Section 5.2.2).
//!
//! Ineligible plans are not an error: no controller is attached, the
//! run records the reason, and the table is never rewritten — which is
//! all static partitioning is.
//!
//! # The loop
//!
//! `drive` is the one feed loop of all three runners: it cuts the
//! trace into epochs, routes each through the `Splitter` into the
//! runner's `Carrier`, and — when a `Controller` is attached — runs
//! the control step between epochs and, if it yields a table, one
//! drain-and-handoff (`handoff`) before the swap. A handoff is two
//! rounds of unit commands: one `Extract` per unit holding a member,
//! then one `Absorb` per unit holding a destination. State travels as
//! lanes, and the extracting unit names each state row's partition
//! under the new table: the coordinator only looks up which member owns
//! that partition, and never hashes a key itself. The carrier is the
//! only runner-specific part: the simulator applies the commands to its
//! units in place, the threaded and socket runners send them over the
//! units' ports (the `unit` module) and apply the central unit's in
//! place. Every unit applies its share the same way
//! (`crate::unit::Unit::apply`).

use std::collections::{BTreeMap, HashMap};

use serde::Serialize;

use qap_exec::ExecResult;
use qap_expr::{BinOp, ScalarExpr};
use qap_optimizer::{DistributedPlan, SplitStrategy};
use qap_plan::{LogicalNode, NodeId, QueryDag};
use qap_types::{ColumnBatch, Tuple, Value};

use crate::splitter::{Gauges, Splitter, StreamScans};
use crate::threaded::Deployment;
use crate::unit::{UnitCmd, UnitReply};

/// Virtual buckets per partition (the `k` of a `k·M`-entry assignment
/// table) behind every hash splitter: the load quantum a migration
/// moves is one bucket.
pub const BUCKETS_PER_PARTITION: usize = 8;

/// Knobs for the online rebalance controller. Disabled by default —
/// every existing entry point keeps its static behavior unless a
/// caller opts in.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RebalanceConfig {
    /// Master switch: when false the runners never sample, detect or
    /// migrate.
    pub enabled: bool,
    /// Max/mean per-host load ratio that arms the detector. Clamped to
    /// ≥ 1.0 (a ratio of 1.0 is perfect balance).
    pub threshold: f64,
    /// Consecutive over-threshold epochs before the detector fires.
    pub consecutive: u32,
    /// Sample epoch length in trace seconds: the splitter cuts the feed
    /// and reads the gauges every `sample_secs` of trace time.
    pub sample_secs: u64,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            enabled: false,
            threshold: 1.5,
            consecutive: 2,
            sample_secs: 60,
        }
    }
}

impl RebalanceConfig {
    /// An enabled controller with the default thresholds.
    pub fn adaptive() -> Self {
        RebalanceConfig {
            enabled: true,
            ..RebalanceConfig::default()
        }
    }

    /// Sets the max/mean imbalance threshold (clamped to ≥ 1.0).
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = if threshold.is_finite() {
            threshold.max(1.0)
        } else {
            f64::MAX
        };
        self
    }

    /// Sets the consecutive-epoch count before firing (≥ 1).
    pub fn with_consecutive(mut self, k: u32) -> Self {
        self.consecutive = k.max(1);
        self
    }

    /// Sets the sample epoch length in trace seconds (≥ 1).
    pub fn with_sample_secs(mut self, secs: u64) -> Self {
        self.sample_secs = secs.max(1);
        self
    }
}

/// Windowed max/mean imbalance detector with K-consecutive hysteresis.
///
/// One instance lives in the splitter loop; [`observe`] is called once
/// per sample epoch with the per-host tuple loads of that epoch alone
/// (the window is the epoch — rates, not cumulative totals, so a
/// migration's effect shows up in the very next sample).
///
/// [`observe`]: ImbalanceDetector::observe
#[derive(Debug, Clone)]
pub struct ImbalanceDetector {
    threshold: f64,
    consecutive: u32,
    streak: u32,
    last: f64,
}

impl ImbalanceDetector {
    /// A detector using `cfg`'s threshold and consecutive count.
    pub fn new(cfg: RebalanceConfig) -> Self {
        ImbalanceDetector {
            threshold: cfg.threshold.max(1.0),
            consecutive: cfg.consecutive.max(1),
            streak: 0,
            last: 1.0,
        }
    }

    /// Folds one epoch's per-host loads; returns `true` when the
    /// imbalance has been over threshold for the configured number of
    /// consecutive epochs. Firing resets the streak (the next fire
    /// needs a fresh run of over-threshold epochs, giving a migration
    /// time to take effect).
    pub fn observe(&mut self, loads: &[u64]) -> bool {
        self.last = imbalance(loads);
        if loads.len() < 2 || self.last <= self.threshold {
            self.streak = 0;
            return false;
        }
        self.streak += 1;
        if self.streak >= self.consecutive {
            self.streak = 0;
            return true;
        }
        false
    }

    /// The max/mean ratio of the most recent epoch (1.0 before any
    /// observation).
    pub fn last_imbalance(&self) -> f64 {
        self.last
    }
}

/// Max/mean load ratio: 1.0 is perfect balance; an all-zero or empty
/// epoch reports 1.0 (nothing flowed, nothing is imbalanced).
pub fn imbalance(loads: &[u64]) -> f64 {
    let max = loads.iter().copied().max().unwrap_or(0);
    if max == 0 {
        return 1.0;
    }
    let sum: u64 = loads.iter().sum();
    let mean = sum as f64 / loads.len() as f64;
    max as f64 / mean
}

/// Host that owns partition `p` under the block layout of
/// [`qap_optimizer::Partitioning::host_of_partition`].
fn host_of(p: usize, partitions: usize, hosts: usize) -> usize {
    p * hosts / partitions
}

/// Lower bound on the post-migration imbalance implied by the hottest
/// single key observed this epoch.
///
/// A key hashes to exactly one bucket, so no bucket re-assignment can
/// split its load across hosts: the host that owns it carries at least
/// `share` of the epoch's tuples, giving `imbalance >= share * hosts`
/// under any assignment. When that floor already meets the trigger
/// threshold the migration is provably pointless — the controller skips
/// the drain-and-handoff pause instead of paying it for nothing.
///
/// Returns `0.0` (no constraint) when the sketch saw nothing or
/// `hosts == 0`.
pub fn hot_key_floor(sketch: &qap_partition::KeySketch, hosts: usize) -> f64 {
    let total = sketch.observed();
    if total == 0 || hosts == 0 {
        return 0.0;
    }
    let hottest = sketch.top_k().iter().map(|&(_, n)| n).max().unwrap_or(0);
    hottest as f64 / total as f64 * hosts as f64
}

/// Greedy deterministic bucket re-assignment.
///
/// Given the current bucket→partition table and per-bucket tuple loads
/// from the last sample window, repeatedly moves the heaviest bucket
/// that *strictly improves* the spread from the most-loaded host to the
/// least-loaded host's least-loaded partition. A bucket only moves when
/// its load is strictly below the max−min host gap — moving anything
/// heavier just swaps which host is overloaded. Returns `None` when no
/// move improves the spread (already balanced, one host, or the hot
/// load sits in a single bucket heavier than the gap) and for inputs no
/// deployment produces: more hosts than partitions, mismatched table
/// and load lengths, or a table entry naming a nonexistent partition.
pub fn plan_assignment(
    assign: &[u32],
    bucket_load: &[u64],
    partitions: usize,
    hosts: usize,
) -> Option<Vec<u32>> {
    if hosts < 2
        || hosts > partitions
        || assign.len() != bucket_load.len()
        || assign.is_empty()
        || assign.iter().any(|&p| p as usize >= partitions)
    {
        return None;
    }
    let mut next = assign.to_vec();
    let mut part_load = vec![0u64; partitions];
    for (b, &p) in next.iter().enumerate() {
        part_load[p as usize] += bucket_load[b];
    }
    let mut host_load = vec![0u64; hosts];
    for (p, &l) in part_load.iter().enumerate() {
        host_load[host_of(p, partitions, hosts)] += l;
    }
    let mut changed = false;
    // Each iteration moves one bucket; 4 sweeps over the table bounds
    // the work while letting a badly skewed table disperse fully.
    for _ in 0..next.len() * 4 {
        // `host_load` has `hosts` ≥ 2 entries: both ends exist.
        let (hi, &hi_load) = host_load
            .iter()
            .enumerate()
            .max_by_key(|&(i, &l)| (l, std::cmp::Reverse(i)))?;
        let (lo, &lo_load) = host_load.iter().enumerate().min_by_key(|&(i, &l)| (l, i))?;
        let gap = hi_load - lo_load;
        if gap == 0 {
            break;
        }
        // Heaviest bucket on the overloaded host still below the gap;
        // ties break to the lowest bucket index for determinism.
        let candidate = next
            .iter()
            .enumerate()
            .filter(|&(b, &p)| {
                host_of(p as usize, partitions, hosts) == hi
                    && bucket_load[b] > 0
                    && bucket_load[b] < gap
            })
            .max_by_key(|&(b, _)| (bucket_load[b], std::cmp::Reverse(b)));
        let Some((bucket, _)) = candidate else { break };
        let target = part_load
            .iter()
            .enumerate()
            .filter(|&(p, _)| host_of(p, partitions, hosts) == lo)
            .min_by_key(|&(p, &l)| (l, p));
        let Some((target, _)) = target else { break };
        let from = next[bucket] as usize;
        let load = bucket_load[bucket];
        next[bucket] = target as u32;
        part_load[from] -= load;
        part_load[target] += load;
        host_load[hi] -= load;
        host_load[lo] += load;
        changed = true;
    }
    if changed {
        Some(next)
    } else {
        None
    }
}

/// One leaf aggregate replica: where it runs and which partitions of
/// the split feed it.
#[derive(Debug, Clone)]
pub struct FamilyMember {
    /// Global plan-node id of the aggregate.
    pub node: NodeId,
    /// Host the aggregate runs on.
    pub host: usize,
    /// Partitions whose scans feed this replica (sorted).
    pub partitions: Vec<u32>,
}

/// All replicas of one logical leaf aggregate (grouped by plan origin).
/// A group migrates between members of its own family only.
#[derive(Debug, Clone)]
pub struct ReplicaFamily {
    /// Logical-plan origin node the replicas were lowered from.
    pub origin: NodeId,
    /// The replicas, sorted by node id.
    pub members: Vec<FamilyMember>,
}

impl ReplicaFamily {
    /// The member that owns partition `p`, if any.
    pub fn member_of_partition(&self, p: u32) -> Option<&FamilyMember> {
        self.members.iter().find(|m| m.partitions.contains(&p))
    }
}

/// Everything a runner needs to drain, ship and absorb group state at
/// an epoch boundary, precomputed from an eligible plan.
#[derive(Debug, Clone)]
pub struct MigrationSpec {
    /// Replica families, sorted by origin.
    pub families: Vec<ReplicaFamily>,
}

/// Checks the eligibility rules (module docs) and builds the
/// [`MigrationSpec`], or explains why the plan must stay static.
pub fn migration_spec(plan: &DistributedPlan) -> Result<MigrationSpec, String> {
    let set = match &plan.partitioning.strategy {
        SplitStrategy::Hash(set) if !set.is_empty() => set,
        SplitStrategy::Hash(_) => {
            return Err("hash strategy with an empty partitioning set".into());
        }
        SplitStrategy::RoundRobin => {
            return Err("round-robin split has no key to re-route".into());
        }
    };
    let dag = &plan.dag;
    for id in dag.topo_order() {
        if !plan.central[id] {
            if let LogicalNode::Join { .. } = dag.node(id) {
                return Err(format!("leaf node {id} is a join (state not addressable)"));
            }
        }
    }

    let mut families: Vec<ReplicaFamily> = Vec::new();
    for id in dag.topo_order() {
        if plan.central[id] {
            continue;
        }
        let LogicalNode::Aggregate {
            input, group_by, ..
        } = dag.node(id)
        else {
            continue;
        };
        let schema = dag.schema(id);
        // Window column: mirror the engine's pick — first temporal
        // field among the group columns of the output schema.
        let temporal_idx = schema.fields()[..group_by.len()]
            .iter()
            .position(|f| f.temporality().is_temporal())
            .ok_or_else(|| format!("leaf aggregate {id} has no temporal group column"))?;
        let tcol = fast_temporal_column(&group_by[temporal_idx].expr).ok_or_else(|| {
            format!("leaf aggregate {id}: temporal group expression is not a fast window key")
        })?;
        let has_merge = check_time_lineage(dag, *input, tcol)
            .map_err(|e| format!("leaf aggregate {id}: {e}"))?;
        for e in set.exprs() {
            let pos = schema.fields()[..group_by.len()]
                .iter()
                .position(|f| f.name().eq_ignore_ascii_case(&e.column.name))
                .ok_or_else(|| {
                    format!(
                        "leaf aggregate {id}: partitioning column {} is not a group column",
                        e.column.name
                    )
                })?;
            match &group_by[pos].expr {
                ScalarExpr::Column(c) if c.name.eq_ignore_ascii_case(&e.column.name) => {}
                other => {
                    return Err(format!(
                        "leaf aggregate {id}: group column {} is {other}, not the bare \
                         partitioning column",
                        group_by[pos].name
                    ));
                }
            }
        }
        let origin = dag.origin(id).unwrap_or(id);
        let split_tolerant = dag.topo_order().any(|c| {
            plan.central[c]
                && c != id
                && matches!(dag.node(c), LogicalNode::Aggregate { .. })
                && dag.origin(c).unwrap_or(c) == origin
        });
        if has_merge && !split_tolerant {
            return Err(format!(
                "leaf aggregate {id}: exact pushed aggregate over a merge (a split group \
                 would emit duplicate rows)"
            ));
        }
        let mut partitions = scan_partitions(dag, id)?;
        partitions.sort_unstable();
        let member = FamilyMember {
            node: id,
            host: plan.host[id],
            partitions,
        };
        match families.iter_mut().find(|f| f.origin == origin) {
            Some(f) => f.members.push(member),
            None => families.push(ReplicaFamily {
                origin,
                members: vec![member],
            }),
        }
    }
    if families.is_empty() {
        return Err("no leaf aggregates — nothing holds migratable state".into());
    }
    let partitions = plan.partitioning.partitions;
    for f in &mut families {
        f.members.sort_by_key(|m| m.node);
        let mut covered = vec![false; partitions];
        for m in &f.members {
            for &p in &m.partitions {
                let p = p as usize;
                if p >= partitions || covered[p] {
                    return Err(format!(
                        "family at origin {}: partition {p} not covered exactly once",
                        f.origin
                    ));
                }
                covered[p] = true;
            }
        }
        if covered.iter().any(|c| !c) {
            return Err(format!(
                "family at origin {}: replicas do not cover every partition",
                f.origin
            ));
        }
    }
    families.sort_by_key(|f| f.origin);
    Ok(MigrationSpec { families })
}

/// The column index a fast window key reads: `Column(c)` or
/// `Column(c) / <positive unsigned literal>` (the executor's
/// `KeyEval::Col` / `KeyEval::DivConst` shapes at plan level — anything
/// else takes the general path whose windows cannot be force-closed).
fn fast_temporal_column(e: &ScalarExpr) -> Option<&str> {
    match e {
        ScalarExpr::Column(c) => Some(&c.name),
        ScalarExpr::Binary {
            op: BinOp::Div,
            lhs,
            rhs,
        } => match (lhs.as_ref(), rhs.as_ref()) {
            (ScalarExpr::Column(c), ScalarExpr::Literal(Value::UInt(d))) if *d > 0 => Some(&c.name),
            _ => None,
        },
        _ => None,
    }
}

/// Walks `node`'s input chain proving column `name` is the source
/// stream's primary temporal attribute passed through identity
/// projections. Returns whether the chain contains a `Merge` (the
/// caller decides whether that is tolerable). Errors when the lineage
/// breaks — a renamed, computed or non-primary temporal column means
/// the drain boundary (a trace timestamp) would not match the window
/// values.
fn check_time_lineage(dag: &QueryDag, node: NodeId, name: &str) -> Result<bool, String> {
    match dag.node(node) {
        LogicalNode::Source { stream, .. } => {
            let schema = dag.schema(node);
            let idx = schema
                .fields()
                .iter()
                .position(|f| f.name().eq_ignore_ascii_case(name))
                .ok_or_else(|| format!("column {name} missing from source {stream}"))?;
            let primary = schema
                .temporal_indices()
                .first()
                .copied()
                .ok_or_else(|| format!("source {stream} has no temporal column"))?;
            if idx != primary {
                return Err(format!(
                    "column {name} is not the primary temporal attribute of {stream}"
                ));
            }
            Ok(false)
        }
        LogicalNode::SelectProject {
            input, projections, ..
        } => {
            let proj = projections
                .iter()
                .find(|p| p.name.eq_ignore_ascii_case(name))
                .ok_or_else(|| format!("column {name} dropped by a projection"))?;
            match &proj.expr {
                ScalarExpr::Column(c) => check_time_lineage(dag, *input, &c.name),
                other => Err(format!(
                    "column {name} is computed ({other}), not passed through"
                )),
            }
        }
        LogicalNode::Merge { inputs } => {
            for &i in inputs {
                check_time_lineage(dag, i, name)?;
            }
            Ok(true)
        }
        LogicalNode::Aggregate { .. } => {
            Err(format!("column {name} flows through a nested aggregate"))
        }
        LogicalNode::Join { .. } => Err(format!("column {name} flows through a join")),
    }
}

/// Partitions of every `Source` scan under `node`.
fn scan_partitions(dag: &QueryDag, node: NodeId) -> Result<Vec<u32>, String> {
    let mut out = Vec::new();
    let mut stack = vec![node];
    while let Some(n) = stack.pop() {
        match dag.node(n) {
            LogicalNode::Source { stream, partition } => match partition {
                Some(p) => out.push(*p),
                None => {
                    return Err(format!(
                        "scan of {stream} under node {node} is unpartitioned"
                    ));
                }
            },
            other => stack.extend(other.children()),
        }
    }
    Ok(out)
}

/// What the control loop did over one run — the rebalance fields of
/// [`crate::ClusterMetrics`].
pub(crate) struct ControlStats {
    pub(crate) repartitions: u64,
    pub(crate) migrated_keys: u64,
    pub(crate) pause_ms: f64,
    pub(crate) load_imbalance: f64,
    /// Why an enabled controller was not attached.
    pub(crate) fallback: Option<String>,
}

impl ControlStats {
    pub(crate) fn apply(self, metrics: &mut crate::ClusterMetrics) {
        metrics.repartitions = self.repartitions;
        metrics.migrated_keys = self.migrated_keys;
        metrics.migration_pause_ms = self.pause_ms;
        metrics.load_imbalance = self.load_imbalance;
        metrics.rebalance_fallback = self.fallback;
    }
}

/// The rebalance controller: cuts the feed into sample epochs and, at
/// each boundary, decides whether the splitter's table changes.
pub(crate) struct Controller {
    reb: RebalanceConfig,
    spec: MigrationSpec,
    partitions: usize,
    /// The stream's time column.
    tidx: usize,
    detector: ImbalanceDetector,
    /// Cleared once a unit dies mid-handoff: the fleet's state can no
    /// longer be moved consistently.
    live: bool,
    /// End of the current sample epoch (a trace timestamp); unset until
    /// the first tuple starts the clock.
    epoch_end: Option<u64>,
}

impl Controller {
    /// Attaches a controller when `reb` asks for one and the deployment
    /// can migrate state; otherwise the run is static, and the stats
    /// carry the reason if one was asked for.
    pub(crate) fn attach(
        plan: &DistributedPlan,
        reb: RebalanceConfig,
        streams: &[StreamScans],
    ) -> (Option<Controller>, ControlStats) {
        let mut stats = ControlStats {
            repartitions: 0,
            migrated_keys: 0,
            pause_ms: 0.0,
            load_imbalance: 1.0,
            fallback: None,
        };
        if !reb.enabled {
            return (None, stats);
        }
        let build = || -> Result<Controller, String> {
            let spec = migration_spec(plan)?;
            let scans = match streams {
                [one] => one,
                [] => return Err("plan reads no source stream".into()),
                _ => return Err("adaptive splitter supports a single source stream".into()),
            };
            let &tidx = scans
                .schema
                .temporal_indices()
                .first()
                .ok_or_else(|| format!("stream {} has no time column", scans.stream))?;
            Ok(Controller {
                reb,
                spec,
                partitions: plan.partitioning.partitions,
                tidx,
                detector: ImbalanceDetector::new(reb),
                live: true,
                epoch_end: None,
            })
        };
        match build() {
            Ok(c) => (Some(c), stats),
            Err(reason) => {
                stats.fallback = Some(reason);
                (None, stats)
            }
        }
    }

    fn time_of(&self, t: &Tuple) -> u64 {
        t.get(self.tidx).as_u64().unwrap_or(0)
    }

    /// End index of the sample epoch starting at `start`, advancing the
    /// epoch clock (a gap in the trace yields empty epochs).
    fn next_epoch(&mut self, trace: &[Tuple], start: usize) -> usize {
        let began = self
            .epoch_end
            .unwrap_or_else(|| self.time_of(&trace[start]));
        let epoch_end = began + self.reb.sample_secs.max(1);
        self.epoch_end = Some(epoch_end);
        let mut end = start;
        while end < trace.len() && self.time_of(&trace[end]) < epoch_end {
            end += 1;
        }
        end
    }

    /// The control step at a sample boundary: fold the epoch's gauges
    /// into the detector and, when it fires, is not vetoed by an
    /// indivisible hot key, and the greedy planner finds an improving
    /// move, return the next table.
    fn at_boundary(
        &mut self,
        gauges: &Gauges,
        assignment: &[u32],
        stats: &mut ControlStats,
    ) -> Option<Vec<u32>> {
        let hosts = gauges.host_tuples.len();
        stats.load_imbalance = stats.load_imbalance.max(imbalance(&gauges.host_tuples));
        if !(self.detector.observe(&gauges.host_tuples)
            && self.live
            && hot_key_floor(&gauges.sketch, hosts) < self.reb.threshold)
        {
            return None;
        }
        plan_assignment(assignment, &gauges.bucket_tuples, self.partitions, hosts)
    }
}

/// How a runner reaches its units: the transport-specific half of the
/// feed loop and of drain-and-handoff.
pub(crate) trait Carrier {
    /// Delivers one staged batch to the unit that owns `scan` (a global
    /// plan id), draining the splitter's buffer. A dead unit swallows
    /// its feed (its failure surfaces when it is joined).
    fn feed(&mut self, scan: NodeId, batch: &mut ColumnBatch) -> ExecResult<()>;

    /// Gives each unit its command — one half of a handoff — and
    /// collects the replies; `None` for a unit that is dead or could not
    /// be reached.
    fn round(&mut self, cmds: Vec<(usize, UnitCmd)>)
        -> ExecResult<Vec<(usize, Option<UnitReply>)>>;
}

/// Drives one feed through the splitter and into the carrier. Without a
/// controller the run is one epoch spanning the whole feed. With one,
/// the feed is cut at every sample boundary for the control step; only
/// a boundary that actually hands state off flushes the staged residue
/// (the drain needs every routed tuple inside its engine) — so a
/// controller that never fires feeds exactly the static run's batches.
pub(crate) fn drive<C: Carrier>(
    dep: &Deployment<'_>,
    splitter: &mut Splitter,
    mut controller: Option<&mut Controller>,
    stats: &mut ControlStats,
    trace: &[Tuple],
    carrier: &mut C,
) -> ExecResult<()> {
    let mut start = 0;
    while start < trace.len() {
        let end = match controller.as_deref_mut() {
            Some(ctl) => ctl.next_epoch(trace, start),
            None => trace.len(),
        };
        splitter.route(&trace[start..end], &mut |scan, batch| {
            carrier.feed(scan, batch)
        })?;
        if let (Some(ctl), Some(gauges)) = (controller.as_deref_mut(), splitter.gauges()) {
            if end < trace.len() {
                if let Some(next) = ctl.at_boundary(gauges, splitter.assignment(), stats) {
                    splitter.flush(&mut |scan, batch| carrier.feed(scan, batch))?;
                    let timer = std::time::Instant::now();
                    let moved = handoff(ctl, dep, carrier, &next)?;
                    stats.pause_ms += timer.elapsed().as_secs_f64() * 1e3;
                    if let Some(n) = moved {
                        stats.migrated_keys += n;
                        stats.repartitions += 1;
                        splitter.set_assignment(next);
                    }
                }
                splitter.reset_gauges();
            }
        }
        start = end;
    }
    splitter.flush(&mut |scan, batch| carrier.feed(scan, batch))
}

/// One drain-and-handoff at the controller's current epoch boundary:
/// flush-and-extract on every member, send each state row to the member
/// owning the partition its unit named for it under the next table,
/// absorb at the destinations. Each destination receives its rows in
/// reply order, then row order. Transactional up to the first absorb:
/// if any extract died — or answered with a node it was not asked for,
/// a partition list that does not match its rows, a partition outside
/// the table, or state shaped unlike its family's — every other
/// extracted row goes back to its source (best effort) and the old
/// table stays (`None`). Once absorbs start the next table takes effect
/// regardless — rows bound for a dead unit are part of that unit's
/// failure record, exactly like tuples it would have been fed. Either
/// kind of death ends migrations for the run.
fn handoff<C: Carrier>(
    ctl: &mut Controller,
    dep: &Deployment<'_>,
    carrier: &mut C,
    next: &[u32],
) -> ExecResult<Option<u64>> {
    // One `Extract` per unit, over the members it runs.
    let mut family_of: HashMap<NodeId, usize> = HashMap::new();
    let mut jobs: BTreeMap<usize, Vec<(u32, Vec<u32>)>> = BTreeMap::new();
    for (fi, fam) in ctl.spec.families.iter().enumerate() {
        for mem in &fam.members {
            family_of.insert(mem.node, fi);
            let job = (dep.local_of[mem.node] as u32, mem.partitions.clone());
            jobs.entry(dep.unit_of[mem.node]).or_default().push(job);
        }
    }
    let cmds = jobs
        .into_iter()
        .map(|(u, jobs)| {
            let cmd = UnitCmd::Extract {
                boundary: ctl.epoch_end.unwrap_or(0),
                partitions: ctl.partitions as u32,
                assignment: next.to_vec(),
                jobs,
            };
            (u, cmd)
        })
        .collect();
    let (mut extracted, mut any_dead) = (Vec::new(), false);
    let mut arity_of: HashMap<usize, usize> = HashMap::new();
    for (u, reply) in carrier.round(cmds)? {
        let Some(batches) = reply else {
            any_dead = true;
            continue;
        };
        for (local, state, parts) in batches {
            let local = local as NodeId;
            let ids = |&g: &NodeId| dep.unit_of[g] == u && dep.local_of[g] == local;
            let family = (0..dep.unit_of.len())
                .find(ids)
                .and_then(|node| Some((node, *family_of.get(&node)?)));
            let sound = family.is_some_and(|(_, fi)| {
                parts.len() == state.rows()
                    && parts.iter().all(|&p| (p as usize) < ctl.partitions)
                    && *arity_of.entry(fi).or_insert(state.arity()) == state.arity()
            });
            match family {
                Some((node, fi)) if sound => extracted.push((node, fi, state, parts)),
                _ => any_dead = true,
            }
        }
    }
    if any_dead {
        let back = extracted
            .into_iter()
            .map(|(node, _, state, _)| (node, state));
        absorb(dep, carrier, back.collect())?;
        ctl.live = false;
        return Ok(None);
    }
    let mut per_dest: BTreeMap<NodeId, ColumnBatch> = BTreeMap::new();
    for (node, fi, state, parts) in extracted {
        // The spec covers every partition; a row that somehow maps
        // nowhere stays with its source.
        let fam = &ctl.spec.families[fi];
        let dest_of = |p: u32| fam.member_of_partition(p).map_or(node, |m| m.node);
        let mut rows_to: BTreeMap<NodeId, Vec<u32>> = BTreeMap::new();
        for (row, &p) in parts.iter().enumerate() {
            rows_to.entry(dest_of(p)).or_default().push(row as u32);
        }
        for (dest, rows) in rows_to {
            let batch = per_dest.entry(dest);
            let batch = batch.or_insert_with(|| ColumnBatch::new(state.arity()));
            batch.append_gather(&state, &rows);
        }
    }
    let moved = per_dest.values().map(|state| state.rows() as u64).sum();
    if !absorb(dep, carrier, per_dest.into_iter().collect())? {
        ctl.live = false;
    }
    Ok(Some(moved))
}

/// The absorb half of a handoff: one `Absorb` per unit holding a
/// destination; `false` when one of them is dead.
fn absorb<C: Carrier>(
    dep: &Deployment<'_>,
    carrier: &mut C,
    batches: Vec<(NodeId, ColumnBatch)>,
) -> ExecResult<bool> {
    let mut by_unit: BTreeMap<usize, Vec<(u32, ColumnBatch)>> = BTreeMap::new();
    for (node, state) in batches {
        let local = (dep.local_of[node] as u32, state);
        by_unit.entry(dep.unit_of[node]).or_default().push(local);
    }
    let cmds = by_unit
        .into_iter()
        .map(|(u, batches)| (u, UnitCmd::Absorb(batches)))
        .collect();
    Ok(carrier
        .round(cmds)?
        .iter()
        .all(|(_, reply)| reply.is_some()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qap_optimizer::{optimize, OptimizerConfig, PartialAggScope, Partitioning};
    use qap_partition::PartitionSet;
    use qap_sql::QuerySetBuilder;
    use qap_types::Catalog;

    fn dag_for(sql: &str) -> QueryDag {
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.add_query("q", sql).expect("parse");
        b.build()
    }

    fn plan_for(sql: &str, hosts: usize, cfg: OptimizerConfig) -> DistributedPlan {
        let part = Partitioning::hash(PartitionSet::from_columns(["srcIP"]), hosts);
        optimize(&dag_for(sql), &part, &cfg).expect("optimize")
    }

    const FLOWS: &str = "SELECT tb, srcIP, COUNT(*) as pkts FROM TCP \
                         GROUP BY time/60 as tb, srcIP";

    #[test]
    fn detector_fires_after_k_consecutive_epochs() {
        let cfg = RebalanceConfig::adaptive()
            .with_threshold(1.5)
            .with_consecutive(2);
        let mut d = ImbalanceDetector::new(cfg);
        assert!(!d.observe(&[100, 100, 100, 100])); // balanced
        assert!(!d.observe(&[400, 10, 10, 10])); // 1st hot epoch
        assert!(d.observe(&[400, 10, 10, 10])); // 2nd → fire
        assert!(!d.observe(&[400, 10, 10, 10])); // streak reset
        assert!((d.last_imbalance() - 400.0 / 107.5).abs() < 1e-9);
    }

    #[test]
    fn detector_streak_resets_on_a_balanced_epoch() {
        let mut d = ImbalanceDetector::new(
            RebalanceConfig::adaptive()
                .with_threshold(1.2)
                .with_consecutive(3),
        );
        assert!(!d.observe(&[500, 10]));
        assert!(!d.observe(&[500, 10]));
        assert!(!d.observe(&[10, 10])); // balanced: streak dies
        assert!(!d.observe(&[500, 10]));
        assert!(!d.observe(&[500, 10]));
        assert!(d.observe(&[500, 10]));
    }

    #[test]
    fn imbalance_of_nothing_is_balanced() {
        assert_eq!(imbalance(&[]), 1.0);
        assert_eq!(imbalance(&[0, 0, 0]), 1.0);
        assert_eq!(imbalance(&[8, 8]), 1.0);
    }

    #[test]
    fn plan_assignment_spreads_a_hot_host() {
        // 2 hosts × 2 partitions × 2 buckets; identity assignment puts
        // buckets {0,1} on partition 0 and {2,3} on partition 1 — all
        // of host 0.
        let assign = qap_partition::identity_assignment(4, 2); // [0,0,1,1,2,2,3,3]
                                                               // Host 0 (partitions 0,1 → buckets 0..4) carries all the load.
        let load = [400, 300, 200, 100, 0, 0, 0, 0];
        let next = plan_assignment(&assign, &load, 4, 2).expect("rebalances");
        let host_load = |a: &[u32]| {
            let mut h = [0u64; 2];
            for (b, &p) in a.iter().enumerate() {
                h[host_of(p as usize, 4, 2)] += load[b];
            }
            h
        };
        let before = host_load(&assign);
        let after = host_load(&next);
        assert_eq!(before, [1000, 0]);
        assert!(after[0].abs_diff(after[1]) < before[0].abs_diff(before[1]));
        assert!(
            after[0] >= 400,
            "the heaviest bucket cannot move (400 < gap fails once balanced)"
        );
        // Deterministic: same inputs, same plan.
        assert_eq!(plan_assignment(&assign, &load, 4, 2).unwrap(), next);
    }

    #[test]
    fn plan_assignment_is_a_no_op_when_balanced_or_degenerate() {
        let assign = qap_partition::identity_assignment(4, 2);
        // Equal per-bucket loads leave no host gap: nothing to move.
        assert!(plan_assignment(&assign, &[5; 8], 4, 2).is_none());
        // One host: nowhere to move.
        let one = qap_partition::identity_assignment(2, 2);
        assert!(plan_assignment(&one, &[100, 0, 0, 0], 2, 1).is_none());
        // Mismatched shapes.
        assert!(plan_assignment(&assign, &[1, 2, 3], 4, 2).is_none());
        // More hosts than partitions: some host owns no partition.
        assert!(plan_assignment(&[0, 0], &[3, 2], 1, 2).is_none());
        // A table entry naming a nonexistent partition.
        assert!(plan_assignment(&[5, 0], &[3, 2], 2, 2).is_none());
    }

    #[test]
    fn plan_assignment_leaves_an_indivisible_hot_bucket_alone() {
        // All load in one bucket: moving it only swaps the hot host.
        let assign = qap_partition::identity_assignment(2, 1); // [0,1]
        assert!(plan_assignment(&assign, &[1000, 0], 2, 2).is_none());
    }

    #[test]
    fn pushed_aggregate_plan_is_eligible() {
        let plan = plan_for(FLOWS, 2, OptimizerConfig::full());
        let spec = migration_spec(&plan).expect("eligible");
        assert_eq!(spec.families.len(), 1);
        let fam = &spec.families[0];
        let total: usize = fam.members.iter().map(|m| m.partitions.len()).sum();
        assert_eq!(total, plan.partitioning.partitions);
        for m in &fam.members {
            assert!(!plan.central[m.node]);
            assert_eq!(plan.host[m.node], m.host);
        }
        // Partition→member lookup round-trips.
        for p in 0..plan.partitioning.partitions as u32 {
            let m = fam.member_of_partition(p).expect("covered");
            assert!(m.partitions.contains(&p));
        }
    }

    #[test]
    fn pushed_aggregate_stays_eligible_per_host_scope() {
        // Scope only changes the lowering when the planner picks
        // sub/super aggregation; a compatible set keeps the exact push
        // and one replica per partition either way.
        let mut cfg = OptimizerConfig::full();
        cfg.partial_agg_scope = PartialAggScope::PerHost;
        let plan = plan_for(
            "SELECT tb, srcIP, SUM(len) as bytes FROM TCP GROUP BY time/60 as tb, srcIP \
             HAVING SUM(len) > 100",
            3,
            cfg,
        );
        let spec = migration_spec(&plan).expect("eligible");
        assert_eq!(spec.families.len(), 1);
        let covered: usize = spec.families[0]
            .members
            .iter()
            .map(|m| m.partitions.len())
            .sum();
        assert_eq!(covered, plan.partitioning.partitions);
    }

    #[test]
    fn sub_super_over_an_incompatible_set_is_ineligible() {
        // Partitioned on {srcIP, destIP} but grouped on srcIP alone:
        // the planner lowers to sub/super aggregates, and a state row
        // carries no destIP value to re-route by — static fallback.
        let dag =
            dag_for("SELECT tb, srcIP, COUNT(*) as pkts FROM TCP GROUP BY time/60 as tb, srcIP");
        let part = Partitioning::hash(PartitionSet::from_columns(["srcIP", "destIP"]), 2);
        let plan = optimize(&dag, &part, &OptimizerConfig::full()).expect("optimize");
        assert!(migration_spec(&plan).is_err());
    }

    #[test]
    fn round_robin_is_ineligible() {
        let plan = optimize(
            &dag_for(FLOWS),
            &Partitioning::round_robin(2),
            &OptimizerConfig::full(),
        )
        .expect("optimize");
        let err = migration_spec(&plan).unwrap_err();
        assert!(err.contains("round-robin"), "{err}");
    }

    #[test]
    fn group_by_missing_the_partition_column_is_ineligible() {
        // Partitioned on srcIP but grouped only on destIP: a state row
        // carries no srcIP value to re-route by.
        let plan = plan_for(
            "SELECT tb, destIP, COUNT(*) as pkts FROM TCP GROUP BY time/60 as tb, destIP",
            2,
            OptimizerConfig::full(),
        );
        // Either the eligibility check rejects the aggregate, or the
        // optimizer already fell back to central execution (no leaf
        // aggregates) — both are ineligible.
        assert!(migration_spec(&plan).is_err());
    }

    #[test]
    fn hot_key_floor_bounds_achievable_imbalance() {
        use qap_partition::KeySketch;

        let empty = KeySketch::with_defaults();
        assert_eq!(hot_key_floor(&empty, 4), 0.0);

        // One key carries half the traffic: on 4 hosts no assignment
        // beats imbalance 2.0.
        let mut s = KeySketch::with_defaults();
        s.observe_n(42, 500);
        for h in 0..100u64 {
            s.observe_n(1_000 + h, 5);
        }
        let floor = hot_key_floor(&s, 4);
        assert!(
            (floor - 2.0).abs() < 0.1,
            "floor {floor} should be ~0.5 * 4"
        );
        assert_eq!(hot_key_floor(&s, 0), 0.0);

        // Uniform keys: the floor collapses well below any sane
        // threshold, so it never vetoes a useful migration.
        let mut u = KeySketch::with_defaults();
        for h in 0..200u64 {
            u.observe_n(h, 10);
        }
        assert!(hot_key_floor(&u, 4) < 1.0);
    }

    /// A carrier whose first extracting unit answers, for its first job's
    /// node, with one `(state rows, partitions)` batch per entry of
    /// `reply`, and whose every other unit extracts nothing; it records
    /// each absorb as rows per (unit, local node).
    struct Scripted {
        reply: Vec<(Vec<Tuple>, Vec<u32>)>,
        absorbed: BTreeMap<(usize, u32), Vec<Tuple>>,
    }

    impl Carrier for Scripted {
        fn feed(&mut self, _: NodeId, _: &mut ColumnBatch) -> ExecResult<()> {
            Ok(())
        }

        fn round(
            &mut self,
            cmds: Vec<(usize, UnitCmd)>,
        ) -> ExecResult<Vec<(usize, Option<UnitReply>)>> {
            let mut replies = Vec::new();
            for (u, cmd) in cmds {
                let reply = match cmd {
                    UnitCmd::Extract { jobs, .. } if replies.is_empty() => (self.reply.iter())
                        .map(|(rows, parts)| {
                            (jobs[0].0, ColumnBatch::from_rows(rows), parts.clone())
                        })
                        .collect(),
                    UnitCmd::Absorb(batches) => {
                        for (local, state) in batches {
                            let rows = self.absorbed.entry((u, local)).or_default();
                            rows.extend(state.to_rows());
                        }
                        Vec::new()
                    }
                    _ => Vec::new(),
                };
                replies.push((u, Some(reply)));
            }
            Ok(replies)
        }
    }

    /// The coordinator sends each state row to the member owning the
    /// partition its unit named, and treats a reply whose partitions do
    /// not fit its rows or the table, or whose state is shaped unlike
    /// its family's, like a dead unit: the old table stays, only the
    /// sound batches go back to their source, and migration stops.
    #[test]
    fn handoff_routes_by_the_units_partitions() {
        let plan = plan_for(FLOWS, 2, OptimizerConfig::full());
        let dep = Deployment::new(&plan, &crate::SimConfig::default()).unwrap();
        let streams = crate::splitter::plan_streams(&plan).unwrap();
        let attach = || {
            let (ctl, _) = Controller::attach(&plan, RebalanceConfig::adaptive(), &streams);
            ctl.expect("the flows plan migrates")
        };
        let m = plan.partitioning.partitions as u32;
        let next = qap_partition::identity_assignment(m as usize, BUCKETS_PER_PARTITION);
        let fam = migration_spec(&plan).unwrap().families[0].clone();
        let at = |p: u32| {
            let node = fam.member_of_partition(p).unwrap().node;
            (dep.unit_of[node], dep.local_of[node] as u32)
        };
        let rows = |width: u64| -> Vec<Tuple> {
            (0..2u64)
                .map(|k| (0..width).map(|c| Value::UInt(60 * c + k)).collect())
                .collect()
        };
        let run = |reply: Vec<(Vec<Tuple>, Vec<u32>)>| {
            let mut ctl = attach();
            let mut carrier = Scripted {
                reply,
                absorbed: BTreeMap::new(),
            };
            let moved = handoff(&mut ctl, &dep, &mut carrier, &next).unwrap();
            (moved, ctl.live, carrier.absorbed)
        };

        let (moved, live, absorbed) = run(vec![(rows(2), vec![m - 1, 0])]);
        assert_eq!((moved, live), (Some(2), true));
        let mut want: BTreeMap<(usize, u32), Vec<Tuple>> = BTreeMap::new();
        want.insert(at(m - 1), vec![rows(2)[0].clone()]);
        want.insert(at(0), vec![rows(2)[1].clone()]);
        assert_eq!(want.len(), 2, "the two rows go to different members");
        assert_eq!(absorbed, want);

        for parts in [vec![0], vec![0, 0, 1], vec![0, m]] {
            let (moved, live, absorbed) = run(vec![(rows(2), parts.clone())]);
            assert_eq!((moved, live), (None, false), "{parts:?}");
            assert!(absorbed.is_empty(), "{parts:?}");
        }

        // The first batch is sound and goes back where it came from: the
        // first job (lowest node) of the first unit asked.
        let mixed = vec![(rows(2), vec![m - 1, 0]), (rows(3), vec![0, 0])];
        let (moved, live, absorbed) = run(mixed);
        assert_eq!((moved, live), (None, false));
        let first = fam
            .members
            .iter()
            .map(|f| (dep.unit_of[f.node], f.node))
            .min();
        let (unit, node) = first.unwrap();
        let source = BTreeMap::from([((unit, dep.local_of[node] as u32), rows(2))]);
        assert_eq!(absorbed, source);
    }
}
