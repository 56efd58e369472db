//! The splitter in front of the hosts (Section 3.3).
//!
//! Every runner — the simulator, the threaded runner, the socket
//! coordinator — routes its feed through one [`Splitter`]: hash
//! (through a virtual-bucket assignment table) or round-robin
//! assignment of raw tuples to partitions, staged into
//! `max_batch`-tuple batches per partition and handed to the runner's
//! carrier a full batch at a time, with the partial tails flushed in
//! ascending scan-node order. Each row is touched once: its arity and
//! its values' kinds are checked against the stream's schema, its key
//! words are hashed where they lie, and its values are scattered into
//! the partition's pre-sized lanes. A *static*
//! deployment is simply a table nobody rewrites; the rebalance
//! controller ([`crate::rebalance::Controller`]) rewrites it between
//! epochs.

use qap_exec::{ExecError, ExecResult};
use qap_optimizer::{DistributedPlan, SplitStrategy};
use qap_partition::{HashPartitioner, KeySketch};
use qap_plan::{LogicalNode, NodeId};
use qap_types::{frame_rows, Bytes, ColumnBatch, Field, Schema, Tuple};

use crate::rebalance::BUCKETS_PER_PARTITION;
use crate::sim::SimConfig;

/// One base stream's partition scans.
pub(crate) struct StreamScans {
    /// Stream name as the plan spells it.
    pub(crate) stream: String,
    pub(crate) schema: Schema,
    /// Partition → scan node.
    pub(crate) scan_of: Vec<NodeId>,
}

/// Locates the plan's partition scans, grouped by base stream in order
/// of first appearance.
pub(crate) fn plan_streams(plan: &DistributedPlan) -> ExecResult<Vec<StreamScans>> {
    let m = plan.partitioning.partitions;
    let mut found: Vec<(String, Vec<Option<NodeId>>)> = Vec::new();
    for id in plan.dag.topo_order() {
        if let LogicalNode::Source { stream, partition } = plan.dag.node(id) {
            let p = partition.ok_or_else(|| {
                ExecError::BadPlan("distributed plan contains an unpartitioned source".into())
            })? as usize;
            let at = match found
                .iter()
                .position(|(s, _)| s.eq_ignore_ascii_case(stream))
            {
                Some(at) => at,
                None => {
                    found.push((stream.clone(), vec![None; m]));
                    found.len() - 1
                }
            };
            *found[at].1.get_mut(p).ok_or_else(|| {
                ExecError::BadPlan(format!("scan of partition {p} but the plan has {m}"))
            })? = Some(id);
        }
    }
    found
        .into_iter()
        .map(|(stream, scans)| {
            let schema = plan.dag.catalog().get(&stream).cloned().ok_or_else(|| {
                ExecError::BadPlan(format!("plan catalog has no stream '{stream}'"))
            })?;
            let scan_of = scans
                .into_iter()
                .enumerate()
                .map(|(p, s)| {
                    s.ok_or_else(|| {
                        ExecError::BadPlan(format!("plan has no scan for partition {p}"))
                    })
                })
                .collect::<ExecResult<_>>()?;
            Ok(StreamScans {
                stream,
                schema,
                scan_of,
            })
        })
        .collect()
}

/// The scans of a plan fed by exactly one trace.
pub(crate) fn single_stream(plan: &DistributedPlan) -> ExecResult<StreamScans> {
    let mut streams = plan_streams(plan)?;
    if streams.len() != 1 {
        return Err(ExecError::BadPlan(format!(
            "plan reads {} streams; use run_distributed_multi and feed each",
            streams.len()
        )));
    }
    Ok(streams.remove(0))
}

/// An owned feed batch, as it crosses a unit's port: what the engine
/// ingests. The splitter transposes each row once, into lanes, and
/// moves no per-tuple allocation between threads.
#[derive(Debug)]
pub(crate) enum Batch {
    Columns(ColumnBatch),
    /// Already one wire frame — how a batch arrives over a socket. It
    /// stays encoded until `Engine::push_frame`.
    Frame(Bytes),
}

impl Batch {
    /// Tuples in the batch; for a frame, what its header claims (the
    /// count word, less the flag).
    pub(crate) fn len(&self) -> usize {
        match self {
            Batch::Columns(cols) => cols.rows(),
            Batch::Frame(frame) => frame_rows(frame),
        }
    }
}

/// Test-only: batches compare by content, whether staged or encoded.
#[cfg(test)]
impl PartialEq for Batch {
    fn eq(&self, other: &Batch) -> bool {
        let rows = |b: &Batch| match b {
            Batch::Columns(cols) => Ok(cols.to_rows()),
            Batch::Frame(frame) => Err(frame.clone()),
        };
        rows(self) == rows(other)
    }
}

/// What the controller reads at an epoch boundary: tuples routed per
/// host and per virtual bucket since the last reset, and the key
/// frequencies seen by the same hash sweep.
pub(crate) struct Gauges {
    pub(crate) host_tuples: Vec<u64>,
    pub(crate) bucket_tuples: Vec<u64>,
    pub(crate) sketch: KeySketch,
}

enum Route {
    Hash(HashPartitioner),
    RoundRobin(usize),
}

pub(crate) struct Splitter {
    route: Route,
    scan_of: Vec<NodeId>,
    /// Partitions in ascending scan-node order: the tail-flush order.
    tail_order: Vec<usize>,
    host_of: Vec<usize>,
    max: usize,
    /// Stream name, arity and fields, for the row check.
    stream: String,
    arity: usize,
    fields: Vec<Field>,
    /// Rows routed so far: the index a bad row is reported by.
    routed: usize,
    /// The stream's first temporal column, and the least and greatest
    /// value routed in it so far: the trace's span.
    time_col: Option<usize>,
    time_lo: u64,
    time_hi: u64,
    /// Partition → the batch being filled.
    stage: Vec<ColumnBatch>,
    gauges: Option<Gauges>,
}

impl Splitter {
    /// A splitter over `scans` with the identity assignment table
    /// (which routes bit-identically to the closed-form range split),
    /// staging `cfg.batch.max_batch`-row column batches. `gauged` turns
    /// on load accounting and is only meaningful for hash strategies.
    pub(crate) fn new(
        plan: &DistributedPlan,
        scans: &StreamScans,
        cfg: &SimConfig,
        gauged: bool,
    ) -> ExecResult<Splitter> {
        let part = &plan.partitioning;
        let m = part.partitions;
        let route = match &part.strategy {
            SplitStrategy::RoundRobin => Route::RoundRobin(0),
            SplitStrategy::Hash(set) => Route::Hash(
                HashPartitioner::with_buckets(set, &scans.schema, m, BUCKETS_PER_PARTITION)
                    .map_err(|e| ExecError::BadPlan(format!("unusable partitioning set: {e}")))?,
            ),
        };
        let gauges = match &route {
            Route::Hash(h) if gauged => Some(Gauges {
                host_tuples: vec![0; part.hosts],
                bucket_tuples: vec![0; h.bucket_count()],
                sketch: KeySketch::with_defaults(),
            }),
            _ => None,
        };
        let (arity, max) = (scans.schema.arity(), cfg.batch.max_batch.max(1));
        let mut tail_order: Vec<usize> = (0..m).collect();
        tail_order.sort_unstable_by_key(|&p| scans.scan_of[p]);
        Ok(Splitter {
            route,
            scan_of: scans.scan_of.clone(),
            tail_order,
            host_of: (0..m).map(|p| part.host_of_partition(p)).collect(),
            max,
            stream: scans.stream.clone(),
            arity,
            fields: scans.schema.fields().to_vec(),
            routed: 0,
            time_col: scans.schema.temporal_indices().first().copied(),
            time_lo: u64::MAX,
            time_hi: 0,
            stage: (0..m)
                .map(|_| ColumnBatch::with_row_budget(arity, max))
                .collect(),
            gauges,
        })
    }

    /// Routes `feed` in arrival order, one pass over the rows, handing
    /// every batch that fills to `emit(scan, batch)` and widening the
    /// trace span by each row's time. The receiver must drain the batch
    /// (as `Engine::push_columns` and `ColumnBatch::take` do); the
    /// buffer stays with the splitter. A row whose arity is not the
    /// stream's, or with a value of another kind than its column
    /// declares, is a typed error naming it: the feed comes from outside
    /// the plan.
    pub(crate) fn route(
        &mut self,
        feed: &[Tuple],
        emit: &mut impl FnMut(NodeId, &mut ColumnBatch) -> ExecResult<()>,
    ) -> ExecResult<()> {
        for tuple in feed {
            if tuple.arity() != self.arity {
                return Err(ExecError::BadPlan(format!(
                    "trace tuple {} has arity {} but stream '{}' has arity {}",
                    self.routed,
                    tuple.arity(),
                    self.stream,
                    self.arity
                )));
            }
            let row = self.routed;
            self.routed += 1;
            if let Some(c) = self.time_col {
                let t = tuple.get(c).as_u64().unwrap_or(0);
                self.time_lo = self.time_lo.min(t);
                self.time_hi = self.time_hi.max(t);
            }
            let p = match &mut self.route {
                Route::RoundRobin(next) => {
                    let p = *next;
                    *next = (p + 1) % self.scan_of.len();
                    p
                }
                Route::Hash(h) => {
                    let to = h.route(tuple);
                    if let Some(g) = &mut self.gauges {
                        g.sketch.observe(to.hash);
                        g.host_tuples[self.host_of[to.partition]] += 1;
                        g.bucket_tuples[to.bucket] += 1;
                    }
                    to.partition
                }
            };
            let buf = &mut self.stage[p];
            buf.push_checked_row(tuple, row, &self.fields)?;
            if buf.rows() >= self.max {
                emit_columns(buf, self.scan_of[p], self.arity, self.max, emit)?;
            }
        }
        Ok(())
    }

    /// Hands out every partial batch, in ascending scan-node order so
    /// the residue feeds deterministically regardless of partition
    /// numbering. The buffers stay usable for the next epoch.
    pub(crate) fn flush(
        &mut self,
        emit: &mut impl FnMut(NodeId, &mut ColumnBatch) -> ExecResult<()>,
    ) -> ExecResult<()> {
        for &p in &self.tail_order {
            let buf = &mut self.stage[p];
            if buf.rows() > 0 {
                emit_columns(buf, self.scan_of[p], self.arity, self.max, emit)?;
            }
        }
        Ok(())
    }

    /// The span of the stream's first temporal column over every row
    /// routed so far, in seconds: `max − min + 1` over `Value::as_u64`,
    /// a value it does not read (NULL, negative, string) counting as 0.
    /// 1.0 before the first row, and for a stream with no temporal
    /// column.
    pub(crate) fn duration(&self) -> f64 {
        match self.time_col {
            Some(_) if self.routed > 0 => (self.time_hi - self.time_lo + 1) as f64,
            _ => 1.0,
        }
    }

    /// The load gauges, when the splitter was built `gauged` over a
    /// hash strategy.
    pub(crate) fn gauges(&self) -> Option<&Gauges> {
        self.gauges.as_ref()
    }

    /// Zeroes the gauges for the next sample epoch.
    pub(crate) fn reset_gauges(&mut self) {
        if let Some(g) = &mut self.gauges {
            g.host_tuples.fill(0);
            g.bucket_tuples.fill(0);
            g.sketch.clear();
        }
    }

    /// The current bucket → partition table (empty for round-robin).
    pub(crate) fn assignment(&self) -> &[u32] {
        match &self.route {
            Route::Hash(h) => h.assignment(),
            Route::RoundRobin(_) => &[],
        }
    }

    /// Swaps in the next table: the atomic re-route at an epoch
    /// boundary.
    pub(crate) fn set_assignment(&mut self, next: Vec<u32>) {
        if let Route::Hash(h) = &mut self.route {
            h.set_assignment(next);
        }
    }
}

/// Ships one staged batch. `Engine::push_columns` swaps the buffer
/// against a pooled batch; one of another arity is re-armed before
/// reuse.
fn emit_columns(
    buf: &mut ColumnBatch,
    scan: NodeId,
    arity: usize,
    max: usize,
    emit: &mut impl FnMut(NodeId, &mut ColumnBatch) -> ExecResult<()>,
) -> ExecResult<()> {
    emit(scan, buf)?;
    if buf.arity() != arity {
        *buf = ColumnBatch::with_row_budget(arity, max);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qap_optimizer::{optimize, OptimizerConfig, Partitioning};
    use qap_partition::PartitionSet;
    use qap_sql::QuerySetBuilder;
    use qap_trace::{generate, TraceConfig};
    use qap_types::{Catalog, DataType, TypeError, Value};

    fn plan_for(part: &Partitioning) -> DistributedPlan {
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.add_query(
            "flows",
            "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
             GROUP BY time/60 as tb, srcIP, destIP",
        )
        .unwrap();
        optimize(&b.build(), part, &OptimizerConfig::full()).unwrap()
    }

    /// The splitter's contract written out the slow way: per-row
    /// partitioning, `max`-tuple staging, tails in ascending scan order.
    fn reference(
        plan: &DistributedPlan,
        scans: &StreamScans,
        trace: &[Tuple],
        max: usize,
    ) -> Vec<(NodeId, Vec<Tuple>)> {
        let m = plan.partitioning.partitions;
        let hash = match &plan.partitioning.strategy {
            SplitStrategy::Hash(set) => Some(HashPartitioner::new(set, &scans.schema, m).unwrap()),
            SplitStrategy::RoundRobin => None,
        };
        let mut out = Vec::new();
        let mut stage: Vec<Vec<Tuple>> = vec![Vec::new(); m];
        for (i, t) in trace.iter().enumerate() {
            let p = hash.as_ref().map_or(i % m, |h| h.partition(t));
            stage[p].push(t.clone());
            if stage[p].len() >= max {
                out.push((scans.scan_of[p], std::mem::take(&mut stage[p])));
            }
        }
        let mut tail: Vec<(NodeId, usize)> = (0..m).map(|p| (scans.scan_of[p], p)).collect();
        tail.sort_unstable();
        for (scan, p) in tail {
            if !stage[p].is_empty() {
                out.push((scan, std::mem::take(&mut stage[p])));
            }
        }
        out
    }

    #[test]
    fn identity_table_without_controller_matches_row_by_row_routing() {
        let trace = generate(&TraceConfig::tiny(17));
        for part in [
            Partitioning::hash(PartitionSet::from_columns(["srcIP", "destIP"]), 3),
            Partitioning::round_robin(3),
        ] {
            let plan = plan_for(&part);
            let scans = single_stream(&plan).unwrap();
            let mut splitter = Splitter::new(&plan, &scans, &cfg_of(7), false).unwrap();
            let mut got: Vec<(NodeId, Vec<Tuple>)> = Vec::new();
            let mut emit = |scan: NodeId, batch: &mut ColumnBatch| {
                got.push((scan, batch.take().to_rows()));
                Ok(())
            };
            splitter.route(&trace, &mut emit).unwrap();
            splitter.flush(&mut emit).unwrap();
            assert!(splitter.gauges().is_none());
            assert_eq!(got, reference(&plan, &scans, &trace, 7));
        }
    }

    /// Routes `feed`, one `route` call per slice, then flushes: the
    /// batches in emission order, as rows.
    fn staged(splitter: &mut Splitter, feed: &[&[Tuple]]) -> Vec<(NodeId, Vec<Tuple>)> {
        let mut got = Vec::new();
        let mut emit = |scan: NodeId, batch: &mut ColumnBatch| {
            got.push((scan, batch.take().to_rows()));
            Ok(())
        };
        for part in feed {
            splitter.route(part, &mut emit).unwrap();
        }
        splitter.flush(&mut emit).unwrap();
        got
    }

    fn cfg_of(max: usize) -> SimConfig {
        SimConfig {
            batch: qap_exec::BatchConfig::new(max),
            ..SimConfig::default()
        }
    }

    /// The Section 6.2 set: `srcIP & 0xFFF0` is not a bare column.
    fn masked() -> Partitioning {
        Partitioning::hash(
            PartitionSet::from_exprs([
                &qap_expr::ScalarExpr::col("srcIP").mask(0xFFF0),
                &qap_expr::ScalarExpr::col("destIP"),
            ]),
            3,
        )
    }

    /// A trace with NULLs, signed values and strings in the key
    /// columns (srcIP, destIP) and outside them (flags, len).
    fn untyped_trace() -> Vec<Tuple> {
        let odd = [Value::Null];
        let mut trace = generate(&TraceConfig::tiny(19));
        for (i, t) in trace.iter_mut().enumerate() {
            let at = match i % 11 {
                0 => 2,
                3 => 3,
                5 => 7,
                8 => 8,
                _ => continue,
            };
            let mut values = t.values().to_vec();
            values[at] = odd[i % odd.len()].clone();
            *t = Tuple::new(values);
        }
        trace
    }

    #[test]
    fn masked_keys_untyped_rows_and_sliced_feeds_stage_the_same_batches() {
        let typed = generate(&TraceConfig::tiny(17));
        let untyped = untyped_trace();
        for part in [
            masked(),
            Partitioning::hash(PartitionSet::from_columns(["srcIP", "destIP"]), 3),
            Partitioning::round_robin(3),
        ] {
            let plan = plan_for(&part);
            let scans = single_stream(&plan).unwrap();
            for trace in [&typed, &untyped] {
                let want = reference(&plan, &scans, trace, 7);
                let cfg = cfg_of(7);
                let mut whole = Splitter::new(&plan, &scans, &cfg, false).unwrap();
                assert_eq!(staged(&mut whole, &[trace]), want);
                // The same feed in arbitrary cuts — empty ones, ones
                // shorter than a batch, ones spanning many.
                let mut cuts: Vec<&[Tuple]> = Vec::new();
                let (mut rest, mut n) = (trace.as_slice(), 0);
                while !rest.is_empty() {
                    let (head, tail) = rest.split_at((n * 5 % 23).min(rest.len()));
                    cuts.push(head);
                    (rest, n) = (tail, n + 1);
                }
                let mut sliced = Splitter::new(&plan, &scans, &cfg, false).unwrap();
                assert_eq!(staged(&mut sliced, &cuts), want);
            }
        }
    }

    #[test]
    fn gauged_splitter_counts_what_per_row_routing_counts() {
        let trace = untyped_trace();
        for part in [
            masked(),
            Partitioning::hash(PartitionSet::from_columns(["srcIP", "destIP"]), 3),
        ] {
            let plan = plan_for(&part);
            let scans = single_stream(&plan).unwrap();
            let cfg = cfg_of(7);
            let mut splitter = Splitter::new(&plan, &scans, &cfg, true).unwrap();
            assert_eq!(
                staged(&mut splitter, &[&trace]),
                reference(&plan, &scans, &trace, 7)
            );

            let SplitStrategy::Hash(set) = &part.strategy else {
                unreachable!("hash strategies only");
            };
            let h = HashPartitioner::with_buckets(
                set,
                &scans.schema,
                part.partitions,
                BUCKETS_PER_PARTITION,
            )
            .unwrap();
            let mut hosts = vec![0u64; part.hosts];
            let mut buckets = vec![0u64; h.bucket_count()];
            let mut sketch = KeySketch::with_defaults();
            for t in &trace {
                hosts[part.host_of_partition(h.partition(t))] += 1;
                buckets[h.bucket(t)] += 1;
                sketch.observe(h.key_hash(t));
            }
            let g = splitter.gauges().expect("gauged over a hash strategy");
            assert_eq!(g.host_tuples, hosts);
            assert_eq!(g.bucket_tuples, buckets);
            assert_eq!(g.sketch.observed(), trace.len() as u64);
            assert_eq!(g.sketch.top_k(), sketch.top_k());
            assert_eq!(g.sketch.distinct_estimate(), sketch.distinct_estimate());
        }
    }

    /// The trace span by its definition: one more pass over the rows,
    /// min and max of the first temporal column.
    fn span_oracle(schema: &Schema, trace: &[Tuple]) -> f64 {
        let Some(&c) = schema.temporal_indices().first() else {
            return 1.0;
        };
        let times = trace.iter().map(|t| t.get(c).as_u64().unwrap_or(0));
        match (times.clone().min(), times.max()) {
            (Some(lo), Some(hi)) => (hi - lo + 1) as f64,
            _ => 1.0,
        }
    }

    /// [`untyped_trace`] with its times moved 1000 s on and NULLs among
    /// them: those read as 0, below every real time.
    fn untyped_times() -> Vec<Tuple> {
        let odd = [Value::Null];
        let mut trace = untyped_trace();
        for (i, t) in trace.iter_mut().enumerate() {
            let mut values = t.values().to_vec();
            values[0] = match (i % 13, values[0].as_u64()) {
                (4, _) => odd[i % odd.len()].clone(),
                (_, Some(time)) => Value::UInt(time + 1000),
                (_, None) => continue,
            };
            *t = Tuple::new(values);
        }
        trace
    }

    #[test]
    fn duration_is_the_span_of_every_row_routed() {
        let typed = generate(&TraceConfig::tiny(17));
        let untyped = untyped_times();
        let empty: Vec<Tuple> = Vec::new();
        let part = Partitioning::hash(PartitionSet::from_columns(["srcIP", "destIP"]), 3);
        let plan = plan_for(&part);
        let scans = single_stream(&plan).unwrap();
        // The same stream with no column marked temporal.
        let untimed = StreamScans {
            schema: Schema::new(
                "TCP",
                (scans.schema.fields().iter())
                    .map(|f| qap_types::Field::new(f.name(), f.data_type()))
                    .collect(),
            )
            .unwrap(),
            stream: scans.stream.clone(),
            scan_of: scans.scan_of.clone(),
        };
        assert!(untimed.schema.temporal_indices().is_empty());
        for (trace, scans) in [
            (&typed, &scans),
            (&untyped, &scans),
            (&empty, &scans),
            (&typed, &untimed),
        ] {
            let want = span_oracle(&scans.schema, trace);
            let mut whole = Splitter::new(&plan, scans, &cfg_of(7), false).unwrap();
            staged(&mut whole, &[trace]);
            assert_eq!(whole.duration(), want);
            let mut sliced = Splitter::new(&plan, scans, &cfg_of(7), false).unwrap();
            let cuts: Vec<&[Tuple]> = trace.chunks(17).collect();
            staged(&mut sliced, &cuts);
            assert_eq!(sliced.duration(), want);
        }
        assert_eq!(span_oracle(&scans.schema, &empty), 1.0);
        assert_eq!(span_oracle(&untimed.schema, &typed), 1.0);
        assert!(span_oracle(&scans.schema, &untyped) > span_oracle(&scans.schema, &typed) + 999.0);
    }

    #[test]
    fn wrong_arity_row_is_a_typed_error_counted_across_calls() {
        let plan = plan_for(&Partitioning::round_robin(3));
        let scans = single_stream(&plan).unwrap();
        let mut trace = generate(&TraceConfig::tiny(17));
        trace[30] = trace[30].project(&[0, 1]);
        let mut splitter = Splitter::new(&plan, &scans, &cfg_of(7), false).unwrap();
        let mut emit = |_: NodeId, batch: &mut ColumnBatch| {
            batch.clear();
            Ok(())
        };
        splitter.route(&trace[..25], &mut emit).unwrap();
        let err = splitter.route(&trace[25..], &mut emit).unwrap_err();
        assert_eq!(
            err,
            ExecError::BadPlan("trace tuple 30 has arity 2 but stream 'TCP' has arity 9".into())
        );
    }

    /// A value of another kind than its column declares is refused by
    /// row and column, before it is staged.
    #[test]
    fn off_kind_row_is_a_typed_error_naming_row_and_column() {
        let plan = plan_for(&Partitioning::hash(
            PartitionSet::from_columns(["srcIP"]),
            3,
        ));
        let scans = single_stream(&plan).unwrap();
        for (odd, found) in [
            (Value::Int(-5), DataType::Int),
            (Value::from("x"), DataType::Str),
        ] {
            let mut trace = generate(&TraceConfig::tiny(17));
            let mut values = trace[40].values().to_vec();
            values[8] = odd;
            trace[40] = Tuple::new(values);
            let mut splitter = Splitter::new(&plan, &scans, &cfg_of(7), false).unwrap();
            let mut emit = |_: NodeId, batch: &mut ColumnBatch| {
                batch.clear();
                Ok(())
            };
            let err = splitter.route(&trace, &mut emit).unwrap_err();
            let want = TypeError::KindMismatch {
                column: "len".into(),
                row: 40,
                expected: DataType::UInt,
                found,
            };
            assert_eq!(err, ExecError::Wire(want));
        }
    }
}
