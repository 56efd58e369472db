//! The payloads of process-level deployment: what a host is sent to
//! run, the migration commands it is sent mid-run, and what it sends
//! back.
//!
//! A `Deploy` payload ([`qap_types::ControlFrame::Deploy`]) does not
//! carry the host's execution unit. It carries the inputs the
//! coordinator planned from ([`DeployInputs`]): the catalog as `STREAM`
//! statements, the query set's GSQL, the partitioning, the optimizer
//! and run knobs, which leaf unit to run, and a fingerprint of the
//! coordinator's plan. The host plans again, slices the plan with the
//! same decomposition, and runs its unit only if its plan has the same
//! fingerprint ([`crate::serve_host`]). Planning is deterministic, so
//! the IR has one definition — its GSQL surface — and no second one
//! here. The [`UnitCmd`] halves of a drain-and-handoff travel inside
//! [`qap_types::ControlFrame::Migrate`], and the [`UnitReply`] inside
//! `MigrateAck`: per node, the extracted state rows and each row's
//! partition under the new table, which tells the coordinator where
//! the row goes. The [`UnitOutcome`] the host streams back travels
//! inside [`qap_types::ControlFrame::Result`]. State and outputs are
//! lanes throughout, each batch one lane frame of the hardened boundary
//! codec; its round trip is exact for every value kind.
//!
//! Everything is hand-rolled binary in the style of
//! [`qap_types::wire`]: the workspace has no serialization library, so
//! tags and lengths are written explicitly, and the decoder surfaces typed
//! [`TypeError`]s for truncation, bad tags and length disagreements —
//! a corrupt deployment never panics a host process.

use qap_exec::{OpCounters, OpMetrics};
use qap_obs::{Histogram, HISTOGRAM_BUCKETS, KERNEL_LANES};
use qap_optimizer::{
    DistributedPlan, OptimizerConfig, PartialAggScope, Partitioning, PlanSource, SplitStrategy,
};
use qap_partition::{fnv1a_hash, AnalysisOptions, PartitionSet};
use qap_types::{
    decode_column_batch, encode_column_batch, Buf, BufMut, Bytes, BytesMut, ColumnBatch, TypeError,
    TypeResult, FRAME_HEADER_LEN,
};

use crate::transport::{EdgeTransport, FaultPlan};
use crate::unit::{UnitCmd, UnitOutcome, UnitReply};

// ---------------------------------------------------------------------
// Primitive writers/readers
// ---------------------------------------------------------------------

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn put_opt<T>(buf: &mut BytesMut, v: &Option<T>, f: impl FnOnce(&mut BytesMut, &T)) {
    match v {
        None => buf.put_u8(0),
        Some(x) => {
            buf.put_u8(1);
            f(buf, x);
        }
    }
}

/// Sequential reader over a deploy/outcome payload with typed
/// truncation errors (mirrors the wire decoder's `want` discipline).
struct Reader {
    buf: Bytes,
    context: &'static str,
}

impl Reader {
    fn new(buf: Bytes, context: &'static str) -> Self {
        Reader { buf, context }
    }

    fn want(&self, need: usize) -> TypeResult<()> {
        if self.buf.remaining() < need {
            return Err(TypeError::Truncated {
                context: self.context,
                need,
                have: self.buf.remaining(),
            });
        }
        Ok(())
    }

    fn u8(&mut self) -> TypeResult<u8> {
        self.want(1)?;
        Ok(self.buf.get_u8())
    }

    fn bool(&mut self) -> TypeResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(TypeError::Corrupt("bool byte out of range")),
        }
    }

    fn u32(&mut self) -> TypeResult<u32> {
        self.want(4)?;
        Ok(self.buf.get_u32())
    }

    fn u64(&mut self) -> TypeResult<u64> {
        self.want(8)?;
        Ok(self.buf.get_u64())
    }

    /// Element count prefix of elements encoded in at least `min` bytes
    /// each: a count the remaining bytes cannot hold is corrupt, so no
    /// count drives an allocation larger than its element's in-memory
    /// size over `min` per payload byte.
    fn len(&mut self, min: usize) -> TypeResult<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min) > self.buf.remaining() {
            return Err(TypeError::Corrupt("length prefix exceeds payload"));
        }
        Ok(n)
    }

    fn str(&mut self) -> TypeResult<String> {
        let n = self.len(1)?;
        let raw = self.buf.copy_to_bytes(n);
        std::str::from_utf8(&raw)
            .map(str::to_string)
            .map_err(|_| TypeError::Corrupt("string is not UTF-8"))
    }

    fn bytes(&mut self) -> TypeResult<Bytes> {
        let n = self.len(1)?;
        Ok(self.buf.copy_to_bytes(n))
    }

    fn batch(&mut self) -> TypeResult<ColumnBatch> {
        decode_column_batch(self.bytes()?)
    }

    fn u32s(&mut self) -> TypeResult<Vec<u32>> {
        (0..self.len(4)?).map(|_| self.u32()).collect()
    }

    fn opt<T>(&mut self, f: impl FnOnce(&mut Self) -> TypeResult<T>) -> TypeResult<Option<T>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            _ => Err(TypeError::Corrupt("option byte out of range")),
        }
    }

    fn finish(self) -> TypeResult<()> {
        if self.buf.remaining() != 0 {
            return Err(TypeError::Corrupt("trailing bytes after payload"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Metrics codecs
// ---------------------------------------------------------------------

fn put_fault(buf: &mut BytesMut, f: &FaultPlan) {
    buf.put_u64(f.seed);
    buf.put_u64(f.corrupt_every);
    buf.put_u64(f.truncate_every);
    buf.put_u64(f.drop_every);
    put_opt(buf, &f.slow_host, |b, h| b.put_u64(*h as u64));
    buf.put_u64(f.slow_micros);
    put_opt(buf, &f.hang_host, |b, h| b.put_u64(*h as u64));
    buf.put_u64(f.hang_millis);
    put_opt(buf, &f.panic_host, |b, h| b.put_u64(*h as u64));
    buf.put_u64(f.panic_after_tuples);
}

fn read_fault(r: &mut Reader) -> TypeResult<FaultPlan> {
    Ok(FaultPlan {
        seed: r.u64()?,
        corrupt_every: r.u64()?,
        truncate_every: r.u64()?,
        drop_every: r.u64()?,
        slow_host: r.opt(|r| Ok(r.u64()? as usize))?,
        slow_micros: r.u64()?,
        hang_host: r.opt(|r| Ok(r.u64()? as usize))?,
        hang_millis: r.u64()?,
        panic_host: r.opt(|r| Ok(r.u64()? as usize))?,
        panic_after_tuples: r.u64()?,
    })
}

fn put_histogram(buf: &mut BytesMut, h: &Histogram) {
    for c in h.bucket_counts() {
        buf.put_u64(*c);
    }
    buf.put_u64(h.sum());
    buf.put_u64(h.max());
}

fn read_histogram(r: &mut Reader) -> TypeResult<Histogram> {
    let mut counts = [0u64; HISTOGRAM_BUCKETS];
    for c in counts.iter_mut() {
        *c = r.u64()?;
    }
    let sum = r.u64()?;
    let max = r.u64()?;
    // `from_parts` totals the buckets; a total past `u64` is corrupt.
    let total = counts.iter().try_fold(0u64, |n, &c| n.checked_add(c));
    if total.is_none() {
        return Err(TypeError::Corrupt("histogram bucket counts overflow"));
    }
    Ok(Histogram::from_parts(counts, sum, max))
}

/// Encoded bytes of one [`OpMetrics`]: every field a `u64`.
const OP_METRICS_LEN: usize = 8 * (7 + HISTOGRAM_BUCKETS + 2 + 2 + KERNEL_LANES + 5);

/// Least encoded bytes of a lane frame in a payload: its `u32` length
/// prefix, the frame header and a `u16` arity.
const BATCH_MIN_LEN: usize = 4 + FRAME_HEADER_LEN + 2;

fn put_op_metrics(buf: &mut BytesMut, m: &OpMetrics) {
    buf.put_u64(m.tuples_in);
    buf.put_u64(m.tuples_out);
    buf.put_u64(m.bytes_in);
    buf.put_u64(m.bytes_out);
    buf.put_u64(m.batches_in);
    buf.put_u64(m.batches_out);
    buf.put_u64(m.late_dropped);
    put_histogram(buf, &m.batch_occupancy);
    buf.put_u64(m.kernel_hits);
    buf.put_u64(m.kernel_fallbacks);
    for v in m.kernel_lane_hits {
        buf.put_u64(v);
    }
    buf.put_u64(m.flushes);
    buf.put_u64(m.flush_ns);
    buf.put_u64(m.group_slots);
    buf.put_u64(m.group_probes);
    buf.put_u64(m.group_inserts);
}

fn read_lane_counters(r: &mut Reader) -> TypeResult<[u64; qap_obs::KERNEL_LANES]> {
    let mut arr = [0u64; qap_obs::KERNEL_LANES];
    for v in arr.iter_mut() {
        *v = r.u64()?;
    }
    Ok(arr)
}

fn read_op_metrics(r: &mut Reader) -> TypeResult<OpMetrics> {
    Ok(OpMetrics {
        tuples_in: r.u64()?,
        tuples_out: r.u64()?,
        bytes_in: r.u64()?,
        bytes_out: r.u64()?,
        batches_in: r.u64()?,
        batches_out: r.u64()?,
        late_dropped: r.u64()?,
        batch_occupancy: read_histogram(r)?,
        kernel_hits: r.u64()?,
        kernel_fallbacks: r.u64()?,
        kernel_lane_hits: read_lane_counters(r)?,
        flushes: r.u64()?,
        flush_ns: r.u64()?,
        group_slots: r.u64()?,
        group_probes: r.u64()?,
        group_inserts: r.u64()?,
    })
}

// ---------------------------------------------------------------------
// Top-level payloads
// ---------------------------------------------------------------------

/// What a `Deploy` payload carries: the inputs the coordinator planned
/// from, and which of the plan's leaf units the host runs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DeployInputs {
    /// The plan's base streams ([`qap_types::Catalog::stream_defs`]).
    pub(crate) catalog: String,
    /// The query set's GSQL and the optimizer knobs.
    pub(crate) source: PlanSource,
    /// The deployed partitioning; a hash set travels as the GSQL of its
    /// items.
    pub(crate) partitioning: Partitioning,
    /// Index of the host's leaf unit in the deployment (≥ 1).
    pub(crate) unit: u32,
    /// The run knobs a leaf unit sees: engine batch size, tuples per
    /// boundary frame and the fault plan.
    pub(crate) max_batch: u32,
    pub(crate) frame_batch: u32,
    pub(crate) fault: FaultPlan,
    /// [`plan_fingerprint`] of the coordinator's plan.
    pub(crate) fingerprint: u64,
}

/// FNV-1a over the plan's full rendering ([`DistributedPlan::render`]):
/// equal on two processes exactly when they planned the same thing.
pub(crate) fn plan_fingerprint(plan: &DistributedPlan) -> u64 {
    fnv1a_hash(plan.render().bytes().map(u64::from))
}

/// A hash partitioning set from its items' GSQL: the items of
/// `PartitionSet::exprs`, each as its `render()`.
pub(crate) fn parse_set(items: &[String]) -> TypeResult<PartitionSet> {
    let exprs = items
        .iter()
        .map(|item| qap_sql::parse_expression(item))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|_| TypeError::Corrupt("partitioning set item is not a GSQL expression"))?;
    Ok(PartitionSet::from_exprs(&exprs))
}

/// Encodes a `Deploy` payload.
pub(crate) fn encode_deploy(d: &DeployInputs) -> Bytes {
    let mut buf = BytesMut::new();
    put_str(&mut buf, &d.catalog);
    put_str(&mut buf, &d.source.gsql);
    let o = &d.source.config;
    let per_host = o.partial_agg_scope == PartialAggScope::PerHost;
    let strict = o.analysis.strict_join_compatibility;
    for flag in [o.agnostic, o.partial_aggregation, per_host, strict] {
        buf.put_u8(flag as u8);
    }
    let p = &d.partitioning;
    let set = match &p.strategy {
        SplitStrategy::RoundRobin => None,
        SplitStrategy::Hash(set) => Some(set),
    };
    put_opt(&mut buf, &set, |b, set| {
        b.put_u32(set.len() as u32);
        set.exprs().iter().for_each(|e| put_str(b, &e.render()));
    });
    for n in [p.partitions, p.hosts, p.aggregator_host] {
        buf.put_u32(n as u32);
    }
    for n in [d.unit, d.max_batch, d.frame_batch] {
        buf.put_u32(n);
    }
    put_fault(&mut buf, &d.fault);
    buf.put_u64(d.fingerprint);
    buf.freeze()
}

/// Decodes a `Deploy` payload; any damage surfaces as a typed
/// [`TypeError`].
pub(crate) fn decode_deploy(payload: Bytes) -> TypeResult<DeployInputs> {
    let mut r = Reader::new(payload, "deploy");
    let catalog = r.str()?;
    let gsql = r.str()?;
    let config = OptimizerConfig {
        agnostic: r.bool()?,
        partial_aggregation: r.bool()?,
        partial_agg_scope: match r.bool()? {
            true => PartialAggScope::PerHost,
            false => PartialAggScope::PerPartition,
        },
        analysis: AnalysisOptions {
            strict_join_compatibility: r.bool()?,
        },
    };
    let set = r.opt(|r| {
        let items = (0..r.len(4)?).map(|_| r.str());
        parse_set(&items.collect::<TypeResult<Vec<_>>>()?)
    })?;
    let strategy = set.map_or(SplitStrategy::RoundRobin, SplitStrategy::Hash);
    let inputs = DeployInputs {
        catalog,
        source: PlanSource { gsql, config },
        partitioning: Partitioning {
            strategy,
            partitions: r.u32()? as usize,
            hosts: r.u32()? as usize,
            aggregator_host: r.u32()? as usize,
        },
        unit: r.u32()?,
        max_batch: r.u32()?,
        frame_batch: r.u32()?,
        fault: read_fault(&mut r)?,
        fingerprint: r.u64()?,
    };
    r.finish()?;
    Ok(inputs)
}

/// Writes a batch as one length-prefixed lane frame.
fn put_batch(buf: &mut BytesMut, batch: &ColumnBatch, scratch: &mut BytesMut) -> TypeResult<()> {
    let frame = encode_column_batch(batch, scratch)?;
    buf.put_u32(frame.len() as u32);
    buf.put_slice(&frame);
    Ok(())
}

fn put_u32s(buf: &mut BytesMut, xs: &[u32]) {
    buf.put_u32(xs.len() as u32);
    xs.iter().for_each(|&x| buf.put_u32(x));
}

/// Encodes a [`UnitOutcome`] into a `Result` payload, each output as
/// one lane frame.
pub(crate) fn encode_unit_outcome(
    outcome: &UnitOutcome,
    scratch: &mut BytesMut,
) -> TypeResult<Bytes> {
    let mut out = BytesMut::new();
    out.put_u32(outcome.counters.len() as u32);
    for c in &outcome.counters {
        out.put_u64(c.tuples_in);
        out.put_u64(c.tuples_out);
        out.put_u64(c.late_dropped);
    }
    out.put_u32(outcome.node_metrics.len() as u32);
    for m in &outcome.node_metrics {
        put_op_metrics(&mut out, m);
    }
    out.put_u32(outcome.outputs.len() as u32);
    for (idx, lanes) in &outcome.outputs {
        out.put_u32(*idx);
        put_batch(&mut out, lanes, scratch)?;
    }
    out.put_u32(outcome.edges.len() as u32);
    for e in &outcome.edges {
        out.put_u64(e.producer as u64);
        out.put_u64(e.from_host as u64);
        out.put_u64(e.frames);
        out.put_u64(e.tuples);
        out.put_u64(e.bytes);
        out.put_u64(e.retries);
    }
    out.put_u64(outcome.stalls);
    out.put_u64(outcome.dropped);
    Ok(out.freeze())
}

/// Decodes a `Result` payload back into a [`UnitOutcome`].
pub(crate) fn decode_unit_outcome(payload: Bytes) -> TypeResult<UnitOutcome> {
    let mut r = Reader::new(payload, "unit outcome");
    let n = r.len(3 * 8)?;
    let mut counters = Vec::with_capacity(n);
    for _ in 0..n {
        counters.push(OpCounters {
            tuples_in: r.u64()?,
            tuples_out: r.u64()?,
            late_dropped: r.u64()?,
        });
    }
    let n = r.len(OP_METRICS_LEN)?;
    let mut node_metrics = Vec::with_capacity(n);
    for _ in 0..n {
        node_metrics.push(read_op_metrics(&mut r)?);
    }
    let n = r.len(4 + BATCH_MIN_LEN)?;
    let mut outputs = Vec::with_capacity(n);
    for _ in 0..n {
        let idx = r.u32()?;
        outputs.push((idx, r.batch()?));
    }
    let n = r.len(6 * 8)?;
    let mut edges = Vec::with_capacity(n);
    for _ in 0..n {
        edges.push(EdgeTransport {
            producer: r.u64()? as usize,
            from_host: r.u64()? as usize,
            frames: r.u64()?,
            tuples: r.u64()?,
            bytes: r.u64()?,
            retries: r.u64()?,
        });
    }
    let stalls = r.u64()?;
    let dropped = r.u64()?;
    r.finish()?;
    Ok(UnitOutcome {
        counters,
        node_metrics,
        outputs,
        edges,
        stalls,
        dropped,
    })
}

// ---------------------------------------------------------------------
// Migration payloads
// ---------------------------------------------------------------------

const MIGRATE_EXTRACT: u8 = 0;
const MIGRATE_ABSORB: u8 = 1;

/// Encodes the `Extract` or `Absorb` half of a drain-and-handoff into
/// a `Migrate` payload. A `Feed` has no such encoding: its batch
/// travels as a `Data` frame.
pub(crate) fn encode_unit_cmd(cmd: &UnitCmd, scratch: &mut BytesMut) -> TypeResult<Bytes> {
    let mut out = BytesMut::new();
    match cmd {
        UnitCmd::Feed(..) => return Err(TypeError::Corrupt("a feed is not a migrate command")),
        UnitCmd::Extract {
            boundary,
            partitions,
            assignment,
            jobs,
        } => {
            out.put_u8(MIGRATE_EXTRACT);
            out.put_u64(*boundary);
            out.put_u32(*partitions);
            put_u32s(&mut out, assignment);
            out.put_u32(jobs.len() as u32);
            for (node, owned) in jobs {
                out.put_u32(*node);
                put_u32s(&mut out, owned);
            }
        }
        UnitCmd::Absorb(batches) => {
            out.put_u8(MIGRATE_ABSORB);
            out.put_u32(batches.len() as u32);
            for (node, state) in batches {
                out.put_u32(*node);
                put_batch(&mut out, state, scratch)?;
            }
        }
    }
    Ok(out.freeze())
}

/// Decodes a `Migrate` payload; damage surfaces as a typed
/// [`TypeError`], never a panic in the host process.
pub(crate) fn decode_unit_cmd(payload: Bytes) -> TypeResult<UnitCmd> {
    let mut r = Reader::new(payload, "migrate command");
    let cmd = match r.u8()? {
        MIGRATE_EXTRACT => {
            let boundary = r.u64()?;
            let partitions = r.u32()?;
            let assignment = r.u32s()?;
            let jobs = (0..r.len(8)?).map(|_| Ok((r.u32()?, r.u32s()?)));
            UnitCmd::Extract {
                boundary,
                partitions,
                assignment,
                jobs: jobs.collect::<TypeResult<_>>()?,
            }
        }
        MIGRATE_ABSORB => {
            let batches = (0..r.len(4 + BATCH_MIN_LEN)?).map(|_| Ok((r.u32()?, r.batch()?)));
            UnitCmd::Absorb(batches.collect::<TypeResult<_>>()?)
        }
        other => return Err(TypeError::BadTag(other)),
    };
    r.finish()?;
    Ok(cmd)
}

/// Encodes a `MigrateAck` payload: per node, the state rows an extract
/// produced and each row's partition (empty for an absorb
/// acknowledgement).
pub(crate) fn encode_unit_reply(reply: &UnitReply, scratch: &mut BytesMut) -> TypeResult<Bytes> {
    let mut out = BytesMut::new();
    out.put_u32(reply.len() as u32);
    for (node, state, parts) in reply {
        out.put_u32(*node);
        put_batch(&mut out, state, scratch)?;
        put_u32s(&mut out, parts);
    }
    Ok(out.freeze())
}

/// Decodes a `MigrateAck` payload.
pub(crate) fn decode_unit_reply(payload: Bytes) -> TypeResult<UnitReply> {
    let mut r = Reader::new(payload, "migrate reply");
    let reply = (0..r.len(4 + BATCH_MIN_LEN + 4)?).map(|_| Ok((r.u32()?, r.batch()?, r.u32s()?)));
    let reply = reply.collect::<TypeResult<_>>()?;
    r.finish()?;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qap_expr::{BinOp, ScalarExpr};
    use qap_types::{Tuple, Value};

    use crate::experiments::Scenario;
    use crate::sim::tests::rows_of;

    /// The inputs of leaf unit 2 of the §6.2 optimal deployment.
    fn sample_deploy() -> DeployInputs {
        let plan = Scenario::QuerySet.plan("Partitioned (optimal)", 3);
        DeployInputs {
            catalog: plan.dag.catalog().stream_defs(),
            source: plan.source.clone().unwrap(),
            partitioning: plan.partitioning.clone(),
            unit: 2,
            max_batch: 512,
            frame_batch: 128,
            fault: FaultPlan::seeded(11).corrupt_every(3).slow(1, 40),
            fingerprint: plan_fingerprint(&plan),
        }
    }

    #[test]
    fn remote_unit_round_trips() {
        let round_robin = DeployInputs {
            partitioning: Partitioning::round_robin(4),
            ..sample_deploy()
        };
        for inputs in [sample_deploy(), round_robin] {
            assert_eq!(decode_deploy(encode_deploy(&inputs)).unwrap(), inputs);
        }
    }

    #[test]
    fn truncated_unit_is_typed_error() {
        let bytes = encode_deploy(&sample_deploy());
        for cut in 0..bytes.len() {
            let err = decode_deploy(bytes.slice(..cut));
            assert!(err.is_err(), "cut {cut} decoded");
        }
        let mut longer = bytes.to_vec();
        longer.push(0);
        assert!(decode_deploy(Bytes::from(longer)).is_err());
    }

    /// Every §6 hash set, plus a `Div`, a `Mask` and an `Opaque` item,
    /// is the same set after its items go through GSQL text.
    #[test]
    fn partition_sets_survive_their_gsql() {
        let mut sets = Vec::new();
        for scenario in [Scenario::SimpleAgg, Scenario::QuerySet, Scenario::Complex] {
            for &config in scenario.configs() {
                if let SplitStrategy::Hash(set) = scenario.deployment(config, 3).0.strategy {
                    sets.push(set);
                }
            }
        }
        assert_eq!(sets.len(), 5);
        sets.push(PartitionSet::from_exprs([
            &ScalarExpr::col("time").div(60),
            &ScalarExpr::qcol("TCP", "srcIP").mask(0xFF00),
            &ScalarExpr::col("destPort").binary(BinOp::Add, ScalarExpr::lit(1u64)),
        ]));
        for set in sets {
            let items: Vec<String> = set.exprs().iter().map(|e| e.render()).collect();
            assert_eq!(parse_set(&items).unwrap(), set, "{items:?}");
        }
    }

    fn sample_outcome() -> UnitOutcome {
        let mut h = Histogram::new();
        h.record(3);
        h.record(900);
        let metrics = OpMetrics {
            tuples_in: 10,
            tuples_out: 4,
            bytes_in: 210,
            bytes_out: 84,
            batches_in: 2,
            batches_out: 1,
            late_dropped: 1,
            batch_occupancy: h,
            kernel_hits: 5,
            kernel_fallbacks: 1,
            kernel_lane_hits: [5, 0, 1, 2],
            flushes: 2,
            flush_ns: 12_345,
            group_slots: 16,
            group_probes: 20,
            group_inserts: 8,
        };
        UnitOutcome {
            counters: vec![
                OpCounters {
                    tuples_in: 10,
                    tuples_out: 4,
                    late_dropped: 1,
                },
                OpCounters::default(),
            ],
            node_metrics: vec![metrics, OpMetrics::default()],
            outputs: vec![
                (
                    0,
                    lanes(&[Tuple::new(vec![Value::UInt(1), Value::Str("a".into())])]),
                ),
                (1, lanes(&every_lane_kind())),
                (2, ColumnBatch::new(3)),
            ],
            edges: vec![EdgeTransport {
                producer: 9,
                from_host: 3,
                frames: 4,
                tuples: 400,
                bytes: 3_600,
                retries: 2,
            }],
            stalls: 1,
            dropped: 0,
        }
    }

    #[test]
    fn unit_outcome_round_trips() {
        let mut one = BytesMut::new();
        put_op_metrics(&mut one, &OpMetrics::default());
        assert_eq!(one.len(), OP_METRICS_LEN);
        let outcome = sample_outcome();
        let mut scratch = BytesMut::new();
        let bytes = encode_unit_outcome(&outcome, &mut scratch).unwrap();
        let decoded = decode_unit_outcome(bytes).unwrap();
        assert_eq!(decoded.counters, outcome.counters);
        assert_eq!(decoded.node_metrics, outcome.node_metrics);
        assert_eq!(rows_of(&decoded.outputs), rows_of(&outcome.outputs));
        assert_eq!(decoded.edges, outcome.edges);
        assert_eq!(
            (decoded.stalls, decoded.dropped),
            (outcome.stalls, outcome.dropped)
        );
    }

    fn lanes(rows: &[Tuple]) -> ColumnBatch {
        ColumnBatch::from_rows(rows)
    }

    /// A migrate command with its state as rows, for comparison.
    fn cmd_rows(cmd: &UnitCmd) -> String {
        match cmd {
            UnitCmd::Absorb(batches) => format!("Absorb({:?})", rows_of(batches)),
            other => format!("{other:?}"),
        }
    }

    /// Rows whose columns land on every lane a frame carries: `UInt`,
    /// negative `Int`, `Bool`, `Str`, all-NULL, and a nullable `UInt`.
    fn every_lane_kind() -> Vec<Tuple> {
        vec![
            Tuple::new(vec![
                Value::UInt(u64::MAX),
                Value::Int(-7),
                Value::Bool(true),
                Value::from("tcp"),
                Value::Null,
                Value::UInt(3),
            ]),
            Tuple::new(vec![
                Value::UInt(0),
                Value::Int(i64::MIN),
                Value::Bool(false),
                Value::from(""),
                Value::Null,
                Value::Null,
            ]),
        ]
    }

    fn sample_migrate_cmds() -> Vec<UnitCmd> {
        vec![
            UnitCmd::Extract {
                boundary: 1_234_567,
                partitions: 8,
                assignment: (0..64).map(|b| b / 8).collect(),
                jobs: vec![(3, vec![2, 3]), (9, vec![6, 7])],
            },
            UnitCmd::Absorb(vec![
                (
                    3,
                    lanes(&[Tuple::new(vec![
                        Value::UInt(60),
                        Value::UInt(0xDEAD),
                        Value::Int(7),
                    ])]),
                ),
                (9, ColumnBatch::new(3)),
                (12, lanes(&every_lane_kind())),
            ]),
            UnitCmd::Absorb(Vec::new()),
        ]
    }

    #[test]
    fn migrate_cmd_round_trips() {
        let mut scratch = BytesMut::new();
        for cmd in sample_migrate_cmds() {
            let bytes = encode_unit_cmd(&cmd, &mut scratch).unwrap();
            let decoded = decode_unit_cmd(bytes).unwrap();
            assert_eq!(cmd_rows(&decoded), cmd_rows(&cmd));
        }
    }

    #[test]
    fn truncated_migrate_cmd_is_typed_error() {
        let mut scratch = BytesMut::new();
        for cmd in sample_migrate_cmds() {
            let bytes = encode_unit_cmd(&cmd, &mut scratch).unwrap();
            for cut in 0..bytes.len() {
                assert!(
                    decode_unit_cmd(bytes.slice(..cut)).is_err(),
                    "{cmd:?} cut {cut} decoded"
                );
            }
            let mut longer = bytes.to_vec();
            longer.push(0);
            assert!(decode_unit_cmd(Bytes::from(longer)).is_err());
        }
        assert!(decode_unit_cmd(Bytes::from(vec![9u8])).is_err(), "bad tag");
    }

    #[test]
    fn migrate_reply_round_trips() {
        let reply = vec![
            (
                4,
                lanes(&[
                    Tuple::new(vec![Value::UInt(1), Value::Str("k".into())]),
                    Tuple::new(vec![Value::UInt(2), Value::Null]),
                ]),
                vec![5, 0],
            ),
            (11, ColumnBatch::new(2), Vec::new()),
        ];
        let rows = |r: &UnitReply| -> Vec<_> {
            r.iter()
                .map(|(n, b, p)| (*n, b.to_rows(), p.clone()))
                .collect()
        };
        let mut scratch = BytesMut::new();
        let bytes = encode_unit_reply(&reply, &mut scratch).unwrap();
        assert_eq!(
            rows(&decode_unit_reply(bytes.clone()).unwrap()),
            rows(&reply)
        );
        for cut in 0..bytes.len() {
            assert!(decode_unit_reply(bytes.slice(..cut)).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn truncated_outcome_is_typed_error() {
        let outcome = UnitOutcome {
            counters: vec![OpCounters::default()],
            node_metrics: vec![OpMetrics::default()],
            outputs: vec![(0, lanes(&[Tuple::new(vec![Value::UInt(7)])]))],
            edges: Vec::new(),
            stalls: 0,
            dropped: 0,
        };
        let mut scratch = BytesMut::new();
        let bytes = encode_unit_outcome(&outcome, &mut scratch).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                decode_unit_outcome(bytes.slice(..cut)).is_err(),
                "cut {cut}"
            );
        }
    }

    /// Every damaged variant of each valid payload under the two
    /// mutators `property_based`'s `mutate_frame` has for sizes and
    /// frame boundaries, applied exhaustively: each `u32` word inflated
    /// by the payload's length, or set to the number of bytes after it
    /// (the largest count a bound of one byte per element admits), and
    /// the payload's head spliced onto the tail of another valid payload
    /// at every cut.
    fn inflated_and_spliced(bytes: &[u8], other: &[u8]) -> Vec<Bytes> {
        let mut out = Vec::new();
        for at in 0..bytes.len().saturating_sub(3) {
            let word = u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap());
            let rest = (bytes.len() - at - 4) as u32;
            for inflated in [word.saturating_add(bytes.len() as u32), rest] {
                let mut b = bytes.to_vec();
                b[at..at + 4].copy_from_slice(&inflated.to_be_bytes());
                out.push(Bytes::from(b));
            }
        }
        for cut in 0..=bytes.len() {
            let mut b = bytes[..cut].to_vec();
            b.extend_from_slice(&other[cut.min(other.len())..]);
            out.push(Bytes::from(b));
        }
        out
    }

    /// Counts the bytes the calling thread allocates while a count is
    /// open ([`allocated_by`]), so a test can bound one decode's
    /// allocations by its payload's length; the harness runs tests on
    /// parallel threads, and only the counting thread's count.
    struct CountingAlloc;

    thread_local! {
        static COUNTING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
        static ALLOCATED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    fn charge(bytes: usize) {
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                ALLOCATED.with(|a| a.set(a.get() + bytes));
            }
        });
    }

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // so `System`'s guarantees are this allocator's. Counting reads and
    // writes two const-initialized thread-local `Cell`s, which neither
    // allocate nor re-enter the allocator.
    unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            charge(layout.size());
            std::alloc::System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
            charge(layout.size());
            std::alloc::System.alloc_zeroed(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            std::alloc::System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, size: usize) -> *mut u8 {
            charge(size.saturating_sub(layout.size()));
            std::alloc::System.realloc(ptr, layout, size)
        }
    }

    #[global_allocator]
    static ALLOCATOR: CountingAlloc = CountingAlloc;

    /// Runs `f` and returns its result with the bytes it allocated on
    /// this thread (a `realloc` counts its growth).
    fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
        ALLOCATED.with(|a| a.set(0));
        COUNTING.with(|on| on.set(true));
        let out = f();
        COUNTING.with(|on| on.set(false));
        (out, ALLOCATED.with(std::cell::Cell::get))
    }

    /// Holds a decoder to totality on [`inflated_and_spliced`] payloads
    /// of every pair of `valid` ones: each decode returns a typed error
    /// or a value the codec round-trips (an inflated word that holds a
    /// value, not a size, decodes to a different well-formed value),
    /// and none panics or allocates more than the lane decoders may
    /// (`property_based`'s bound): 10 bytes per payload byte and 1 KiB.
    fn assert_total<T>(
        valid: &[Bytes],
        decode: impl Fn(Bytes) -> TypeResult<T>,
        mut encode: impl FnMut(&T) -> Bytes,
    ) {
        for a in valid {
            for b in valid {
                for damaged in inflated_and_spliced(a, b) {
                    let len = damaged.len();
                    let (decoded, allocated) = allocated_by(|| decode(damaged));
                    assert!(
                        allocated <= 10 * len + 1024,
                        "decoding {len} bytes allocated {allocated} bytes"
                    );
                    if let Ok(v) = decoded {
                        let canon = encode(&v);
                        assert_eq!(encode(&decode(canon.clone()).unwrap()), canon);
                    }
                }
            }
        }
    }

    #[test]
    fn decoders_are_total_on_inflated_words_and_splices() {
        let round_robin = DeployInputs {
            partitioning: Partitioning::round_robin(4),
            ..sample_deploy()
        };
        let deploys = [sample_deploy(), round_robin].map(|d| encode_deploy(&d));
        assert_total(&deploys, decode_deploy, encode_deploy);

        let mut scratch = BytesMut::new();
        let mut encode = |o: &UnitOutcome| encode_unit_outcome(o, &mut scratch).unwrap();
        let empty = UnitOutcome {
            counters: Vec::new(),
            node_metrics: Vec::new(),
            outputs: Vec::new(),
            edges: Vec::new(),
            stalls: 0,
            dropped: 0,
        };
        let outcomes = [sample_outcome(), empty].map(|o| encode(&o));
        assert_total(&outcomes, decode_unit_outcome, encode);

        let mut scratch = BytesMut::new();
        let mut encode = |c: &UnitCmd| encode_unit_cmd(c, &mut scratch).unwrap();
        let cmds: Vec<Bytes> = sample_migrate_cmds().iter().map(&mut encode).collect();
        assert_total(&cmds, decode_unit_cmd, encode);

        let mut scratch = BytesMut::new();
        let mut encode = |r: &UnitReply| encode_unit_reply(r, &mut scratch).unwrap();
        let reply = vec![(4, lanes(&every_lane_kind()), vec![5, 0])];
        let replies = [reply, Vec::new()].map(|r| encode(&r));
        assert_total(&replies, decode_unit_reply, encode);
    }
}
