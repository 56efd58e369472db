//! Serialization of execution units, their migration commands and
//! their outcomes for process-level deployment.
//!
//! A socket coordinator cannot hand a leaf host a `QueryDag` by
//! reference: the unit must cross the process boundary as bytes inside
//! a [`qap_types::ControlFrame::Deploy`] payload. This module encodes a
//! [`UnitSpec`] — with the sliced leaf sub-plan as a replayable build
//! script (catalog schemas plus nodes in id order, so the remote
//! rebuild re-runs the *same* schema inference and gets the same local
//! ids) — the [`UnitCmd`] halves of a drain-and-handoff inside
//! [`qap_types::ControlFrame::Migrate`] (and the [`UnitReply`] inside
//! `MigrateAck`), and the [`UnitOutcome`] the host streams back inside
//! [`qap_types::ControlFrame::Result`].
//!
//! Everything is hand-rolled binary in the style of
//! [`qap_types::wire`]: the vendored `serde` is a no-op marker, so tags
//! and lengths are written explicitly, and the decoder surfaces typed
//! [`TypeError`]s for truncation, bad tags and length disagreements —
//! a corrupt deployment never panics a host process.
//!
//! UDAFs do not cross the boundary: a [`qap_expr::AggFunc::Udaf`] call
//! holds a function registered in the *coordinator's* catalog, which a
//! remote process cannot resolve — deployment encoding rejects such
//! plans up front ([`qap_exec::ExecError::BadPlan`]) instead of
//! shipping a plan that would mis-execute. (In-process units never pass
//! through this module, so they run UDAFs freely.)

use qap_exec::{ExecError, ExecResult, OpCounters, OpMetrics};
use qap_expr::{
    AggCall, AggFunc, AggKind, AnalyzedExpr, BinOp, ColumnRef, ColumnTransform, ScalarExpr, UnOp,
};
use qap_obs::{Histogram, HISTOGRAM_BUCKETS};
use qap_partition::PartitionSet;
use qap_plan::{JoinType, LogicalNode, NamedAgg, NamedExpr, TemporalJoin};
use qap_types::{
    decode_column_batch, encode_column_batch, Buf, BufMut, Bytes, BytesMut, ColumnBatch, DataType,
    Field, Schema, Temporality, Tuple, TypeError, TypeResult, Value,
};

use crate::transport::{EdgeTransport, FaultPlan};
use crate::unit::{LocalRows, UnitCmd, UnitOutcome, UnitReply, UnitSpec};

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

    fn i64(&mut self) -> TypeResult<i64> {
        self.want(8)?;
        Ok(self.buf.get_i64())
    }

    /// Element count prefix, sanity-bounded: each element costs at
    /// least one byte, so a count beyond the remaining bytes is corrupt
    /// (and must not drive a huge allocation).
    fn len(&mut self) -> TypeResult<usize> {
        let n = self.u32()? as usize;
        if n > self.buf.remaining() {
            return Err(TypeError::Corrupt("length prefix exceeds payload"));
        }
        Ok(n)
    }

    fn str(&mut self) -> TypeResult<String> {
        let n = self.len()?;
        let raw = self.buf.copy_to_bytes(n);
        std::str::from_utf8(&raw)
            .map(str::to_string)
            .map_err(|_| TypeError::Corrupt("string is not UTF-8"))
    }

    fn bytes(&mut self) -> TypeResult<Bytes> {
        let n = self.len()?;
        Ok(self.buf.copy_to_bytes(n))
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
// Expression codecs
// ---------------------------------------------------------------------

fn bin_op_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Mod => 4,
        BinOp::BitAnd => 5,
        BinOp::BitOr => 6,
        BinOp::BitXor => 7,
        BinOp::Shl => 8,
        BinOp::Shr => 9,
        BinOp::Eq => 10,
        BinOp::Ne => 11,
        BinOp::Lt => 12,
        BinOp::Le => 13,
        BinOp::Gt => 14,
        BinOp::Ge => 15,
        BinOp::And => 16,
        BinOp::Or => 17,
    }
}

fn bin_op_from(tag: u8) -> TypeResult<BinOp> {
    Ok(match tag {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Mod,
        5 => BinOp::BitAnd,
        6 => BinOp::BitOr,
        7 => BinOp::BitXor,
        8 => BinOp::Shl,
        9 => BinOp::Shr,
        10 => BinOp::Eq,
        11 => BinOp::Ne,
        12 => BinOp::Lt,
        13 => BinOp::Le,
        14 => BinOp::Gt,
        15 => BinOp::Ge,
        16 => BinOp::And,
        17 => BinOp::Or,
        other => return Err(TypeError::BadTag(other)),
    })
}

fn un_op_tag(op: UnOp) -> u8 {
    match op {
        UnOp::Neg => 0,
        UnOp::Not => 1,
        UnOp::BitNot => 2,
    }
}

fn un_op_from(tag: u8) -> TypeResult<UnOp> {
    Ok(match tag {
        0 => UnOp::Neg,
        1 => UnOp::Not,
        2 => UnOp::BitNot,
        other => return Err(TypeError::BadTag(other)),
    })
}

fn put_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Null => buf.put_u8(0),
        Value::UInt(x) => {
            buf.put_u8(1);
            buf.put_u64(*x);
        }
        Value::Int(x) => {
            buf.put_u8(2);
            buf.put_i64(*x);
        }
        Value::Bool(x) => {
            buf.put_u8(3);
            buf.put_u8(*x as u8);
        }
        Value::Str(s) => {
            buf.put_u8(4);
            put_str(buf, s);
        }
    }
}

fn read_value(r: &mut Reader) -> TypeResult<Value> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::UInt(r.u64()?),
        2 => Value::Int(r.i64()?),
        3 => Value::Bool(r.bool()?),
        4 => Value::Str(r.str()?.into()),
        other => return Err(TypeError::BadTag(other)),
    })
}

fn put_column_ref(buf: &mut BytesMut, c: &ColumnRef) {
    put_opt(buf, &c.qualifier, |b, q| put_str(b, q));
    put_str(buf, &c.name);
}

fn read_column_ref(r: &mut Reader) -> TypeResult<ColumnRef> {
    let qualifier = r.opt(|r| r.str())?;
    let name = r.str()?;
    Ok(ColumnRef { qualifier, name })
}

fn put_expr(buf: &mut BytesMut, e: &ScalarExpr) {
    match e {
        ScalarExpr::Column(c) => {
            buf.put_u8(0);
            put_column_ref(buf, c);
        }
        ScalarExpr::Literal(v) => {
            buf.put_u8(1);
            put_value(buf, v);
        }
        ScalarExpr::Binary { op, lhs, rhs } => {
            buf.put_u8(2);
            buf.put_u8(bin_op_tag(*op));
            put_expr(buf, lhs);
            put_expr(buf, rhs);
        }
        ScalarExpr::Unary { op, expr } => {
            buf.put_u8(3);
            buf.put_u8(un_op_tag(*op));
            put_expr(buf, expr);
        }
    }
}

fn read_expr(r: &mut Reader) -> TypeResult<ScalarExpr> {
    Ok(match r.u8()? {
        0 => ScalarExpr::Column(read_column_ref(r)?),
        1 => ScalarExpr::Literal(read_value(r)?),
        2 => {
            let op = bin_op_from(r.u8()?)?;
            let lhs = Box::new(read_expr(r)?);
            let rhs = Box::new(read_expr(r)?);
            ScalarExpr::Binary { op, lhs, rhs }
        }
        3 => {
            let op = un_op_from(r.u8()?)?;
            let expr = Box::new(read_expr(r)?);
            ScalarExpr::Unary { op, expr }
        }
        other => return Err(TypeError::BadTag(other)),
    })
}

fn agg_kind_tag(k: AggKind) -> u8 {
    match k {
        AggKind::Count => 0,
        AggKind::Sum => 1,
        AggKind::Min => 2,
        AggKind::Max => 3,
        AggKind::Avg => 4,
        AggKind::OrAgg => 5,
        AggKind::AndAgg => 6,
    }
}

fn agg_kind_from(tag: u8) -> TypeResult<AggKind> {
    Ok(match tag {
        0 => AggKind::Count,
        1 => AggKind::Sum,
        2 => AggKind::Min,
        3 => AggKind::Max,
        4 => AggKind::Avg,
        5 => AggKind::OrAgg,
        6 => AggKind::AndAgg,
        other => return Err(TypeError::BadTag(other)),
    })
}

fn put_agg_call(buf: &mut BytesMut, c: &AggCall) -> ExecResult<()> {
    match &c.func {
        AggFunc::Builtin(kind) => buf.put_u8(agg_kind_tag(*kind)),
        AggFunc::Udaf(name) => {
            return Err(ExecError::BadPlan(format!(
                "UDAF '{name}' cannot be deployed to a remote host: \
                 user-defined aggregates live in the coordinator's catalog"
            )))
        }
    }
    put_opt(buf, &c.arg, put_expr);
    buf.put_u8(c.merge as u8);
    buf.put_u8(c.emit_partial as u8);
    Ok(())
}

fn read_agg_call(r: &mut Reader) -> TypeResult<AggCall> {
    let func = AggFunc::Builtin(agg_kind_from(r.u8()?)?);
    let arg = r.opt(read_expr)?;
    let merge = r.bool()?;
    let emit_partial = r.bool()?;
    Ok(AggCall {
        func,
        arg,
        merge,
        emit_partial,
    })
}

fn put_named_expr(buf: &mut BytesMut, e: &NamedExpr) {
    put_str(buf, &e.name);
    put_expr(buf, &e.expr);
}

fn read_named_expr(r: &mut Reader) -> TypeResult<NamedExpr> {
    Ok(NamedExpr {
        name: r.str()?,
        expr: read_expr(r)?,
    })
}

fn join_type_tag(j: JoinType) -> u8 {
    match j {
        JoinType::Inner => 0,
        JoinType::LeftOuter => 1,
        JoinType::RightOuter => 2,
        JoinType::FullOuter => 3,
    }
}

fn join_type_from(tag: u8) -> TypeResult<JoinType> {
    Ok(match tag {
        0 => JoinType::Inner,
        1 => JoinType::LeftOuter,
        2 => JoinType::RightOuter,
        3 => JoinType::FullOuter,
        other => return Err(TypeError::BadTag(other)),
    })
}

// ---------------------------------------------------------------------
// Node and schema codecs
// ---------------------------------------------------------------------

fn put_node(buf: &mut BytesMut, node: &LogicalNode) -> ExecResult<()> {
    match node {
        LogicalNode::Source { stream, partition } => {
            buf.put_u8(0);
            put_str(buf, stream);
            put_opt(buf, partition, |b, p| b.put_u32(*p));
        }
        LogicalNode::SelectProject {
            input,
            predicate,
            projections,
        } => {
            buf.put_u8(1);
            buf.put_u32(*input as u32);
            put_opt(buf, predicate, put_expr);
            buf.put_u32(projections.len() as u32);
            for p in projections {
                put_named_expr(buf, p);
            }
        }
        LogicalNode::Aggregate {
            input,
            predicate,
            group_by,
            aggregates,
            having,
        } => {
            buf.put_u8(2);
            buf.put_u32(*input as u32);
            put_opt(buf, predicate, put_expr);
            buf.put_u32(group_by.len() as u32);
            for g in group_by {
                put_named_expr(buf, g);
            }
            buf.put_u32(aggregates.len() as u32);
            for a in aggregates {
                put_str(buf, &a.name);
                put_agg_call(buf, &a.call)?;
            }
            put_opt(buf, having, put_expr);
        }
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
        } => {
            buf.put_u8(3);
            buf.put_u32(*left as u32);
            buf.put_u32(*right as u32);
            put_str(buf, left_alias);
            put_str(buf, right_alias);
            buf.put_u8(join_type_tag(*join_type));
            put_column_ref(buf, &temporal.left);
            put_column_ref(buf, &temporal.right);
            buf.put_i64(temporal.offset);
            buf.put_u32(equi.len() as u32);
            for (l, rhs) in equi {
                put_expr(buf, l);
                put_expr(buf, rhs);
            }
            put_opt(buf, residual, put_expr);
            buf.put_u32(projections.len() as u32);
            for p in projections {
                put_named_expr(buf, p);
            }
        }
        LogicalNode::Merge { inputs } => {
            buf.put_u8(4);
            buf.put_u32(inputs.len() as u32);
            for i in inputs {
                buf.put_u32(*i as u32);
            }
        }
    }
    Ok(())
}

fn read_node(r: &mut Reader) -> TypeResult<LogicalNode> {
    Ok(match r.u8()? {
        0 => LogicalNode::Source {
            stream: r.str()?,
            partition: r.opt(|r| r.u32())?,
        },
        1 => {
            let input = r.u32()? as usize;
            let predicate = r.opt(read_expr)?;
            let n = r.len()?;
            let mut projections = Vec::with_capacity(n);
            for _ in 0..n {
                projections.push(read_named_expr(r)?);
            }
            LogicalNode::SelectProject {
                input,
                predicate,
                projections,
            }
        }
        2 => {
            let input = r.u32()? as usize;
            let predicate = r.opt(read_expr)?;
            let n = r.len()?;
            let mut group_by = Vec::with_capacity(n);
            for _ in 0..n {
                group_by.push(read_named_expr(r)?);
            }
            let n = r.len()?;
            let mut aggregates = Vec::with_capacity(n);
            for _ in 0..n {
                let name = r.str()?;
                let call = read_agg_call(r)?;
                aggregates.push(NamedAgg { name, call });
            }
            let having = r.opt(read_expr)?;
            LogicalNode::Aggregate {
                input,
                predicate,
                group_by,
                aggregates,
                having,
            }
        }
        3 => {
            let left = r.u32()? as usize;
            let right = r.u32()? as usize;
            let left_alias = r.str()?;
            let right_alias = r.str()?;
            let join_type = join_type_from(r.u8()?)?;
            let temporal = TemporalJoin {
                left: read_column_ref(r)?,
                right: read_column_ref(r)?,
                offset: r.i64()?,
            };
            let n = r.len()?;
            let mut equi = Vec::with_capacity(n);
            for _ in 0..n {
                let l = read_expr(r)?;
                let rhs = read_expr(r)?;
                equi.push((l, rhs));
            }
            let residual = r.opt(read_expr)?;
            let n = r.len()?;
            let mut projections = Vec::with_capacity(n);
            for _ in 0..n {
                projections.push(read_named_expr(r)?);
            }
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
            }
        }
        4 => {
            let n = r.len()?;
            let mut inputs = Vec::with_capacity(n);
            for _ in 0..n {
                inputs.push(r.u32()? as usize);
            }
            LogicalNode::Merge { inputs }
        }
        other => return Err(TypeError::BadTag(other)),
    })
}

fn temporality_tag(t: Temporality) -> u8 {
    match t {
        Temporality::None => 0,
        Temporality::Increasing => 1,
        Temporality::Decreasing => 2,
    }
}

fn temporality_from(tag: u8) -> TypeResult<Temporality> {
    Ok(match tag {
        0 => Temporality::None,
        1 => Temporality::Increasing,
        2 => Temporality::Decreasing,
        other => return Err(TypeError::BadTag(other)),
    })
}

fn data_type_tag(t: DataType) -> u8 {
    match t {
        DataType::UInt => 0,
        DataType::Int => 1,
        DataType::Bool => 2,
        DataType::Str => 3,
    }
}

fn data_type_from(tag: u8) -> TypeResult<DataType> {
    Ok(match tag {
        0 => DataType::UInt,
        1 => DataType::Int,
        2 => DataType::Bool,
        3 => DataType::Str,
        other => return Err(TypeError::BadTag(other)),
    })
}

fn put_schema(buf: &mut BytesMut, s: &Schema) {
    put_str(buf, s.name());
    buf.put_u32(s.fields().len() as u32);
    for f in s.fields() {
        put_str(buf, f.name());
        buf.put_u8(data_type_tag(f.data_type()));
        buf.put_u8(temporality_tag(f.temporality()));
    }
}

fn read_schema(r: &mut Reader) -> TypeResult<Schema> {
    let name = r.str()?;
    let n = r.len()?;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let fname = r.str()?;
        let dt = data_type_from(r.u8()?)?;
        let temp = temporality_from(r.u8()?)?;
        fields.push(Field::temporal(fname, dt, temp));
    }
    Schema::new(name, fields)
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
    Ok(Histogram::from_parts(counts, sum, max))
}

fn put_op_metrics(buf: &mut BytesMut, m: &OpMetrics) {
    buf.put_u64(m.tuples_in);
    buf.put_u64(m.tuples_out);
    buf.put_u64(m.bytes_in);
    buf.put_u64(m.bytes_out);
    buf.put_u64(m.batches_in);
    buf.put_u64(m.batches_out);
    buf.put_u64(m.late_dropped);
    put_histogram(buf, &m.batch_occupancy);
    buf.put_u64(m.col_batches_in);
    put_histogram(buf, &m.col_batch_occupancy);
    buf.put_u64(m.kernel_hits);
    buf.put_u64(m.kernel_fallbacks);
    for v in m.kernel_lane_hits {
        buf.put_u64(v);
    }
    for v in m.kernel_lane_fallbacks {
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
        col_batches_in: r.u64()?,
        col_batch_occupancy: read_histogram(r)?,
        kernel_hits: r.u64()?,
        kernel_fallbacks: r.u64()?,
        kernel_lane_hits: read_lane_counters(r)?,
        kernel_lane_fallbacks: read_lane_counters(r)?,
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

/// Encodes a [`UnitSpec`] into a `Deploy` payload. Plans carrying
/// UDAFs are rejected with [`ExecError::BadPlan`].
pub(crate) fn encode_unit_spec(unit: &UnitSpec, scratch: &mut BytesMut) -> ExecResult<Bytes> {
    scratch.clear();
    let buf = scratch;
    buf.put_u32(unit.host);
    buf.put_u32(unit.schemas.len() as u32);
    for s in &unit.schemas {
        put_schema(buf, s);
    }
    buf.put_u32(unit.nodes.len() as u32);
    for n in &unit.nodes {
        put_node(buf, n)?;
    }
    for list in [&unit.scans, &unit.boundary, &unit.outputs] {
        buf.put_u32(list.len() as u32);
        for (a, b) in list.iter() {
            buf.put_u32(*a);
            buf.put_u32(*b);
        }
    }
    buf.put_u32(unit.max_batch);
    buf.put_u32(unit.frame_batch);
    buf.put_u64(unit.send_timeout_ms);
    put_fault(buf, &unit.fault);
    Ok(buf.split().freeze())
}

/// Decodes a `Deploy` payload back into a [`UnitSpec`]; any damage
/// surfaces as a typed [`TypeError`].
pub(crate) fn decode_unit_spec(payload: Bytes) -> TypeResult<UnitSpec> {
    let mut r = Reader::new(payload, "remote unit");
    let host = r.u32()?;
    let n = r.len()?;
    let mut schemas = Vec::with_capacity(n);
    for _ in 0..n {
        schemas.push(read_schema(&mut r)?);
    }
    let n = r.len()?;
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        nodes.push(read_node(&mut r)?);
    }
    let mut lists: [Vec<(u32, u32)>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for list in lists.iter_mut() {
        let n = r.len()?;
        list.reserve(n);
        for _ in 0..n {
            let a = r.u32()?;
            let b = r.u32()?;
            list.push((a, b));
        }
    }
    let [scans, boundary, outputs] = lists;
    let max_batch = r.u32()?;
    let frame_batch = r.u32()?;
    let send_timeout_ms = r.u64()?;
    let fault = read_fault(&mut r)?;
    r.finish()?;
    Ok(UnitSpec {
        host,
        schemas,
        nodes,
        scans,
        boundary,
        outputs,
        max_batch,
        frame_batch,
        send_timeout_ms,
        fault,
    })
}

/// Writes rows as one length-prefixed lane frame, so the result and
/// migration paths reuse the hardened boundary codec; its round trip is
/// exact for every value kind.
fn put_rows(buf: &mut BytesMut, rows: &[Tuple], scratch: &mut BytesMut) -> TypeResult<()> {
    let frame = encode_column_batch(&ColumnBatch::from_rows(rows), scratch)?;
    buf.put_u32(frame.len() as u32);
    buf.put_slice(&frame);
    Ok(())
}

fn read_rows(r: &mut Reader) -> TypeResult<Vec<Tuple>> {
    Ok(decode_column_batch(r.bytes()?)?.to_rows())
}

/// Encodes a [`UnitOutcome`] into a `Result` payload, each output's
/// rows as one lane frame.
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
    for (idx, rows) in &outcome.outputs {
        out.put_u32(*idx);
        put_rows(&mut out, rows, scratch)?;
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
    out.put_u64(outcome.tuples_fed);
    Ok(out.freeze())
}

/// Decodes a `Result` payload back into a [`UnitOutcome`].
pub(crate) fn decode_unit_outcome(payload: Bytes) -> TypeResult<UnitOutcome> {
    let mut r = Reader::new(payload, "unit outcome");
    let n = r.len()?;
    let mut counters = Vec::with_capacity(n);
    for _ in 0..n {
        counters.push(OpCounters {
            tuples_in: r.u64()?,
            tuples_out: r.u64()?,
            late_dropped: r.u64()?,
        });
    }
    let n = r.len()?;
    let mut node_metrics = Vec::with_capacity(n);
    for _ in 0..n {
        node_metrics.push(read_op_metrics(&mut r)?);
    }
    let n = r.len()?;
    let mut outputs = Vec::with_capacity(n);
    for _ in 0..n {
        let idx = r.u32()?;
        outputs.push((idx, read_rows(&mut r)?));
    }
    let n = r.len()?;
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
    let tuples_fed = r.u64()?;
    r.finish()?;
    Ok(UnitOutcome {
        counters,
        node_metrics,
        outputs,
        edges,
        stalls,
        dropped,
        tuples_fed,
    })
}

// ---------------------------------------------------------------------
// Migration payloads
// ---------------------------------------------------------------------

fn put_transform(buf: &mut BytesMut, t: &ColumnTransform) {
    match t {
        ColumnTransform::Identity => buf.put_u8(0),
        ColumnTransform::Div(k) => {
            buf.put_u8(1);
            buf.put_u64(*k);
        }
        ColumnTransform::Mask(m) => {
            buf.put_u8(2);
            buf.put_u64(*m);
        }
        ColumnTransform::Opaque(e) => {
            buf.put_u8(3);
            put_expr(buf, e);
        }
    }
}

fn read_transform(r: &mut Reader) -> TypeResult<ColumnTransform> {
    Ok(match r.u8()? {
        0 => ColumnTransform::Identity,
        1 => ColumnTransform::Div(r.u64()?),
        2 => ColumnTransform::Mask(r.u64()?),
        3 => ColumnTransform::Opaque(read_expr(r)?),
        other => return Err(TypeError::BadTag(other)),
    })
}

fn put_partition_set(buf: &mut BytesMut, set: &PartitionSet) {
    buf.put_u32(set.exprs().len() as u32);
    for e in set.exprs() {
        put_column_ref(buf, &e.column);
        put_transform(buf, &e.transform);
    }
}

fn read_partition_set(r: &mut Reader) -> TypeResult<PartitionSet> {
    let n = r.len()?;
    let mut exprs = Vec::with_capacity(n);
    for _ in 0..n {
        let column = read_column_ref(r)?;
        let transform = read_transform(r)?;
        exprs.push(AnalyzedExpr { column, transform });
    }
    Ok(PartitionSet::from_analyzed(exprs))
}

/// Writes a `(local node, rows)` list with each batch as one lane frame
/// — the same codec the result path uses for outputs.
fn put_node_batches(
    buf: &mut BytesMut,
    batches: &[LocalRows],
    scratch: &mut BytesMut,
) -> TypeResult<()> {
    buf.put_u32(batches.len() as u32);
    for (node, rows) in batches {
        buf.put_u32(*node);
        put_rows(buf, rows, scratch)?;
    }
    Ok(())
}

fn read_node_batches(r: &mut Reader) -> TypeResult<Vec<LocalRows>> {
    let n = r.len()?;
    let mut batches = Vec::with_capacity(n);
    for _ in 0..n {
        let node = r.u32()?;
        batches.push((node, read_rows(r)?));
    }
    Ok(batches)
}

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
            buckets_per_partition,
            assignment,
            set,
            jobs,
        } => {
            out.put_u8(MIGRATE_EXTRACT);
            out.put_u64(*boundary);
            out.put_u32(*partitions);
            out.put_u32(*buckets_per_partition);
            out.put_u32(assignment.len() as u32);
            for &a in assignment {
                out.put_u32(a);
            }
            put_partition_set(&mut out, set);
            out.put_u32(jobs.len() as u32);
            for (node, owned) in jobs {
                out.put_u32(*node);
                out.put_u32(owned.len() as u32);
                for &p in owned {
                    out.put_u32(p);
                }
            }
        }
        UnitCmd::Absorb(batches) => {
            out.put_u8(MIGRATE_ABSORB);
            put_node_batches(&mut out, batches, scratch)?;
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
            let buckets_per_partition = r.u32()?;
            let n = r.len()?;
            let mut assignment = Vec::with_capacity(n);
            for _ in 0..n {
                assignment.push(r.u32()?);
            }
            let set = read_partition_set(&mut r)?;
            let n = r.len()?;
            let mut jobs = Vec::with_capacity(n);
            for _ in 0..n {
                let node = r.u32()?;
                let k = r.len()?;
                let mut owned = Vec::with_capacity(k);
                for _ in 0..k {
                    owned.push(r.u32()?);
                }
                jobs.push((node, owned));
            }
            UnitCmd::Extract {
                boundary,
                partitions,
                buckets_per_partition,
                assignment,
                set,
                jobs,
            }
        }
        MIGRATE_ABSORB => UnitCmd::Absorb(read_node_batches(&mut r)?),
        other => return Err(TypeError::BadTag(other)),
    };
    r.finish()?;
    Ok(cmd)
}

/// Encodes a `MigrateAck` payload: the per-node state rows an extract
/// produced (empty for an absorb acknowledgement).
pub(crate) fn encode_unit_reply(
    batches: &[LocalRows],
    scratch: &mut BytesMut,
) -> TypeResult<Bytes> {
    let mut out = BytesMut::new();
    put_node_batches(&mut out, batches, scratch)?;
    Ok(out.freeze())
}

/// Decodes a `MigrateAck` payload.
pub(crate) fn decode_unit_reply(payload: Bytes) -> TypeResult<UnitReply> {
    let mut r = Reader::new(payload, "migrate reply");
    let batches = read_node_batches(&mut r)?;
    r.finish()?;
    Ok(batches)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_unit() -> UnitSpec {
        let schema = Schema::new(
            "pkt",
            vec![
                Field::temporal("time", DataType::UInt, Temporality::Increasing),
                Field::new("srcIP", DataType::UInt),
                Field::new("len", DataType::Int),
            ],
        )
        .unwrap();
        let nodes = vec![
            LogicalNode::Source {
                stream: "pkt".into(),
                partition: Some(2),
            },
            LogicalNode::SelectProject {
                input: 0,
                predicate: Some(ScalarExpr::Binary {
                    op: BinOp::Gt,
                    lhs: Box::new(ScalarExpr::Column(ColumnRef {
                        qualifier: None,
                        name: "len".into(),
                    })),
                    rhs: Box::new(ScalarExpr::Literal(Value::Int(100))),
                }),
                projections: vec![NamedExpr {
                    name: "srcIP".into(),
                    expr: ScalarExpr::Column(ColumnRef {
                        qualifier: Some("pkt".into()),
                        name: "srcIP".into(),
                    }),
                }],
            },
            LogicalNode::Aggregate {
                input: 1,
                predicate: None,
                group_by: vec![NamedExpr {
                    name: "srcIP".into(),
                    expr: ScalarExpr::Column(ColumnRef {
                        qualifier: None,
                        name: "srcIP".into(),
                    }),
                }],
                aggregates: vec![NamedAgg {
                    name: "cnt".into(),
                    call: AggCall {
                        func: AggFunc::Builtin(AggKind::Count),
                        arg: None,
                        merge: false,
                        emit_partial: true,
                    },
                }],
                having: Some(ScalarExpr::Unary {
                    op: UnOp::Not,
                    expr: Box::new(ScalarExpr::Literal(Value::Bool(false))),
                }),
            },
        ];
        UnitSpec {
            host: 3,
            schemas: vec![schema],
            nodes,
            scans: vec![(7, 0)],
            boundary: vec![(9, 2)],
            outputs: vec![(1, 2)],
            max_batch: 512,
            frame_batch: 128,
            send_timeout_ms: 1500,
            fault: FaultPlan::seeded(11).corrupt_every(3).slow(1, 40),
        }
    }

    #[test]
    fn remote_unit_round_trips() {
        let unit = sample_unit();
        let mut scratch = BytesMut::new();
        let bytes = encode_unit_spec(&unit, &mut scratch).unwrap();
        assert_eq!(decode_unit_spec(bytes).unwrap(), unit);
    }

    #[test]
    fn truncated_unit_is_typed_error() {
        let unit = sample_unit();
        let mut scratch = BytesMut::new();
        let bytes = encode_unit_spec(&unit, &mut scratch).unwrap();
        for cut in 0..bytes.len() {
            let err = decode_unit_spec(bytes.slice(..cut));
            assert!(err.is_err(), "cut {cut} decoded");
        }
        let mut longer = bytes.to_vec();
        longer.push(0);
        assert!(decode_unit_spec(Bytes::from(longer)).is_err());
    }

    #[test]
    fn udaf_deployment_is_rejected() {
        let mut unit = sample_unit();
        if let LogicalNode::Aggregate { aggregates, .. } = &mut unit.nodes[2] {
            aggregates[0].call.func = AggFunc::Udaf("my_sketch".into());
        }
        let mut scratch = BytesMut::new();
        let err = encode_unit_spec(&unit, &mut scratch).unwrap_err();
        assert!(
            matches!(&err, ExecError::BadPlan(msg) if msg.contains("UDAF")),
            "got {err}"
        );
    }

    #[test]
    fn unit_outcome_round_trips() {
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
            batch_occupancy: h.clone(),
            col_batches_in: 1,
            col_batch_occupancy: h,
            kernel_hits: 5,
            kernel_fallbacks: 1,
            kernel_lane_hits: [5, 0, 1, 0, 2, 0],
            kernel_lane_fallbacks: [0, 1, 0, 0, 0, 3],
            flushes: 2,
            flush_ns: 12_345,
            group_slots: 16,
            group_probes: 20,
            group_inserts: 8,
        };
        let outcome = UnitOutcome {
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
                    vec![Tuple::new(vec![Value::UInt(1), Value::Str("a".into())])],
                ),
                (1, every_lane_kind()),
                (2, Vec::new()),
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
            tuples_fed: 1_000,
        };
        let mut scratch = BytesMut::new();
        let bytes = encode_unit_outcome(&outcome, &mut scratch).unwrap();
        assert_eq!(decode_unit_outcome(bytes).unwrap(), outcome);
    }

    /// Rows whose columns land on every lane a frame carries: `UInt`,
    /// negative `Int`, `Bool`, `Str`, all-NULL, and `Int` mixed with
    /// `UInt`.
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
                Value::Int(-3),
            ]),
        ]
    }

    fn sample_migrate_cmds() -> Vec<UnitCmd> {
        let set = PartitionSet::from_analyzed([
            AnalyzedExpr {
                column: ColumnRef::bare("srcIP"),
                transform: ColumnTransform::Mask(0xFFF0),
            },
            AnalyzedExpr {
                column: ColumnRef::qualified("TCP", "destIP"),
                transform: ColumnTransform::Identity,
            },
        ]);
        vec![
            UnitCmd::Extract {
                boundary: 1_234_567,
                partitions: 8,
                buckets_per_partition: 4,
                assignment: (0..32).map(|b| b / 4).collect(),
                set,
                jobs: vec![(3, vec![2, 3]), (9, vec![6, 7])],
            },
            UnitCmd::Absorb(vec![
                (
                    3,
                    vec![Tuple::new(vec![
                        Value::UInt(60),
                        Value::UInt(0xDEAD),
                        Value::Int(7),
                    ])],
                ),
                (9, Vec::new()),
                (12, every_lane_kind()),
            ]),
            UnitCmd::Absorb(Vec::new()),
        ]
    }

    #[test]
    fn migrate_cmd_round_trips() {
        let mut scratch = BytesMut::new();
        for cmd in sample_migrate_cmds() {
            let bytes = encode_unit_cmd(&cmd, &mut scratch).unwrap();
            assert_eq!(decode_unit_cmd(bytes).unwrap(), cmd, "{cmd:?}");
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
        let batches = vec![
            (
                4,
                vec![
                    Tuple::new(vec![Value::UInt(1), Value::Str("k".into())]),
                    Tuple::new(vec![Value::UInt(2), Value::Null]),
                ],
            ),
            (11, Vec::new()),
        ];
        let mut scratch = BytesMut::new();
        let bytes = encode_unit_reply(&batches, &mut scratch).unwrap();
        assert_eq!(decode_unit_reply(bytes.clone()).unwrap(), batches);
        for cut in 0..bytes.len() {
            assert!(decode_unit_reply(bytes.slice(..cut)).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn truncated_outcome_is_typed_error() {
        let outcome = UnitOutcome {
            counters: vec![OpCounters::default()],
            node_metrics: vec![OpMetrics::default()],
            outputs: vec![(0, vec![Tuple::new(vec![Value::UInt(7)])])],
            edges: Vec::new(),
            stalls: 0,
            dropped: 0,
            tuples_fed: 7,
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
}
