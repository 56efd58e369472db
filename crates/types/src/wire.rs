//! Compact wire encoding for tuples crossing host boundaries.
//!
//! The cluster simulator charges network load in both tuples/sec and
//! bytes/sec; the byte figure comes from this encoding, which mirrors the
//! simple tagged binary layout a real inter-Gigascope transfer uses.
//!
//! Two granularities are provided:
//!
//! - [`encode_tuple`]/[`decode_tuple`] — one tuple, one buffer (trace
//!   files, tests); [`encoded_len`] is its exact size, which the
//!   Section 4.2.1 cost model charges per transferred tuple;
//! - [`encode_column_batch`]/[`decode_column_batch`] — a
//!   length-prefixed **frame** carrying a whole [`ColumnBatch`] lane by
//!   lane, the one unit every cluster runner ships across a boundary.
//!   A frame is `[u32 payload_len][u32 row_count | COLUMNAR_FLAG]
//!   [lanes…]`; the lanes pack typed values without per-value tags, so
//!   measured frame bytes sit below the cost model's tagged estimate.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::{Column, ColumnBatch, ColumnData, Tuple, TypeError, TypeResult, Value};

const TAG_NULL: u8 = 0;
const TAG_UINT: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_BOOL: u8 = 3;
const TAG_STR: u8 = 4;

/// Lane tag marking an untyped (all-NULL) column in a columnar frame.
/// Reuses the NULL value tag; the remaining lane tags are the value
/// tags themselves, one per lane kind.
const LANE_NONE: u8 = TAG_NULL;

/// Byte length of a frame header: `u32` payload length plus `u32`
/// row count.
pub const FRAME_HEADER_LEN: usize = 8;

/// High bit of the frame header's count word, set on every frame
/// [`encode_column_batch`] writes. It is a corruption check: a frame
/// without it is not a lane frame, and [`decode_column_batch`] rejects
/// it with a typed error rather than misparsing it.
pub const COLUMNAR_FLAG: u32 = 1 << 31;

/// Largest payload a frame header's `u32` length word can describe.
/// Encoders refuse ([`TypeError::FrameTooLarge`]) rather than emit a
/// silently truncated length and a corrupt frame.
pub const MAX_FRAME_PAYLOAD: usize = u32::MAX as usize;

/// Largest row count a frame header can carry: the count word's high
/// bit is the [`COLUMNAR_FLAG`], so counts stop one short of 2³¹.
pub const MAX_FRAME_COUNT: usize = (COLUMNAR_FLAG - 1) as usize;

/// Encodes a tuple into a freshly allocated byte buffer.
pub fn encode_tuple(tuple: &Tuple) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_len(tuple));
    buf.put_u16(tuple.arity() as u16);
    for v in tuple.values() {
        encode_value_into(v, &mut buf);
    }
    buf.freeze()
}

/// The byte length of the value body (excluding the 1-byte tag).
#[inline]
fn value_body_len(v: &Value) -> usize {
    match v {
        Value::Null => 0,
        Value::UInt(_) | Value::Int(_) => 8,
        Value::Bool(_) => 1,
        Value::Str(s) => 4 + s.len(),
    }
}

/// Byte length of one encoded column: lane tag, null-mask flag,
/// optional mask, lane body.
fn encoded_column_len(col: &Column) -> usize {
    let mask = if col.has_nulls() { col.len() } else { 0 };
    let lane = match col.data() {
        None => 0,
        Some(ColumnData::UInt(_)) | Some(ColumnData::Int(_)) => 8 * col.len(),
        Some(ColumnData::Bool(_)) => col.len(),
        Some(ColumnData::Str(l)) => l.iter().map(|s| 4 + s.len()).sum(),
    };
    2 + mask + lane
}

/// Exact payload length in bytes of a columnar frame carrying `batch`,
/// excluding the [`FRAME_HEADER_LEN`]-byte header.
pub fn encoded_column_batch_len(batch: &ColumnBatch) -> usize {
    2 + batch
        .columns()
        .iter()
        .map(encoded_column_len)
        .sum::<usize>()
}

/// Encodes a column batch into one length-prefixed frame, reusing
/// `scratch` as the staging buffer (its allocation is retained across
/// calls, so steady-state framing does no buffer growth). The returned
/// [`Bytes`] is self-contained; `scratch` is left empty.
///
/// Frame layout: `[u32 payload_len][u32 row_count | COLUMNAR_FLAG]`
/// then `[u16 arity]` and, per column: `[u8 lane_tag][u8 has_mask]`,
/// `row_count` mask bytes when `has_mask` is 1, and the lane body laid
/// out contiguously (`u64`s for UInt, `i64`s for Int, one byte per
/// Bool, `u32`-length-prefixed UTF-8 per Str; untyped all-NULL
/// columns ship no body at all). Decoding the frame and materializing its rows yields exactly
/// the rows the batch holds, for every value kind.
///
/// A payload, row count or arity that overflows its header field
/// (`u32`/`u32`/`u16`) reports [`TypeError::FrameTooLarge`] *before* any
/// bytes are staged, instead of emitting a silently length-truncated
/// (corrupt) frame. Per-string `u32` length prefixes cannot overflow
/// once the whole payload fits (each string costs `4 + len` payload
/// bytes).
pub fn encode_column_batch(batch: &ColumnBatch, scratch: &mut BytesMut) -> TypeResult<Bytes> {
    scratch.clear();
    let payload = encoded_column_batch_len(batch);
    for (context, size, limit) in [
        ("tuple count", batch.rows(), MAX_FRAME_COUNT),
        ("frame payload", payload, MAX_FRAME_PAYLOAD),
        ("column batch arity", batch.arity(), u16::MAX as usize),
    ] {
        if size > limit {
            return Err(TypeError::FrameTooLarge {
                context,
                size,
                limit,
            });
        }
    }
    scratch.reserve(FRAME_HEADER_LEN + payload);
    scratch.put_u32(payload as u32);
    scratch.put_u32(batch.rows() as u32 | COLUMNAR_FLAG);
    scratch.put_u16(batch.arity() as u16);
    for col in batch.columns() {
        let tag = match col.data() {
            None => LANE_NONE,
            Some(ColumnData::UInt(_)) => TAG_UINT,
            Some(ColumnData::Int(_)) => TAG_INT,
            Some(ColumnData::Bool(_)) => TAG_BOOL,
            Some(ColumnData::Str(_)) => TAG_STR,
        };
        scratch.put_u8(tag);
        scratch.put_u8(u8::from(col.has_nulls()));
        if col.has_nulls() {
            for &n in col.null_mask() {
                scratch.put_u8(u8::from(n));
            }
        }
        match col.data() {
            None => {}
            Some(ColumnData::UInt(l)) => {
                for &x in l {
                    scratch.put_u64(x);
                }
            }
            Some(ColumnData::Int(l)) => {
                for &x in l {
                    scratch.put_i64(x);
                }
            }
            Some(ColumnData::Bool(l)) => {
                for &b in l {
                    scratch.put_u8(u8::from(b));
                }
            }
            Some(ColumnData::Str(l)) => {
                for s in l {
                    scratch.put_u32(s.len() as u32);
                    scratch.put_slice(s.as_bytes());
                }
            }
        }
    }
    debug_assert_eq!(scratch.len(), FRAME_HEADER_LEN + payload);
    Ok(scratch.split().freeze())
}

/// Appends one tagged value encoding, the unit of the tuple encoding.
fn encode_value_into(v: &Value, buf: &mut BytesMut) {
    match v {
        Value::Null => buf.put_u8(TAG_NULL),
        Value::UInt(x) => {
            buf.put_u8(TAG_UINT);
            buf.put_u64(*x);
        }
        Value::Int(x) => {
            buf.put_u8(TAG_INT);
            buf.put_i64(*x);
        }
        Value::Bool(b) => {
            buf.put_u8(TAG_BOOL);
            buf.put_u8(u8::from(*b));
        }
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            buf.put_u32(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
    }
}

/// Decodes a frame produced by [`encode_column_batch`].
///
/// A frame without [`COLUMNAR_FLAG`], truncated lanes, count/length
/// disagreements, bad tags and invalid UTF-8 all report typed
/// [`TypeError`]s, never panics; no count read off the wire drives an
/// allocation the remaining payload cannot back.
pub fn decode_column_batch(mut frame: Bytes) -> TypeResult<ColumnBatch> {
    if frame.remaining() < FRAME_HEADER_LEN {
        return Err(TypeError::Truncated {
            context: "frame header",
            need: FRAME_HEADER_LEN,
            have: frame.remaining(),
        });
    }
    let payload = frame.get_u32() as usize;
    let count = frame.get_u32();
    if count & COLUMNAR_FLAG == 0 {
        return Err(TypeError::Corrupt("frame lacks the columnar flag"));
    }
    let rows = (count & !COLUMNAR_FLAG) as usize;
    if frame.remaining() != payload {
        return Err(TypeError::FrameLengthMismatch {
            declared: payload,
            actual: frame.remaining(),
        });
    }
    want(&frame, "columnar arity", 2)?;
    let arity = frame.get_u16() as usize;
    // Every column costs at least its 2-byte lane header; an arity the
    // payload cannot fit is corrupt (and must not drive a pre-sized
    // allocation off a wire-controlled count).
    if arity * 2 > frame.remaining() {
        return Err(TypeError::Corrupt("column count exceeds frame payload"));
    }
    let mut columns = Vec::with_capacity(arity);
    for _ in 0..arity {
        columns.push(decode_column_from(&mut frame, rows)?);
    }
    if frame.remaining() != 0 {
        return Err(TypeError::Corrupt("trailing bytes after columnar payload"));
    }
    Ok(ColumnBatch::from_columns_with_rows(columns, rows))
}

/// Decodes one column (lane tag, optional null mask, lane body) off the
/// front of a columnar frame payload.
fn decode_column_from(buf: &mut Bytes, rows: usize) -> TypeResult<Column> {
    want(buf, "lane header", 2)?;
    let tag = buf.get_u8();
    let has_mask = buf.get_u8() != 0;
    let mut nulls = Vec::new();
    if has_mask {
        want(buf, "null mask", rows)?;
        nulls.reserve(rows);
        for _ in 0..rows {
            nulls.push(buf.get_u8() != 0);
        }
    }
    let data = match tag {
        LANE_NONE => {
            // Untyped column: every row is NULL by invariant, and the
            // encoder writes that mask whenever there are rows — so a
            // row count never sizes a mask the frame does not carry.
            if rows > 0 && !has_mask {
                return Err(TypeError::Corrupt("untyped column without a null mask"));
            }
            if nulls.iter().any(|&n| !n) {
                return Err(TypeError::Corrupt("non-null row in untyped column"));
            }
            return Ok(Column::all_null(rows));
        }
        TAG_UINT => {
            want(buf, "uint lane", 8 * rows)?;
            let mut l = Vec::with_capacity(rows);
            for _ in 0..rows {
                l.push(buf.get_u64());
            }
            ColumnData::UInt(l)
        }
        TAG_INT => {
            want(buf, "int lane", 8 * rows)?;
            let mut l = Vec::with_capacity(rows);
            for _ in 0..rows {
                l.push(buf.get_i64());
            }
            ColumnData::Int(l)
        }
        TAG_BOOL => {
            want(buf, "bool lane", rows)?;
            let mut l = Vec::with_capacity(rows);
            for _ in 0..rows {
                l.push(buf.get_u8() != 0);
            }
            ColumnData::Bool(l)
        }
        TAG_STR => {
            // Each string costs at least its 4-byte length prefix:
            // bound the pre-sized allocation by the bytes actually
            // present before trusting the wire-supplied row count.
            want(buf, "string lane", 4 * rows)?;
            let mut l = Vec::with_capacity(rows);
            for _ in 0..rows {
                want(buf, "string length", 4)?;
                let len = buf.get_u32() as usize;
                want(buf, "string body", len)?;
                let raw = buf.copy_to_bytes(len);
                let s =
                    std::str::from_utf8(&raw).map_err(|_| TypeError::Corrupt("invalid utf-8"))?;
                l.push(crate::ArcStr::from(s));
            }
            ColumnData::Str(l)
        }
        other => return Err(TypeError::BadTag(other)),
    };
    Ok(Column::from_parts(data, nulls))
}

/// Exact length in bytes [`encode_tuple`] will produce, without encoding.
///
/// The cost model uses this as `out_tuple_size` when charging network
/// bytes, so it must stay in lock-step with the encoder.
pub fn encoded_len(tuple: &Tuple) -> usize {
    2 + tuple
        .values()
        .iter()
        .map(|v| 1 + value_body_len(v))
        .sum::<usize>()
}

/// Estimated wire size in bytes of one tuple with `arity` fields: the
/// 2-byte header plus 1 tag + 8 payload bytes per field, which is
/// [`encoded_len`] of an all-numeric tuple. The cost model charges
/// network bytes by it and the engine derives its byte counters from
/// it, which is what lets measured bytes validate predicted ones.
pub fn estimated_tuple_size(arity: usize) -> f64 {
    2.0 + 9.0 * arity as f64
}

/// Ensures `buf` holds at least `need` more bytes before a read.
pub(crate) fn want(buf: &Bytes, context: &'static str, need: usize) -> TypeResult<()> {
    let have = buf.remaining();
    if have < need {
        return Err(TypeError::Truncated {
            context,
            need,
            have,
        });
    }
    Ok(())
}

/// Decodes a tuple previously produced by [`encode_tuple`]. Every
/// short-buffer case reports a typed [`TypeError::Truncated`] (never a
/// panic), unknown tags report [`TypeError::BadTag`].
pub fn decode_tuple(mut buf: Bytes) -> TypeResult<Tuple> {
    want(&buf, "arity header", 2)?;
    let arity = buf.get_u16() as usize;
    // Each value costs at least its 1-byte tag: bound the pre-sized
    // allocation by the bytes actually present.
    want(&buf, "tuple values", arity)?;
    let mut tuple = Tuple::with_capacity(arity);
    for _ in 0..arity {
        tuple.push(decode_value_from(&mut buf)?);
    }
    Ok(tuple)
}

/// Decodes one tagged value off the front of `buf`, the unit of the
/// tuple decoder.
fn decode_value_from(buf: &mut Bytes) -> TypeResult<Value> {
    want(buf, "value tag", 1)?;
    let tag = buf.get_u8();
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_UINT => {
            want(buf, "uint value", 8)?;
            Value::UInt(buf.get_u64())
        }
        TAG_INT => {
            want(buf, "int value", 8)?;
            Value::Int(buf.get_i64())
        }
        TAG_BOOL => {
            want(buf, "bool value", 1)?;
            Value::Bool(buf.get_u8() != 0)
        }
        TAG_STR => {
            want(buf, "string length", 4)?;
            let len = buf.get_u32() as usize;
            want(buf, "string body", len)?;
            let raw = buf.copy_to_bytes(len);
            let s = std::str::from_utf8(&raw).map_err(|_| TypeError::Corrupt("invalid utf-8"))?;
            Value::from(s)
        }
        other => return Err(TypeError::BadTag(other)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn round_trip_all_value_kinds() {
        let t = Tuple::new(vec![
            Value::Null,
            Value::UInt(u64::MAX),
            Value::Int(i64::MIN),
            Value::Bool(true),
            Value::from("gigascope"),
        ]);
        let encoded = encode_tuple(&t);
        assert_eq!(encoded.len(), encoded_len(&t));
        assert_eq!(decode_tuple(encoded).unwrap(), t);
    }

    #[test]
    fn empty_tuple_round_trips() {
        let t = Tuple::default();
        assert_eq!(decode_tuple(encode_tuple(&t)).unwrap(), t);
    }

    #[test]
    fn truncated_buffer_reports_typed_error() {
        let t = tuple![1u64, 2u64];
        let encoded = encode_tuple(&t);
        // Every prefix of the encoding must fail with a typed error,
        // never a panic.
        for cut in 0..encoded.len() {
            let truncated = encoded.slice(0..cut);
            let err = decode_tuple(truncated).unwrap_err();
            assert!(
                matches!(err, TypeError::Truncated { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn truncated_string_body_reports_typed_error() {
        let mut raw = BytesMut::new();
        raw.put_u16(1);
        raw.put_u8(4); // TAG_STR
        raw.put_u32(100); // declares 100 bytes, provides 2
        raw.put_slice(b"ab");
        assert!(matches!(
            decode_tuple(raw.freeze()).unwrap_err(),
            TypeError::Truncated {
                context: "string body",
                need: 100,
                have: 2,
            }
        ));
    }

    #[test]
    fn garbage_tag_reports_bad_tag() {
        let mut raw = BytesMut::new();
        raw.put_u16(1);
        raw.put_u8(99);
        assert!(matches!(
            decode_tuple(raw.freeze()).unwrap_err(),
            TypeError::BadTag(99)
        ));
    }

    /// Encodes `rows` as one lane frame through `scratch`.
    fn frame_of(rows: &[Tuple], scratch: &mut BytesMut) -> Bytes {
        encode_column_batch(&ColumnBatch::from_rows(rows), scratch).unwrap()
    }

    #[test]
    fn batch_round_trips_and_sizes_agree() {
        let batch = vec![
            Tuple::new(vec![
                Value::UInt(1),
                Value::from("frame"),
                Value::Bool(false),
            ]),
            Tuple::new(vec![Value::Null, Value::from("lane"), Value::Bool(true)]),
        ];
        let cols = ColumnBatch::from_rows(&batch);
        let mut scratch = BytesMut::new();
        let frame = encode_column_batch(&cols, &mut scratch).unwrap();
        // Arity word; a masked uint lane (2 + 2 + 2·8); a string lane
        // (2 + 4+5 + 4+4); a bool lane (2 + 2).
        assert_eq!(encoded_column_batch_len(&cols), 2 + 20 + 19 + 4);
        assert_eq!(
            frame.len(),
            FRAME_HEADER_LEN + encoded_column_batch_len(&cols)
        );
        assert_eq!(decode_column_batch(frame).unwrap().to_rows(), batch);
        // Scratch is drained but keeps capacity for the next frame.
        assert!(scratch.is_empty());
    }

    #[test]
    fn empty_batch_round_trips() {
        let frame = frame_of(&[], &mut BytesMut::new());
        // The header and the arity word of an arity-0 batch.
        assert_eq!(frame.len(), FRAME_HEADER_LEN + 2);
        let decoded = decode_column_batch(frame).unwrap();
        assert_eq!((decoded.arity(), decoded.rows()), (0, 0));
    }

    #[test]
    fn zero_arity_batch_round_trips() {
        // A batch of arity-0 rows has no lanes at all: the frame is the
        // header and the arity word, and only the header's row count
        // says how many rows it carries.
        let batch = vec![Tuple::default(); 5];
        let frame = frame_of(&batch, &mut BytesMut::new());
        assert_eq!(frame.len(), FRAME_HEADER_LEN + 2);
        assert_eq!(decode_column_batch(frame).unwrap().to_rows(), batch);
    }

    #[test]
    fn zero_length_frame_is_truncated_not_panic() {
        assert!(matches!(
            decode_column_batch(Bytes::new()).unwrap_err(),
            TypeError::Truncated {
                context: "frame header",
                need: FRAME_HEADER_LEN,
                have: 0,
            }
        ));
    }

    #[test]
    fn empty_payload_with_nonzero_count_is_rejected() {
        // Header claims rows but carries no payload, not even the arity
        // word: must be a typed truncation, not a bad decode.
        let mut raw = BytesMut::new();
        raw.put_u32(0); // payload_len
        raw.put_u32(3 | COLUMNAR_FLAG); // row count
        assert!(matches!(
            decode_column_batch(raw.freeze()).unwrap_err(),
            TypeError::Truncated {
                context: "columnar arity",
                ..
            }
        ));
    }

    #[test]
    fn empty_frame_prefixes_are_typed_errors() {
        // Every proper prefix of the canonical empty frame fails typed;
        // the full frame decodes to zero rows.
        let frame = frame_of(&[], &mut BytesMut::new());
        for cut in 0..frame.len() {
            let err = decode_column_batch(frame.slice(0..cut)).unwrap_err();
            assert!(
                matches!(
                    err,
                    TypeError::Truncated { .. } | TypeError::FrameLengthMismatch { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
        assert!(decode_column_batch(frame).unwrap().is_empty());
    }

    #[test]
    fn scratch_reuse_is_stable_across_frames() {
        // A frame staged through a scratch buffer that already shipped
        // another is byte for byte the frame a fresh buffer stages.
        let mut scratch = BytesMut::new();
        let a = vec![tuple![7u64]];
        let b = vec![tuple![8u64, 9u64], tuple![10u64, 11u64]];
        let fa = frame_of(&a, &mut scratch);
        let fb = frame_of(&b, &mut scratch);
        assert_eq!(fb, frame_of(&b, &mut BytesMut::new()));
        assert_eq!(decode_column_batch(fa).unwrap().to_rows(), a);
        assert_eq!(decode_column_batch(fb).unwrap().to_rows(), b);
    }

    #[test]
    fn frame_length_mismatch_is_rejected() {
        let frame = frame_of(&[tuple![1u64]], &mut BytesMut::new());
        let short = frame.slice(0..frame.len() - 1);
        assert!(matches!(
            decode_column_batch(short).unwrap_err(),
            TypeError::FrameLengthMismatch { .. }
        ));
    }

    #[test]
    fn truncated_frame_header_is_rejected() {
        let frame = frame_of(&[tuple![1u64]], &mut BytesMut::new());
        let stub = frame.slice(0..FRAME_HEADER_LEN - 1);
        assert!(matches!(
            decode_column_batch(stub).unwrap_err(),
            TypeError::Truncated {
                context: "frame header",
                ..
            }
        ));
    }

    #[test]
    fn oversize_payload_is_rejected_before_staging() {
        // 68 rows sharing one 64 MiB string describe a ~4.25 GiB
        // payload while occupying ~64 MiB of memory: the encoder must
        // refuse before reserving anything, instead of emitting a frame
        // whose u32 length word silently truncated.
        let big: Value = Value::from("x".repeat(64 << 20).as_str());
        let rows: Vec<Tuple> = (0..68).map(|_| Tuple::new(vec![big.clone()])).collect();
        let cols = ColumnBatch::from_rows(&rows);
        assert!(encoded_column_batch_len(&cols) > MAX_FRAME_PAYLOAD);
        let mut scratch = BytesMut::new();
        let err = encode_column_batch(&cols, &mut scratch).unwrap_err();
        assert!(
            matches!(
                err,
                TypeError::FrameTooLarge {
                    context: "frame payload",
                    ..
                }
            ),
            "{err}"
        );
        assert!(scratch.is_empty(), "refused before staging any bytes");
    }

    #[test]
    fn oversize_tuple_arity_is_rejected() {
        let wide = Tuple::new(vec![Value::Null; (u16::MAX as usize) + 1]);
        let cols = ColumnBatch::from_rows(&[wide]);
        let mut scratch = BytesMut::new();
        assert!(matches!(
            encode_column_batch(&cols, &mut scratch).unwrap_err(),
            TypeError::FrameTooLarge {
                context: "column batch arity",
                ..
            }
        ));
        assert!(scratch.is_empty(), "refused before staging any bytes");
    }

    #[test]
    fn absurd_column_count_is_rejected_before_reserve() {
        // Columnar frame claiming 65535 columns in a 4-byte payload.
        let mut raw = BytesMut::new();
        raw.put_u32(4);
        raw.put_u32(1 | COLUMNAR_FLAG);
        raw.put_u16(u16::MAX);
        raw.put_u16(0);
        assert!(matches!(
            decode_column_batch(raw.freeze()).unwrap_err(),
            TypeError::Corrupt("column count exceeds frame payload")
        ));
    }

    #[test]
    fn absurd_string_lane_row_count_is_rejected_before_reserve() {
        // A columnar frame whose (masked) row count is enormous but
        // whose string lane holds almost nothing: the decoder must
        // reject on remaining bytes before pre-sizing the lane.
        let rows: u32 = 1 << 30;
        let mut raw = BytesMut::new();
        raw.put_u32(2 + 2 + 4); // arity word + lane header + one length prefix
        raw.put_u32(rows | COLUMNAR_FLAG);
        raw.put_u16(1);
        raw.put_u8(4); // TAG_STR lane
        raw.put_u8(0); // no mask
        raw.put_u32(0); // a single empty-string prefix
        assert!(matches!(
            decode_column_batch(raw.freeze()).unwrap_err(),
            TypeError::Truncated {
                context: "string lane",
                ..
            }
        ));
    }

    #[test]
    fn absurd_tuple_count_is_rejected_before_reserve() {
        // A frame claiming 2³¹ − 1 rows of one uint lane in a 12-byte
        // payload: rejected on the bytes present, before the lane is
        // pre-sized off the wire's count.
        let mut raw = BytesMut::new();
        raw.put_u32(2 + 2 + 8); // arity word + lane header + one value
        raw.put_u32(MAX_FRAME_COUNT as u32 | COLUMNAR_FLAG);
        raw.put_u16(1);
        raw.put_u8(TAG_UINT);
        raw.put_u8(0); // no mask
        raw.put_u64(7);
        assert!(matches!(
            decode_column_batch(raw.freeze()).unwrap_err(),
            TypeError::Truncated {
                context: "uint lane",
                ..
            }
        ));
    }

    /// A lane frame is interchangeable with the rows it was cut from:
    /// its length is the header plus [`encoded_column_batch_len`], it
    /// carries the flag, and decoding it materializes exactly those rows.
    fn assert_interchangeable(rows: Vec<Tuple>) {
        let batch = ColumnBatch::from_rows(&rows);
        let frame = encode_column_batch(&batch, &mut BytesMut::new()).unwrap();
        assert_eq!(
            frame.len(),
            FRAME_HEADER_LEN + encoded_column_batch_len(&batch)
        );
        assert_ne!(frame[4] & 0x80, 0, "every frame carries the flag");
        assert_eq!(decode_column_batch(frame).unwrap().to_rows(), rows);
    }

    #[test]
    fn columnar_frame_interchangeable_uniform_uints() {
        assert_interchangeable(vec![tuple![1u64, 2u64], tuple![3u64, 4u64]]);
    }

    #[test]
    fn columnar_frame_interchangeable_all_kinds_and_nulls() {
        assert_interchangeable(vec![
            Tuple::new(vec![
                Value::Null,
                Value::UInt(u64::MAX),
                Value::from("tcp"),
                Value::Bool(true),
                Value::Int(i64::MIN),
            ]),
            Tuple::new(vec![
                Value::Int(-1),
                Value::Null,
                Value::from(""),
                Value::Bool(false),
                Value::Null,
            ]),
        ]);
    }

    #[test]
    fn columnar_frame_interchangeable_all_null_column() {
        assert_interchangeable(vec![
            Tuple::new(vec![Value::Null, Value::UInt(1)]),
            Tuple::new(vec![Value::Null, Value::UInt(2)]),
        ]);
    }

    #[test]
    fn columnar_frame_interchangeable_empty_batch() {
        assert_interchangeable(Vec::new());
    }

    #[test]
    fn columnar_frame_interchangeable_arity_zero_rows() {
        assert_interchangeable(vec![Tuple::default(), Tuple::default()]);
    }

    #[test]
    fn columnar_decoder_rejects_row_frame() {
        // A well-formed frame with only the flag cleared is a typed
        // corruption, never misparsed.
        let mut raw = frame_of(&[tuple![1u64]], &mut BytesMut::new()).to_vec();
        raw[4] &= 0x7F;
        assert!(matches!(
            decode_column_batch(Bytes::from(raw)).unwrap_err(),
            TypeError::Corrupt("frame lacks the columnar flag")
        ));
    }

    #[test]
    fn truncated_columnar_frame_reports_typed_errors() {
        let rows = vec![
            Tuple::new(vec![Value::Int(7), Value::from("abc"), Value::Null]),
            Tuple::new(vec![Value::Int(-9), Value::from("d"), Value::Bool(true)]),
        ];
        let batch = ColumnBatch::from_rows(&rows);
        let mut scratch = BytesMut::new();
        let frame = encode_column_batch(&batch, &mut scratch).unwrap();
        for cut in 0..frame.len() {
            let err = decode_column_batch(frame.slice(0..cut)).unwrap_err();
            assert!(
                matches!(
                    err,
                    TypeError::Truncated { .. }
                        | TypeError::FrameLengthMismatch { .. }
                        | TypeError::Corrupt(_)
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn columnar_garbage_lane_tag_reports_bad_tag() {
        let mut raw = BytesMut::new();
        raw.put_u32(4); // payload: arity word + lane header
        raw.put_u32(1 | COLUMNAR_FLAG);
        raw.put_u16(1);
        raw.put_u8(99); // bogus lane tag
        raw.put_u8(0);
        assert!(matches!(
            decode_column_batch(raw.freeze()).unwrap_err(),
            TypeError::BadTag(99)
        ));
    }

    #[test]
    fn columnar_untyped_lane_with_non_null_row_is_rejected() {
        let mut raw = BytesMut::new();
        raw.put_u32(2 + 2 + 1); // arity + lane header + 1 mask byte
        raw.put_u32(1 | COLUMNAR_FLAG);
        raw.put_u16(1);
        raw.put_u8(0); // LANE_NONE
        raw.put_u8(1); // mask present
        raw.put_u8(0); // …claiming the row is non-null
        assert!(matches!(
            decode_column_batch(raw.freeze()).unwrap_err(),
            TypeError::Corrupt(_)
        ));
    }

    #[test]
    fn columnar_untyped_lane_without_a_mask_is_rejected() {
        // 18 bytes declaring 2^31 - 1 rows of four untyped columns and
        // no masks: decoding them would allocate ~8 GiB of NULL masks.
        let mut raw = BytesMut::new();
        raw.put_u32(2 + 4 * 2); // arity + four lane headers
        raw.put_u32(0x7FFF_FFFF | COLUMNAR_FLAG);
        raw.put_u16(4);
        for _ in 0..4 {
            raw.put_u8(0); // LANE_NONE
            raw.put_u8(0); // no mask
        }
        assert_eq!(raw.len(), 18);
        assert!(matches!(
            decode_column_batch(raw.freeze()).unwrap_err(),
            TypeError::Corrupt("untyped column without a null mask")
        ));
    }

    #[test]
    fn columnar_scratch_reuse_is_stable_across_frames() {
        let mut scratch = BytesMut::new();
        let a = ColumnBatch::from_rows(&[tuple![7u64]]);
        let b = ColumnBatch::from_rows(&[tuple![8u64, "s"], tuple![9u64, "t"]]);
        let fa = encode_column_batch(&a, &mut scratch).unwrap();
        let fb = encode_column_batch(&b, &mut scratch).unwrap();
        assert_eq!(decode_column_batch(fa).unwrap().to_rows(), a.to_rows());
        assert_eq!(decode_column_batch(fb).unwrap().to_rows(), b.to_rows());
        assert!(scratch.is_empty());
    }

    #[test]
    fn trailing_bytes_after_counted_tuples_are_rejected() {
        // The payload length covers an arity-0 batch plus two bytes no
        // lane accounts for.
        let mut raw = BytesMut::new();
        raw.put_u32(4);
        raw.put_u32(1 | COLUMNAR_FLAG);
        raw.put_u16(0);
        raw.put_u16(0);
        assert!(matches!(
            decode_column_batch(raw.freeze()).unwrap_err(),
            TypeError::Corrupt("trailing bytes after columnar payload")
        ));
    }
}
