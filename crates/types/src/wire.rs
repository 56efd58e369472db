//! Compact wire encoding for tuples crossing host boundaries.
//!
//! The cluster simulator charges network load in both tuples/sec and
//! bytes/sec; the byte figure comes from this encoding, which mirrors the
//! simple tagged binary layout a real inter-Gigascope transfer uses.
//!
//! Two granularities are provided, both over [`crate::codec`]:
//!
//! - [`encode_tuple`]/[`decode_tuple`] — one tuple, one buffer (trace
//!   files, tests); [`encoded_len`] is its exact size, which the
//!   Section 4.2.1 cost model charges per transferred tuple;
//! - [`encode_column_batch`]/[`decode_column_batch`] — a
//!   length-prefixed **frame** carrying a whole [`ColumnBatch`] lane by
//!   lane, the one unit every cluster runner ships across a boundary.
//!   A frame is `[u32 payload_len][u32 row_count | COLUMNAR_FLAG]
//!   [lanes…]`; the lanes carry typed values without per-value tags,
//!   so measured frame bytes sit far below the cost model's tagged
//!   estimate. An integer lane is packed in 1, 2, 4 or 8 bytes a row
//!   ([`crate::codec::Packing`]) or, when strictly smaller (and the
//!   lane's first 128 rows do not show otherwise), ships as a
//!   dictionary: the frame's distinct values once, in first-appearance
//!   order and themselves packed, then a 1- or 2-byte index a row. One
//!   measure per frame decides every lane's layout, in a scratch each
//!   encoding thread reuses, and the write follows it.
//!   Nested in a message ([`Wire`] for [`ColumnBatch`]), a frame is
//!   prefixed by its `u32` length. Peer bytes cannot panic a decoder:
//!   indexing, `unwrap`, `expect` and `panic!` are denied outside tests.
#![deny(clippy::indexing_slicing, clippy::unwrap_used)]
#![deny(clippy::expect_used, clippy::panic)]

use std::cell::RefCell;
use std::ops::Range;

use bytes::{Bytes, BytesMut};

use crate::codec::{peek_u32, Dictionaries, Layout, Reader, Wire, Writer, RETAIN};
use crate::{ArcStr, Column, ColumnBatch, ColumnData, Tuple, TypeError, TypeResult, Value};

const TAG_NULL: u8 = 0;
const TAG_UINT: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_BOOL: u8 = 3;
const TAG_STR: u8 = 4;

/// Lane tag marking an untyped (all-NULL) column in a columnar frame.
/// Reuses the NULL value tag; the remaining lane tags are the value
/// tags themselves, one per lane kind.
const LANE_NONE: u8 = TAG_NULL;

/// Bytes a decode may allocate whatever its length, beside 10 a byte.
const ALLOC_SLACK: usize = 1024;

/// An encoding thread's scratch, which every frame it encodes reuses:
/// the dictionaries, and a lane's bits when they are not the lane
/// itself (an `int` lane, or one with NULL rows).
#[derive(Default)]
struct Scratch {
    dicts: Dictionaries,
    bits: Vec<u64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Runs `f` on this thread's [`Scratch`], then empties it of the frame
/// and of any capacity past [`RETAIN`] elements, so a large frame (a
/// migrated state) does not pin its scratch for the thread's life. No
/// frame encode runs inside another, so it is never borrowed twice.
fn with_scratch<T>(f: impl FnOnce(&mut Scratch) -> T) -> T {
    SCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        let out = f(&mut s);
        s.dicts.clear();
        s.bits.clear();
        s.bits.shrink_to(RETAIN);
        out
    })
}

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

/// Encodes a tuple into a freshly allocated byte buffer. An arity past
/// `u16::MAX` or a string past `u32::MAX` bytes is
/// [`TypeError::FrameTooLarge`].
pub fn encode_tuple(tuple: &Tuple) -> TypeResult<Bytes> {
    let mut buf = BytesMut::with_capacity(encoded_len(tuple));
    let mut w = Writer::new(&mut buf);
    tuple.put(&mut w);
    w.finish()?;
    Ok(buf.freeze())
}

/// Decodes a tuple previously produced by [`encode_tuple`]. Every
/// short-buffer case reports a typed [`TypeError::Truncated`] (never a
/// panic), unknown tags report [`TypeError::BadTag`].
pub fn decode_tuple(buf: Bytes) -> TypeResult<Tuple> {
    Tuple::decode(buf)
}

/// A tag byte, then the value's body.
impl Wire for Value {
    const MIN_LEN: usize = 1;
    fn put(&self, w: &mut Writer) {
        match self {
            Value::Null => w.u8(TAG_NULL),
            Value::UInt(x) => (TAG_UINT, *x).put(w),
            Value::Int(x) => (TAG_INT, *x).put(w),
            Value::Bool(b) => (TAG_BOOL, *b).put(w),
            Value::Str(s) => {
                w.u8(TAG_STR);
                w.str(s);
            }
        }
    }
    fn get(r: &mut Reader) -> TypeResult<Self> {
        Ok(match r.u8()? {
            TAG_NULL => Value::Null,
            TAG_UINT => Value::UInt(r.u64()?),
            TAG_INT => Value::Int(r.i64()?),
            TAG_BOOL => Value::Bool(r.bool()?),
            TAG_STR => Value::from(r.str()?),
            other => return Err(TypeError::BadTag(other)),
        })
    }
}

/// The most values a tuple may hold whose values carry `carried` bytes
/// past their 1-byte tags. Decoding allocates a 16-byte slot a value,
/// and a string's shared header beside its body. Against the decoders'
/// bound of 10 bytes a byte read and 1 KiB, a slot overdraws its tag by
/// 6; every value pays 2 a byte it carries past its tag, a string's
/// header included, so those 2 and the 1 KiB must cover it. Encoder and
/// decoder both refuse past it, so what one writes the other reads.
fn most_tuple_values(carried: usize) -> usize {
    let overdraft = std::mem::size_of::<Value>().saturating_sub(10);
    (ALLOC_SLACK + 10 * 2 + 2 * carried) / overdraft.max(1)
}

/// The refusal of a tuple of `arity` values, `limit` the most it may hold.
fn arity_refused(arity: usize, limit: usize) -> TypeError {
    TypeError::FrameTooLarge {
        context: "tuple arity",
        size: arity,
        limit,
    }
}

/// A `u16` arity, then the tagged values.
impl Wire for Tuple {
    const MIN_LEN: usize = 2;
    fn put(&self, w: &mut Writer) {
        let carried = encoded_len(self) - 2 - self.arity();
        let limit = most_tuple_values(carried).min(u16::MAX as usize);
        match u16::try_from(self.arity()) {
            Ok(arity) if self.arity() <= limit => w.u16(arity),
            _ => w.refuse(arity_refused(self.arity(), limit)),
        }
        self.values().iter().for_each(|v| v.put(w));
    }
    fn get(r: &mut Reader) -> TypeResult<Self> {
        let arity = r.u16()? as usize;
        // Each value costs at least its 1-byte tag.
        r.want("tuple values", arity)?;
        let limit = most_tuple_values(r.remaining() - arity);
        if arity > limit {
            return Err(arity_refused(arity, limit));
        }
        let mut tuple = Tuple::with_capacity(arity);
        for _ in 0..arity {
            tuple.push(Value::get(r)?);
        }
        Ok(tuple)
    }
}

/// Rows `rows` of `col` as a frame carries them — as appending them to
/// an empty column ([`ColumnBatch::append_range`]) leaves them, so a
/// frame depends on its rows alone: the lane (`None`, untyped, when
/// every row is NULL) and the null mask (`None` when no row is NULL).
/// A NULL row's value goes as the lane's placeholder.
fn lane_shape<'a>(
    col: &'a Column,
    rows: &Range<usize>,
) -> (Option<&'a ColumnData>, Option<&'a [bool]>) {
    let mask = col.null_mask().get(rows.clone());
    let nulls = mask.filter(|m| m.contains(&true));
    let typed = nulls.is_none_or(|m| m.contains(&false));
    (col.data().filter(|_| typed), nulls)
}

/// The rows `rows` of `lane`, which [`frame_payload`] checked.
fn rows_of<'a, T>(lane: &'a [T], rows: &Range<usize>) -> &'a [T] {
    lane.get(rows.clone()).unwrap_or_default()
}

/// The bits of an integer lane's rows `rows` (a NULL row's, per
/// `nulls`, as the first that is not NULL) and the flip that orders
/// them: a `uint` lane without NULLs as it is, else copied into `copy`.
fn lane_bits<'a>(
    data: &'a ColumnData,
    (rows, nulls): (&Range<usize>, Option<&[bool]>),
    copy: &'a mut Vec<u64>,
) -> Option<(&'a [u64], u64)> {
    let flip = match data {
        ColumnData::UInt(l) if nulls.is_none() => return Some((rows_of(l, rows), 0)),
        ColumnData::UInt(l) => copy_bits(copy, rows_of(l, rows), nulls, |x| x, 0),
        ColumnData::Int(l) => copy_bits(copy, rows_of(l, rows), nulls, |x| x as u64, 1 << 63),
        _ => return None,
    };
    Some((copy, flip))
}

/// Fills `copy` with `lane`'s bits, by `bits`, as [`lane_bits`]
/// gives them; returns `flip`.
fn copy_bits<T: Copy>(
    copy: &mut Vec<u64>,
    lane: &[T],
    nulls: Option<&[bool]>,
    bits: impl Fn(T) -> u64,
    flip: u64,
) -> u64 {
    copy.clear();
    let rows = lane
        .iter()
        .zip(nulls.into_iter().flatten().chain(std::iter::repeat(&false)));
    let first = rows
        .clone()
        .find(|(_, &null)| !null)
        .map_or(0, |(&x, _)| bits(x));
    copy.extend(rows.map(|(&x, &null)| if null { first } else { bits(x) }));
    flip
}

/// Byte length of one encoded column: lane tag, null-mask flag,
/// optional mask, lane body.
fn encoded_column_len(col: &Column, rows: &Range<usize>, layout: Option<&Layout>) -> usize {
    let (data, nulls) = lane_shape(col, rows);
    let n = rows.len();
    let lane = match (data, layout) {
        (_, Some(l)) => l.len(n),
        (Some(ColumnData::Bool(_)), _) => n,
        (Some(ColumnData::Str(l)), _) => (rows.clone())
            .map(|i| 4 + l.get(i).filter(|_| !col.is_null(i)).map_or(0, |s| s.len()))
            .sum(),
        _ => 0,
    };
    2 + nulls.map_or(0, <[bool]>::len) + lane
}

/// A frame's payload length and its columns' layouts (for `uint`, `int`).
type Measure = (usize, Vec<Option<Layout>>);

/// Measures the frame of `batch`'s rows `rows`: one sweep per integer
/// lane decides its layout, building any dictionary in the scratch,
/// which sizes the frame and then writes it.
fn measure(batch: &ColumnBatch, rows: &Range<usize>, scratch: &mut Scratch) -> Measure {
    let Scratch { dicts, bits } = scratch;
    let mut payload = 2;
    let layouts = (batch.columns().iter())
        .map(|col| {
            let (data, nulls) = lane_shape(col, rows);
            let layout = data
                .and_then(|data| lane_bits(data, (rows, nulls), bits))
                .map(|(lane, flip)| dicts.layout(lane, flip));
            payload += encoded_column_len(col, rows, layout.as_ref());
            layout
        })
        .collect();
    (payload, layouts)
}

/// Exact payload length in bytes of a columnar frame carrying `batch`,
/// excluding the [`FRAME_HEADER_LEN`]-byte header.
pub fn encoded_column_batch_len(batch: &ColumnBatch) -> usize {
    with_scratch(|scratch| measure(batch, &(0..batch.rows()), scratch).0)
}

/// How many of the integer lanes of the frame of `batch`'s rows `rows`
/// ship as dictionaries, and how many integer lanes it has.
pub fn dictionary_lanes(batch: &ColumnBatch, rows: Range<usize>) -> (usize, usize) {
    let layouts = with_scratch(|scratch| measure(batch, &rows, scratch).1);
    let dictionary = |l: &Layout| matches!(l, Layout::Dictionary { .. });
    let integer = layouts.iter().flatten();
    (
        integer.clone().filter(|l| dictionary(l)).count(),
        integer.count(),
    )
}

/// The measure of the frame of `batch`'s rows `rows`, or
/// [`TypeError::FrameTooLarge`] when the rows reach past the batch or a
/// payload, row count or arity overflows its header field (`u32`/`u32`/
/// `u16`). Per-string `u32` length prefixes cannot overflow once the
/// whole payload fits (each string costs `4 + len` payload bytes).
fn frame_payload(
    batch: &ColumnBatch,
    rows: &Range<usize>,
    scratch: &mut Scratch,
) -> TypeResult<Measure> {
    let frame = measure(batch, rows, scratch);
    for (context, size, limit) in [
        ("frame rows", rows.end, batch.rows()),
        ("tuple count", rows.len(), MAX_FRAME_COUNT),
        ("frame payload", frame.0, MAX_FRAME_PAYLOAD),
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
    Ok(frame)
}

/// Writes a lane's rows `rows`, each NULL one (per `nulls`) as
/// `placeholder`.
fn put_lane<T>(
    w: &mut Writer,
    lane: &[T],
    (rows, nulls): (&Range<usize>, Option<&[bool]>),
    placeholder: &T,
    put: impl Fn(&mut Writer, &T),
) {
    let lane = rows_of(lane, rows);
    match nulls {
        None => lane.iter().for_each(|x| put(w, x)),
        Some(nulls) => (lane.iter().zip(nulls))
            .for_each(|(x, &null)| put(w, if null { placeholder } else { x })),
    }
}

/// Writes the frame of `batch`'s rows `rows`, which [`frame_payload`]
/// measured into `scratch`.
fn put_frame(
    w: &mut Writer,
    batch: &ColumnBatch,
    rows: &Range<usize>,
    frame: &Measure,
    scratch: &mut Scratch,
) {
    let Scratch { dicts, bits } = scratch;
    let (payload, layouts) = frame;
    w.u32(*payload as u32);
    w.u32(rows.len() as u32 | COLUMNAR_FLAG);
    w.u16(batch.arity() as u16);
    for (col, layout) in batch.columns().iter().zip(layouts) {
        let (data, nulls) = lane_shape(col, rows);
        w.u8(match data {
            None => LANE_NONE,
            Some(ColumnData::UInt(_)) => TAG_UINT,
            Some(ColumnData::Int(_)) => TAG_INT,
            Some(ColumnData::Bool(_)) => TAG_BOOL,
            Some(ColumnData::Str(_)) => TAG_STR,
        });
        w.bool(nulls.is_some());
        nulls.into_iter().flatten().for_each(|&n| w.bool(n));
        let at = (rows, nulls);
        match (data, layout) {
            (Some(data), Some(layout)) => {
                if let Some((lane, _)) = lane_bits(data, at, bits) {
                    w.lane(lane, nulls, layout, dicts);
                }
            }
            (Some(ColumnData::Bool(l)), _) => put_lane(w, l, at, &false, |w, &b| w.bool(b)),
            (Some(ColumnData::Str(l)), _) => put_lane(w, l, at, &"".into(), |w, s| w.str(s)),
            _ => {}
        }
    }
}

/// Encodes a column batch into one length-prefixed frame, staged in
/// `scratch` (sized to the frame first, so staging never regrows it)
/// and handed over without a copy: the returned [`Bytes`] is the
/// staged buffer, and `scratch` is left empty.
///
/// Frame layout: `[u32 payload_len][u32 row_count | COLUMNAR_FLAG]`
/// then `[u16 arity]` and, per column: `[u8 lane_tag][u8 has_mask]`,
/// `row_count` mask bytes when `has_mask` is 1, and the lane body laid
/// out contiguously. A UInt or Int lane is `[u8 width][u64 base]` and
/// `row_count` offsets of `width` bytes: `base` is the least non-NULL
/// value (as an `i64` for Int), `width` the fewest of 1, 2, 4 or 8
/// bytes that hold every wrapping difference from it, and a NULL row's
/// offset is 0. A Bool lane is one byte per row, a Str lane
/// `u32`-length-prefixed UTF-8 per row; untyped all-NULL columns ship
/// no body at all. A UInt or Int lane whose packed width is 2, 4 or 8
/// ships instead as a dictionary when that is strictly smaller, unless
/// more than half its first 128 rows bring a new value at a rate that
/// projects past twice what can win:
/// `[u8 0x80][u16 count]`, the lane's `count` distinct non-NULL values
/// in the order they first appear, packed as above, then one index a
/// row, 1 byte when `count` ≤ 256 and 2 past that (a NULL row's is 0). Decoding the frame and materializing its rows yields exactly
/// the rows the batch holds, for every value kind; the bytes depend
/// on those rows alone, never on which lanes held them.
///
/// A payload, row count or arity that overflows its header field
/// reports [`TypeError::FrameTooLarge`] *before* any bytes are staged,
/// instead of emitting a silently length-truncated (corrupt) frame.
pub fn encode_column_batch(batch: &ColumnBatch, scratch: &mut BytesMut) -> TypeResult<Bytes> {
    encode_column_rows(batch, 0..batch.rows(), scratch)
}

/// Encodes rows `rows` of `batch` as one frame — the frame of a batch
/// holding just those rows, with no row copied out first. A range
/// reaching past `batch.rows()` is [`TypeError::FrameTooLarge`].
pub fn encode_column_rows(
    batch: &ColumnBatch,
    rows: Range<usize>,
    scratch: &mut BytesMut,
) -> TypeResult<Bytes> {
    scratch.clear();
    with_scratch(|lanes| {
        let frame = frame_payload(batch, &rows, lanes)?;
        scratch.reserve(FRAME_HEADER_LEN + frame.0);
        put_frame(&mut Writer::new(scratch), batch, &rows, &frame, lanes);
        debug_assert_eq!(scratch.len(), FRAME_HEADER_LEN + frame.0);
        Ok(scratch.split().freeze())
    })
}

/// Decodes a frame produced by [`encode_column_batch`].
///
/// A frame without [`COLUMNAR_FLAG`], truncated lanes, count/length
/// disagreements, bad tags and invalid UTF-8 all report typed
/// [`TypeError`]s, never panics; no count read off the wire drives an
/// allocation the remaining payload cannot back.
pub fn decode_column_batch(frame: Bytes) -> TypeResult<ColumnBatch> {
    let mut r = Reader::new(frame, "lane frame");
    r.want("frame header", FRAME_HEADER_LEN)?;
    let payload = r.u32()? as usize;
    let count = r.u32()?;
    if count & COLUMNAR_FLAG == 0 {
        return Err(TypeError::Corrupt("frame lacks the columnar flag"));
    }
    let rows = (count & !COLUMNAR_FLAG) as usize;
    if r.remaining() != payload {
        return Err(TypeError::FrameLengthMismatch {
            declared: payload,
            actual: r.remaining(),
        });
    }
    r.want("columnar arity", 2)?;
    let arity = r.u16()? as usize;
    // Every column costs at least its 2-byte lane header; an arity the
    // payload cannot fit is corrupt (and must not drive a pre-sized
    // allocation off a wire-controlled count).
    if arity * 2 > r.remaining() {
        return Err(TypeError::Corrupt("column count exceeds frame payload"));
    }
    // A column also costs a byte a row (its mask, or a body of at least
    // a byte a row): only as many as that leaves room for are reserved.
    let mut columns = Vec::with_capacity(arity.min(r.remaining() / (2 + rows)));
    for _ in 0..arity {
        columns.push(get_column(&mut r, rows)?);
    }
    if r.remaining() != 0 {
        return Err(TypeError::Corrupt("trailing bytes after columnar payload"));
    }
    Ok(ColumnBatch::from_columns_with_rows(columns, rows))
}

/// The row count a frame's header claims, before the frame is decoded
/// (0 for a buffer too short to hold it).
pub fn frame_rows(frame: &[u8]) -> usize {
    peek_u32(frame, 4).map_or(0, |count| (count & !COLUMNAR_FLAG) as usize)
}

/// Decodes one column (lane tag, optional null mask, lane body) off the
/// front of a columnar frame payload.
fn get_column(r: &mut Reader, rows: usize) -> TypeResult<Column> {
    r.want("lane header", 2)?;
    let tag = r.u8()?;
    let nulls = if r.bool()? {
        r.bools("null mask", rows)?
    } else {
        Vec::new()
    };
    let data = match tag {
        LANE_NONE => {
            // Untyped column: every row is NULL by invariant, and the
            // encoder writes that mask whenever there are rows — so a
            // row count never sizes a mask the frame does not carry.
            if rows > 0 && nulls.is_empty() {
                return Err(TypeError::Corrupt("untyped column without a null mask"));
            }
            if nulls.iter().any(|&n| !n) {
                return Err(TypeError::Corrupt("non-null row in untyped column"));
            }
            return Ok(Column::all_null(rows));
        }
        TAG_UINT => ColumnData::UInt(r.packed("uint lane", rows, |x| x)?),
        TAG_INT => ColumnData::Int(r.packed("int lane", rows, |x| x as i64)?),
        TAG_BOOL => ColumnData::Bool(r.bools("bool lane", rows)?),
        TAG_STR => {
            // Each string costs at least its 4-byte length prefix:
            // bound the pre-sized allocation by the bytes actually
            // present before trusting the wire-supplied row count.
            r.want("string lane", 4 * rows)?;
            let mut l = Vec::with_capacity(rows);
            for _ in 0..rows {
                l.push(ArcStr::from(r.str()?));
            }
            ColumnData::Str(l)
        }
        other => return Err(TypeError::BadTag(other)),
    };
    Ok(Column::from_parts(data, nulls))
}

/// A lane frame nested in a message: its `u32` length, then the frame.
impl Wire for ColumnBatch {
    const MIN_LEN: usize = 4 + FRAME_HEADER_LEN + 2;
    fn put(&self, w: &mut Writer) {
        let rows = 0..self.rows();
        with_scratch(|scratch| match frame_payload(self, &rows, scratch) {
            Ok(frame) => {
                w.count(FRAME_HEADER_LEN + frame.0);
                put_frame(w, self, &rows, &frame, scratch);
            }
            Err(e) => w.refuse(e),
        })
    }
    fn get(r: &mut Reader) -> TypeResult<Self> {
        decode_column_batch(Bytes::get(r)?)
    }
}

/// Exact length in bytes [`encode_tuple`] will produce, without encoding.
///
/// The cost model uses this as `out_tuple_size` when charging network
/// bytes, so it must stay in lock-step with the encoder.
pub fn encoded_len(tuple: &Tuple) -> usize {
    2 + tuple
        .values()
        .iter()
        .map(|v| {
            1 + match v {
                Value::Null => 0,
                Value::UInt(_) | Value::Int(_) => 8,
                Value::Bool(_) => 1,
                Value::Str(s) => 4 + s.len(),
            }
        })
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

#[cfg(test)]
mod tests {
    #![allow(clippy::indexing_slicing, clippy::unwrap_used)]

    use super::*;
    use crate::tuple;
    use crate::BufMut;

    #[test]
    fn round_trip_all_value_kinds() {
        let t = Tuple::new(vec![
            Value::Null,
            Value::UInt(u64::MAX),
            Value::Int(i64::MIN),
            Value::Bool(true),
            Value::from("gigascope"),
        ]);
        let encoded = encode_tuple(&t).unwrap();
        assert_eq!(encoded.len(), encoded_len(&t));
        assert_eq!(decode_tuple(encoded).unwrap(), t);
    }

    #[test]
    fn empty_tuple_round_trips() {
        let t = Tuple::default();
        assert_eq!(decode_tuple(encode_tuple(&t).unwrap()).unwrap(), t);
    }

    #[test]
    fn an_arity_past_the_arity_word_is_refused() {
        let t = Tuple::new(vec![Value::Null; u16::MAX as usize + 1]);
        assert!(matches!(
            encode_tuple(&t),
            Err(TypeError::FrameTooLarge {
                context: "tuple arity",
                ..
            })
        ));
    }

    #[test]
    fn an_arity_whose_values_cannot_fit_the_allocation_bound_is_refused() {
        // 60,000 NULLs in 60,002 bytes: their 16-byte slots would take
        // 960,000 bytes, past 10 × 60,002 + 1 KiB.
        let mut nulls = 60_000u16.to_be_bytes().to_vec();
        nulls.resize(60_002, TAG_NULL);
        let nulls = Bytes::from(nulls);
        let (decoded, allocated) = crate::tests::allocated_by(|| decode_tuple(nulls.clone()));
        assert!(matches!(
            decoded,
            Err(TypeError::FrameTooLarge {
                context: "tuple arity",
                size: 60_000,
                ..
            })
        ));
        assert!(
            allocated <= 10 * nulls.len() + 1024,
            "allocated {allocated}"
        );
        // As many NULLs as the slack covers (174) still encode and
        // decode, within bound; one more is refused on both sides.
        let few = encode_tuple(&Tuple::new(vec![Value::Null; 174])).unwrap();
        let (decoded, allocated) = crate::tests::allocated_by(|| decode_tuple(few.clone()));
        assert_eq!(decoded.unwrap().arity(), 174);
        assert!(allocated <= 10 * few.len() + 1024, "allocated {allocated}");
        let refused = |arity: usize| TypeError::FrameTooLarge {
            context: "tuple arity",
            size: arity,
            limit: 174,
        };
        let more = Tuple::new(vec![Value::Null; 175]);
        assert_eq!(encode_tuple(&more).unwrap_err(), refused(175));
        let mut raw = 175u16.to_be_bytes().to_vec();
        raw.resize(2 + 175, TAG_NULL);
        assert_eq!(decode_tuple(raw.into()).unwrap_err(), refused(175));
        // Values that carry bytes past their tags pay for their slots.
        let wide = Tuple::new(vec![Value::UInt(7); 1_000]);
        assert_eq!(decode_tuple(encode_tuple(&wide).unwrap()).unwrap(), wide);
    }

    #[test]
    fn truncated_buffer_reports_typed_error() {
        let t = tuple![1u64, 2u64];
        let encoded = encode_tuple(&t).unwrap();
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
        // Arity word; a masked uint lane (2 + 2 + 1+8 + 2·1); a string
        // lane (2 + 4+5 + 4+4); a bool lane (2 + 2).
        assert_eq!(encoded_column_batch_len(&cols), 2 + 15 + 19 + 4);
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

    /// One column of `values` as a frame: its length must be the
    /// header, the arity word and one packed lane of `width`-byte
    /// offsets, and it must decode to the same rows.
    fn assert_packs(values: Vec<Value>, width: usize) {
        let rows: Vec<Tuple> = values.into_iter().map(|v| Tuple::new(vec![v])).collect();
        let frame = frame_of(&rows, &mut BytesMut::new());
        let mask = if rows.iter().any(|t| t.get(0).is_null()) {
            rows.len()
        } else {
            0
        };
        assert_eq!(
            frame.len(),
            FRAME_HEADER_LEN + 2 + 2 + mask + 1 + 8 + width * rows.len()
        );
        assert_eq!(frame[FRAME_HEADER_LEN + 4 + mask] as usize, width);
        assert_eq!(decode_column_batch(frame).unwrap().to_rows(), rows);
    }

    #[test]
    fn lanes_at_each_width_boundary_round_trip() {
        let uints = |base: u64, span: u64| vec![Value::UInt(base + span), Value::UInt(base)];
        for base in [0, 1_000_000] {
            assert_packs(uints(base, (1 << 8) - 1), 1);
            assert_packs(uints(base, 1 << 8), 2);
            assert_packs(uints(base, (1 << 16) - 1), 2);
            assert_packs(uints(base, 1 << 16), 4);
            assert_packs(uints(base, (1 << 32) - 1), 4);
            assert_packs(uints(base, 1 << 32), 8);
        }
        assert_packs(vec![Value::UInt(u64::MAX), Value::UInt(0)], 8);
        assert_packs(vec![Value::Int(i64::MAX), Value::Int(i64::MIN)], 8);
        assert_packs(vec![Value::Int(-128), Value::Int(127)], 1);
        assert_packs(vec![Value::Int(-129), Value::Int(127)], 2);
    }

    #[test]
    fn a_masked_lane_far_from_zero_round_trips() {
        let far = u64::MAX - 300;
        assert_packs(
            vec![
                Value::UInt(far + 7),
                Value::Null,
                Value::UInt(far),
                Value::Null,
                Value::UInt(far + 300),
            ],
            2,
        );
        assert_packs(
            vec![Value::Null, Value::Int(i64::MIN + 5), Value::Int(i64::MIN)],
            1,
        );
    }

    #[test]
    fn a_constant_lane_costs_one_byte_a_row() {
        let rows: Vec<Tuple> = (0..100).map(|_| tuple![0xDEAD_BEEF_CAFEu64]).collect();
        let batch = ColumnBatch::from_rows(&rows);
        assert_eq!(encoded_column_batch_len(&batch), 2 + 2 + 1 + 8 + 100);
        assert_packs(rows.into_iter().map(|t| t.get(0).clone()).collect(), 1);
    }

    /// One `uint` column of `values` as a frame; returns the frame and
    /// the offset of its lane's code byte.
    fn one_lane(values: &[Value]) -> (Bytes, usize) {
        let rows: Vec<Tuple> = values.iter().map(|v| Tuple::new(vec![v.clone()])).collect();
        let frame = frame_of(&rows, &mut BytesMut::new());
        assert_eq!(decode_column_batch(frame.clone()).unwrap().to_rows(), rows);
        let mask = if values.iter().any(Value::is_null) {
            values.len()
        } else {
            0
        };
        (frame, FRAME_HEADER_LEN + 4 + mask)
    }

    /// `rows` rows cycling through `distinct` values 100,000 apart.
    fn cycling(distinct: u64, rows: u64) -> Vec<Value> {
        (0..rows)
            .map(|i| Value::UInt(i % distinct * 100_000))
            .collect()
    }

    /// As [`cycling`], but the first 128 rows repeat four of the values,
    /// so the encoder's first look at the lane finds few.
    fn repeating_early(distinct: u64, rows: u64) -> Vec<Value> {
        (0..rows)
            .map(|i| Value::UInt(if i < 128 { i % 4 } else { i % distinct } * 100_000))
            .collect()
    }

    #[test]
    fn a_dictionary_indexes_in_one_byte_up_to_256_values() {
        for (distinct, index) in [(256, 1), (257, 2)] {
            let (frame, code) = one_lane(&repeating_early(distinct, 2048));
            assert_eq!(frame[code], crate::codec::DICTIONARY, "{distinct} values");
            // Code, count, width, base, 4-byte values, an index a row.
            let lane = 1 + 2 + 1 + 8 + 4 * distinct as usize + index * 2048;
            assert_eq!(frame.len(), code + lane, "{distinct} values");
            assert_eq!(
                u16::from_be_bytes([frame[code + 1], frame[code + 2]]),
                distinct as u16
            );
        }
    }

    #[test]
    fn a_dictionary_that_only_ties_the_packed_lane_packs() {
        // Two values 1,000 apart: width 2. Over 7 rows the dictionary
        // (12 + 2·2 + 7) ties the packed lane (9 + 2·7); over 8 it wins.
        let lane =
            |rows: u64| -> Vec<Value> { (0..rows).map(|i| Value::UInt(i % 2 * 1_000)).collect() };
        let (tie, code) = one_lane(&lane(7));
        assert_eq!((tie[code], tie.len() - code), (2, 9 + 2 * 7));
        let (win, code) = one_lane(&lane(8));
        assert_eq!(win[code], crate::codec::DICTIONARY);
        assert_eq!(win.len() - code, 12 + 2 * 2 + 8);
    }

    #[test]
    fn first_appearance_orders_the_dictionary() {
        let values: Vec<Value> = [70_000u64, 5, 70_000, 900_000, 5, 5, 900_000, 70_000]
            .into_iter()
            .map(Value::UInt)
            .collect();
        let (frame, code) = one_lane(&values);
        assert_eq!(frame[code], crate::codec::DICTIONARY);
        // Count 3; width 4 from base 5; offsets 69,995, 0, 899,995.
        let body = &frame[code + 1..];
        assert_eq!(&body[..3], &[0, 3, 4]);
        assert_eq!(&body[3..11], &5u64.to_be_bytes());
        assert_eq!(
            &body[11..23],
            &[0, 1, 0x11, 0x6B, 0, 0, 0, 0, 0, 0x0D, 0xBB, 0x9B]
        );
        assert_eq!(&body[23..], &[0, 1, 0, 2, 1, 1, 2, 0]);
    }

    #[test]
    fn a_masked_lane_with_null_rows_ships_a_dictionary() {
        let mut values = cycling(3, 40);
        for i in (0..40).step_by(3) {
            values[i] = Value::Null;
        }
        let (frame, code) = one_lane(&values);
        assert_eq!(frame[code], crate::codec::DICTIONARY);
    }

    #[test]
    fn an_int_lane_of_negative_values_ships_a_dictionary() {
        let rows: Vec<Tuple> = (0..64)
            .map(|i| Tuple::new(vec![Value::Int([-1_000_000, -3, 40_000][i % 3])]))
            .collect();
        let frame = frame_of(&rows, &mut BytesMut::new());
        assert_eq!(frame[FRAME_HEADER_LEN + 4], crate::codec::DICTIONARY);
        assert_eq!(decode_column_batch(frame).unwrap().to_rows(), rows);
    }

    #[test]
    fn a_sorted_lane_ships_a_dictionary_only_while_it_wins() {
        // 1024 rows of 511 or 512 rising values 100,000 apart: 511
        // values win at 4 bytes a value and 2 an index, 512 do not.
        for (distinct, dictionary) in [(511u64, true), (512, false)] {
            let mut values = cycling(distinct, 1024);
            values.sort_by_key(|v| v.as_u64());
            let (frame, code) = one_lane(&values);
            let is_dictionary = frame[code] == crate::codec::DICTIONARY;
            assert_eq!(is_dictionary, dictionary, "{distinct} values");
        }
    }

    #[test]
    fn a_lane_new_on_nearly_every_early_row_packs() {
        // 256 values cycling over 2048 rows would take a 1-byte index
        // (12 + 4·256 + 2048 bytes against 9 + 4·2048 packed), but each
        // of the first 128 rows is new: projected over the lane, that
        // is more than twice the values that can win, so the encoder
        // stops looking there and packs.
        let (frame, code) = one_lane(&cycling(256, 2048));
        assert_eq!((frame[code], frame.len() - code), (4, 9 + 4 * 2048));
        // With few values early, the same lane ships as a dictionary.
        let (frame, code) = one_lane(&repeating_early(256, 2048));
        assert_eq!(frame[code], crate::codec::DICTIONARY);
    }

    #[test]
    fn a_large_frame_leaves_the_scratch_no_larger_than_it_keeps() {
        // 100,000 rows of two `int` lanes of three values each: both
        // lanes are copied into the scratch, and both ship as
        // dictionaries indexing every row.
        let rows: Vec<Tuple> = (0..100_000)
            .map(|i| {
                let x = [-1_000_000, -3, 40_000][i % 3];
                Tuple::new(vec![Value::Int(x), Value::Int(-x)])
            })
            .collect();
        let frame = frame_of(&rows, &mut BytesMut::new());
        assert_eq!(frame[FRAME_HEADER_LEN + 4], crate::codec::DICTIONARY);
        assert_eq!(decode_column_batch(frame).unwrap().to_rows(), rows);
        SCRATCH.with(|s| {
            let s = s.borrow();
            assert!(s.bits.capacity() <= RETAIN, "bits {}", s.bits.capacity());
            assert!(
                s.dicts.retained() <= RETAIN,
                "dictionaries {}",
                s.dicts.retained()
            );
        });
    }

    #[test]
    fn a_one_row_lane_packs() {
        let (frame, code) = one_lane(&[Value::UInt(1 << 40)]);
        assert_eq!((frame[code], frame.len() - code), (1, 9 + 1));
    }

    /// A one-`uint`-lane frame of `rows` rows whose body, after the
    /// lane tag and the no-mask flag, is `body`.
    fn hand_built(rows: u32, body: &[u8]) -> Bytes {
        let mut raw = BytesMut::new();
        raw.put_u32(2 + 2 + body.len() as u32);
        raw.put_u32(rows | COLUMNAR_FLAG);
        raw.put_u16(1);
        raw.put_u8(TAG_UINT);
        raw.put_u8(0);
        raw.put_slice(body);
        raw.freeze()
    }

    /// A dictionary body: `count`, the values packed at width 1 from 7
    /// (`offsets`), then `index`.
    fn dictionary_body(count: u16, offsets: &[u8], index: &[u8]) -> Vec<u8> {
        let mut body = vec![crate::codec::DICTIONARY];
        body.extend(count.to_be_bytes());
        body.push(1);
        body.extend(7u64.to_be_bytes());
        body.extend(offsets);
        body.extend(index);
        body
    }

    #[test]
    fn hand_built_dictionaries_decode_and_bad_ones_are_refused() {
        let good = hand_built(3, &dictionary_body(2, &[0, 9], &[1, 0, 1]));
        let lane: Vec<Tuple> = [16u64, 7, 16].into_iter().map(|x| tuple![x]).collect();
        assert_eq!(decode_column_batch(good).unwrap().to_rows(), lane);
        let refused = [
            (
                dictionary_body(0, &[], &[0, 0, 0]),
                "dictionary count not in 1..=rows",
            ),
            (
                dictionary_body(4, &[0, 1, 2, 3], &[0, 1, 2]),
                "dictionary count not in 1..=rows",
            ),
            (
                dictionary_body(2, &[0, 9], &[1, 2, 0]),
                "dictionary index past its count",
            ),
        ];
        for (body, err) in refused {
            assert_eq!(
                decode_column_batch(hand_built(3, &body)).unwrap_err(),
                TypeError::Corrupt(err)
            );
        }
        for code in [5u8, 0x81, 0xFF] {
            let mut body = dictionary_body(2, &[0, 9], &[1, 0, 1]);
            body[0] = code;
            assert_eq!(
                decode_column_batch(hand_built(3, &body)).unwrap_err(),
                TypeError::Corrupt("lane width not 1, 2, 4 or 8"),
                "code {code}"
            );
        }
        // A dictionary's values are packed, never a dictionary again.
        let mut nested = dictionary_body(2, &[0, 9], &[1, 0, 1]);
        nested[3] = crate::codec::DICTIONARY;
        assert!(matches!(
            decode_column_batch(hand_built(3, &nested)).unwrap_err(),
            TypeError::Corrupt(_)
        ));
    }

    #[test]
    fn a_lane_width_other_than_1_2_4_or_8_is_refused() {
        for width in [0u8, 3, 9] {
            let mut raw = BytesMut::new();
            raw.put_u32(2 + 2 + 1 + 8 + 2 * 8);
            raw.put_u32(2 | COLUMNAR_FLAG);
            raw.put_u16(1);
            raw.put_u8(TAG_UINT);
            raw.put_u8(0); // no mask
            raw.put_u8(width);
            raw.put_u64(5); // base
            raw.put_slice(&[0; 16]);
            assert_eq!(
                decode_column_batch(raw.freeze()).unwrap_err(),
                TypeError::Corrupt("lane width not 1, 2, 4 or 8"),
                "width {width}"
            );
        }
    }
}
