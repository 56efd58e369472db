//! The one binary codec every message goes through: lane frames,
//! control frames and the cluster's deploy, outcome and migrate
//! payloads alike. Integers are big-endian.
//!
//! - A [`Writer`] appends fields to the caller's [`BytesMut`]. A size
//!   its header word cannot describe is *refused*, and
//!   [`Writer::finish`] reports the first refusal: no encoder emits a
//!   silently truncated length.
//! - A [`Reader`] owns every bound: remaining bytes, a count against the
//!   least size of its elements (named when it fails), one check per lane body, the strict
//!   `bool` (0 or 1, anything else corrupt: flags, bool lanes and null
//!   masks alike), UTF-8 and trailing bytes. It fails with the typed
//!   [`TypeError::Truncated`], [`TypeError::Corrupt`] and
//!   [`TypeError::BadTag`], and no count it reads sizes an allocation
//!   the bytes present cannot back.
//! - [`Wire`] pairs both directions per type with the least length of
//!   an encoding, which bounds every count of that type. Structs get
//!   their impls from one field list ([`crate::wire_struct!`]).
//! - A `uint` or `int` lane is packed ([`Packing`]) or, when that is
//!   strictly smaller, a dictionary ([`Layout`]). Peer bytes cannot
//!   panic a reader: indexing, `unwrap`, `expect` and `panic!` are
//!   denied here.
#![deny(clippy::indexing_slicing, clippy::unwrap_used)]
#![deny(clippy::expect_used, clippy::panic)]

use std::ops::Range;

use bytes::{BufMut, Bytes, BytesMut};

use crate::{TypeError, TypeResult};

/// Appends fields to a caller's buffer.
pub struct Writer<'a> {
    buf: &'a mut BytesMut,
    refused: Option<TypeError>,
}

/// Takes fields off a buffer, bounded by the bytes present.
pub struct Reader {
    buf: Bytes,
    at: usize,
    /// What a primitive field that runs short reports it was decoding.
    context: &'static str,
}

/// A type with one binary encoding.
pub trait Wire: Sized {
    /// The fewest bytes any value encodes to: what bounds a count of it.
    const MIN_LEN: usize;

    /// Appends the encoding.
    fn put(&self, w: &mut Writer);

    /// Reads one value off the front of `r`.
    fn get(r: &mut Reader) -> TypeResult<Self>;

    /// The encoding as one message.
    fn encode(&self) -> TypeResult<Bytes> {
        let mut buf = BytesMut::new();
        let mut w = Writer::new(&mut buf);
        self.put(&mut w);
        w.finish()?;
        Ok(buf.freeze())
    }

    /// Decodes one message: all of `buf`, and nothing after the value.
    fn decode(buf: Bytes) -> TypeResult<Self> {
        let mut r = Reader::new(buf, std::any::type_name::<Self>());
        let v = Self::get(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

/// The integer fields: a [`Writer`] and a [`Reader`] method named by
/// the type, and its [`Wire`] impl.
macro_rules! integers {
    ($($ty:ident)*) => {$(
        impl Writer<'_> {
            #[doc = concat!("Appends a `", stringify!($ty), "`.")]
            #[inline]
            pub fn $ty(&mut self, v: $ty) {
                self.buf.put_slice(&v.to_be_bytes());
            }
        }

        impl Reader {
            #[doc = concat!("Reads a `", stringify!($ty), "`.")]
            #[inline]
            pub fn $ty(&mut self) -> TypeResult<$ty> {
                Ok($ty::from_be_bytes(self.array(self.context)?))
            }
        }

        impl Wire for $ty {
            const MIN_LEN: usize = std::mem::size_of::<$ty>();
            #[inline]
            fn put(&self, w: &mut Writer) {
                w.$ty(*self);
            }
            #[inline]
            fn get(r: &mut Reader) -> TypeResult<Self> {
                r.$ty()
            }
        }
    )*};
}

integers! { u8 u16 u32 u64 i64 }

/// A packed lane's least value (as bits) and the fewest bytes, 1, 2, 4
/// or 8, that hold every offset from it. No width 0: a lane costs a
/// byte a row, so a frame decodes to at most 8× its bytes in lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packing {
    base: u64,
    pub(crate) width: usize,
}

/// Runs `$body` with `$t` the unsigned integer `$width` bytes wide.
#[rustfmt::skip]
macro_rules! by_width {
    ($width:expr, $t:ident => $body:expr) => {
        match $width {
            1 => { type $t = u8; $body }
            2 => { type $t = u16; $body }
            4 => { type $t = u32; $body }
            _ => { type $t = u64; $body }
        }
    };
}

impl Packing {
    /// The packing of bits whose least and greatest, XOR-ed with `flip`
    /// (the sign bit for `i64`, so they order as the values do), are
    /// `lo` and `hi`; `lo > hi` (no value) packs at width 1 from 0.
    fn new(lo: u64, hi: u64, flip: u64) -> Packing {
        if lo > hi {
            return Packing { base: 0, width: 1 };
        }
        let width = match hi - lo {
            0..=0xFF => 1,
            0x100..=0xFFFF => 2,
            0x1_0000..=0xFFFF_FFFF => 4,
            _ => 8,
        };
        Packing {
            base: lo ^ flip,
            width,
        }
    }
}

/// The width-byte code of a dictionary lane: not a width, so a reader
/// that knows only widths refuses it.
pub(crate) const DICTIONARY: u8 = 0x80;

/// Slots of the encoder's table: twice the most values a dictionary
/// holds, so a probe always ends at a free slot.
const TABLE_BITS: u32 = 11;
const TABLE: usize = 1 << TABLE_BITS;

/// Most distinct values a dictionary lane holds. A boundary frame is at
/// most 1024 rows, whose lanes never need more.
const DICTIONARY_MAX: usize = TABLE / 2;

/// Elements each growable encoder scratch keeps between frames: a
/// larger frame's (a migrated state) is given back once written.
pub(crate) const RETAIN: usize = 1 << 12;

/// Rows of a lane the encoder sweeps before it judges the rest.
const PREFIX: usize = 128;

/// Bytes of one dictionary index: 1 for up to 256 values, else 2.
#[inline]
fn index_width(count: usize) -> usize {
    if count <= 1 << 8 {
        1
    } else {
        2
    }
}

/// A dictionary lane's bytes beside its values and indices: code,
/// `u16` count, and the values' width byte and base.
const DICTIONARY_HEADER: usize = 1 + 2 + 1 + 8;

/// Bytes of a dictionary lane body of `rows` rows whose `count` values
/// pack at `width`.
fn dictionary_len(width: usize, count: usize, rows: usize) -> usize {
    DICTIONARY_HEADER + width * count + index_width(count) * rows
}

/// The most values a dictionary over `rows` rows at `width` bytes a
/// value can hold and be strictly smaller than the packed lane (0: none
/// can): a byte's index up to 256 values, two bytes past that.
fn most_values(width: usize, rows: usize) -> usize {
    let smaller = (1 + 8 + width * rows).saturating_sub(DICTIONARY_HEADER + 1);
    let fit = |index: usize| smaller.saturating_sub(index * rows) / width;
    match fit(2).min(rows).min(DICTIONARY_MAX) {
        most if most > 1 << 8 => most,
        _ => fit(1).min(rows).min(1 << 8),
    }
}

/// How an integer lane crosses the wire, decided once per frame
/// ([`Dictionaries::layout`]) and written from that decision.
#[derive(Debug)]
pub(crate) enum Layout {
    /// `[u8 width][u64 base]`, then an offset a row ([`Writer::packed`]).
    Packed(Packing),
    /// `[u8 DICTIONARY][u16 count]`, the lane's distinct values in
    /// first-appearance order packed by `packing`, then an index a row:
    /// `values` and `index` locate them in the encoder's
    /// [`Dictionaries`].
    Dictionary {
        packing: Packing,
        values: Range<usize>,
        index: Range<usize>,
    },
}

impl Layout {
    /// Bytes of the lane body for `rows` rows.
    pub(crate) fn len(&self, rows: usize) -> usize {
        match self {
            Layout::Packed(p) => 1 + 8 + p.width * rows,
            Layout::Dictionary {
                packing, values, ..
            } => dictionary_len(packing.width, values.len(), rows),
        }
    }
}

/// An encoder's reused scratch for dictionary lanes: an open-addressed
/// table of [`TABLE`] slots, each a value (`keys`) and, in `slots`, the
/// generation that filled it (high 16 bits) and the value's index (low
/// 16), and the values and per-row indices of the frame's dictionary
/// lanes. A slot of an older generation is free, so a lane empties the
/// table by counting one generation on. The table never grows; the
/// buffers keep at most [`RETAIN`] elements between frames.
#[derive(Debug)]
pub(crate) struct Dictionaries {
    slots: Box<[u32; TABLE]>,
    keys: Box<[u64; TABLE]>,
    generation: u32,
    values: Vec<u64>,
    index: Vec<u16>,
}

impl Default for Dictionaries {
    fn default() -> Self {
        Dictionaries {
            slots: Box::new([0; TABLE]),
            keys: Box::new([0; TABLE]),
            generation: 0,
            values: Vec::new(),
            index: Vec::new(),
        }
    }
}

impl Dictionaries {
    /// Forgets the last frame's lanes, and any capacity past [`RETAIN`].
    pub(crate) fn clear(&mut self) {
        self.values.clear();
        self.index.clear();
        self.values.shrink_to(RETAIN);
        self.index.shrink_to(RETAIN);
    }

    /// The most elements either buffer holds room for.
    #[cfg(test)]
    pub(crate) fn retained(&self) -> usize {
        self.values.capacity().max(self.index.capacity())
    }

    /// Decides the layout of a lane whose rows' bits are `lane` (a
    /// NULL row's as the lane's first value that is not NULL), `flip`
    /// as in [`Packing::new`]: one min/max pass sizes the packing; no
    /// dictionary beats a byte a row, so only a wider lane is swept
    /// again, into the table, until the dictionary has so many values
    /// that it cannot win at that width, or its first [`PREFIX`] rows
    /// show that it will not ([`Dictionaries::sweep`]). It is chosen
    /// when strictly smaller; a tie packs.
    pub(crate) fn layout(&mut self, lane: &[u64], flip: u64) -> Layout {
        let (mut lo, mut hi) = (u64::MAX, 0);
        for &x in lane {
            (lo, hi) = (lo.min(x ^ flip), hi.max(x ^ flip));
        }
        let packing = Packing::new(lo, hi, flip);
        let most = most_values(packing.width, lane.len());
        if most == 0 {
            return Layout::Packed(packing);
        }
        let (values, index) = (self.values.len(), self.index.len());
        let swept = self.sweep(lane, most);
        if swept.is_none() {
            self.values.truncate(values);
            self.index.truncate(index);
            return Layout::Packed(packing);
        }
        Layout::Dictionary {
            packing,
            values: values..self.values.len(),
            index: index..self.index.len(),
        }
    }

    /// Appends the lane's distinct values in first-appearance order and
    /// an index a row, probing the table from each value's hash;
    /// `None` at the value past `most`, or after [`PREFIX`] rows that
    /// project past twice `most` (a heuristic: such a lane may still
    /// have won, and then packs).
    fn sweep(&mut self, lane: &[u64], most: usize) -> Option<()> {
        self.generation += 1;
        if self.generation > u32::from(u16::MAX) {
            self.slots.fill(0);
            self.generation = 1;
        }
        let tag = self.generation << 16;
        let (values_at, index_at) = (self.values.len(), self.index.len());
        self.values.resize(values_at + most, 0);
        self.index.resize(index_at + lane.len(), 0);
        // Plain slices, so the loop keeps them in registers.
        let slots: &mut [u32; TABLE] = &mut self.slots;
        let keys: &mut [u64; TABLE] = &mut self.keys;
        let values = self.values.get_mut(values_at..)?;
        let index = self.index.get_mut(index_at..)?;
        let mut count = 0;
        // After the first rows, a lane is given up when more than half
        // of them brought a new value and, at that rate, it would hold
        // more than twice the values that can win.
        let hopeless = (PREFIX / 2).max(PREFIX * 2 * most / lane.len().max(1));
        for (row, (&x, out)) in lane.iter().zip(index).enumerate() {
            if row == PREFIX && count as usize > hopeless {
                return None;
            }
            let mut i = (x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - TABLE_BITS)) as usize;
            let slot = loop {
                let (slot, key) = (slots.get_mut(i)?, keys.get_mut(i)?);
                if *slot & !0xFFFF != tag {
                    // A value past `most` finds no room: the lane loses.
                    *values.get_mut(count as usize)? = x;
                    (*slot, *key) = (tag | count, x);
                    count += 1;
                    break *slot;
                }
                if *key == x {
                    break *slot;
                }
                i = (i + 1) & (TABLE - 1);
            };
            *out = slot as u16;
        }
        self.values.truncate(values_at + count as usize);
        Some(())
    }
}

impl<'a> Writer<'a> {
    /// A writer appending to `buf`.
    pub fn new(buf: &'a mut BytesMut) -> Self {
        Writer { buf, refused: None }
    }

    /// Appends a `bool` as one byte, 0 or 1.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends raw bytes, with no length word.
    #[inline]
    pub fn bytes(&mut self, raw: &[u8]) {
        self.buf.put_slice(raw);
    }

    /// Appends a `u32` count or length word; one past `u32::MAX` is
    /// refused.
    #[inline]
    pub fn count(&mut self, n: usize) {
        match u32::try_from(n) {
            Ok(n) => self.u32(n),
            Err(_) => self.refuse(TypeError::FrameTooLarge {
                context: "count word",
                size: n,
                limit: u32::MAX as usize,
            }),
        }
    }

    /// Appends a `u32`-length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.count(s.len());
        self.bytes(s.as_bytes());
    }

    /// Appends a lane's bits `lane` packed by `p` (their [`Packing`]):
    /// `[u8 width][u64 base]`, then each wrapping offset from the base
    /// in `width` big-endian bytes, a NULL row's (per `nulls`) as 0.
    pub(crate) fn packed(&mut self, lane: &[u64], nulls: Option<&[bool]>, p: Packing) {
        self.u8(p.width as u8);
        self.u64(p.base);
        let at = self.buf.len();
        self.buf.resize(at + p.width * lane.len(), 0);
        let out = self.buf.get_mut(at..).unwrap_or_default();
        by_width!(p.width, W => {
            let size = std::mem::size_of::<W>();
            for (b, &x) in out.chunks_exact_mut(size).zip(lane) {
                b.copy_from_slice(&(x.wrapping_sub(p.base) as W).to_be_bytes());
            }
            let rows = out.chunks_exact_mut(size).zip(nulls.unwrap_or_default());
            rows.filter(|(_, &null)| null).for_each(|(b, _)| b.fill(0));
        })
    }

    /// Appends an integer lane whose bits are `lane` as `layout` lays
    /// it out ([`Dictionaries::layout`] of these bits, whose scratch
    /// `dicts` holds a dictionary's values and indices).
    // Only the 2-byte arm's `as u16` casts to the same type.
    #[allow(clippy::unnecessary_cast)]
    pub(crate) fn lane(
        &mut self,
        lane: &[u64],
        nulls: Option<&[bool]>,
        layout: &Layout,
        dicts: &Dictionaries,
    ) {
        let (packing, values, index) = match layout {
            Layout::Packed(p) => return self.packed(lane, nulls, *p),
            Layout::Dictionary {
                packing,
                values,
                index,
            } => (packing, values, index),
        };
        let values = dicts.values.get(values.clone()).unwrap_or_default();
        let index = dicts.index.get(index.clone()).unwrap_or_default();
        self.u8(DICTIONARY);
        self.u16(values.len() as u16);
        self.packed(values, None, *packing);
        let at = self.buf.len();
        let width = index_width(values.len());
        self.buf.resize(at + width * index.len(), 0);
        let out = self.buf.get_mut(at..).unwrap_or_default();
        by_width!(width, W => {
            for (b, &i) in out.chunks_exact_mut(std::mem::size_of::<W>()).zip(index) {
                b.copy_from_slice(&(i as W).to_be_bytes());
            }
        })
    }

    /// Refuses the message; the first refusal is the one reported.
    pub fn refuse(&mut self, err: TypeError) {
        self.refused.get_or_insert(err);
    }

    /// The first refusal, if any.
    pub fn finish(self) -> TypeResult<()> {
        self.refused.map_or(Ok(()), Err)
    }
}

impl Reader {
    /// A reader over `buf`; a primitive field that runs short reports
    /// `context`.
    pub fn new(buf: Bytes, context: &'static str) -> Self {
        Reader {
            buf,
            at: 0,
            context,
        }
    }

    /// Bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Ensures at least `need` more bytes before a read.
    #[inline]
    pub fn want(&self, context: &'static str, need: usize) -> TypeResult<()> {
        let have = self.remaining();
        if have < need {
            return Err(TypeError::Truncated {
                context,
                need,
                have,
            });
        }
        Ok(())
    }

    /// The next `n` bytes behind one bound check: a lane body, a string.
    #[inline]
    pub fn take(&mut self, context: &'static str, n: usize) -> TypeResult<&[u8]> {
        self.want(context, n)?;
        let at = self.at;
        self.at += n;
        (self.buf.get(at..self.at)).ok_or(TypeError::Corrupt("read past the buffer"))
    }

    #[inline]
    fn array<const N: usize>(&mut self, context: &'static str) -> TypeResult<[u8; N]> {
        (self.take(context, N)?.try_into()).map_err(|_| TypeError::Corrupt("short word"))
    }

    /// Reads a `bool`: 0 or 1, anything else corrupt.
    #[inline]
    pub fn bool(&mut self) -> TypeResult<bool> {
        strict_bool(self.u8()?)
    }

    /// Reads a `u32` count of elements, each `context`, encoded in at
    /// least `min` bytes: a count the remaining bytes cannot hold is
    /// refused before it sizes anything, naming the element.
    pub fn count(&mut self, context: &'static str, min: usize) -> TypeResult<usize> {
        let n = self.u32()? as usize;
        self.want(context, n.saturating_mul(min))?;
        Ok(n)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> TypeResult<&str> {
        let len = u32::from_be_bytes(self.array("string length")?) as usize;
        std::str::from_utf8(self.take("string body", len)?)
            .map_err(|_| TypeError::Corrupt("invalid utf-8"))
    }

    /// The next `n` bytes, sharing the buffer.
    pub fn bytes(&mut self, n: usize) -> TypeResult<Bytes> {
        self.want(self.context, n)?;
        self.at += n;
        Ok(self.buf.slice(self.at - n..self.at))
    }

    /// Every byte left, sharing the buffer.
    pub fn rest(&mut self) -> Bytes {
        let rest = self.buf.slice(self.at..);
        self.at = self.buf.len();
        rest
    }

    /// A lane of `n` `bool`s.
    pub fn bools(&mut self, context: &'static str, n: usize) -> TypeResult<Vec<bool>> {
        let body = self.take(context, n)?;
        let mut out = Vec::with_capacity(n);
        for &b in body {
            out.push(strict_bool(b)?);
        }
        Ok(out)
    }

    /// An integer lane of `n` values ([`Writer::lane`]), made of their
    /// bits by `value`: packed, or a dictionary. Every body is taken,
    /// behind one bound check, before the lane is allocated. A width
    /// but 1, 2, 4 or 8 that is not the dictionary code is corrupt, as
    /// are a dictionary count of 0 or past `n` and an index past the
    /// count.
    pub fn packed<T: Copy + Default>(
        &mut self,
        context: &'static str,
        n: usize,
        value: impl Fn(u64) -> T,
    ) -> TypeResult<Vec<T>> {
        self.want(context, 1 + 8)?;
        let code = self.u8()?;
        if code != DICTIONARY {
            return self.offsets(context, code, n, value);
        }
        let count = usize::from(self.u16()?);
        if count == 0 || count > n {
            return Err(TypeError::Corrupt("dictionary count not in 1..=rows"));
        }
        self.want(context, 1 + 8)?;
        let width = self.u8()?;
        let values = self.offsets(context, width, count, value)?;
        let index = self.take(context, n.saturating_mul(index_width(count)))?;
        // One pass checks every index, so the gather has no error path;
        // a fold over the largest vectorizes where `max` does not.
        let past = TypeError::Corrupt("dictionary index past its count");
        if count <= 1 << 8 {
            if usize::from(index.iter().fold(0, |m: u8, &i| m.max(i))) >= count {
                return Err(past);
            }
            // A byte never indexes past 256 slots.
            let mut table = [T::default(); 1 << 8];
            table.iter_mut().zip(values).for_each(|(t, v)| *t = v);
            let gather = index.iter().map(|&i| table.get(usize::from(i)).copied());
            return Ok(gather.map(Option::unwrap_or_default).collect());
        }
        let index =
            (index.chunks_exact(2)).map(|b| u16::from_be_bytes(b.try_into().unwrap_or_default()));
        if usize::from(index.clone().fold(0, u16::max)) >= count {
            return Err(past);
        }
        Ok(index
            .map(|i| values.get(usize::from(i)).copied().unwrap_or_default())
            .collect())
    }

    /// `n` offsets of width `width` from a `u64` base ([`Writer::packed`]).
    // Only the 8-byte arm's widening `as u64` casts to the same type.
    #[allow(clippy::unnecessary_cast)]
    fn offsets<T>(
        &mut self,
        context: &'static str,
        width: u8,
        n: usize,
        value: impl Fn(u64) -> T,
    ) -> TypeResult<Vec<T>> {
        let width = usize::from(width);
        if ![1, 2, 4, 8].contains(&width) {
            return Err(TypeError::Corrupt("lane width not 1, 2, 4 or 8"));
        }
        let base = self.u64()?;
        let body = self.take(context, n.saturating_mul(width))?;
        Ok(by_width!(width, W => body
            .chunks_exact(std::mem::size_of::<W>())
            .map(|b| value(base.wrapping_add(W::from_be_bytes(b.try_into().unwrap_or_default()) as u64)))
            .collect()))
    }

    /// Ends the read: bytes left over are corrupt.
    pub fn finish(self) -> TypeResult<()> {
        if self.remaining() != 0 {
            return Err(TypeError::Corrupt("trailing bytes after payload"));
        }
        Ok(())
    }
}

#[inline]
fn strict_bool(b: u8) -> TypeResult<bool> {
    match b {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(TypeError::Corrupt("bool byte out of range")),
    }
}

/// The `u32` at `at` in `buf`, if `buf` holds it: a header word read
/// before the rest of its message.
pub(crate) fn peek_u32(buf: &[u8], at: usize) -> Option<u32> {
    let word = buf.get(at..at.checked_add(4)?)?;
    Some(u32::from_be_bytes(word.try_into().ok()?))
}

impl Wire for bool {
    const MIN_LEN: usize = 1;
    fn put(&self, w: &mut Writer) {
        w.bool(*self);
    }
    fn get(r: &mut Reader) -> TypeResult<Self> {
        r.bool()
    }
}

/// As a `u64`.
impl Wire for usize {
    const MIN_LEN: usize = 8;
    fn put(&self, w: &mut Writer) {
        w.u64(*self as u64);
    }
    fn get(r: &mut Reader) -> TypeResult<Self> {
        Ok(r.u64()? as usize)
    }
}

impl Wire for String {
    const MIN_LEN: usize = 4;
    fn put(&self, w: &mut Writer) {
        w.str(self);
    }
    fn get(r: &mut Reader) -> TypeResult<Self> {
        r.str().map(String::from)
    }
}

/// A `u32` length word, then the bytes.
impl Wire for Bytes {
    const MIN_LEN: usize = 4;
    fn put(&self, w: &mut Writer) {
        w.count(self.len());
        w.bytes(self);
    }
    fn get(r: &mut Reader) -> TypeResult<Self> {
        let n = r.u32()? as usize;
        r.bytes(n)
    }
}

/// A presence `bool`, then the value.
impl<T: Wire> Wire for Option<T> {
    const MIN_LEN: usize = 1;
    fn put(&self, w: &mut Writer) {
        w.bool(self.is_some());
        self.iter().for_each(|v| v.put(w));
    }
    fn get(r: &mut Reader) -> TypeResult<Self> {
        Ok(if r.bool()? { Some(T::get(r)?) } else { None })
    }
}

/// A `u32` count, bounded by `T::MIN_LEN`, then the elements.
impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 4;
    fn put(&self, w: &mut Writer) {
        w.count(self.len());
        self.iter().for_each(|v| v.put(w));
    }
    fn get(r: &mut Reader) -> TypeResult<Self> {
        let n = r.count(std::any::type_name::<T>(), T::MIN_LEN.max(1))?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    const MIN_LEN: usize = N * T::MIN_LEN;
    fn put(&self, w: &mut Writer) {
        self.iter().for_each(|v| v.put(w));
    }
    fn get(r: &mut Reader) -> TypeResult<Self> {
        let mut out = [T::default(); N];
        for v in &mut out {
            *v = T::get(r)?;
        }
        Ok(out)
    }
}

/// The tuples: their fields in order.
macro_rules! tuples {
    ($(($($t:ident $i:tt),*))*) => {$(
        impl<$($t: Wire),*> Wire for ($($t,)*) {
            const MIN_LEN: usize = 0 $(+ $t::MIN_LEN)*;
            fn put(&self, w: &mut Writer) {
                $(self.$i.put(w);)*
            }
            fn get(r: &mut Reader) -> TypeResult<Self> {
                Ok(($($t::get(r)?,)*))
            }
        }
    )*};
}

tuples! { (A 0, B 1) (A 0, B 1, C 2) }

/// Implements [`Wire`] for a struct from one list of its fields and
/// their types, in wire order: both directions and `MIN_LEN` come from
/// the same list, so they cannot drift apart.
///
/// ```
/// # use qap_types::{wire_struct, Wire};
/// #[derive(Debug, PartialEq)]
/// struct Edge { from: u32, bytes: u64 }
/// wire_struct!(Edge { from: u32, bytes: u64 });
/// let e = Edge { from: 3, bytes: 9 };
/// assert_eq!(e.encode().unwrap().len(), Edge::MIN_LEN);
/// assert_eq!(Edge::decode(e.encode().unwrap()).unwrap(), e);
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:ident: $fty:ty),* $(,)? }) => {
        impl $crate::Wire for $ty {
            const MIN_LEN: usize = 0 $(+ <$fty as $crate::Wire>::MIN_LEN)*;
            fn put(&self, w: &mut $crate::Writer) {
                $(<$fty as $crate::Wire>::put(&self.$field, w);)*
            }
            fn get(r: &mut $crate::Reader) -> $crate::TypeResult<Self> {
                Ok($ty { $($field: <$fty as $crate::Wire>::get(r)?),* })
            }
        }
    };
}
