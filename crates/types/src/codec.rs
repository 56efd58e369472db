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
//! - A `uint` or `int` lane is packed ([`Packing`]). Peer bytes cannot
//!   panic a reader: indexing, `unwrap`, `expect` and `panic!` are
//!   denied here.
#![deny(clippy::indexing_slicing, clippy::unwrap_used)]
#![deny(clippy::expect_used, clippy::panic)]

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
    /// One min/max pass over a lane's bits (`None` for a NULL row);
    /// XOR-ed with `flip` (the sign bit for `i64`) they order as the
    /// values do. A lane with no value packs at width 1 from 0.
    pub fn of(bits: impl Iterator<Item = Option<u64>>, flip: u64) -> Packing {
        let (mut lo, mut hi) = (u64::MAX, 0);
        bits.flatten()
            .for_each(|x| (lo, hi) = (lo.min(x ^ flip), hi.max(x ^ flip)));
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

    /// Appends a lane's bits packed by `p` ([`Packing::of`] of them):
    /// `[u8 width][u64 base]`, then each wrapping offset from the base
    /// in `width` big-endian bytes, a NULL row's as 0.
    pub fn packed(&mut self, bits: impl ExactSizeIterator<Item = Option<u64>>, p: Packing) {
        self.u8(p.width as u8);
        self.u64(p.base);
        let at = self.buf.len();
        self.buf.resize(at + p.width * bits.len(), 0);
        let out = self.buf.get_mut(at..).unwrap_or_default();
        let offsets = bits.map(|x| x.map_or(0, |x| x.wrapping_sub(p.base)));
        by_width!(p.width, W => {
            for (b, offset) in out.chunks_exact_mut(std::mem::size_of::<W>()).zip(offsets) {
                b.copy_from_slice(&(offset as W).to_be_bytes());
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

    /// A packed lane of `n` values ([`Writer::packed`]), made of their
    /// bits by `value`. A width but 1, 2, 4 or 8 is corrupt; the offsets
    /// are taken, behind one bound check, before the lane is allocated.
    // Only the 8-byte arm's widening `as u64` casts to the same type.
    #[allow(clippy::unnecessary_cast)]
    pub fn packed<T>(
        &mut self,
        context: &'static str,
        n: usize,
        value: impl Fn(u64) -> T,
    ) -> TypeResult<Vec<T>> {
        self.want(context, 1 + 8)?;
        let width = usize::from(self.u8()?);
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
