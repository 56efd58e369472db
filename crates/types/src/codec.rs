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
/// the type, its [`Wire`] impl and, after a `:`, a lane reader.
macro_rules! integers {
    ($($ty:ident $(: $lane:ident)?)*) => {$(
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

            $(
            #[doc = concat!("A lane of `n` `", stringify!($ty), "`s behind one bound check.")]
            pub fn $lane(&mut self, context: &'static str, n: usize) -> TypeResult<Vec<$ty>> {
                const SIZE: usize = std::mem::size_of::<$ty>();
                let body = self.take(context, n.saturating_mul(SIZE))?.chunks_exact(SIZE);
                Ok(body.map(|b| $ty::from_be_bytes(b.try_into().expect("one word"))).collect())
            }
            )?
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

integers! { u8 u16 u32 u64: u64s i64: i64s }

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
        self.at += n;
        Ok(&self.buf[self.at - n..self.at])
    }

    #[inline]
    fn array<const N: usize>(&mut self, context: &'static str) -> TypeResult<[u8; N]> {
        Ok(self.take(context, N)?.try_into().expect("took N bytes"))
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
