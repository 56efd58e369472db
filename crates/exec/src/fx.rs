//! Fast, deterministic hashing for internal operator state.
//!
//! Group and join probes hash a key on *every* tuple, which makes the
//! default SipHash a measurable fraction of the engine's per-tuple
//! cost. A γ key always hashes as words ([`fold_word`]): read off its
//! lanes (`ops::keys`) or encoded by the group table from the per-row
//! path's values. A ⋈ key hashes as words when every key reads as a
//! non-null unsigned word, or as values ([`ValueHash`], its per-row
//! path); an all-unsigned key hashes the same both ways, so both paths
//! probe one table. Operator state is never exposed to
//! adversarial keys (group keys come from the operator's own expression
//! evaluation, and tables live only for one window), so a fast
//! non-cryptographic hash is appropriate. This is the well-known
//! "Fx" multiply-xor construction (a rotate, an xor and one multiply
//! per word) used by several compilers for the same reason.
//!
//! Determinism matters too: unlike `RandomState`, the hash is fixed
//! across processes, so a distributed run's leaf hosts probe their
//! tables identically — useful when diffing per-host traces.

use std::hash::Hasher;

use qap_types::Value;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One multiply-xor round over a raw word — the fold [`FxHasher::add`]
/// performs, exposed so a key read as words hashes without building a
/// `Value` (`ops::keys`). Starting from `0` (`FxHasher::default()`'s
/// state), `fold_word(h, x)` agrees bit-for-bit with
/// [`ValueHash::add`] of `Value::UInt(x)` because the `UInt` variant tag
/// is zero — so a ⋈ key hashed as words and the same key hashed as
/// values probe the same table slots.
#[inline]
pub(crate) fn fold_word(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(SEED)
}

/// One-word-at-a-time multiply-xor hasher.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = fold_word(self.hash, word);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }

    #[inline]
    fn write_i128(&mut self, v: i128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Fx hash of a value slice (a group or join key). The engine's hot
/// paths hash incrementally via [`ValueHash`]; this whole-slice form
/// backs the unit tests.
#[cfg(test)]
pub(crate) fn hash_values(vals: &[Value]) -> u64 {
    use std::hash::Hash;
    let mut h = FxHasher::default();
    for v in vals {
        v.hash(&mut h);
    }
    h.finish()
}

/// Incremental value hasher for ⋈'s per-row key loop: callers that
/// materialize a key one value at a time thread this state through the
/// same pass instead of re-traversing the finished key.
///
/// Scalar variants cost a *single* multiply-xor round — the variant tag
/// folds into the payload word (xor with a per-variant constant)
/// instead of spending a round of its own, halving the per-key hash
/// cost versus the derived `Hash` impl. The result is deterministic and
/// internally consistent (a tuple's probe and its insert share the one
/// computed hash), which is all a hash table requires; it is **not**
/// interchangeable with [`hash_values`].
pub(crate) struct ValueHash(FxHasher);

/// Per-variant tag constants folded into the hashed word so that e.g.
/// `UInt(1)` and `Int(1)` land in different buckets. Arbitrary odd
/// 64-bit constants with mixed bit patterns.
const TAG_NULL: u64 = 0x9e37_79b9_7f4a_7c15;
const TAG_UINT: u64 = 0;
const TAG_INT: u64 = 0xc2b2_ae3d_27d4_eb4f;
const TAG_BOOL: u64 = 0x1656_67b1_9e37_79f9;
const TAG_STR: u64 = 0x27d4_eb2f_1656_67c5;

impl ValueHash {
    #[inline]
    pub(crate) fn new() -> Self {
        ValueHash(FxHasher::default())
    }

    #[inline]
    pub(crate) fn add(&mut self, v: &Value) {
        match v {
            Value::Null => self.0.add(TAG_NULL),
            Value::UInt(x) => self.0.add(*x ^ TAG_UINT),
            Value::Int(x) => self.0.add((*x as u64) ^ TAG_INT),
            Value::Bool(b) => self.0.add(u64::from(*b) ^ TAG_BOOL),
            Value::Str(s) => {
                self.0.add(TAG_STR);
                self.0.write(s.as_bytes());
            }
        }
    }

    #[inline]
    pub(crate) fn finish(&self) -> u64 {
        self.0.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_discriminating() {
        let a = [Value::UInt(1), Value::Int(-1)];
        let b = [Value::UInt(1), Value::Int(-1)];
        let c = [Value::UInt(1), Value::UInt(u64::MAX)];
        assert_eq!(hash_values(&a), hash_values(&b));
        // UInt(x) and Int(x as i64) must hash differently via the
        // discriminant even though their payload bits coincide.
        assert_ne!(hash_values(&a), hash_values(&c));
    }

    #[test]
    fn value_hash_deterministic_and_discriminating() {
        let hash = |vals: &[Value]| {
            let mut vh = ValueHash::new();
            for v in vals {
                vh.add(v);
            }
            vh.finish()
        };
        let a = [Value::UInt(1), Value::Int(-1)];
        assert_eq!(hash(&a), hash(&a));
        // The folded variant tags keep same-payload values apart.
        assert_ne!(hash(&[Value::UInt(1)]), hash(&[Value::Int(1)]));
        assert_ne!(hash(&[Value::UInt(0)]), hash(&[Value::Null]));
        assert_ne!(
            hash(&[Value::Bool(true)]),
            hash(&[Value::UInt(u64::from(true))])
        );
        assert_ne!(
            hash(&[Value::Str("ab".into())]),
            hash(&[Value::Str("ba".into())])
        );
    }

    /// The columnar key-hash fold must agree with [`ValueHash`] over
    /// unsigned values — the equality the column-hashed group probe and
    /// the partition-routing equivalence suite both rely on.
    #[test]
    fn fold_word_matches_value_hash_on_uints() {
        for key in [&[0u64][..], &[1, 2], &[u64::MAX, 0, 42]] {
            let mut vh = ValueHash::new();
            let mut h = 0u64;
            for &x in key {
                vh.add(&Value::UInt(x));
                h = fold_word(h, x);
            }
            assert_eq!(vh.finish(), h, "key {key:?}");
        }
    }

    #[test]
    fn byte_stream_tail_handled() {
        let mut h = FxHasher::default();
        h.write(b"0123456789"); // 8-byte chunk + 2-byte tail
        let full = h.finish();
        let mut h2 = FxHasher::default();
        h2.write(b"0123456789");
        assert_eq!(full, h2.finish());
    }
}
