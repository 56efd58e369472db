//! Fast, deterministic hashing for internal operator state.
//!
//! Group and join probes hash a key on *every* tuple, which makes the
//! default SipHash a measurable fraction of the engine's per-tuple
//! cost. Every γ and ⋈ key hashes as words ([`fold_word`]), read off its
//! lanes by `ops::keys`, whatever the key's kinds; the string pools
//! that intern key strings hash them with [`FxHasher`]. Operator state
//! is never exposed to adversarial keys (group keys come from the
//! operator's own expression evaluation, and tables live only for one
//! window), so a fast non-cryptographic hash is appropriate. This is
//! the well-known "Fx" multiply-xor construction (a rotate, an xor and
//! one multiply per word) used by several compilers for the same
//! reason.
//!
//! Determinism matters too: unlike `RandomState`, the hash is fixed
//! across processes, so a distributed run's leaf hosts probe their
//! tables identically — useful when diffing per-host traces.

use std::hash::Hasher;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One multiply-xor round over a raw word — the fold [`FxHasher::add`]
/// performs, exposed so a key read as words hashes word by word
/// (`ops::keys`).
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
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qap_types::Value;

    /// Fx hash of a value slice through the derived `Hash`.
    fn hash_values(vals: &[Value]) -> u64 {
        use std::hash::Hash;
        let mut h = FxHasher::default();
        for v in vals {
            v.hash(&mut h);
        }
        h.finish()
    }

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
    fn byte_stream_tail_handled() {
        let mut h = FxHasher::default();
        h.write(b"0123456789"); // 8-byte chunk + 2-byte tail
        let full = h.finish();
        let mut h2 = FxHasher::default();
        h2.write(b"0123456789");
        assert_eq!(full, h2.finish());
    }
}
