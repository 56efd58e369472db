//! Insertion-ordered, two-level hash table for per-window operator
//! state.
//!
//! The aggregation inner loop probes a key-indexed map on every tuple.
//! A `std::collections::HashMap` makes that loop pay for SipHash on the
//! probe, a *second* full hash on the miss→insert path, a key clone to
//! track insertion order, and one more hash per group when the window
//! flushes via `remove`. This table collapses all of that:
//!
//! - keys hash once per tuple with the Fx hasher ([`crate::fx`]);
//! - the index is **two-level**: the hash's top bits select one of
//!   [`PARTITIONS`] independently sized partitions, the low bits an
//!   open-addressed slot within it. Partitions grow independently, so a
//!   skewed key distribution re-places only the hot partition's slots
//!   (not the whole index), each partition's slot array stays small
//!   enough to live in cache while it is hot, and the layout matches
//!   the paper's per-partition → global aggregation structure
//!   (Section 5.2.2: sub-aggregates per partition, one global arena);
//! - a probe loads one 8-byte slot (the hash's low 32 bits + entry id),
//!   rejects on a tag mismatch without touching the key arena, and walks
//!   linearly — no collision-chain pointer chasing across side arrays;
//! - keys live in one **global** flat arena of `u64` words shared by
//!   all partitions, so entries stay in insertion order regardless of
//!   which partition indexes them and a hash-confirmed probe compares
//!   contiguous words. The layout is the key reader's (`ops::keys`),
//!   fixed by the plan's key kinds when the table is built: a `uint` is
//!   its word, an `int` its two's-complement bits, a `bool` 0 or 1 and
//!   a `string` its index in the table's string pool, and a **mask
//!   word** after an entry's keys flags its NULL keys. A key read off
//!   lanes is already its words, once its strings move into the table's
//!   pool ([`GroupTable::intern_keys`]);
//! - payloads live in two more flat arenas: `u64` **state words** (a
//!   fixed count per entry, all zero when the group is created) and
//!   `side` payloads for state that is not words (a fixed count per
//!   entry, often none — then the arena is never allocated). The
//!   per-tuple fold updates contiguous words instead of dereferencing a
//!   per-group heap `Vec`, creating a group extends the arenas in place
//!   — again no allocation per group — and a table without side
//!   payloads clears with no drop loop;
//! - strings the words refer to (a string key, interned once per
//!   window, or a `MIN`/`MAX` extreme that is a string) sit in one
//!   **string pool** per table; it empties with the window;
//! - entries stay in insertion order (arena append order), so closing a
//!   window reads the arenas front to back — no re-hash, no order
//!   side-vector, no clones.
//!
//! Determinism: iteration order is exactly insertion order, so operator
//! output is independent of the hash function and identical across
//! batch sizes — the property the equivalence suite pins down.
//!
//! Probe exactness: every key of one table has the same kinds, so two
//! keys are equal exactly when their words and masks are. A key hashes
//! by [`key_hash`], as the key reader hashes it: its words alone when
//! no key is NULL.

use qap_types::{ArcStr, Column, DataType, Value};

use super::keys::{key_hash, StrPool};

/// One open-addressed index slot: the low 32 bits of the entry's hash
/// (its tag) and its arena index *plus one* (`0` marks a vacant slot).
/// A tag match on a different key walks on, as a hash match would.
type Slot = (u32, u32);

/// Number of first-level partitions (must be a power of two).
const PARTITIONS: usize = 128;

/// Bits of the hash consumed by the partition selector — the *top*
/// bits, disjoint from the low bits that pick the slot within a
/// partition, so both levels see independent hash entropy.
const PART_SHIFT: u32 = 64 - PARTITIONS.trailing_zeros();

/// Entries the flat arenas make room for when the first key of a window
/// finds them unallocated (see [`GroupTable::first_entry`]).
const FIRST_ENTRIES: usize = 256;

/// One first-level partition: an independently sized open-addressed
/// slot array over the shared entry arenas.
#[derive(Default)]
struct Partition {
    /// Length is a power of two (or zero before first use), kept at
    /// most half full so linear probe runs stay short.
    slots: Vec<Slot>,
    /// `slots.len() - 1`.
    mask: u64,
    /// Live entries indexed by this partition.
    len: usize,
}

impl Partition {
    /// Doubles the slot array and re-places every live slot under the
    /// new mask, from the tags cached in the slots themselves: while the
    /// mask fits in the tag, a slot goes where its full hash puts it.
    #[cold]
    fn grow(&mut self) {
        let n = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); n]);
        self.mask = (n - 1) as u64;
        debug_assert!(
            self.mask <= u64::from(u32::MAX),
            "the tag holds the slot bits"
        );
        for (h, e1) in old {
            if e1 == 0 {
                continue;
            }
            let mut i = (u64::from(h) & self.mask) as usize;
            while self.slots[i].1 != 0 {
                i = (i + 1) & self.mask as usize;
            }
            self.slots[i] = (h, e1);
        }
    }
}

/// The current window's payloads as stored, every arena in insertion
/// order.
pub(crate) struct Window<'a, P> {
    /// The state words, the same count per entry.
    pub(crate) words: &'a [u64],
    /// The side payloads, the same count per entry.
    pub(crate) side: &'a [P],
    /// The strings the key and state words index.
    pub(crate) strs: &'a [ArcStr],
    pub(crate) len: usize,
}

/// One entry's mutable payload: its state words and side payloads, and
/// the table's string pool the words may index.
pub(crate) struct Payload<'a, P> {
    pub(crate) words: &'a mut [u64],
    pub(crate) side: &'a mut [P],
    pub(crate) strs: &'a mut Vec<ArcStr>,
}

/// Hash table mapping a group key of fixed kinds, as words, to a
/// fixed-width payload — a slice of state words and a slice of side
/// payloads `P` — preserving insertion order. The key kinds and both
/// payload widths are fixed at construction (by an operator's group
/// keys and aggregate slots).
pub(crate) struct GroupTable<P> {
    /// First-level partitions, selected by the hash's top bits.
    parts: Vec<Partition>,
    /// Number of live entries across all partitions.
    len: usize,
    /// Each key's kind: how its word decodes.
    kinds: Vec<DataType>,
    /// The positions of the string keys.
    str_keys: Vec<usize>,
    /// Flat key words: entry `e` owns `keys[e*(arity+1) ..
    /// (e+1)*(arity+1)]`, its keys' words and then its NULL mask (bit
    /// `k` set when key `k` is NULL, whose word is then zero).
    keys: Vec<u64>,
    /// Flat state words: entry `e` owns `words[e*words_w ..
    /// (e+1)*words_w]`, zeroed when the entry is created.
    words: Vec<u64>,
    words_w: usize,
    /// Flat side payloads: entry `e` owns `side[e*side_w ..
    /// (e+1)*side_w]`.
    side: Vec<P>,
    side_w: usize,
    /// Strings the key and state words index, kept until the window
    /// closes.
    pool: StrPool,
    /// Total slot inspections across all lookups — the collision
    /// telemetry [`crate::OpCounters`]'s companion metrics report.
    probes: u64,
    /// Groups created across the table's lifetime (not reset by
    /// [`GroupTable::clear`]).
    inserts: u64,
}

impl<P> GroupTable<P> {
    /// A table keyed by keys of `kinds`, at most
    /// [`crate::bind::MAX_GROUP_KEYS`] (one mask bit each).
    pub(crate) fn new(kinds: Vec<DataType>, words_w: usize, side_w: usize) -> Self {
        assert!(kinds.len() <= crate::bind::MAX_GROUP_KEYS);
        GroupTable {
            parts: (0..PARTITIONS).map(|_| Partition::default()).collect(),
            len: 0,
            str_keys: (0..kinds.len())
                .filter(|&k| kinds[k] == DataType::Str)
                .collect(),
            kinds,
            keys: Vec::new(),
            words: Vec::new(),
            words_w,
            side: Vec::new(),
            side_w,
            pool: StrPool::default(),
            probes: 0,
            inserts: 0,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current open-addressed index capacity (slot count across all
    /// partitions).
    pub(crate) fn slot_count(&self) -> u64 {
        self.parts.iter().map(|p| p.slots.len() as u64).sum()
    }

    /// Total slot inspections across all lookups so far.
    pub(crate) fn probe_count(&self) -> u64 {
        self.probes
    }

    /// Groups created across the table's lifetime.
    pub(crate) fn insert_count(&self) -> u64 {
        self.inserts
    }

    /// The payload of entry `e` (an index returned by an upsert).
    #[inline]
    pub(crate) fn payload_mut(&mut self, e: usize) -> Payload<'_, P> {
        Payload {
            words: &mut self.words[e * self.words_w..(e + 1) * self.words_w],
            side: &mut self.side[e * self.side_w..(e + 1) * self.side_w],
            strs: &mut self.pool.strs,
        }
    }

    /// Whether a key is a string, whose word indexes a pool.
    pub(crate) fn has_str_keys(&self) -> bool {
        !self.str_keys.is_empty()
    }

    /// Moves the string keys of `key` (words read into `from`, NULL mask
    /// `mask`) into the table's pool: each becomes its index here,
    /// interned the first time the window sees it.
    pub(crate) fn intern_keys(&mut self, key: &mut [u64], mask: u64, from: &StrPool) {
        for &k in &self.str_keys {
            if mask >> k & 1 == 0 {
                key[k] = self.pool.intern(&from.strs[key[k] as usize]);
            }
        }
    }

    /// Key `k` of an entry's key words (its keys' words, then the mask)
    /// as a value of its kind.
    pub(crate) fn key_value(&self, key: &[u64], k: usize) -> Value {
        let w = key[k];
        if key[self.kinds.len()] >> k & 1 != 0 {
            return Value::Null;
        }
        match self.kinds[k] {
            DataType::UInt => Value::UInt(w),
            DataType::Int => Value::Int(w as i64),
            DataType::Bool => Value::Bool(w != 0),
            DataType::Str => Value::Str(self.pool.strs[w as usize].clone()),
        }
    }

    /// Appends every entry's key, in insertion order, to `cols`, one
    /// lane per key of its kind: an unsigned key that is never NULL is
    /// copied straight off the words.
    pub(crate) fn key_lanes(&self, cols: &mut [Column]) {
        let stride = self.kinds.len() + 1;
        let nulls = (self.keys[stride - 1..].iter().step_by(stride)).fold(0, |a, m| a | m);
        for (k, c) in cols.iter_mut().enumerate() {
            match self.kinds[k] {
                DataType::UInt if nulls >> k & 1 == 0 => {
                    c.extend_uints(self.keys[k..].iter().step_by(stride).copied())
                }
                _ => {
                    (self.keys.chunks_exact(stride)).for_each(|key| c.push(&self.key_value(key, k)))
                }
            }
        }
    }

    /// Sizes the flat arenas the first key of a window goes into for
    /// [`FIRST_ENTRIES`] entries, instead of letting each double its
    /// way up from four elements. Besides the eight regrowths this
    /// saves, it decides *where* the arenas live: the allocator serves a
    /// request of a few words from the thread's cache of chunks it freed
    /// last — on a central unit, chunks a session or leaf thread
    /// allocated — and every later `realloc` stays in the malloc arena
    /// that first chunk belongs to. A key arena that grew to its 800 KB
    /// there left that thread's malloc arena 2 MB larger for the rest of
    /// the process, in some runs and not in others (EXPERIMENTS.md,
    /// *Steadiness*); a block this size comes from the caller's own.
    #[cold]
    fn first_entry(&mut self, stride: usize) {
        self.keys.reserve(FIRST_ENTRIES * stride);
        self.words.reserve(FIRST_ENTRIES * self.words_w);
        self.side.reserve(FIRST_ENTRIES * self.side_w);
    }

    /// Find-or-insert of the key whose words are `key` (one per key)
    /// and NULL mask `mask`, hashed by [`key_hash`]: one probe walk
    /// serves both the lookup and — on a miss — the insert position.
    /// A new entry's words start at zero and its side payloads fill from
    /// `fresh`. Returns the entry index.
    ///
    /// Probes are tallied into `counted`, a caller-held register, not
    /// directly into [`GroupTable::probes`]: a per-call
    /// read-modify-write of the field is a loop-carried dependency
    /// through memory that serializes the caller's row loop. The caller
    /// folds the tally in once per batch via [`GroupTable::add_probes`].
    ///
    /// Always inlined: γ's row loops call it per row, and with several
    /// callers the compiler otherwise keeps it out of line.
    #[inline(always)]
    pub(crate) fn upsert(
        &mut self,
        hash: u64,
        key: &[u64],
        mask: u64,
        counted: &mut u64,
        fresh: impl Iterator<Item = P>,
    ) -> usize {
        debug_assert_eq!(key.len(), self.kinds.len());
        let stride = key.len() + 1;
        let pi = (hash >> PART_SHIFT) as usize;
        // Probe walk, landing on the empty slot the insert will fill on
        // a miss.
        let mut landing = None;
        let p = &self.parts[pi];
        if !p.slots.is_empty() {
            let mut i = (hash & p.mask) as usize;
            let mut inspected = 0u64;
            loop {
                inspected += 1;
                let (h, e1) = p.slots[i];
                if e1 == 0 {
                    landing = Some(i);
                    break;
                }
                if h == hash as u32 {
                    let e = (e1 - 1) as usize;
                    // Explicit word loop: group keys are 1-5 words, so
                    // an unrolled compare beats the memcmp call a slice
                    // `==` lowers to at these lengths.
                    let cand = &self.keys[e * stride..(e + 1) * stride];
                    if cand[stride - 1] == mask && cand.iter().zip(key).all(|(a, b)| a == b) {
                        *counted += inspected;
                        return e;
                    }
                }
                i = (i + 1) & p.mask as usize;
            }
            *counted += inspected;
        }
        if self.len == 0 {
            self.first_entry(stride);
        }
        let p = &mut self.parts[pi];
        let i = if p.len * 2 >= p.slots.len() {
            p.grow();
            let mut i = (hash & p.mask) as usize;
            while p.slots[i].1 != 0 {
                i = (i + 1) & p.mask as usize;
            }
            i
        } else {
            landing.expect("half-full partitions always keep an empty slot")
        };
        self.inserts += 1;
        self.len += 1;
        p.len += 1;
        p.slots[i] = (hash as u32, self.len as u32);
        self.keys.extend_from_slice(key);
        self.keys.push(mask);
        self.words.resize(self.words.len() + self.words_w, 0);
        self.side.extend(fresh);
        debug_assert_eq!(self.side.len(), self.len * self.side_w);
        self.len - 1
    }

    /// Puts back an entry [`GroupTable::take_entries`] took, from its
    /// key words (the mask last). Putting a group back is no lookup: its
    /// walk is not tallied.
    pub(crate) fn put_back(&mut self, key: &[u64], fresh: impl Iterator<Item = P>) -> usize {
        let (mask, key) = key.split_last().expect("a key has a mask word");
        self.upsert(key_hash(key, *mask), key, *mask, &mut 0, fresh)
    }

    /// Folds a batch's probe tally (accumulated across
    /// [`GroupTable::upsert`] calls) into the probe counter.
    #[inline]
    pub(crate) fn add_probes(&mut self, counted: u64) {
        self.probes += counted;
    }

    /// The current window as stored, for the caller to close before
    /// [`GroupTable::clear`].
    pub(crate) fn window(&self) -> Window<'_, P> {
        Window {
            words: &self.words,
            side: &self.side,
            strs: &self.pool.strs,
            len: self.len,
        }
    }

    /// Empties the table for the next window: arenas and slot storage
    /// keep their capacity.
    pub(crate) fn clear(&mut self) {
        self.clear_entries();
        self.pool.clear();
    }

    /// Empties the index and the entry arenas, but not the string pool.
    fn clear_entries(&mut self) {
        for p in &mut self.parts {
            p.slots.fill((0, 0));
            p.len = 0;
        }
        self.len = 0;
        self.keys.clear();
        self.words.clear();
        self.side.clear();
    }

    /// Takes every entry in insertion order — the key, word and side
    /// arenas and the entry count — and empties the table but for the
    /// string pool, which the taken words and those put back still
    /// index.
    pub(crate) fn take_entries(&mut self) -> (Vec<u64>, Vec<u64>, Vec<P>, usize) {
        let n = self.len;
        let keys = std::mem::take(&mut self.keys);
        let words = std::mem::take(&mut self.words);
        let side = std::mem::take(&mut self.side);
        self.clear_entries();
        (keys, words, side, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::keys::{read_words, KeyEval, KeyWords};
    use qap_expr::KernelScratch;
    use qap_types::ColumnBatch;

    /// Probe-only and by-value forms of the table's walks, for the
    /// tests.
    impl<P> GroupTable<P> {
        /// Entry index of the group whose key words and mask equal
        /// `key` and `mask` — the non-mutating form of
        /// [`GroupTable::upsert`]'s probe walk.
        fn find(&self, key: &[u64], mask: u64) -> Option<usize> {
            let (hash, stride) = (key_hash(key, mask), key.len() + 1);
            let p = &self.parts[(hash >> PART_SHIFT) as usize];
            if p.slots.is_empty() {
                return None;
            }
            let mut i = (hash & p.mask) as usize;
            loop {
                let (h, e1) = p.slots[i];
                if e1 == 0 {
                    return None;
                }
                let e = (e1 - 1) as usize;
                let cand = &self.keys[e * stride..(e + 1) * stride];
                if h == hash as u32 && cand[..key.len()] == *key && cand[key.len()] == mask {
                    return Some(e);
                }
                i = (i + 1) & p.mask as usize;
            }
        }

        /// The words and mask of the key `vals` (one value per key, each
        /// NULL or of its key's kind): read off one-row lanes by the key
        /// reader, its strings moved into the table's pool.
        fn encode(&mut self, vals: &[Value]) -> (Vec<u64>, u64) {
            let cols = vals
                .iter()
                .map(|v| Column::from_values(std::slice::from_ref(v)));
            let batch = ColumnBatch::from_columns(cols.collect());
            let evals: Vec<KeyEval> = (0..vals.len()).map(KeyEval::Col).collect();
            let (mut pool, mut kw) = (StrPool::default(), KeyWords::default());
            read_words(
                &evals,
                &batch,
                &mut KernelScratch::new(),
                &mut pool,
                &mut kw,
            )
            .expect("column keys read");
            let mask = kw.masks.first().copied().unwrap_or(0);
            self.intern_keys(&mut kw.words, mask, &pool);
            (kw.words, mask)
        }

        /// Entry index of the group of the values `vals`.
        fn find_values(&mut self, vals: &[Value]) -> Option<usize> {
            let (key, mask) = self.encode(vals);
            self.find(&key, mask)
        }

        /// Mutable side payloads of the group of `vals`, or `None` when
        /// it does not exist yet.
        fn get_mut(&mut self, vals: &[Value]) -> Option<&mut [P]> {
            let e = self.find_values(vals)?;
            Some(self.payload_mut(e).side)
        }

        /// Find-or-insert of the values `vals`: read as words, hashed and
        /// upserted, its probes tallied.
        fn upsert_values(&mut self, vals: &[Value], fresh: impl Iterator<Item = P>) -> usize {
            let (key, mask) = self.encode(vals);
            let mut walked = 0;
            let e = self.upsert(key_hash(&key, mask), &key, mask, &mut walked, fresh);
            self.add_probes(walked);
            e
        }

        /// Every entry's key as values, in insertion order.
        fn key_values(&self) -> Vec<Value> {
            let arity = self.kinds.len();
            (self.keys.chunks_exact(arity + 1))
                .flat_map(|key| (0..arity).map(|k| self.key_value(key, k)))
                .collect()
        }
    }

    const UINTS: [DataType; 2] = [DataType::UInt, DataType::UInt];

    fn table(words_w: usize, side_w: usize) -> GroupTable<u64> {
        GroupTable::new(UINTS.to_vec(), words_w, side_w)
    }

    fn key(v: u64) -> Vec<Value> {
        vec![Value::UInt(v), Value::UInt(v.wrapping_mul(7))]
    }

    fn words(v: u64) -> [u64; 2] {
        [v, v.wrapping_mul(7)]
    }

    #[test]
    fn insert_probe_drain_in_order() {
        // Width-2 side payloads: [v, 0] at insert, second slot bumped on
        // every probe; one state word, zero at insert, set to `v + 1`.
        let mut t = table(1, 2);
        for v in 0..100u64 {
            assert!(t.get_mut(&key(v)).is_none());
            let e = t.upsert_values(&key(v), [v, 0].into_iter());
            let p = t.payload_mut(e);
            assert_eq!((&*p.words, &*p.side), (&[0][..], &[v, 0][..]));
            p.words[0] = v + 1;
        }
        for v in 0..100u64 {
            t.get_mut(&key(v)).expect("present")[1] += 1;
        }
        let arena = t.key_values();
        let (keys, words, payloads, n) = t.take_entries();
        assert_eq!(n, 100);
        assert_eq!(words, (1..=100u64).collect::<Vec<u64>>());
        assert_eq!(
            payloads,
            (0..100u64).flat_map(|v| [v, 1]).collect::<Vec<u64>>()
        );
        assert_eq!(arena[6..8], key(3)[..]);
        assert_eq!((arena.len(), keys.len()), (200, 300));
        assert!(t.is_empty());
        // Reusable after a drain.
        assert!(t.get_mut(&key(7)).is_none());
        t.upsert_values(&key(7), [1, 1].into_iter());
        assert_eq!(t.get_mut(&key(7)), Some(&mut [1u64, 1][..]));
    }

    #[test]
    fn first_insert_sizes_the_arenas_on_both_paths() {
        // One entry in, room for FIRST_ENTRIES whether the key arrives
        // as words or as values: no arena ever holds a block small
        // enough to have come out of another thread's heap.
        let sized = |t: &GroupTable<u64>| {
            assert!(t.keys.capacity() >= FIRST_ENTRIES * 3);
            assert!(t.words.capacity() >= FIRST_ENTRIES * 5);
            assert!(t.side.capacity() >= FIRST_ENTRIES * 3);
        };
        let mut by_value = table(5, 3);
        by_value.upsert_values(&key(1), [0, 0, 0].into_iter());
        sized(&by_value);

        let mut by_word = table(5, 3);
        let h = key_hash(&words(1), 0);
        by_word.upsert(h, &words(1), 0, &mut 0, [0, 0, 0].into_iter());
        sized(&by_word);
        // A closed window keeps what it had.
        by_word.clear();
        by_word.upsert(h, &words(1), 0, &mut 0, [0, 0, 0].into_iter());
        sized(&by_word);
    }

    #[test]
    fn zero_width_payloads_count_entries() {
        // DISTINCT-style use: groups with no aggregate slots.
        let mut t = table(0, 0);
        for v in 0..10u64 {
            if t.get_mut(&key(v)).is_none() {
                t.upsert_values(&key(v), std::iter::empty());
            }
        }
        let (keys, words, payloads, n) = t.take_entries();
        assert_eq!(n, 10);
        assert!(words.is_empty() && payloads.is_empty());
        assert_eq!(keys.len(), 30);
    }

    #[test]
    fn colliding_hashes_resolve_by_key() {
        // Force identical hashes: linear probing must fall through to
        // the key comparison and keep both entries reachable.
        let mut t = table(0, 1);
        let up = |t: &mut GroupTable<u64>, h: u64, v: u64| {
            t.upsert(h, &words(v), 0, &mut 0, [v * 10].into_iter())
        };
        assert_eq!((up(&mut t, 42, 1), up(&mut t, 42, 2)), (0, 1));
        assert_eq!((up(&mut t, 42, 1), up(&mut t, 42, 2)), (0, 1), "hits");
        // Same partition, same low 32 bits: the tags match, the keys
        // decide.
        let far = 42 | 1 << 40;
        assert_eq!(up(&mut t, far, 3), 2);
        assert_eq!(up(&mut t, 42, 1), 0);
        // Same words, another mask: another key.
        assert_eq!(t.upsert(42, &words(1), 1, &mut 0, [0].into_iter()), 3);
        assert_eq!(t.window().side, &[10, 20, 30, 0]);
    }

    #[test]
    fn u64_probe_agrees_with_value_probe() {
        // A key read as words and the same key as values find one group.
        let mut t = table(0, 1);
        for v in 0..200u64 {
            assert_eq!(t.find(&words(v), 0), None, "pre-insert, v={v}");
            assert_eq!(t.find_values(&key(v)), None, "pre-insert, v={v}");
            t.upsert_values(&key(v), [v].into_iter());
            assert_eq!(t.find(&words(v), 0), Some(v as usize), "v={v}");
            assert_eq!(t.find_values(&key(v)), Some(v as usize), "v={v}");
        }
    }

    #[test]
    fn u64_upsert_mirrors_value_insert() {
        // Word-upserted entries are indistinguishable from
        // value-upserted ones: both probes find them, a re-upsert either
        // way hits instead of duplicating, and the key decodes to the
        // `UInt` values.
        let mut t = table(0, 1);
        let h = key_hash(&words(5), 0);
        let mut walked = 0u64;
        let e = t.upsert(h, &words(5), 0, &mut walked, [9].into_iter());
        assert_eq!(e, 0);
        assert_eq!(
            t.upsert(h, &words(5), 0, &mut walked, [0].into_iter()),
            0,
            "hit, no dup"
        );
        assert!(walked >= 1, "hit walks are tallied into the register");
        assert_eq!(t.upsert_values(&key(5), [0].into_iter()), 0);
        t.payload_mut(e).side[0] += 1;
        assert_eq!(t.find_values(&key(5)), Some(0));
        assert_eq!(t.key_values(), key(5));
        let (_, _, payloads, n) = t.take_entries();
        assert_eq!((n, payloads.as_slice()), (1, &[10u64][..]));
    }

    /// `n` two-word keys, in order, upserted as words.
    fn by_words(n: u64) -> GroupTable<u64> {
        let mut t = table(0, 1);
        let mut walked = 0;
        for v in 0..n {
            let h = key_hash(&words(v), 0);
            t.upsert(h, &words(v), 0, &mut walked, [v].into_iter());
        }
        t.add_probes(walked);
        t
    }

    /// The same keys upserted as values.
    fn by_values(n: u64) -> GroupTable<u64> {
        let mut t = table(0, 1);
        for v in 0..n {
            t.upsert_values(&key(v), [v].into_iter());
        }
        t
    }

    #[test]
    fn value_probe_finds_every_word_upserted_group() {
        let mut t = by_words(1_000);
        for v in 0..1_000u64 {
            assert_eq!(t.find_values(&key(v)), Some(v as usize), "v={v}");
        }
    }

    #[test]
    fn signed_string_and_null_keys_decode_in_order() {
        // Keys of every kind, NULLs among them: each group decodes to the
        // key it was inserted under, in insertion order, and equal
        // values find their group again.
        let kinds = vec![DataType::Int, DataType::Str, DataType::Bool];
        let mut t: GroupTable<u64> = GroupTable::new(kinds, 0, 1);
        let or_null = |null: bool, v: Value| if null { Value::Null } else { v };
        let vals = |i: i64| {
            vec![
                or_null(i % 4 == 0, Value::Int(i - 3)),
                or_null(i % 3 == 0, Value::from(["a", "b"][i as usize % 2])),
                or_null(i % 5 == 0, Value::Bool(i % 2 == 0)),
            ]
        };
        let keys: Vec<Vec<Value>> = (0..60).map(vals).collect();
        let mut want: Vec<Vec<Value>> = Vec::new();
        for k in &keys {
            let e = t.upsert_values(k, [0].into_iter());
            if e == want.len() {
                want.push(k.clone());
            }
            assert_eq!(want[e], *k);
            t.payload_mut(e).side[0] += 1;
        }
        assert_eq!(t.key_values(), want.concat());
        assert_eq!(t.window().side.iter().sum::<u64>(), 60);
        // Two key strings, interned once each.
        assert_eq!(t.window().strs.len(), 2);
        t.clear();
        assert!(t.window().strs.is_empty());
        t.upsert_values(&keys[1], [0].into_iter());
        assert_eq!(t.window().strs.len(), 1, "the pool interns afresh");
    }

    #[test]
    fn null_and_zero_keys_are_different_groups() {
        let mut t = table(0, 1);
        let zero = key(0);
        let nulls = [
            vec![Value::Null, Value::UInt(0)],
            vec![Value::UInt(0), Value::Null],
            vec![Value::Null, Value::Null],
        ];
        assert_eq!(t.upsert_values(&zero, [1].into_iter()), 0);
        for (i, k) in nulls.iter().enumerate() {
            assert_eq!(t.upsert_values(k, [0].into_iter()), i + 1, "{k:?}");
        }
        // The word path's unmasked key finds the zero key only.
        assert_eq!(t.find(&[0, 0], 0), Some(0));
        assert_eq!(t.key_values(), [zero, nulls.concat()].concat());
    }

    #[test]
    fn word_and_value_fills_drain_and_count_alike() {
        let (mut words, mut values) = (by_words(5_000), by_values(5_000));
        assert_eq!(words.probe_count(), values.probe_count());
        assert_eq!(words.insert_count(), values.insert_count());
        assert_eq!(words.slot_count(), values.slot_count());
        assert_eq!(words.window().len, 5_000);
        assert_eq!(words.keys[..6], [0, 0, 0, 1, 7, 0]);
        assert_eq!(words.take_entries(), values.take_entries());
    }

    #[test]
    fn partitions_grow_independently_and_drain_in_insertion_order() {
        // Enough keys to force growth in many partitions; the drain
        // must still come back in exact insertion order.
        let mut t = table(0, 1);
        for v in 0..5_000u64 {
            assert!(t.find_values(&key(v)).is_none());
            t.upsert_values(&key(v), [v].into_iter());
        }
        assert_eq!(t.insert_count(), 5_000);
        let arena = t.key_values();
        let (_, _, payloads, n) = t.take_entries();
        assert_eq!(n, 5_000);
        assert_eq!(payloads, (0..5_000u64).collect::<Vec<u64>>());
        for v in 0..5_000u64 {
            assert_eq!(arena[(v as usize) * 2], Value::UInt(v));
        }
    }
}
