//! Insertion-ordered, two-level hash table for per-window operator
//! state.
//!
//! The aggregation inner loop probes a value-keyed map on every tuple.
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
//! - keys live in one **global** flat arena (`arity` keys per entry)
//!   shared by all partitions, so entries stay in insertion order
//!   regardless of which partition indexes them and a hash-confirmed
//!   probe compares against contiguous memory;
//! - while every key inserted this window is all-unsigned (the network
//!   schema case), that arena is a `u64` **word arena**:
//!   [`GroupTable::upsert_u64`] probes with plain word compares and
//!   stores nothing else, and the window closes straight off the words
//!   ([`GroupTable::window`]). The `Value` arena is built from the words
//!   only when something needs values — a `Value` probe or insert, or
//!   [`GroupTable::take_entries`] — and the first non-unsigned key
//!   poisons the word arena for the window (the `Value` probe is always
//!   available and always exact);
//! - payloads live in two more flat arenas: `u64` **state words** (a
//!   fixed count per entry, all zero when the group is created) and
//!   `side` payloads for state that is not words (a fixed count per
//!   entry, often none). The per-tuple fold updates contiguous words
//!   instead of dereferencing a per-group heap `Vec`, creating a group
//!   extends the arenas in place — again no allocation per group — and
//!   a table without side payloads clears with no drop loop;
//! - entries stay in insertion order (arena append order), so closing a
//!   window reads the arenas front to back — no re-hash, no order
//!   side-vector, no clones.
//!
//! Determinism: iteration order is exactly insertion order, so operator
//! output is independent of the hash function and identical across
//! batch sizes — the property the equivalence suite pins down.
//!
//! `u64`-probe exactness: group-key equality is *structural* (`Value`'s
//! derived `PartialEq`: `UInt(5) ≠ Int(5)`), so raw word comparison is
//! exact precisely when both the stored key and the probe key are
//! all-`UInt` — which is what `ukeys_ok` tracks for the stored side and
//! the caller's lane gate guarantees for the probe side.

use qap_types::Value;

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

/// The current window's keys, in insertion order (`arity` per entry),
/// as the table stores them: words while every key is all-unsigned,
/// values otherwise.
pub(crate) enum WindowKeys<'a> {
    Words(&'a [u64]),
    Values(&'a [Value]),
}

/// The current window as stored, every arena in insertion order.
pub(crate) struct Window<'a, P> {
    pub(crate) keys: WindowKeys<'a>,
    /// The state words, the same count per entry.
    pub(crate) words: &'a [u64],
    /// The side payloads, the same count per entry.
    pub(crate) side: &'a [P],
    pub(crate) len: usize,
}

/// Hash table mapping a fixed-arity `[Value]` key to a fixed-width
/// payload — a slice of state words and a slice of side payloads `P` —
/// preserving insertion order. All keys passed to one table must share
/// the same arity (an operator's group-key width); both payload widths
/// are fixed at construction (by an operator's aggregate slots).
pub(crate) struct GroupTable<P> {
    /// First-level partitions, selected by the hash's top bits.
    parts: Vec<Partition>,
    /// Number of live entries across all partitions.
    len: usize,
    /// Flat key values: entry `e` owns `keys[e*arity .. (e+1)*arity]`.
    /// While `ukeys_ok` this covers only a prefix of the entries (those
    /// before the last word upsert); [`GroupTable::sync_keys`] extends
    /// it from the words before anything reads it.
    keys: Vec<Value>,
    /// Flat key words (entry `e` owns `ukeys[e*arity .. (e+1)*arity]`):
    /// every entry's key while `ukeys_ok`, empty otherwise.
    ukeys: Vec<u64>,
    /// Whether every key inserted since the last drain was all-`UInt`
    /// (so `ukeys` holds every key and word probes are exact).
    ukeys_ok: bool,
    /// Flat state words: entry `e` owns `words[e*words_w ..
    /// (e+1)*words_w]`, zeroed when the entry is created.
    words: Vec<u64>,
    words_w: usize,
    /// Flat side payloads: entry `e` owns `side[e*side_w ..
    /// (e+1)*side_w]`.
    side: Vec<P>,
    side_w: usize,
    /// Total slot inspections across all lookups — the collision
    /// telemetry [`crate::OpCounters`]'s companion metrics report.
    probes: u64,
    /// Groups created across the table's lifetime (not reset by
    /// [`GroupTable::clear`]).
    inserts: u64,
}

impl<P> GroupTable<P> {
    pub(crate) fn new(words_w: usize, side_w: usize) -> Self {
        GroupTable {
            parts: (0..PARTITIONS).map(|_| Partition::default()).collect(),
            len: 0,
            keys: Vec::new(),
            ukeys: Vec::new(),
            ukeys_ok: true,
            words: Vec::new(),
            words_w,
            side: Vec::new(),
            side_w,
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

    /// Whether [`GroupTable::upsert_u64`] is currently exact: every key
    /// inserted since the last drain was all-`UInt`.
    pub(crate) fn u64_keys_ok(&self) -> bool {
        self.ukeys_ok
    }

    /// Builds the `Value` arena up to the last entry from the words the
    /// word upserts left: a no-op unless a word upsert came after the
    /// last `Value` access.
    fn sync_keys(&mut self) {
        if self.ukeys_ok && self.keys.len() < self.ukeys.len() {
            let done = self.keys.len();
            self.keys
                .extend(self.ukeys[done..].iter().map(|&w| Value::UInt(w)));
        }
    }

    /// Entry index of `key`, or `None` when the group does not exist.
    #[inline]
    fn find(&mut self, hash: u64, key: &[Value]) -> Option<usize> {
        self.find_with(hash, key.len(), |k| k == key)
    }

    /// Entry index of the group whose stored key slice satisfies `eq`,
    /// or `None`. The predicate form lets callers probe against a key
    /// they never materialized (e.g. comparing column values straight
    /// out of the input tuple); `eq` must be consistent with the
    /// equality the stored keys were inserted under.
    #[inline]
    pub(crate) fn find_with(
        &mut self,
        hash: u64,
        arity: usize,
        mut eq: impl FnMut(&[Value]) -> bool,
    ) -> Option<usize> {
        self.sync_keys();
        let p = &self.parts[(hash >> PART_SHIFT) as usize];
        if p.slots.is_empty() {
            return None;
        }
        let mut i = (hash & p.mask) as usize;
        let mut inspected = 0u64;
        let found = loop {
            inspected += 1;
            let (h, e1) = p.slots[i];
            if e1 == 0 {
                break None;
            }
            if h == hash as u32 {
                let e = (e1 - 1) as usize;
                if eq(&self.keys[e * arity..(e + 1) * arity]) {
                    break Some(e);
                }
            }
            i = (i + 1) & p.mask as usize;
        };
        self.probes += inspected;
        found
    }

    /// Mutable state words and side payloads of entry `e` (an index
    /// returned by a probe or an insert).
    #[inline]
    pub(crate) fn payload_mut(&mut self, e: usize) -> (&mut [u64], &mut [P]) {
        (
            &mut self.words[e * self.words_w..(e + 1) * self.words_w],
            &mut self.side[e * self.side_w..(e + 1) * self.side_w],
        )
    }

    /// Entry index of `key`, creating the group when absent: the key
    /// drains out of the caller's scratch buffer (so the scratch keeps
    /// its capacity for the next tuple), the new entry's words start at
    /// zero and its side payloads fill from `fresh`. The single-probe
    /// hit-or-insert of the per-tuple algorithm.
    #[inline]
    pub(crate) fn get_or_insert(
        &mut self,
        hash: u64,
        key: &mut Vec<Value>,
        fresh: impl Iterator<Item = P>,
    ) -> usize {
        match self.find(hash, key) {
            Some(e) => e,
            None => self.insert_new(hash, key, fresh),
        }
    }

    /// Sizes the flat arenas the first key of a window goes into for
    /// [`FIRST_ENTRIES`] entries — the `Value` arena only when that key
    /// arrives as values — instead of letting each double its way up
    /// from four elements. Besides the eight regrowths this saves, it
    /// decides *where* the arenas live: the allocator serves a request
    /// of a few words from the thread's cache of chunks it freed last —
    /// on a central unit, chunks a session or leaf thread allocated —
    /// and every later `realloc` stays in the malloc arena that first
    /// chunk belongs to. A key arena that grew to its 800 KB there left
    /// that thread's malloc arena 2 MB larger for the rest of the
    /// process, in some runs and not in others (EXPERIMENTS.md, PR 23
    /// *Steadiness*); a block this size comes from the caller's own.
    #[cold]
    fn first_entry(&mut self, arity: usize, values: bool) {
        if values {
            self.keys.reserve(FIRST_ENTRIES * arity);
        }
        self.ukeys.reserve(FIRST_ENTRIES * arity);
        self.words.reserve(FIRST_ENTRIES * self.words_w);
        self.side.reserve(FIRST_ENTRIES * self.side_w);
    }

    /// Appends a new entry's payloads: zeroed words, side from `fresh`.
    fn push_payload(&mut self, fresh: impl Iterator<Item = P>) -> usize {
        self.words.resize(self.words.len() + self.words_w, 0);
        self.side.extend(fresh);
        debug_assert_eq!(self.side.len(), self.len * self.side_w);
        self.len - 1
    }

    /// Inserts a key known to be absent (callers probe first, e.g. via
    /// [`GroupTable::find_with`]), draining it out of the caller's
    /// scratch buffer so the scratch keeps its capacity for the next
    /// tuple, zeroing the entry's words and filling its side payloads
    /// from `fresh`. Returns the new entry's index.
    pub(crate) fn insert_new(
        &mut self,
        hash: u64,
        key: &mut Vec<Value>,
        fresh: impl Iterator<Item = P>,
    ) -> usize {
        if self.len == 0 {
            self.first_entry(key.len(), true);
        }
        self.sync_keys();
        let p = &mut self.parts[(hash >> PART_SHIFT) as usize];
        if p.len * 2 >= p.slots.len() {
            p.grow();
        }
        self.inserts += 1;
        let mut i = (hash & p.mask) as usize;
        while p.slots[i].1 != 0 {
            i = (i + 1) & p.mask as usize;
        }
        self.len += 1;
        p.len += 1;
        p.slots[i] = (hash as u32, self.len as u32);
        // Mirror the key into the word arena while it stays all-`UInt`;
        // the first other kind poisons word probes for this window.
        if self.ukeys_ok {
            for v in key.iter() {
                match v {
                    Value::UInt(x) => self.ukeys.push(*x),
                    _ => {
                        self.ukeys_ok = false;
                        self.ukeys.clear();
                        break;
                    }
                }
            }
        }
        self.keys.append(key);
        self.push_payload(fresh)
    }

    /// All-unsigned find-or-insert for the columnar fast path: the key
    /// arrives as raw words (one per lane), one probe walk serves both
    /// the lookup and — on a miss — the insert position, and the key
    /// goes into the word arena only (no `Value` is built). Returns the
    /// entry index. Callers check [`GroupTable::u64_keys_ok`] and
    /// guarantee every word is a `Value::UInt` payload, or the probe is
    /// meaningless.
    ///
    /// Probes are tallied into `counted`, a caller-held register, not
    /// directly into [`GroupTable::probes`]: a per-call
    /// read-modify-write of the field is a loop-carried dependency
    /// through memory that serializes the caller's row loop. The caller
    /// folds the tally in once per batch via [`GroupTable::add_probes`]
    /// — final counter values still match the row path's walk-by-walk
    /// accounting exactly.
    pub(crate) fn upsert_u64(
        &mut self,
        hash: u64,
        ukey: &[u64],
        counted: &mut u64,
        fresh: impl Iterator<Item = P>,
    ) -> usize {
        debug_assert!(self.ukeys_ok, "caller checks u64_keys_ok");
        let arity = ukey.len();
        let pi = (hash >> PART_SHIFT) as usize;
        // Probe walk, counted exactly like `find_with`'s — row- and
        // column-pushed streams must report identical probe telemetry —
        // landing on the empty slot the insert will fill on a miss.
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
                    let cand = &self.ukeys[e * arity..(e + 1) * arity];
                    if cand.iter().zip(ukey).all(|(a, b)| a == b) {
                        *counted += inspected;
                        return e;
                    }
                }
                i = (i + 1) & p.mask as usize;
            }
            *counted += inspected;
        }
        if self.len == 0 {
            self.first_entry(arity, false);
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
        self.ukeys.extend_from_slice(ukey);
        self.push_payload(fresh)
    }

    /// Folds a batch's probe tally (accumulated across
    /// [`GroupTable::upsert_u64`] calls) into the probe counter.
    #[inline]
    pub(crate) fn add_probes(&mut self, counted: u64) {
        self.probes += counted;
    }

    /// The current window as stored, for the caller to close before
    /// [`GroupTable::clear`]. Word keys are handed over as words: no
    /// `Value` arena is built to close a window.
    pub(crate) fn window(&self) -> Window<'_, P> {
        Window {
            keys: if self.ukeys_ok {
                WindowKeys::Words(&self.ukeys)
            } else {
                WindowKeys::Values(&self.keys)
            },
            words: &self.words,
            side: &self.side,
            len: self.len,
        }
    }

    /// Empties the table for the next window: arenas and slot storage
    /// keep their capacity, word probes re-arm.
    pub(crate) fn clear(&mut self) {
        for p in &mut self.parts {
            p.slots.fill((0, 0));
            p.len = 0;
        }
        self.len = 0;
        self.keys.clear();
        self.ukeys.clear();
        self.ukeys_ok = true;
        self.words.clear();
        self.side.clear();
    }

    /// Takes every entry in insertion order — the flat key arena as
    /// values (`arity` per entry), the word and side arenas and the
    /// entry count — and empties the table.
    pub(crate) fn take_entries(&mut self) -> (Vec<Value>, Vec<u64>, Vec<P>, usize) {
        self.sync_keys();
        let n = self.len;
        let keys = std::mem::take(&mut self.keys);
        let words = std::mem::take(&mut self.words);
        let side = std::mem::take(&mut self.side);
        self.clear();
        (keys, words, side, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fx::hash_values;

    /// Probe-only forms of the table's walks, for the tests.
    impl<P> GroupTable<P> {
        /// Entry index of the group whose key words equal `ukey` — the
        /// non-mutating form of [`GroupTable::upsert_u64`]'s probe walk,
        /// kept as a test oracle for word/value probe agreement.
        fn find_u64(&self, hash: u64, ukey: &[u64]) -> Option<usize> {
            debug_assert!(self.ukeys_ok, "caller checks u64_keys_ok");
            let arity = ukey.len();
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
                if h == hash as u32 {
                    let e = (e1 - 1) as usize;
                    if self.ukeys[e * arity..(e + 1) * arity] == *ukey {
                        return Some(e);
                    }
                }
                i = (i + 1) & p.mask as usize;
            }
        }

        /// Mutable side payloads of `key` (pre-hashed with
        /// [`crate::fx::hash_values`]), or `None` when the group does not
        /// exist yet. The hot path goes through
        /// [`GroupTable::get_or_insert`]; this probe-only form backs the
        /// unit tests.
        fn get_mut(&mut self, hash: u64, key: &[Value]) -> Option<&mut [P]> {
            let e = self.find(hash, key)?;
            Some(self.payload_mut(e).1)
        }
    }

    fn key(v: u64) -> Vec<Value> {
        vec![Value::UInt(v), Value::UInt(v.wrapping_mul(7))]
    }

    #[test]
    fn insert_probe_drain_in_order() {
        // Width-2 side payloads: [v, 0] at insert, second slot bumped on
        // every probe; one state word, zero at insert, set to `v + 1`.
        let mut t: GroupTable<u64> = GroupTable::new(1, 2);
        for v in 0..100u64 {
            let mut k = key(v);
            let h = hash_values(&k);
            assert!(t.get_mut(h, &k).is_none());
            let e = t.insert_new(h, &mut k, [v, 0].into_iter());
            let (words, side) = t.payload_mut(e);
            assert_eq!((&*words, &*side), (&[0][..], &[v, 0][..]));
            words[0] = v + 1;
            assert!(k.is_empty(), "insert drains the scratch key");
        }
        for v in 0..100u64 {
            let k = key(v);
            let h = hash_values(&k);
            t.get_mut(h, &k).expect("present")[1] += 1;
        }
        let (arena, words, payloads, n) = t.take_entries();
        assert_eq!(n, 100);
        assert_eq!(words, (1..=100u64).collect::<Vec<u64>>());
        assert_eq!(
            payloads,
            (0..100u64).flat_map(|v| [v, 1]).collect::<Vec<u64>>()
        );
        assert_eq!(arena[6..8], key(3)[..]);
        assert_eq!(arena.len(), 200);
        assert!(t.is_empty());
        // Reusable after a drain.
        let mut k = key(7);
        let h = hash_values(&k);
        assert!(t.get_mut(h, &k).is_none());
        t.insert_new(h, &mut k, [1, 1].into_iter());
        assert_eq!(t.get_mut(h, &key(7)), Some(&mut [1u64, 1][..]));
    }

    #[test]
    fn first_insert_sizes_the_arenas_on_both_paths() {
        // One entry in, room for FIRST_ENTRIES: no arena ever holds a
        // block small enough to have come out of another thread's heap.
        // The word path builds no `Value` arena at all.
        let sized = |t: &GroupTable<u64>, values: bool| {
            assert_eq!(t.keys.capacity() >= FIRST_ENTRIES * 2, values);
            assert!(t.ukeys.capacity() >= FIRST_ENTRIES * 2);
            assert!(t.words.capacity() >= FIRST_ENTRIES * 5);
            assert!(t.side.capacity() >= FIRST_ENTRIES * 3);
        };
        let mut by_value: GroupTable<u64> = GroupTable::new(5, 3);
        let mut k = key(1);
        let h = hash_values(&k);
        by_value.insert_new(h, &mut k, [0, 0, 0].into_iter());
        sized(&by_value, true);

        let mut by_word: GroupTable<u64> = GroupTable::new(5, 3);
        by_word.upsert_u64(h, &[1, 7], &mut 0, [0, 0, 0].into_iter());
        sized(&by_word, false);
        // A closed window keeps what it had.
        by_word.clear();
        by_word.upsert_u64(h, &[1, 7], &mut 0, [0, 0, 0].into_iter());
        sized(&by_word, false);
    }

    #[test]
    fn zero_width_payloads_count_entries() {
        // DISTINCT-style use: groups with no aggregate slots.
        let mut t: GroupTable<u64> = GroupTable::new(0, 0);
        for v in 0..10u64 {
            let mut k = key(v);
            let h = hash_values(&k);
            if t.get_mut(h, &k).is_none() {
                t.insert_new(h, &mut k, std::iter::empty());
            }
        }
        let (arena, words, payloads, n) = t.take_entries();
        assert_eq!(n, 10);
        assert!(words.is_empty() && payloads.is_empty());
        assert_eq!(arena.len(), 20);
    }

    #[test]
    fn colliding_hashes_resolve_by_key() {
        // Force identical hashes: linear probing must fall through to
        // the key comparison and keep both entries reachable.
        let mut t: GroupTable<u64> = GroupTable::new(0, 1);
        let (mut a, mut b) = (key(1), key(2));
        t.insert_new(42, &mut a, [10].into_iter());
        t.insert_new(42, &mut b, [20].into_iter());
        assert_eq!(t.get_mut(42, &key(1)), Some(&mut [10u64][..]));
        assert_eq!(t.get_mut(42, &key(2)), Some(&mut [20u64][..]));
        assert!(t.get_mut(42, &key(3)).is_none());
        // Same partition, same low 32 bits: the tags match, the keys
        // decide.
        let mut c = key(3);
        let far = 42 | 1 << 40;
        t.insert_new(far, &mut c, [30].into_iter());
        assert_eq!(t.get_mut(far, &key(3)), Some(&mut [30u64][..]));
        assert_eq!(t.get_mut(42, &key(1)), Some(&mut [10u64][..]));
    }

    #[test]
    fn u64_probe_agrees_with_value_probe() {
        let mut t: GroupTable<u64> = GroupTable::new(0, 1);
        for v in 0..200u64 {
            let mut k = key(v);
            let h = hash_values(&k);
            assert!(t.u64_keys_ok());
            assert_eq!(
                t.find_u64(h, &[v, v.wrapping_mul(7)]),
                t.find_with(h, 2, |s| s == k.as_slice()),
                "pre-insert probe, v={v}"
            );
            t.insert_new(h, &mut k, [v].into_iter());
            assert_eq!(
                t.find_u64(h, &[v, v.wrapping_mul(7)]),
                Some(v as usize),
                "post-insert probe, v={v}"
            );
        }
    }

    #[test]
    fn u64_upsert_mirrors_value_insert() {
        // Word-upserted entries must be indistinguishable from
        // value-inserted ones: both probes find them, a re-upsert hits
        // instead of duplicating, and the drained key arena holds real
        // `UInt` values.
        let mut t: GroupTable<u64> = GroupTable::new(0, 1);
        let words = [5u64, 35];
        let k = key(5);
        let h = hash_values(&k);
        let mut walked = 0u64;
        let e = t.upsert_u64(h, &words, &mut walked, [9].into_iter());
        assert_eq!(e, 0);
        assert_eq!(
            t.upsert_u64(h, &words, &mut walked, [0].into_iter()),
            0,
            "hit, no dup"
        );
        assert!(walked >= 1, "hit walks are tallied into the register");
        assert!(t.keys.is_empty(), "word upserts build no values");
        t.payload_mut(e).1[0] += 1;
        assert_eq!(t.find_u64(h, &words), Some(0));
        assert_eq!(t.find_with(h, 2, |s| s == k.as_slice()), Some(0));
        let (arena, _, payloads, n) = t.take_entries();
        assert_eq!((n, payloads.as_slice()), (1, &[10u64][..]));
        assert_eq!(arena, k);
    }

    /// `n` two-word keys, in order, upserted as words.
    fn by_words(n: u64) -> GroupTable<u64> {
        let mut t: GroupTable<u64> = GroupTable::new(0, 1);
        let mut walked = 0;
        for v in 0..n {
            let h = hash_values(&key(v));
            t.upsert_u64(h, &[v, v.wrapping_mul(7)], &mut walked, [v].into_iter());
        }
        t.add_probes(walked);
        t
    }

    /// The same keys inserted as values, each probed first.
    fn by_values(n: u64) -> GroupTable<u64> {
        let mut t: GroupTable<u64> = GroupTable::new(0, 1);
        for v in 0..n {
            let mut k = key(v);
            let h = hash_values(&k);
            t.get_or_insert(h, &mut k, [v].into_iter());
        }
        t
    }

    #[test]
    fn value_probe_finds_every_word_upserted_group() {
        let mut t = by_words(1_000);
        assert!(t.keys.is_empty());
        for v in 0..1_000u64 {
            let k = key(v);
            assert_eq!(
                t.find_with(hash_values(&k), 2, |s| s == k.as_slice()),
                Some(v as usize),
                "v={v}"
            );
        }
        assert_eq!(t.keys.len(), 2_000, "the first probe built every value");
        assert!(t.u64_keys_ok(), "probing values leaves words exact");
    }

    #[test]
    fn mid_window_signed_key_materializes_words_in_order() {
        // No `Value` probe first: the insert itself builds the values.
        let mut t = by_words(300);
        let mut signed = vec![Value::UInt(1), Value::Int(-1)];
        t.insert_new(hash_values(&signed), &mut signed, [7].into_iter());
        assert!(!t.u64_keys_ok(), "the signed key poisons word probes");
        let Window {
            keys: WindowKeys::Values(keys),
            side: payloads,
            len: 301,
            ..
        } = t.window()
        else {
            panic!("a poisoned window hands over its 301 values");
        };
        let mut want: Vec<Value> = (0..300u64).flat_map(key).collect();
        want.extend([Value::UInt(1), Value::Int(-1)]);
        assert_eq!(keys, want.as_slice());
        assert_eq!(payloads[300], 7);
        t.clear();
        assert!(t.u64_keys_ok(), "closing the window re-arms word probes");
    }

    #[test]
    fn word_and_value_fills_drain_and_count_alike() {
        let (mut words, mut values) = (by_words(5_000), by_values(5_000));
        assert_eq!(words.probe_count(), values.probe_count());
        assert_eq!(words.insert_count(), values.insert_count());
        assert_eq!(words.slot_count(), values.slot_count());
        match words.window() {
            Window {
                keys: WindowKeys::Words(w),
                len: 5_000,
                ..
            } => {
                assert_eq!(w[..4], [0, 0, 1, 7]);
            }
            _ => panic!("an all-unsigned window hands over words"),
        }
        assert_eq!(words.take_entries(), values.take_entries());
    }

    #[test]
    fn non_uint_key_poisons_u64_probe_until_drain() {
        let mut t: GroupTable<u64> = GroupTable::new(0, 1);
        let mut k = key(3);
        t.insert_new(hash_values(&k), &mut k, [1].into_iter());
        assert!(t.u64_keys_ok());
        let mut mixed = vec![Value::UInt(5), Value::Int(5)];
        t.insert_new(hash_values(&mixed), &mut mixed, [2].into_iter());
        assert!(!t.u64_keys_ok(), "Int key poisons word probes");
        // The Value probe still distinguishes UInt(5) from Int(5)
        // structurally.
        let probe = vec![Value::UInt(5), Value::UInt(5)];
        assert!(t
            .find_with(hash_values(&probe), 2, |s| s == probe.as_slice())
            .is_none());
        t.clear();
        assert!(t.u64_keys_ok(), "drain re-arms word probes");
    }

    #[test]
    fn partitions_grow_independently_and_drain_in_insertion_order() {
        // Enough keys to force growth in many partitions; the drain
        // must still come back in exact insertion order.
        let mut t: GroupTable<u64> = GroupTable::new(0, 1);
        for v in 0..5_000u64 {
            let mut k = key(v);
            let h = hash_values(&k);
            assert!(t.find(h, &k).is_none());
            t.insert_new(h, &mut k, [v].into_iter());
        }
        assert_eq!(t.insert_count(), 5_000);
        let (arena, _, payloads, n) = t.take_entries();
        assert_eq!(n, 5_000);
        assert_eq!(payloads, (0..5_000u64).collect::<Vec<u64>>());
        for v in 0..5_000u64 {
            assert_eq!(arena[(v as usize) * 2], Value::UInt(v));
        }
    }
}
