//! Thread-safe GPU hash structures (Section IV-C, Figure 5).
//!
//! Two structures are provided:
//!
//! * [`GpuHashTable`] — the *global* result table with the exact layout of
//!   Figure 5: a `locks` buffer and an `entries` buffer per bucket, plus
//!   `keys`, `values` and `next` buffers for chained slots.  Inserts follow
//!   the flow chart of Figure 8: look up the chain, atomically add when the
//!   key exists, otherwise take the bucket lock, re-check, append a new slot
//!   and link it.  When a lock cannot be taken the insert reports failure and
//!   the caller retries in the next round (on the simulator locks are always
//!   free, but the code path and the accounting are preserved).
//! * [`local_table`] — the *private* per-rule tables that live inside the
//!   G-TADOC memory pool ([`crate::mempool`]).  As the paper notes, a table
//!   owned by a single thread needs no locks, so these are compact
//!   open-addressing tables laid out directly in a pool region.
//!
//! ## Sizing contract of the local tables
//!
//! Capacity is guaranteed by the *consumer*, never grown by the table:
//!
//! * `words_required(max_keys)` returns the exact region length for a table
//!   that can always hold `max_keys` distinct keys (2× slots for the load
//!   factor, rounded up to a whole tag group).  The bounds come from the
//!   initialization phase (`genLocTblBoundKernel`, one bound per rule).
//! * `words_required(0) == 0`: a rule with no keys gets a zero-length
//!   region.  Zero-capacity tables are **legal no-ops** for `init`, `iter`,
//!   `len` and `get`; only `insert_add` panics, since an insert proves the
//!   bound was wrong.
//! * A full table fails fast: the probe loop counts wrapped groups and
//!   panics with the table's capacity, length and the offending key instead
//!   of spinning forever.  Well-sized tables never take that path — the
//!   probe always terminates at an empty lane first (the tables never
//!   delete, so groups only ever fill up).

use arena::mix64;
use gpu_sim::ThreadCtx;

const EMPTY_SLOT: i64 = -1;

/// The global thread-safe hash table of Figure 5.
#[derive(Debug, Clone)]
pub struct GpuHashTable {
    /// Per-bucket lock words (1 = locked, 0 = unlocked).
    pub locks: Vec<u32>,
    /// Per-bucket head slot index (-1 = empty).
    pub entries: Vec<i64>,
    /// Slot keys.
    pub keys: Vec<u64>,
    /// Slot values.
    pub values: Vec<u64>,
    /// Slot chain links (-1 = end of chain).
    pub next: Vec<i64>,
    slots_used: usize,
}

impl GpuHashTable {
    /// Creates a table able to hold `max_keys` distinct keys, with
    /// `load_factor` buckets per expected key.
    pub fn with_capacity(max_keys: usize, load_factor: f64) -> Self {
        let max_keys = max_keys.max(1);
        let buckets = ((max_keys as f64 * load_factor).ceil() as usize).next_power_of_two();
        Self {
            locks: vec![0; buckets],
            entries: vec![EMPTY_SLOT; buckets],
            keys: vec![0; max_keys],
            values: vec![0; max_keys],
            next: vec![EMPTY_SLOT; max_keys],
            slots_used: 0,
        }
    }

    /// Number of distinct keys stored.
    pub fn len(&self) -> usize {
        self.slots_used
    }

    /// Returns `true` if the table holds no keys.
    pub fn is_empty(&self) -> bool {
        self.slots_used == 0
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.entries.len()
    }

    /// Device-memory footprint in bytes (all five buffers).
    pub fn size_bytes(&self) -> u64 {
        (self.locks.len() * 4
            + self.entries.len() * 8
            + self.keys.len() * 8
            + self.values.len() * 8
            + self.next.len() * 8) as u64
    }

    #[inline]
    fn bucket_of(&self, key: u64) -> usize {
        (mix64(key) as usize) & (self.entries.len() - 1)
    }

    /// Inserts `key` with `value`, adding to the existing value if the key is
    /// present, following the Figure 8 flow and accounting every access on
    /// `ctx`.  Returns `false` when the bucket lock could not be taken (the
    /// caller must retry in the next traversal round).
    pub fn insert_add(&mut self, key: u64, value: u64, ctx: &mut ThreadCtx) -> bool {
        let bucket = self.bucket_of(key);
        ctx.compute(4);
        ctx.global_read(8);

        // Walk the chain looking for the key.
        let mut slot = self.entries[bucket];
        while slot != EMPTY_SLOT {
            ctx.global_read(16);
            if self.keys[slot as usize] == key {
                // Key exists: a plain atomic add suffices, no lock needed.
                self.values[slot as usize] += value;
                ctx.atomic_rmw(0x1_0000_0000 | slot as u64);
                return true;
            }
            slot = self.next[slot as usize];
        }

        // Key absent: take the bucket lock (atomicCAS 0 → 1).
        ctx.atomic_rmw(0x2_0000_0000 | bucket as u64);
        if self.locks[bucket] != 0 {
            // Lock held by another thread: give up, retry next round.
            return false;
        }
        self.locks[bucket] = 1;

        // Re-check under the lock (another thread may have inserted the key
        // between the scan and the lock acquisition).
        let mut slot = self.entries[bucket];
        let mut tail = EMPTY_SLOT;
        while slot != EMPTY_SLOT {
            ctx.global_read(16);
            if self.keys[slot as usize] == key {
                self.values[slot as usize] += value;
                ctx.atomic_rmw(0x1_0000_0000 | slot as u64);
                self.locks[bucket] = 0;
                ctx.global_write(4);
                return true;
            }
            tail = slot;
            slot = self.next[slot as usize];
        }

        // Obtain a new slot and link it, as in Figure 5 (d).
        assert!(
            self.slots_used < self.keys.len(),
            "GpuHashTable capacity exceeded ({} slots)",
            self.keys.len()
        );
        let new_slot = self.slots_used as i64;
        self.slots_used += 1;
        self.keys[new_slot as usize] = key;
        self.values[new_slot as usize] = value;
        self.next[new_slot as usize] = EMPTY_SLOT;
        ctx.global_write(24);
        if tail == EMPTY_SLOT {
            self.entries[bucket] = new_slot;
        } else {
            self.next[tail as usize] = new_slot;
        }
        ctx.global_write(8);

        // Unlock.
        self.locks[bucket] = 0;
        ctx.global_write(4);
        true
    }

    /// Host-side insert used by tests and result extraction (no accounting).
    pub fn insert_add_host(&mut self, key: u64, value: u64) {
        let mut ctx = host_ctx();
        let ok = self.insert_add(key, value, &mut ctx);
        debug_assert!(ok);
    }

    /// Looks up the value stored for `key`.
    pub fn get(&self, key: u64) -> Option<u64> {
        if self.entries.is_empty() {
            return None;
        }
        let bucket = self.bucket_of(key);
        let mut slot = self.entries[bucket];
        while slot != EMPTY_SLOT {
            if self.keys[slot as usize] == key {
                return Some(self.values[slot as usize]);
            }
            slot = self.next[slot as usize];
        }
        None
    }

    /// Iterates over all `(key, value)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0..self.slots_used).map(|i| (self.keys[i], self.values[i]))
    }
}

/// Creates a throw-away [`ThreadCtx`] for host-side operations (result
/// extraction and tests); its accounting is discarded.
pub fn host_ctx() -> ThreadCtx {
    ThreadCtx::detached()
}

/// Operations on a private `u32 → u32` table stored inside a pool region.
///
/// Swiss-table-style group probing: every slot owns a 1-byte control *tag*
/// — `0` for empty, or `0x80 | top-7-hash-bits` for occupied — packed into
/// `u32` words ahead of the key/value arrays.  A probe hashes the key with
/// [`mix64`], picks a 16-slot *group* with a widening-multiply range
/// reduction over the full 64-bit hash, and compares all 16 tags of the
/// group at once with an exact branch-free `u64` SWAR test; candidate lanes
/// are then confirmed against the key array.  Iteration walks the tag words
/// and skips empty groups in one 16-lane test each.
///
/// Region layout (in `u32` words):
/// `[capacity, len, tags (capacity/4), keys (capacity), values (capacity)]`,
/// capacity a multiple of 16 (or 0).  See the module docs for the sizing
/// contract.
pub mod local_table {
    use arena::mix64;

    /// Fixed header length in words (capacity, size).
    const HEADER: usize = 2;
    /// Slots scanned per probe step (two `u64` SWAR halves).
    const GROUP: usize = 16;
    /// Tag words per group (4 tag bytes per `u32`).
    const GROUP_TAG_WORDS: usize = GROUP / 4;
    /// Control tag of an empty slot.
    const EMPTY_TAG: u8 = 0;

    /// Control tag of an occupied slot: the top 7 hash bits with the high
    /// bit forced so a stored tag can never equal [`EMPTY_TAG`].
    #[inline]
    fn tag_of(hash: u64) -> u8 {
        0x80 | (hash >> 57) as u8
    }

    /// Home group for `hash` among `num_groups` groups: a widening-multiply
    /// range reduction over the full 64-bit hash — no modulo in the hot
    /// path, and the high hash bits participate instead of being discarded.
    #[inline]
    fn group_of(hash: u64, num_groups: u32) -> u32 {
        (((hash as u128) * (num_groups as u128)) >> 64) as u32
    }

    const SWAR_LO: u64 = 0x0101_0101_0101_0101;
    const SWAR_HI: u64 = 0x8080_8080_8080_8080;

    /// Exact per-byte equality on 8 packed tags: returns an 8-bit lane mask
    /// of the bytes of `v` equal to `b`.  Uses the carry-free
    /// `((x & 0x7f…) + 0x7f…) | x` zero-byte test (no false positives, no
    /// cross-byte borrows), then compresses the per-byte high bits into a
    /// dense mask with a multiply.
    #[inline]
    fn swar_eq8(v: u64, b: u8) -> u32 {
        let x = v ^ (SWAR_LO.wrapping_mul(b as u64));
        let zero = !(((x & !SWAR_HI).wrapping_add(!SWAR_HI)) | x) & SWAR_HI;
        // Gather the per-byte high bits into a dense 8-bit mask: with the
        // match bits at positions 8i, the 0x0102…4080 multiplier places bit
        // i at position 56+i, and no two partial products ever collide.
        ((zero >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56) as u32
    }

    /// 16-lane tag comparison: bit `i` of the result = `tag(slot i) == b`
    /// for the slots of `group`.
    #[inline]
    fn eq_mask(tags: &[u32], group: usize, b: u8) -> u32 {
        let base = group * GROUP_TAG_WORDS;
        let lo = tags[base] as u64 | (tags[base + 1] as u64) << 32;
        let hi = tags[base + 2] as u64 | (tags[base + 3] as u64) << 32;
        swar_eq8(lo, b) | swar_eq8(hi, b) << 8
    }

    /// Writes the control tag of `slot`.
    #[inline]
    fn set_tag(tags: &mut [u32], slot: usize, tag: u8) {
        let shift = 8 * (slot % 4);
        let word = &mut tags[slot / 4];
        *word = (*word & !(0xFFu32 << shift)) | (tag as u32) << shift;
    }

    /// Number of `u32` words a table for `max_keys` distinct keys requires:
    /// 2× slots for the load factor, rounded up to whole groups; 0 for 0
    /// keys.
    ///
    /// # Panics
    /// Panics if the region would exceed the 4G-word addressing limit.  (A
    /// real check, not a debug one: silently truncating here would surface
    /// later as a bogus "bound violated" overflow panic.)
    pub fn words_required(max_keys: u32) -> u32 {
        if max_keys == 0 {
            return 0;
        }
        let slots = (2 * max_keys as u64).div_ceil(GROUP as u64) * GROUP as u64;
        let words = HEADER as u64 + slots / 4 + slots * 2;
        assert!(
            words <= u32::MAX as u64,
            "table for {max_keys} keys needs {words} words, over the 4G-word \
             pool limit; shard the dataset"
        );
        words as u32
    }

    /// Initialises a region as an empty table, deriving the capacity from
    /// the region length (the inverse of [`words_required`], rounded down
    /// to whole groups).  Zero-length and under-sized regions become legal
    /// zero-capacity tables.
    pub fn init(region: &mut [u32]) {
        if region.is_empty() {
            return;
        }
        // words = 2 + cap/4 + 2*cap  =>  cap = (words-2)*4 / 9
        let cap = region.len().saturating_sub(HEADER) * 4 / 9 / GROUP * GROUP;
        region[0] = cap as u32;
        if let Some(len) = region.get_mut(1) {
            *len = 0;
        }
        // Only the control tags need clearing: keys and values are written
        // before they are ever read (`insert_add` stores, not adds, on the
        // first touch of a slot).
        if cap > 0 {
            region[HEADER..HEADER + cap / 4].fill(0);
        }
    }

    /// Capacity in slots (0 for empty/under-sized regions).
    #[inline]
    fn capacity(region: &[u32]) -> usize {
        if region.len() > HEADER {
            region[0] as usize
        } else {
            0
        }
    }

    /// Number of distinct keys stored.
    #[inline]
    pub fn len(region: &[u32]) -> u32 {
        if region.len() > HEADER {
            region[1]
        } else {
            0
        }
    }

    /// Where a probe for a key ended.
    enum Probe {
        /// The key is stored in this slot.
        Found(usize),
        /// The key is absent: the first empty slot on its probe path, and
        /// the control tag an insert must store there.
        Vacant(usize, u8),
        /// The key is absent and the probe wrapped the whole table.
        Full,
    }

    /// Probes for `key` over the `tags` / `keys` arrays of a table with at
    /// least one group.
    fn probe(tags: &[u32], keys: &[u32], key: u32) -> Probe {
        let num_groups = keys.len() / GROUP;
        let hash = mix64(key as u64);
        let tag = tag_of(hash);
        let mut g = group_of(hash, num_groups as u32) as usize;
        // Wrapped-probe detection: a well-sized table terminates at an
        // empty lane long before `num_groups` steps.
        for _ in 0..num_groups {
            let mut eq = eq_mask(tags, g, tag);
            while eq != 0 {
                let slot = g * GROUP + eq.trailing_zeros() as usize;
                if keys[slot] == key {
                    return Probe::Found(slot);
                }
                eq &= eq - 1;
            }
            let empty = eq_mask(tags, g, EMPTY_TAG);
            if empty != 0 {
                return Probe::Vacant(g * GROUP + empty.trailing_zeros() as usize, tag);
            }
            g += 1;
            if g == num_groups {
                g = 0;
            }
        }
        Probe::Full
    }

    /// Adds `count` to `key`'s entry (inserting it if absent).
    ///
    /// # Panics
    /// Panics, naming capacity, length and key, if the table has zero
    /// capacity or the probe wraps the whole table (table full) — the
    /// bounds computed during the initialization phase
    /// (`genLocTblBoundKernel`) guarantee neither can happen for well-formed
    /// inputs.
    pub fn insert_add(region: &mut [u32], key: u32, count: u32) {
        let cap = capacity(region);
        assert!(
            cap > 0,
            "insert into zero-capacity table (key {key}): the consumer sized \
             this region for 0 keys"
        );
        let (header, body) = region.split_at_mut(HEADER);
        let (tags, rest) = body.split_at_mut(cap / 4);
        let (keys, values) = rest.split_at_mut(cap);
        match probe(tags, keys, key) {
            Probe::Found(slot) => values[slot] += count,
            Probe::Vacant(slot, tag) => {
                set_tag(tags, slot, tag);
                keys[slot] = key;
                values[slot] = count;
                header[1] += 1;
            }
            Probe::Full => panic!(
                "table overflow inserting key {key}: capacity {cap} slots, {} keys \
                 stored (the consumer's distinct-key bound was violated)",
                header[1]
            ),
        }
    }

    /// Looks up the count stored for `key`.
    pub fn get(region: &[u32], key: u32) -> Option<u32> {
        let cap = capacity(region);
        if cap == 0 {
            return None;
        }
        let (tags, rest) = region[HEADER..].split_at(cap / 4);
        let (keys, values) = rest.split_at(cap);
        match probe(tags, keys, key) {
            Probe::Found(slot) => Some(values[slot]),
            Probe::Vacant(..) | Probe::Full => None,
        }
    }

    /// Iterates over `(key, count)` pairs in slot order, skipping empty
    /// groups with one 16-lane tag test each: scanning a sparsely filled
    /// table costs `O(capacity / 16)` word reads, not a full key sweep.
    pub fn iter(region: &[u32]) -> impl Iterator<Item = (u32, u32)> + '_ {
        let cap = capacity(region);
        let (tags, rest) = region.get(HEADER..).unwrap_or(&[]).split_at(cap / 4);
        (0..cap / GROUP).flat_map(move |g| {
            let mut occ = !eq_mask(tags, g, EMPTY_TAG) & 0xFFFF;
            std::iter::from_fn(move || {
                if occ == 0 {
                    return None;
                }
                let slot = g * GROUP + occ.trailing_zeros() as usize;
                occ &= occ - 1;
                Some((rest[slot], rest[cap + slot]))
            })
        })
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn round_trip() {
            let mut region = vec![0u32; words_required(8) as usize];
            init(&mut region);
            insert_add(&mut region, 5, 2);
            insert_add(&mut region, 9, 1);
            insert_add(&mut region, 5, 3);
            assert_eq!(get(&region, 5), Some(5));
            assert_eq!(get(&region, 9), Some(1));
            assert_eq!(get(&region, 7), None);
            assert_eq!(len(&region), 2);
            let mut pairs: Vec<(u32, u32)> = iter(&region).collect();
            pairs.sort_unstable();
            assert_eq!(pairs, vec![(5, 5), (9, 1)]);
        }

        #[test]
        fn capacity_bound_is_honoured() {
            // words_required(n) must always fit n distinct keys.
            let mut region = vec![0u32; words_required(32) as usize];
            init(&mut region);
            for k in 0..32u32 {
                insert_add(&mut region, 1000 + k, k + 1);
            }
            assert_eq!(len(&region), 32);
            for k in 0..32u32 {
                assert_eq!(get(&region, 1000 + k), Some(k + 1));
            }
        }

        /// Fills a table to its *entire* slot capacity (beyond the nominal
        /// 2× load-factor bound): every slot must be usable and lookups must
        /// stay correct at 100% fill.
        #[test]
        fn exactly_full_table_still_works() {
            let mut region = vec![0u32; words_required(24) as usize];
            init(&mut region);
            let cap = region[0];
            assert!(cap >= 48);
            for k in 0..cap {
                insert_add(&mut region, k * 31 + 7, k + 1);
            }
            assert_eq!(len(&region), cap);
            for k in 0..cap {
                assert_eq!(get(&region, k * 31 + 7), Some(k + 1));
            }
            assert_eq!(get(&region, 1), None, "absent key on a full table");
            assert_eq!(iter(&region).count(), cap as usize);
        }

        #[test]
        fn zero_capacity_tables_are_legal_no_ops() {
            assert_eq!(words_required(0), 0);
            // Zero-length, header-only and under-one-group regions alike.
            for words in [0usize, 1, 2, 20] {
                let mut region = vec![0u32; words];
                init(&mut region);
                assert_eq!(len(&region), 0, "{words} words");
                assert_eq!(iter(&region).count(), 0, "{words} words");
                assert_eq!(get(&region, 7), None, "{words} words");
            }
        }

        #[test]
        #[should_panic(expected = "insert into zero-capacity table (key 1)")]
        fn zero_capacity_insert_panics_with_context() {
            let mut region: Vec<u32> = Vec::new();
            init(&mut region);
            insert_add(&mut region, 1, 1);
        }

        #[test]
        fn overflow_panics_with_context() {
            let err = std::panic::catch_unwind(|| {
                let mut region = vec![0u32; words_required(8) as usize];
                init(&mut region);
                let cap = region[0];
                for k in 0..=cap {
                    insert_add(&mut region, k * 31 + 7, 1);
                }
            })
            .expect_err("overfilling must panic, not spin");
            let msg = err
                .downcast_ref::<String>()
                .expect("formatted panic message");
            // 8 keys → 16 slots; the 17th distinct key is 16 * 31 + 7.
            assert_eq!(
                msg,
                "table overflow inserting key 503: capacity 16 slots, 16 keys stored \
                 (the consumer's distinct-key bound was violated)"
            );
        }

        #[test]
        #[should_panic(expected = "over the 4G-word pool limit")]
        fn over_4g_word_table_is_rejected() {
            words_required(u32::MAX);
        }

        #[test]
        fn swar_group_scan_is_exact() {
            // One group of 16 tags with repeats, empties and high-bit values.
            let bytes: [u8; 16] = [
                0x80, 0x00, 0xA5, 0xFF, 0x80, 0x00, 0x91, 0xA5, 0x00, 0x80, 0xFF, 0xC3, 0x00, 0x00,
                0xA5, 0x80,
            ];
            let mut tags = [0u32; GROUP_TAG_WORDS];
            for (slot, &b) in bytes.iter().enumerate() {
                set_tag(&mut tags, slot, b);
            }
            for needle in [0x00u8, 0x80, 0xA5, 0xFF, 0x91, 0xC3, 0x81] {
                let expected: u32 = bytes
                    .iter()
                    .enumerate()
                    .filter(|&(_, &b)| b == needle)
                    .map(|(i, _)| 1u32 << i)
                    .sum();
                assert_eq!(eq_mask(&tags, 0, needle), expected, "{needle:#x}");
            }
        }

        #[test]
        fn tags_are_never_empty_and_groups_in_range() {
            for k in 0..10_000u64 {
                let h = mix64(k);
                assert_ne!(tag_of(h), EMPTY_TAG);
                assert!(group_of(h, 7) < 7);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_and_accumulate() {
        let mut table = GpuHashTable::with_capacity(100, 2.0);
        let mut ctx = host_ctx();
        assert!(table.insert_add(126, 1, &mut ctx));
        assert!(table.insert_add(163, 1, &mut ctx));
        assert!(table.insert_add(78, 1, &mut ctx));
        assert!(table.insert_add(126, 5, &mut ctx));
        assert_eq!(table.get(126), Some(6));
        assert_eq!(table.get(163), Some(1));
        assert_eq!(table.get(78), Some(1));
        assert_eq!(table.get(999), None);
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn chains_handle_many_colliding_keys() {
        // A small bucket count forces chaining, exercising the `next` buffer
        // exactly as in Figure 5 (d).
        let mut table = GpuHashTable::with_capacity(64, 0.1);
        for k in 0..64u64 {
            table.insert_add_host(k, k + 1);
        }
        assert_eq!(table.len(), 64);
        for k in 0..64u64 {
            assert_eq!(table.get(k), Some(k + 1), "key {k}");
        }
    }

    #[test]
    fn iteration_returns_every_pair_once() {
        let mut table = GpuHashTable::with_capacity(32, 2.0);
        for k in 0..20u64 {
            table.insert_add_host(k * 7, 1);
        }
        let mut pairs: Vec<(u64, u64)> = table.iter().collect();
        pairs.sort_unstable();
        assert_eq!(pairs.len(), 20);
        assert!(pairs.iter().all(|&(_, v)| v == 1));
    }

    #[test]
    #[should_panic(expected = "capacity exceeded")]
    fn exceeding_capacity_panics() {
        let mut table = GpuHashTable::with_capacity(4, 2.0);
        for k in 0..5u64 {
            table.insert_add_host(k, 1);
        }
    }

    #[test]
    fn size_accounting() {
        let table = GpuHashTable::with_capacity(10, 2.0);
        assert!(table.size_bytes() > 0);
        assert!(table.num_buckets().is_power_of_two());
        assert!(table.is_empty());
    }
}
