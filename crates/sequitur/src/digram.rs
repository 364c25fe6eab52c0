//! Digram index used by the Sequitur algorithm.
//!
//! A *digram* is a pair of adjacent symbols.  Sequitur's *digram uniqueness*
//! invariant states that no digram appears more than once in the grammar; the
//! index maps each digram to the arena node where its (single) indexed
//! occurrence starts.
//!
//! A digram is keyed by its two encoded node symbols packed into one `u64`
//! (`(a << 32) | b`).  The table is linear probing over `(key, node)` slots,
//! hashed by multiply-shift, deleted from by backward shift (no tombstones),
//! and doubled whenever it would pass load ½, so it stays sized by the live
//! digrams rather than by the input length.

/// Marks an empty slot.  No key equals it: its high half carries the guard
/// tag, and guards never start or end an indexed digram.
const EMPTY: u64 = u64::MAX;

/// Multiplier of the multiply-shift hash (2⁶⁴ / φ, odd).
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// The smallest table: one slot stays empty at load ½.
const MIN_SLOTS: usize = 2;

/// Index from packed digram to the arena node id of its recorded occurrence.
#[derive(Debug)]
pub struct DigramIndex {
    slots: Vec<(u64, u32)>,
    /// `64 − log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
    len: usize,
}

impl DigramIndex {
    /// Creates an empty index with room for `n` digrams before it grows.
    pub fn with_capacity(n: usize) -> Self {
        let slots = (2 * n).next_power_of_two().max(MIN_SLOTS);
        Self {
            slots: vec![(EMPTY, 0); slots],
            shift: 64 - slots.trailing_zeros(),
            len: 0,
        }
    }

    /// The slot holding `key` (`Ok`), or the empty slot where a probe for it
    /// stops (`Err`).
    #[inline]
    fn find(&self, key: u64) -> Result<usize, usize> {
        debug_assert_ne!(key, EMPTY);
        let mask = self.slots.len() - 1;
        let mut i = (key.wrapping_mul(HASH_MUL) >> self.shift) as usize;
        loop {
            match self.slots[i].0 {
                k if k == key => return Ok(i),
                EMPTY => return Err(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Fills the empty slot `i` found by [`find`](Self::find).
    #[inline]
    fn fill(&mut self, i: usize, key: u64, node: u32) {
        self.slots[i] = (key, node);
        self.len += 1;
        if 2 * self.len > self.slots.len() {
            self.grow();
        }
    }

    fn grow(&mut self) {
        let old = std::mem::replace(self, Self::with_capacity(self.slots.len()));
        for (key, node) in old.slots {
            if key != EMPTY {
                let Err(i) = self.find(key) else {
                    unreachable!("keys are unique")
                };
                self.slots[i] = (key, node);
            }
        }
        self.len = old.len;
    }

    /// Returns the node at which `key` is recorded, if any.
    #[cfg(test)]
    fn get(&self, key: u64) -> Option<u32> {
        self.find(key).ok().map(|i| self.slots[i].1)
    }

    /// Returns the node at which `key` is recorded; if there is none,
    /// records `key` at `node` and returns `None`.  One probe either way.
    #[inline]
    pub fn get_or_insert(&mut self, key: u64, node: u32) -> Option<u32> {
        match self.find(key) {
            Ok(i) => Some(self.slots[i].1),
            Err(i) => {
                self.fill(i, key, node);
                None
            }
        }
    }

    /// Records `key` as occurring at `node`, overwriting any previous record.
    #[inline]
    pub fn insert(&mut self, key: u64, node: u32) {
        match self.find(key) {
            Ok(i) => self.slots[i].1 = node,
            Err(i) => self.fill(i, key, node),
        }
    }

    /// Removes the record for `key` only if it currently points at `node`.
    ///
    /// This is the deletion discipline Sequitur requires: a node being
    /// unlinked must not clobber a record that has already been re-pointed at
    /// a different occurrence.
    #[inline]
    pub fn remove_if_at(&mut self, key: u64, node: u32) {
        if let Ok(i) = self.find(key) {
            if self.slots[i].1 == node {
                self.remove_slot(i);
            }
        }
    }

    /// Empties slot `hole`, then shifts every later entry of its probe run
    /// whose home slot does not lie cyclically in `(hole, j]` back into the
    /// hole, so every remaining key is still found before an empty slot.
    fn remove_slot(&mut self, mut hole: usize) {
        let mask = self.slots.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let key = self.slots[j].0;
            if key == EMPTY {
                break;
            }
            let home = (key.wrapping_mul(HASH_MUL) >> self.shift) as usize;
            // Distance travelled from home to `j` against from `hole` to `j`.
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.slots[hole].0 = EMPTY;
        self.len -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn d(a: u32, b: u32) -> u64 {
        (a as u64) << 32 | b as u64
    }

    #[test]
    fn insert_and_get() {
        let mut idx = DigramIndex::with_capacity(0);
        idx.insert(d(1, 2), 7);
        assert_eq!(idx.get(d(1, 2)), Some(7));
        assert_eq!(idx.get(d(2, 1)), None);
    }

    #[test]
    fn remove_if_at_only_removes_matching_node() {
        let mut idx = DigramIndex::with_capacity(0);
        idx.insert(d(1, 2), 7);
        idx.remove_if_at(d(1, 2), 9);
        assert_eq!(
            idx.get(d(1, 2)),
            Some(7),
            "non-matching node must not remove"
        );
        idx.remove_if_at(d(1, 2), 7);
        assert_eq!(idx.get(d(1, 2)), None);
    }

    #[test]
    fn nonterminal_and_terminal_digrams_are_distinct() {
        use crate::symbol::Symbol;
        let mut idx = DigramIndex::with_capacity(0);
        let word = d(Symbol::Word(5).encode(), 6);
        let rule = d(Symbol::Rule(5).encode(), 6);
        idx.insert(word, 1);
        idx.insert(rule, 2);
        assert_eq!(idx.get(word), Some(1));
        assert_eq!(idx.get(rule), Some(2));
    }

    #[test]
    fn get_or_insert_keeps_the_first_record() {
        let mut idx = DigramIndex::with_capacity(0);
        assert_eq!(idx.get_or_insert(d(3, 4), 1), None);
        assert_eq!(idx.get_or_insert(d(3, 4), 2), Some(1));
        assert_eq!(idx.get(d(3, 4)), Some(1));
    }

    #[test]
    fn overwrite_updates_position() {
        let mut idx = DigramIndex::with_capacity(0);
        idx.insert(d(3, 4), 1);
        idx.insert(d(3, 4), 2);
        assert_eq!(idx.get(d(3, 4)), Some(2));
        assert_eq!(idx.len, 1);
    }

    /// SplitMix64, so the model runs need no dependency.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Random `get_or_insert` / `insert` / `remove_if_at` runs against a
    /// `HashMap` model, from the smallest table, over few enough distinct
    /// keys that probe runs collide, wrap past the last slot, and are
    /// shifted back by removals; the table grows several times per run.
    #[test]
    fn behaves_like_a_hash_map() {
        let mut state = 0x5EED;
        for run in 0..200u64 {
            let mut idx = DigramIndex::with_capacity(0);
            let mut model: HashMap<u64, u32> = HashMap::new();
            let keys = 2 + run % 60;
            let ops = 50 + next(&mut state) % 600;
            for _ in 0..ops {
                let r = next(&mut state);
                let key = d((r % keys) as u32 & 3, ((r >> 8) % keys) as u32);
                let node = ((r >> 16) % 4) as u32;
                match (r >> 24) % 4 {
                    0 => {
                        let want = model.get(&key).copied();
                        model.entry(key).or_insert(node);
                        assert_eq!(idx.get_or_insert(key, node), want);
                    }
                    1 => {
                        model.insert(key, node);
                        idx.insert(key, node);
                    }
                    _ => {
                        if model.get(&key) == Some(&node) {
                            model.remove(&key);
                        }
                        idx.remove_if_at(key, node);
                    }
                }
                assert_eq!(idx.len, model.len());
                assert!(2 * idx.len <= idx.slots.len(), "load stays at most 1/2");
            }
            for a in 0..4 {
                for b in 0..keys as u32 {
                    assert_eq!(idx.get(d(a, b)), model.get(&d(a, b)).copied());
                }
            }
            let live = idx.slots.iter().filter(|s| s.0 != EMPTY).count();
            assert_eq!(live, model.len());
        }
    }

    #[test]
    fn probe_runs_wrap_past_the_last_slot() {
        // Keys whose home is the last slot of an 8-slot table: the second
        // and third wrap to slots 0 and 1; removing the first shifts both
        // back.
        let mut idx = DigramIndex::with_capacity(4);
        assert_eq!(idx.slots.len(), 8);
        let last: Vec<u64> = (0..u64::from(u32::MAX))
            .map(|k| d(k as u32, 1))
            .filter(|&k| (k.wrapping_mul(HASH_MUL) >> idx.shift) == 7)
            .take(3)
            .collect();
        for (node, &key) in last.iter().enumerate() {
            idx.insert(key, node as u32);
        }
        assert_eq!(idx.slots[0].0, last[1]);
        assert_eq!(idx.slots[1].0, last[2]);
        idx.remove_if_at(last[0], 0);
        assert_eq!(idx.slots[7].0, last[1]);
        assert_eq!(idx.slots[0].0, last[2]);
        assert_eq!(idx.slots[1].0, EMPTY);
        assert_eq!(idx.get(last[1]), Some(1));
        assert_eq!(idx.get(last[2]), Some(2));
    }
}
