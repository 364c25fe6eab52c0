//! A small, dependency-free implementation of the Fx hash function (the hash
//! used by rustc) plus convenience map/set aliases.
//!
//! The default SipHash is a poor fit for the small integer and short string
//! keys of TADOC's hash tables.  This is the pattern recommended by the Rust
//! performance guidelines: a fast, non-DoS-resistant hash for internal
//! tables.  The compressor's digram index does not use it (it is its own
//! open-addressing table, [`crate::digram`]); the module stays because the
//! dictionary's word index and some 70 sites in the traversal, sequential
//! apps, oracle and results cache use these aliases.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant used by the Fx hash (64-bit variant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, non-cryptographic hasher suitable for integer and short keys.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// `HashMap` keyed with the Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with the Fx hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

/// Hashes a single `u64` with the Fx function.
#[inline]
pub fn hash_u64(value: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(value);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash_u64(12345), hash_u64(12345));
        assert_ne!(hash_u64(12345), hash_u64(12346));
    }

    #[test]
    fn map_behaves_like_std() {
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(m[&i], i * 2);
        }
    }

    #[test]
    fn spreads_small_keys() {
        // Small consecutive keys should not all collide in the low bits.
        let mut low_bits = FxHashSet::default();
        for i in 0..64u64 {
            low_bits.insert(hash_u64(i) & 0xff);
        }
        assert!(low_bits.len() > 16, "hash should spread consecutive keys");
    }

    #[test]
    fn string_keys_work() {
        let mut m: FxHashMap<String, usize> = FxHashMap::default();
        m.insert("hello".to_string(), 1);
        m.insert("world".to_string(), 2);
        assert_eq!(m["hello"], 1);
        assert_eq!(m["world"], 2);
    }
}
