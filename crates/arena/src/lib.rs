//! # arena
//!
//! [`mix64`] — the full-avalanche finalizer `gtadoc`'s hash tables hash
//! with (one definition for the workspace).
//!
//! The fine-grained CPU engine (`tadoc::fine_grained`) accumulates in
//! per-worker state it allocates itself and groups every window table with
//! one counting sort by leading word, so it takes no buffer type from here.  The
//! paper's memory pool and flat per-rule tables (Section IV-C, Figure 5)
//! are a *GPU* design and live with their only caller, the simulated GPU
//! engine: `gtadoc::mempool` and `gtadoc::hashtable::local_table`.

#![forbid(unsafe_code)]

/// SplitMix64 finalizer: a full-avalanche mix so that *every* output bit used
/// for bucket selection depends on every input bit.  (A bare
/// multiplicative hash leaves the low bits a function of only the low input
/// bits, which makes packed multi-word sequence keys — identical last word,
/// different prefix — collide into the same bucket and degenerate into long
/// chains.)
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_avalanches_low_bits() {
        // Keys differing only in high bits must land in different buckets
        // often enough; sanity-check a few.
        let a = mix64(1 << 40) & 0xff;
        let b = mix64(2 << 40) & 0xff;
        let c = mix64(3 << 40) & 0xff;
        assert!(
            !(a == b && b == c),
            "low bits must depend on high input bits"
        );
    }
}
