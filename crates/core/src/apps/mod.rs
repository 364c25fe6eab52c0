//! GPU implementations of the six CompressDirect analytics tasks.
//!
//! Each module wires the shared traversal engines (top-down weights / file
//! weights, bottom-up accumulated tables, head/tail sequence support) to a
//! task-specific reduce kernel that merges per-rule contributions into the
//! thread-safe global result structures.

pub mod inverted_index;
pub mod ranked_inverted_index;
pub mod sequence_count;
pub mod sort;
pub mod term_vector;
pub mod word_count;

use crate::hashtable::GpuHashTable;
use tadoc::results::CountTable;

/// Converts a GPU word-count hash table into the shared ordered result
/// type, dropping zero-count slots (open-addressing tables may hold
/// tombstoned entries).
pub(crate) fn word_counts_from_table(table: &GpuHashTable) -> CountTable {
    let pairs: Vec<([u32; 1], u64)> = table
        .iter()
        .filter(|&(_, value)| value > 0)
        .map(|(key, value)| ([key as u32], value))
        .collect();
    CountTable::from_unsorted_pairs(1, pairs)
}
