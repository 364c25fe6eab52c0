//! GPU *sequence count*: global counts of every `l`-word sequence.
//!
//! Phase 1 fills the head/tail buffers (Figure 7); phase 2 computes, per
//! rule, the sequences local to that rule and merges them into the global
//! thread-safe table scaled by the rule's weight (Figure 8).  Unlike the CPU
//! baseline, every rule is processed once regardless of how often it occurs —
//! the computation reuse responsible for the ~111× speedups the paper reports
//! for this task.

use crate::hashtable::GpuHashTable;
use crate::layout::GpuLayout;
use crate::params::GtadocParams;
use crate::schedule::ThreadPlan;
use crate::sequence::counting::{
    count_root_chunk_sequences, count_rule_local_sequences, root_chunks, unpack_sequence, RootChunk,
};
use crate::sequence::head_tail::{init_head_tail, HeadTail};
use crate::traversal::top_down::compute_rule_weights;
use gpu_sim::{Device, Kernel, LaunchConfig, ThreadCtx};
use sequitur::fxhash::FxHashMap;
use tadoc::results::CountTable;

/// One thread per non-root rule counts its local sequences and pushes them,
/// scaled by the rule's weight, into the global table; the root — usually by
/// far the longest rule — is split into chunks, one thread per chunk, in line
/// with the fine-grained scheduling of Section IV-B.
struct SequenceCountKernel<'a> {
    layout: &'a GpuLayout,
    head_tail: &'a HeadTail,
    weights: &'a [u64],
    chunks: &'a [RootChunk],
    table: &'a mut GpuHashTable,
}

impl Kernel for SequenceCountKernel<'_> {
    fn name(&self) -> &'static str {
        "sequenceTraversalKernel"
    }
    fn thread(&mut self, ctx: &mut ThreadCtx) {
        let r = ctx.tid as usize;
        let num_rules = self.layout.num_rules;
        if r >= num_rules + self.chunks.len() {
            return;
        }
        // Gather local sequence counts into a small private map first (the
        // per-thread buffer from the memory pool), then merge into the shared
        // table with the lock/atomic protocol.
        let mut local: FxHashMap<u64, u64> = FxHashMap::default();
        if r == 0 {
            // The root is handled by the chunk threads below.
            return;
        } else if r < num_rules {
            let weight = self.weights[r];
            if weight == 0 {
                return;
            }
            count_rule_local_sequences(self.layout, self.head_tail, r as u32, ctx, |packed| {
                *local.entry(packed).or_insert(0) += weight;
            });
        } else {
            let chunk = self.chunks[r - num_rules];
            count_root_chunk_sequences(self.layout, self.head_tail, chunk, ctx, |packed| {
                *local.entry(packed).or_insert(0) += 1;
            });
        }
        for (packed, count) in local {
            let mut inserted = false;
            while !inserted {
                inserted = self.table.insert_add(packed, count, ctx);
            }
        }
    }
}

/// Runs GPU sequence count.
pub fn run(
    device: &mut Device,
    layout: &GpuLayout,
    plan: &ThreadPlan,
    params: &GtadocParams,
) -> CountTable {
    let l = params.sequence_length;
    let head_tail = init_head_tail(device, layout, l);
    let weights = compute_rule_weights(device, layout, plan);
    let chunks = root_chunks(layout, plan.large_rule_elements.max(256) as usize);

    // Capacity: bounded by the number of distinct windows the compressed form
    // can describe (elements × l), capped to keep memory in check.
    let capacity = (layout.elem_data.len() * l + layout.num_files * l).max(16);
    let mut table = GpuHashTable::with_capacity(capacity, params.hash_load_factor);
    device.launch(
        LaunchConfig {
            threads: (layout.num_rules + chunks.len()) as u64,
            block_size: params.block_size,
        },
        &mut SequenceCountKernel {
            layout,
            head_tail: &head_tail,
            weights: &weights.weights,
            chunks: &chunks,
            table: &mut table,
        },
    );

    let pairs: Vec<(Vec<u32>, u64)> = table
        .iter()
        .map(|(packed, count)| (unpack_sequence(packed, l), count))
        .collect();
    CountTable::from_unsorted_pairs(l, pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::layout_from_archive;
    use gpu_sim::GpuSpec;
    use sequitur::compress::{compress_corpus, CompressOptions};
    use tadoc::oracle;

    fn check(corpus: &[(String, String)], l: usize) {
        let archive = compress_corpus(corpus, CompressOptions::default());
        let (_dag, layout) = layout_from_archive(&archive);
        let plan = ThreadPlan::fine_grained(&layout, &GtadocParams::default());
        let params = GtadocParams {
            sequence_length: l,
            ..Default::default()
        };
        let mut device = Device::new(GpuSpec::gtx_1080());
        let result = run(&mut device, &layout, &plan, &params);
        let expected = oracle::sequence_count(&archive.grammar.expand_files(), l);
        assert_eq!(result, expected, "l = {l}");
    }

    #[test]
    fn matches_oracle_on_figure_1_corpus() {
        let corpus = vec![
            (
                "fileA".to_string(),
                "w1 w2 w3 w1 w2 w4 w1 w2 w3 w1 w2 w4".to_string(),
            ),
            ("fileB".to_string(), "w1 w2 w1".to_string()),
        ];
        check(&corpus, 3);
        check(&corpus, 2);
    }

    #[test]
    fn matches_oracle_on_redundant_corpus() {
        let shared = "alpha beta gamma delta epsilon zeta ".repeat(10);
        let corpus = vec![
            ("a".to_string(), format!("{shared} coda one two")),
            ("b".to_string(), shared.clone()),
            ("c".to_string(), format!("intro {shared}")),
        ];
        check(&corpus, 3);
    }

    #[test]
    fn short_files_produce_no_sequences() {
        let corpus = vec![
            ("a".to_string(), "x y".to_string()),
            ("b".to_string(), "z".to_string()),
        ];
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let (_dag, layout) = layout_from_archive(&archive);
        let plan = ThreadPlan::fine_grained(&layout, &GtadocParams::default());
        let mut device = Device::new(GpuSpec::gtx_1080());
        let result = run(&mut device, &layout, &plan, &GtadocParams::default());
        assert!(result.is_empty());
    }
}
