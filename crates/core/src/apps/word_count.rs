//! GPU *word count*.
//!
//! Top-down: propagate rule weights (Algorithm 1), then every rule pushes its
//! local words, scaled by its weight, into the global thread-safe hash table
//! with atomic additions (`reduceResultKernel`).
//!
//! Bottom-up: accumulate per-rule local tables (Algorithm 2), then merge the
//! root's own words with its direct children's accumulated tables scaled by
//! their frequency in the root.

use crate::hashtable::GpuHashTable;
use crate::layout::{decode_elem, DecodedElem, GpuLayout};
use crate::params::GtadocParams;
use crate::schedule::ThreadPlan;
use crate::traversal::bottom_up::{accumulate_local_tables, BottomUpTables};
use crate::traversal::top_down::compute_rule_weights;
use crate::traversal::TraversalStrategy;
use gpu_sim::{Device, Kernel, LaunchConfig, ThreadCtx};
use tadoc::results::CountTable;

/// `reduceResultKernel` (top-down variant): one thread per rule merges the
/// rule's local word frequencies, multiplied by the rule's accumulated weight,
/// into the global table.
struct ReduceWeightedWordsKernel<'a> {
    layout: &'a GpuLayout,
    weights: &'a [u64],
    table: &'a mut GpuHashTable,
}

impl Kernel for ReduceWeightedWordsKernel<'_> {
    fn name(&self) -> &'static str {
        "reduceResultKernel"
    }
    fn thread(&mut self, ctx: &mut ThreadCtx) {
        let r = ctx.tid as usize;
        if r >= self.layout.num_rules {
            return;
        }
        let w = self.weights[r];
        if w == 0 {
            return;
        }
        for (word, count) in self.layout.local_word_pairs(r as u32) {
            let mut inserted = false;
            while !inserted {
                inserted = self.table.insert_add(word as u64, count as u64 * w, ctx);
            }
        }
    }
}

/// `reduceResultKernel` (bottom-up variant): one thread per level-2 node (plus
/// thread 0 for the root's own words) merges the accumulated tables into the
/// global table, scaled by the node's frequency in the root.
struct ReduceLevel2Kernel<'a> {
    layout: &'a GpuLayout,
    tables: &'a BottomUpTables,
    table: &'a mut GpuHashTable,
}

impl Kernel for ReduceLevel2Kernel<'_> {
    fn name(&self) -> &'static str {
        "reduceResultKernel"
    }
    fn thread(&mut self, ctx: &mut ThreadCtx) {
        let level2: Vec<(u32, u32)> = self.layout.children(0).collect();
        let idx = ctx.tid as usize;
        if idx == 0 {
            // The root's directly-contained words.
            for (word, count) in self.layout.local_word_pairs(0) {
                let mut inserted = false;
                while !inserted {
                    inserted = self.table.insert_add(word as u64, count as u64, ctx);
                }
            }
        }
        if idx >= level2.len() {
            return;
        }
        let (child, freq) = level2[idx];
        for (word, count) in self.tables.table(child as usize) {
            ctx.global_read(8);
            let mut inserted = false;
            while !inserted {
                inserted = self
                    .table
                    .insert_add(word as u64, count as u64 * freq as u64, ctx);
            }
        }
    }
}

/// Runs GPU word count with the chosen traversal strategy.
pub fn run(
    device: &mut Device,
    layout: &GpuLayout,
    plan: &ThreadPlan,
    params: &GtadocParams,
    strategy: TraversalStrategy,
) -> CountTable {
    let mut table = GpuHashTable::with_capacity(layout.vocab_size.max(1), params.hash_load_factor);
    match strategy {
        TraversalStrategy::TopDown => {
            let weights = compute_rule_weights(device, layout, plan);
            device.launch(
                LaunchConfig {
                    threads: layout.num_rules as u64,
                    block_size: params.block_size,
                },
                &mut ReduceWeightedWordsKernel {
                    layout,
                    weights: &weights.weights,
                    table: &mut table,
                },
            );
        }
        TraversalStrategy::BottomUp => {
            let tables = accumulate_local_tables(device, layout, plan, params);
            let level2 = layout.num_out_edges[0] as u64;
            device.launch(
                LaunchConfig {
                    threads: level2.max(1),
                    block_size: params.block_size,
                },
                &mut ReduceLevel2Kernel {
                    layout,
                    tables: &tables,
                    table: &mut table,
                },
            );
        }
    }
    let result = super::word_counts_from_table(&table);
    // Words that appear only directly in the root of a single-rule grammar are
    // already covered; nothing else to add.  Splitters never reach the table
    // because local word tables exclude them.
    debug_assert!(
        layout
            .elements(0)
            .iter()
            .all(|&raw| !matches!(decode_elem(raw), DecodedElem::Splitter(s) if s as usize >= layout.num_files)),
        "splitter ids must be dense"
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::layout_from_archive;
    use gpu_sim::GpuSpec;
    use sequitur::compress::{compress_corpus, CompressOptions};
    use tadoc::oracle;

    fn check(corpus: &[(String, String)], strategy: TraversalStrategy) {
        let archive = compress_corpus(corpus, CompressOptions::default());
        let (_dag, layout) = layout_from_archive(&archive);
        let plan = ThreadPlan::fine_grained(&layout, &GtadocParams::default());
        let mut device = Device::new(GpuSpec::gtx_1080());
        let result = run(
            &mut device,
            &layout,
            &plan,
            &GtadocParams::default(),
            strategy,
        );
        let expected = oracle::word_count(&archive.grammar.expand_files());
        assert_eq!(result, expected, "{strategy}");
    }

    fn figure_1_corpus() -> Vec<(String, String)> {
        vec![
            (
                "fileA".to_string(),
                "w1 w2 w3 w1 w2 w4 w1 w2 w3 w1 w2 w4".to_string(),
            ),
            ("fileB".to_string(), "w1 w2 w1".to_string()),
        ]
    }

    fn redundant_corpus() -> Vec<(String, String)> {
        let shared = "the quick brown fox jumps over the lazy dog again and again ".repeat(15);
        (0..5)
            .map(|i| (format!("f{i}"), format!("{shared} unique{i} trailer")))
            .collect()
    }

    #[test]
    fn top_down_matches_oracle() {
        check(&figure_1_corpus(), TraversalStrategy::TopDown);
        check(&redundant_corpus(), TraversalStrategy::TopDown);
    }

    #[test]
    fn bottom_up_matches_oracle() {
        check(&figure_1_corpus(), TraversalStrategy::BottomUp);
        check(&redundant_corpus(), TraversalStrategy::BottomUp);
    }

    #[test]
    fn both_strategies_agree() {
        let corpus = redundant_corpus();
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let (_dag, layout) = layout_from_archive(&archive);
        let plan = ThreadPlan::fine_grained(&layout, &GtadocParams::default());
        let mut device = Device::new(GpuSpec::tesla_v100());
        let a = run(
            &mut device,
            &layout,
            &plan,
            &GtadocParams::default(),
            TraversalStrategy::TopDown,
        );
        let b = run(
            &mut device,
            &layout,
            &plan,
            &GtadocParams::default(),
            TraversalStrategy::BottomUp,
        );
        assert_eq!(a, b);
    }
}
