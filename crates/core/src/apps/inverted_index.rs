//! GPU *inverted index*: word → files containing it.
//!
//! Top-down: per-file rule weights are propagated downward (the "file
//! information" buffers), then every rule marks its local words as present in
//! every file it occurs in.
//!
//! Bottom-up: per-rule accumulated word tables are propagated upward, then a
//! reduce pass walks the root's file segments and marks, for every element of
//! a segment, the words it covers as present in that segment's file.

use crate::layout::{decode_elem, DecodedElem, GpuLayout};
use crate::params::GtadocParams;
use crate::schedule::ThreadPlan;
use crate::traversal::bottom_up::{accumulate_local_tables, BottomUpTables};
use crate::traversal::top_down::compute_file_weights;
use crate::traversal::TraversalStrategy;
use gpu_sim::{Device, Kernel, LaunchConfig, ThreadCtx};
use sequitur::fxhash::{FxHashMap, FxHashSet};
use tadoc::results::{FileId, PostingTable};

/// Top-down reduce: one thread per rule adds `(word → file)` pairs for every
/// file the rule occurs in.
struct ReduceFileWeightsKernel<'a> {
    layout: &'a GpuLayout,
    file_weights: &'a [FxHashMap<u32, u64>],
    postings: &'a mut FxHashMap<u32, FxHashSet<FileId>>,
}

impl Kernel for ReduceFileWeightsKernel<'_> {
    fn name(&self) -> &'static str {
        "reduceInvertedIndexKernel"
    }
    fn thread(&mut self, ctx: &mut ThreadCtx) {
        let r = ctx.tid as usize;
        if r >= self.layout.num_rules {
            return;
        }
        if r == 0 {
            // Root words are attributed to their segment's file.
            for &(start, end, file) in &self.layout.root_segments {
                let elems = self.layout.elements(0);
                for raw in &elems[start as usize..end as usize] {
                    ctx.global_read(4);
                    if let DecodedElem::Word(w) = decode_elem(*raw) {
                        self.postings.entry(w).or_default().insert(file);
                        ctx.atomic_rmw(0x80_0000_0000 | w as u64);
                    }
                }
            }
            return;
        }
        if self.file_weights[r].is_empty() {
            return;
        }
        for (word, _count) in self.layout.local_word_pairs(r as u32) {
            let entry = self.postings.entry(word).or_default();
            for &f in self.file_weights[r].keys() {
                entry.insert(f);
                ctx.atomic_rmw(0x80_0000_0000 | ((word as u64) << 20) | f as u64);
                ctx.compute(2);
            }
        }
    }
}

/// Bottom-up reduce: one thread per root segment marks every word reachable
/// from the segment's elements as present in the segment's file.
struct ReduceSegmentsKernel<'a> {
    layout: &'a GpuLayout,
    tables: &'a BottomUpTables,
    postings: &'a mut FxHashMap<u32, FxHashSet<FileId>>,
}

impl Kernel for ReduceSegmentsKernel<'_> {
    fn name(&self) -> &'static str {
        "reduceInvertedIndexKernel"
    }
    fn thread(&mut self, ctx: &mut ThreadCtx) {
        let seg = ctx.tid as usize;
        if seg >= self.layout.root_segments.len() {
            return;
        }
        let (start, end, file) = self.layout.root_segments[seg];
        let elems = self.layout.elements(0);
        // Children occurring several times in one segment only need to be
        // scanned once for set-membership purposes.
        let mut seen_children: FxHashSet<u32> = FxHashSet::default();
        for raw in &elems[start as usize..end as usize] {
            ctx.global_read(4);
            match decode_elem(*raw) {
                DecodedElem::Word(w) => {
                    self.postings.entry(w).or_default().insert(file);
                    ctx.atomic_rmw(0x80_0000_0000 | w as u64);
                }
                DecodedElem::Rule(c) => {
                    if !seen_children.insert(c) {
                        continue;
                    }
                    for (word, _count) in self.tables.table(c as usize) {
                        ctx.global_read(8);
                        self.postings.entry(word).or_default().insert(file);
                        ctx.atomic_rmw(0x80_0000_0000 | word as u64);
                    }
                }
                DecodedElem::Splitter(_) => {}
            }
        }
    }
}

/// Runs GPU inverted index with the chosen traversal strategy.
pub fn run(
    device: &mut Device,
    layout: &GpuLayout,
    plan: &ThreadPlan,
    params: &GtadocParams,
    strategy: TraversalStrategy,
) -> PostingTable<FileId> {
    let mut sets: FxHashMap<u32, FxHashSet<FileId>> = FxHashMap::default();
    match strategy {
        TraversalStrategy::TopDown => {
            let fw = compute_file_weights(device, layout, plan);
            device.launch(
                LaunchConfig {
                    threads: layout.num_rules as u64,
                    block_size: params.block_size,
                },
                &mut ReduceFileWeightsKernel {
                    layout,
                    file_weights: &fw.file_weights,
                    postings: &mut sets,
                },
            );
        }
        TraversalStrategy::BottomUp => {
            let tables = accumulate_local_tables(device, layout, plan, params);
            device.launch(
                LaunchConfig {
                    threads: layout.root_segments.len() as u64,
                    block_size: params.block_size,
                },
                &mut ReduceSegmentsKernel {
                    layout,
                    tables: &tables,
                    postings: &mut sets,
                },
            );
        }
    }
    let rows = sets
        .into_iter()
        .map(|(w, set)| {
            let mut files: Vec<FileId> = set.into_iter().collect();
            files.sort_unstable();
            ([w], files)
        })
        .collect();
    PostingTable::from_unsorted_rows(1, rows)
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
        let mut device = Device::new(GpuSpec::tesla_v100());
        let result = run(
            &mut device,
            &layout,
            &plan,
            &GtadocParams::default(),
            strategy,
        );
        let expected = oracle::inverted_index(&archive.grammar.expand_files());
        assert_eq!(result, expected, "{strategy}");
    }

    fn corpus() -> Vec<(String, String)> {
        vec![
            (
                "a".to_string(),
                "shared text block alpha alpha beta".to_string(),
            ),
            ("b".to_string(), "shared text block gamma".to_string()),
            ("c".to_string(), "totally different content".to_string()),
            (
                "d".to_string(),
                "shared text block alpha alpha beta".to_string(),
            ),
        ]
    }

    #[test]
    fn top_down_matches_oracle() {
        check(&corpus(), TraversalStrategy::TopDown);
    }

    #[test]
    fn bottom_up_matches_oracle() {
        check(&corpus(), TraversalStrategy::BottomUp);
    }

    #[test]
    fn single_file_corpus() {
        let corpus = vec![("only".to_string(), "a b c a b c".to_string())];
        check(&corpus, TraversalStrategy::TopDown);
        check(&corpus, TraversalStrategy::BottomUp);
    }
}
