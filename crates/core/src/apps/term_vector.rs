//! GPU *term vector*: per-file word-frequency vectors.
//!
//! The strategy choice matters most for this task (Section VI-C): with few
//! files the top-down file-information buffers are tiny and fast; with many
//! small files the bottom-up accumulated tables win.

use crate::layout::{decode_elem, DecodedElem, GpuLayout};
use crate::params::GtadocParams;
use crate::schedule::ThreadPlan;
use crate::traversal::bottom_up::{accumulate_local_tables, BottomUpTables};
use crate::traversal::top_down::compute_file_weights;
use crate::traversal::TraversalStrategy;
use gpu_sim::{Device, Kernel, LaunchConfig, ThreadCtx};
use sequitur::fxhash::FxHashMap;
use tadoc::results::PostingTable;

/// Top-down reduce: one thread per rule scales its local words by its per-file
/// occurrence counts.
struct ReduceTermVectorTopDownKernel<'a> {
    layout: &'a GpuLayout,
    file_weights: &'a [FxHashMap<u32, u64>],
    acc: &'a mut [FxHashMap<u32, u64>],
}

impl Kernel for ReduceTermVectorTopDownKernel<'_> {
    fn name(&self) -> &'static str {
        "reduceTermVectorKernel"
    }
    fn thread(&mut self, ctx: &mut ThreadCtx) {
        let r = ctx.tid as usize;
        if r >= self.layout.num_rules {
            return;
        }
        if r == 0 {
            for &(start, end, file) in &self.layout.root_segments {
                let elems = self.layout.elements(0);
                for raw in &elems[start as usize..end as usize] {
                    ctx.global_read(4);
                    if let DecodedElem::Word(w) = decode_elem(*raw) {
                        *self.acc[file as usize].entry(w).or_insert(0) += 1;
                        ctx.atomic_rmw(0x90_0000_0000 | ((file as u64) << 24) | w as u64);
                    }
                }
            }
            return;
        }
        if self.file_weights[r].is_empty() {
            return;
        }
        for (word, count) in self.layout.local_word_pairs(r as u32) {
            for (&f, &occ) in &self.file_weights[r] {
                *self.acc[f as usize].entry(word).or_insert(0) += count as u64 * occ;
                ctx.atomic_rmw(0x90_0000_0000 | ((f as u64) << 24) | word as u64);
                ctx.compute(3);
            }
        }
    }
}

/// Bottom-up reduce: one thread per root segment merges the accumulated table
/// of every element occurrence into the segment's file vector.
struct ReduceTermVectorBottomUpKernel<'a> {
    layout: &'a GpuLayout,
    tables: &'a BottomUpTables,
    acc: &'a mut [FxHashMap<u32, u64>],
}

impl Kernel for ReduceTermVectorBottomUpKernel<'_> {
    fn name(&self) -> &'static str {
        "reduceTermVectorKernel"
    }
    fn thread(&mut self, ctx: &mut ThreadCtx) {
        let seg = ctx.tid as usize;
        if seg >= self.layout.root_segments.len() {
            return;
        }
        let (start, end, file) = self.layout.root_segments[seg];
        let elems = self.layout.elements(0);
        // Count how many times each child occurs in the segment so its table
        // is merged once, scaled by the occurrence count.
        let mut child_occurrences: FxHashMap<u32, u64> = FxHashMap::default();
        for raw in &elems[start as usize..end as usize] {
            ctx.global_read(4);
            match decode_elem(*raw) {
                DecodedElem::Word(w) => {
                    *self.acc[file as usize].entry(w).or_insert(0) += 1;
                    ctx.atomic_rmw(0x90_0000_0000 | ((file as u64) << 24) | w as u64);
                }
                DecodedElem::Rule(c) => {
                    *child_occurrences.entry(c).or_insert(0) += 1;
                }
                DecodedElem::Splitter(_) => {}
            }
        }
        for (c, occ) in child_occurrences {
            for (word, count) in self.tables.table(c as usize) {
                ctx.global_read(8);
                *self.acc[file as usize].entry(word).or_insert(0) += count as u64 * occ;
                ctx.atomic_rmw(0x90_0000_0000 | ((file as u64) << 24) | word as u64);
            }
        }
    }
}

/// Runs GPU term vector with the chosen traversal strategy.
pub fn run(
    device: &mut Device,
    layout: &GpuLayout,
    plan: &ThreadPlan,
    params: &GtadocParams,
    strategy: TraversalStrategy,
) -> PostingTable<(u32, u64)> {
    let mut acc: Vec<FxHashMap<u32, u64>> = vec![FxHashMap::default(); layout.num_files];
    match strategy {
        TraversalStrategy::TopDown => {
            let fw = compute_file_weights(device, layout, plan);
            device.launch(
                LaunchConfig {
                    threads: layout.num_rules as u64,
                    block_size: params.block_size,
                },
                &mut ReduceTermVectorTopDownKernel {
                    layout,
                    file_weights: &fw.file_weights,
                    acc: &mut acc,
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
                &mut ReduceTermVectorBottomUpKernel {
                    layout,
                    tables: &tables,
                    acc: &mut acc,
                },
            );
        }
    }
    let vectors = acc
        .into_iter()
        .map(|m| {
            let mut v: Vec<(u32, u64)> = m.into_iter().collect();
            v.sort_unstable();
            v
        })
        .collect();
    PostingTable::from_rows(vectors)
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
        let expected = oracle::term_vector(&archive.grammar.expand_files());
        assert_eq!(result, expected, "{strategy}");
    }

    fn corpus() -> Vec<(String, String)> {
        let shared = "repeated block of words appearing in several documents ".repeat(6);
        vec![
            ("a".to_string(), format!("{shared} alpha alpha")),
            ("b".to_string(), format!("{shared} beta")),
            ("c".to_string(), "tiny".to_string()),
            ("d".to_string(), shared),
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
    fn both_strategies_agree_on_many_small_files() {
        let corpus: Vec<(String, String)> = (0..25)
            .map(|i| {
                (
                    format!("f{i}"),
                    format!("common preamble words item{}", i % 4),
                )
            })
            .collect();
        check(&corpus, TraversalStrategy::TopDown);
        check(&corpus, TraversalStrategy::BottomUp);
    }
}
