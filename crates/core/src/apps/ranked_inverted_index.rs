//! GPU *ranked inverted index*: every `l`-word sequence → files containing
//! it, ranked by in-file frequency.
//!
//! Combines the sequence machinery (head/tail buffers + rule-local counting)
//! with the top-down per-file weights: a rule's local sequences occur in file
//! `f` exactly `file_weight[r][f]` times; root windows are attributed to the
//! file of their segment directly.

use crate::layout::GpuLayout;
use crate::params::GtadocParams;
use crate::schedule::ThreadPlan;
use crate::sequence::counting::{
    count_root_chunk_sequences, count_rule_local_sequences, root_chunks, unpack_sequence, RootChunk,
};
use crate::sequence::head_tail::{init_head_tail, HeadTail};
use crate::traversal::top_down::compute_file_weights;
use gpu_sim::{Device, Kernel, LaunchConfig, ThreadCtx};
use sequitur::fxhash::FxHashMap;
use tadoc::results::{rank_order, FileId, PostingTable, Sequence};

/// One thread per non-root rule attributes its local sequences to every file
/// it occurs in; the root is split across one thread per chunk, each chunk
/// attributing its windows directly to its file.
struct RankedInvertedIndexKernel<'a> {
    layout: &'a GpuLayout,
    head_tail: &'a HeadTail,
    file_weights: &'a [FxHashMap<u32, u64>],
    chunks: &'a [RootChunk],
    per_seq: &'a mut FxHashMap<u64, FxHashMap<FileId, u64>>,
}

impl Kernel for RankedInvertedIndexKernel<'_> {
    fn name(&self) -> &'static str {
        "rankedInvertedIndexKernel"
    }
    fn thread(&mut self, ctx: &mut ThreadCtx) {
        let r = ctx.tid as usize;
        let num_rules = self.layout.num_rules;
        if r >= num_rules + self.chunks.len() {
            return;
        }
        if r == 0 {
            // The root is handled by the chunk threads.
            return;
        }
        if r >= num_rules {
            let chunk = self.chunks[r - num_rules];
            let per_seq = &mut *self.per_seq;
            count_root_chunk_sequences(self.layout, self.head_tail, chunk, ctx, |packed| {
                *per_seq
                    .entry(packed)
                    .or_default()
                    .entry(chunk.file)
                    .or_insert(0) += 1;
            });
            return;
        }
        if self.file_weights[r].is_empty() {
            return;
        }
        // Local counts first, then scaled attribution per file.
        let mut local: FxHashMap<u64, u64> = FxHashMap::default();
        count_rule_local_sequences(self.layout, self.head_tail, r as u32, ctx, |packed| {
            *local.entry(packed).or_insert(0) += 1;
        });
        for (packed, count) in local {
            let entry = self.per_seq.entry(packed).or_default();
            for (&f, &occ) in &self.file_weights[r] {
                *entry.entry(f).or_insert(0) += count * occ;
                ctx.atomic_rmw(0xA0_0000_0000 | (packed << 8) | f as u64);
                ctx.compute(3);
            }
        }
    }
}

/// Runs GPU ranked inverted index.
pub fn run(
    device: &mut Device,
    layout: &GpuLayout,
    plan: &ThreadPlan,
    params: &GtadocParams,
) -> PostingTable<(FileId, u64)> {
    let l = params.sequence_length;
    let head_tail = init_head_tail(device, layout, l);
    let fw = compute_file_weights(device, layout, plan);
    let chunks = root_chunks(layout, plan.large_rule_elements.max(256) as usize);

    let mut per_seq: FxHashMap<u64, FxHashMap<FileId, u64>> = FxHashMap::default();
    device.launch(
        LaunchConfig {
            threads: (layout.num_rules + chunks.len()) as u64,
            block_size: params.block_size,
        },
        &mut RankedInvertedIndexKernel {
            layout,
            head_tail: &head_tail,
            file_weights: &fw.file_weights,
            chunks: &chunks,
            per_seq: &mut per_seq,
        },
    );

    let rows: Vec<(Sequence, Vec<(FileId, u64)>)> = per_seq
        .into_iter()
        .map(|(packed, files)| {
            let mut ranked: Vec<(FileId, u64)> = files.into_iter().collect();
            ranked.sort_unstable_by(rank_order);
            (unpack_sequence(packed, l), ranked)
        })
        .collect();
    PostingTable::from_unsorted_rows(l, rows)
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
        let mut device = Device::new(GpuSpec::rtx_2080_ti());
        let result = run(&mut device, &layout, &plan, &params);
        let expected = oracle::ranked_inverted_index(&archive.grammar.expand_files(), l);
        assert_eq!(result, expected, "l = {l}");
    }

    #[test]
    fn matches_oracle_on_shared_phrases() {
        let corpus = vec![
            (
                "low".to_string(),
                "w1 w2 w3 filler filler words".to_string(),
            ),
            ("high".to_string(), "w1 w2 w3 w1 w2 w3 w1 w2 w3".to_string()),
            ("none".to_string(), "completely unrelated text".to_string()),
        ];
        check(&corpus, 3);
        check(&corpus, 2);
    }

    #[test]
    fn matches_oracle_on_redundant_corpus() {
        let shared = "the cat sat on the mat near the door ".repeat(7);
        let corpus: Vec<(String, String)> = (0..5)
            .map(|i| (format!("doc{i}"), format!("{shared} tail{i}")))
            .collect();
        check(&corpus, 3);
    }

    #[test]
    fn ranking_is_by_descending_count() {
        let corpus = vec![
            ("a".to_string(), "p q r p q r".to_string()),
            ("b".to_string(), "p q r".to_string()),
        ];
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let (_dag, layout) = layout_from_archive(&archive);
        let plan = ThreadPlan::fine_grained(&layout, &GtadocParams::default());
        let mut device = Device::new(GpuSpec::gtx_1080());
        let result = run(&mut device, &layout, &plan, &GtadocParams::default());
        for ranked in result.csr().rows() {
            for pair in ranked.windows(2) {
                assert!(pair[0].1 >= pair[1].1);
            }
        }
    }
}
