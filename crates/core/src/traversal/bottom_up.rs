//! Bottom-up DAG traversal — Algorithm 2 of the paper.
//!
//! The bottom-up traversal transmits accumulated local word tables from the
//! leaves toward the root: `genRuleParentsKernel` materialises child→parent
//! pointers, `genLocTblBoundKernel` computes the memory-pool size each rule's
//! local table needs, the pool is allocated in one shot, `genLocTblKernel`
//! fills and merges the tables, and a reduce kernel combines the root's local
//! words with the level-2 tables into the final result.

use crate::hashtable::local_table;
use crate::layout::GpuLayout;
use crate::mempool::MemoryPool;
use crate::params::GtadocParams;
use crate::schedule::ThreadPlan;
use gpu_sim::{Device, Kernel, LaunchConfig, ThreadCtx};

/// Result of the bottom-up local-table accumulation.
pub struct BottomUpTables {
    /// Upper bound (distinct words) of each rule's accumulated table.
    pub bounds: Vec<u32>,
    /// The memory pool holding one local table per rule.
    pub pool: MemoryPool,
    /// Rounds taken by the bound computation.
    pub bound_rounds: u32,
    /// Rounds taken by the table generation.
    pub table_rounds: u32,
}

impl BottomUpTables {
    /// Iterates over rule `r`'s accumulated `(word, count)` table.
    pub fn table(&self, r: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        local_table::iter(self.pool.slice(r))
    }
}

/// `genRuleParentsKernel`: each thread stores its rule's id into all of its
/// sub-rules' parent tables.  The layout already carries the parent arrays, so
/// on the simulator this kernel only accounts for the work.
struct GenRuleParentsKernel<'a> {
    layout: &'a GpuLayout,
}

impl Kernel for GenRuleParentsKernel<'_> {
    fn name(&self) -> &'static str {
        "genRuleParentsKernel"
    }
    fn thread(&mut self, ctx: &mut ThreadCtx) {
        let r = ctx.tid as usize;
        if r >= self.layout.num_rules {
            return;
        }
        for (sub, _freq) in self.layout.children(r as u32) {
            ctx.atomic_rmw(0x50_0000_0000 | sub as u64);
            ctx.global_write(8);
            ctx.compute(2);
        }
    }
}

/// `initBottomUpMaskKernel`: leaves (rules without sub-rules) start ready.
struct InitBottomUpMaskKernel<'a> {
    layout: &'a GpuLayout,
    masks: &'a mut [u8],
    cur_out: &'a mut [u32],
}

impl Kernel for InitBottomUpMaskKernel<'_> {
    fn name(&self) -> &'static str {
        "initBottomUpMaskKernel"
    }
    fn thread(&mut self, ctx: &mut ThreadCtx) {
        let r = ctx.tid as usize;
        if r >= self.layout.num_rules {
            return;
        }
        self.masks[r] = u8::from(self.layout.num_out_edges[r] == 0);
        self.cur_out[r] = 0;
        ctx.global_write(5);
        ctx.compute(2);
    }
}

/// `genLocTblBoundKernel`: when a rule is ready (all children bounded), its
/// bound is its local word count plus its children's bounds, capped by both
/// the vocabulary size and the rule's expanded length.
struct GenLocTblBoundKernel<'a> {
    layout: &'a GpuLayout,
    bounds: &'a mut [u32],
    cur_out: &'a mut [u32],
    masks: &'a [u8],
    next_masks: &'a mut [u8],
    stop_flag: &'a mut bool,
}

impl Kernel for GenLocTblBoundKernel<'_> {
    fn name(&self) -> &'static str {
        "genLocTblBoundKernel"
    }
    fn thread(&mut self, ctx: &mut ThreadCtx) {
        let r = ctx.tid as usize;
        if r >= self.layout.num_rules {
            return;
        }
        ctx.global_read(1);
        if self.masks[r] == 0 {
            return;
        }
        let mut bound = self.layout.local_words.row(r).len() as u64;
        for (sub, _freq) in self.layout.children(r as u32) {
            bound += self.bounds[sub as usize] as u64;
            ctx.global_read(4);
            ctx.compute(1);
        }
        let cap = (self.layout.vocab_size as u64).min(self.layout.expanded_lengths[r]);
        self.bounds[r] = bound.min(cap).max(1) as u32;
        ctx.global_write(4);

        // Notify parents: when a parent has heard from all of its sub-rules it
        // becomes ready for the next round.
        for (parent, _freq) in self.layout.parents(r as u32) {
            self.cur_out[parent as usize] += 1;
            ctx.atomic_rmw(0x60_0000_0000 | parent as u64);
            if self.cur_out[parent as usize] == self.layout.num_out_edges[parent as usize] {
                self.next_masks[parent as usize] = 1;
                *self.stop_flag = false;
                ctx.global_write(2);
            }
        }
        self.next_masks[r] = 0;
        ctx.global_write(1);
    }
}

/// `genLocTblKernel`: same traversal order as the bound kernel, but the
/// computation is heavier — each ready rule reduces its own local word
/// frequencies and merges every sub-rule's table into its own memory-pool
/// region.
struct GenLocTblKernel<'a> {
    layout: &'a GpuLayout,
    pool_storage: &'a mut [u32],
    pool_regions: &'a [crate::mempool::PoolRegion],
    cur_out: &'a mut [u32],
    masks: &'a [u8],
    next_masks: &'a mut [u8],
    stop_flag: &'a mut bool,
}

impl Kernel for GenLocTblKernel<'_> {
    fn name(&self) -> &'static str {
        "genLocTblKernel"
    }
    fn thread(&mut self, ctx: &mut ThreadCtx) {
        let r = ctx.tid as usize;
        if r >= self.layout.num_rules {
            return;
        }
        ctx.global_read(1);
        if self.masks[r] == 0 {
            return;
        }
        if r == 0 {
            // The root keeps no accumulated table (its information is combined
            // in the task-specific reduce step).
            self.next_masks[0] = 0;
            return;
        }

        // Initialise this rule's table region and add its own words.
        let own_region = self.pool_regions[r].range();
        ctx.global_write(((own_region.end - own_region.start) * 4) as u64);
        local_table::init(&mut self.pool_storage[own_region]);
        for (word, count) in self.layout.local_word_pairs(r as u32) {
            let region = self.pool_regions[r].range();
            local_table::insert_add(&mut self.pool_storage[region], word, count);
            ctx.global_write(8);
            ctx.compute(4);
        }

        // Merge every sub-rule's table, scaled by its occurrence frequency.
        for (sub, freq) in self.layout.children(r as u32) {
            let sub_region = self.pool_regions[sub as usize].range();
            let pairs: Vec<(u32, u32)> =
                local_table::iter(&self.pool_storage[sub_region]).collect();
            ctx.global_read(pairs.len() as u64 * 8);
            for (word, count) in pairs {
                let region = self.pool_regions[r].range();
                local_table::insert_add(&mut self.pool_storage[region], word, count * freq);
                ctx.global_write(8);
                ctx.compute(4);
            }
        }

        // Notify parents as in the bound kernel.
        for (parent, _freq) in self.layout.parents(r as u32) {
            self.cur_out[parent as usize] += 1;
            ctx.atomic_rmw(0x60_0000_0000 | parent as u64);
            if self.cur_out[parent as usize] == self.layout.num_out_edges[parent as usize] {
                self.next_masks[parent as usize] = 1;
                *self.stop_flag = false;
                ctx.global_write(2);
            }
        }
        self.next_masks[r] = 0;
        ctx.global_write(1);
    }
}

/// Runs the bottom-up accumulation (host side of Algorithm 2, lines 1–16).
///
/// The root (rule 0) is excluded from the accumulation — its information is
/// combined by the reduce step of each task — so its pool region is empty.
pub fn accumulate_local_tables(
    device: &mut Device,
    layout: &GpuLayout,
    _plan: &ThreadPlan,
    _params: &GtadocParams,
) -> BottomUpTables {
    let n = layout.num_rules;

    // Parent pointers (accounting only; the layout is already materialised).
    device.launch(
        LaunchConfig::with_threads(n as u64),
        &mut GenRuleParentsKernel { layout },
    );

    // Bound computation.
    let mut bounds = vec![0u32; n];
    let mut cur_out = vec![0u32; n];
    let mut masks = vec![0u8; n];
    device.launch(
        LaunchConfig::with_threads(n as u64),
        &mut InitBottomUpMaskKernel {
            layout,
            masks: &mut masks,
            cur_out: &mut cur_out,
        },
    );
    let mut bound_rounds = 0u32;
    loop {
        let mut stop_flag = true;
        let mut next_masks = masks.clone();
        device.launch(
            LaunchConfig::with_threads(n as u64),
            &mut GenLocTblBoundKernel {
                layout,
                bounds: &mut bounds,
                cur_out: &mut cur_out,
                masks: &masks,
                next_masks: &mut next_masks,
                stop_flag: &mut stop_flag,
            },
        );
        bound_rounds += 1;
        masks = next_masks;
        if stop_flag {
            break;
        }
        if bound_rounds > n as u32 + 2 {
            panic!("bottom-up bound traversal failed to converge");
        }
    }

    // Allocate the memory pool: one local table per rule except the root.
    let requirements: Vec<u32> = (0..n)
        .map(|r| {
            if r == 0 {
                0
            } else {
                local_table::words_required(bounds[r])
            }
        })
        .collect();
    let mut pool = MemoryPool::allocate(device, &requirements);

    // Table generation.
    let mut cur_out = vec![0u32; n];
    let mut masks = vec![0u8; n];
    device.launch(
        LaunchConfig::with_threads(n as u64),
        &mut InitBottomUpMaskKernel {
            layout,
            masks: &mut masks,
            cur_out: &mut cur_out,
        },
    );
    let mut table_rounds = 0u32;
    loop {
        let mut stop_flag = true;
        let mut next_masks = masks.clone();
        {
            let (storage, regions) = pool.storage_and_regions();
            device.launch(
                LaunchConfig::with_threads(n as u64),
                &mut GenLocTblKernel {
                    layout,
                    pool_storage: storage,
                    pool_regions: regions,
                    cur_out: &mut cur_out,
                    masks: &masks,
                    next_masks: &mut next_masks,
                    stop_flag: &mut stop_flag,
                },
            );
        }
        table_rounds += 1;
        masks = next_masks;
        if stop_flag {
            break;
        }
        if table_rounds > n as u32 + 2 {
            panic!("bottom-up table traversal failed to converge");
        }
    }

    BottomUpTables {
        bounds,
        pool,
        bound_rounds,
        table_rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::layout_from_archive;
    use gpu_sim::GpuSpec;
    use sequitur::compress::{compress_corpus, CompressOptions};
    use sequitur::fxhash::FxHashMap;

    fn build(corpus: &[(String, String)]) -> (sequitur::TadocArchive, GpuLayout) {
        let archive = compress_corpus(corpus, CompressOptions::default());
        let (_dag, layout) = layout_from_archive(&archive);
        (archive, layout)
    }

    fn sample_corpus() -> Vec<(String, String)> {
        let shared = "one two three four five six seven eight nine ten ".repeat(10);
        vec![
            ("a".to_string(), format!("{shared} extra tokens here")),
            ("b".to_string(), shared.clone()),
            ("c".to_string(), format!("{shared} {shared}")),
        ]
    }

    fn run(corpus: &[(String, String)]) -> (sequitur::TadocArchive, GpuLayout, BottomUpTables) {
        let (archive, layout) = build(corpus);
        let plan = ThreadPlan::fine_grained(&layout, &GtadocParams::default());
        let mut device = Device::new(GpuSpec::tesla_v100());
        let tables = accumulate_local_tables(&mut device, &layout, &plan, &GtadocParams::default());
        (archive, layout, tables)
    }

    #[test]
    fn accumulated_tables_match_full_expansion_counts() {
        let (archive, layout, tables) = run(&sample_corpus());
        // Every non-root rule's table must equal the word counts of its full
        // expansion.
        for r in 1..layout.num_rules as u32 {
            let mut expected: FxHashMap<u32, u32> = FxHashMap::default();
            for w in archive.grammar.expand_rule_words(r) {
                *expected.entry(w).or_insert(0) += 1;
            }
            let got: FxHashMap<u32, u32> = tables.table(r as usize).collect();
            assert_eq!(got, expected, "rule {r}");
        }
    }

    #[test]
    fn bounds_are_honest_upper_bounds() {
        let (_archive, layout, tables) = run(&sample_corpus());
        for r in 1..layout.num_rules {
            let distinct = tables.table(r).count() as u32;
            assert!(
                distinct <= tables.bounds[r],
                "rule {r}: {distinct} distinct words exceeds bound {}",
                tables.bounds[r]
            );
            assert!(tables.bounds[r] as usize <= layout.vocab_size.max(1));
        }
    }

    #[test]
    fn pool_regions_do_not_overlap() {
        let (_archive, _layout, tables) = run(&sample_corpus());
        assert!(tables.pool.regions_disjoint());
    }

    #[test]
    fn rounds_are_bounded_by_dag_depth() {
        let (_archive, layout, tables) = run(&sample_corpus());
        assert!(tables.bound_rounds as usize <= layout.num_layers + 1);
        assert!(tables.table_rounds as usize <= layout.num_layers + 1);
    }

    #[test]
    fn single_file_no_shared_rules() {
        let corpus = vec![("x".to_string(), "a b c d e f g h".to_string())];
        let (archive, layout, tables) = run(&corpus);
        // With no repetition the grammar may be a single root rule; the
        // accumulation must still succeed and produce empty non-root tables.
        assert_eq!(layout.num_rules, archive.grammar.num_rules());
        assert!(tables.pool.regions_disjoint());
    }
}
