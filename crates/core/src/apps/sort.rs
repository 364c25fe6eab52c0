//! GPU *sort*: word count followed by a device ranking step.
//!
//! The ranking itself is a standard parallel sort; the simulator accounts it
//! as an `n log n` compute + full-traffic kernel while the host performs the
//! actual ordering.

use crate::layout::GpuLayout;
use crate::params::GtadocParams;
use crate::schedule::ThreadPlan;
use crate::traversal::TraversalStrategy;
use gpu_sim::{Device, Kernel, LaunchConfig, ThreadCtx};
use tadoc::results::{rank_order, CountTable};

/// Device sort kernel: functionally sorts `(word, count)` pairs by descending
/// count; each simulated thread accounts for its share of an `n log n`
/// comparison network (a bitonic sort pass structure).
struct SortPairsKernel {
    pairs: Vec<(u32, u64)>,
    sorted: bool,
}

impl Kernel for SortPairsKernel {
    fn name(&self) -> &'static str {
        "sortResultKernel"
    }
    fn thread(&mut self, ctx: &mut ThreadCtx) {
        let n = self.pairs.len().max(2) as u64;
        let log_n = 64 - (n - 1).leading_zeros() as u64;
        // Each thread handles one element through log^2(n)/2 bitonic stages.
        ctx.compute(log_n * log_n / 2 + 1);
        ctx.global_read(12 * log_n);
        ctx.global_write(12);
        if !self.sorted {
            self.pairs.sort_unstable_by(rank_order);
            self.sorted = true;
        }
    }
}

/// Runs GPU sort with the chosen traversal strategy.
pub fn run(
    device: &mut Device,
    layout: &GpuLayout,
    plan: &ThreadPlan,
    params: &GtadocParams,
    strategy: TraversalStrategy,
) -> Vec<(u32, u64)> {
    let wc: CountTable = super::word_count::run(device, layout, plan, params, strategy);
    let pairs: Vec<(u32, u64)> = wc.iter().map(|(w, c)| (w[0], c)).collect();
    let mut kernel = SortPairsKernel {
        pairs,
        sorted: false,
    };
    device.launch(
        LaunchConfig {
            threads: kernel.pairs.len().max(1) as u64,
            block_size: params.block_size,
        },
        &mut kernel,
    );
    kernel.pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::layout_from_archive;
    use gpu_sim::GpuSpec;
    use sequitur::compress::{compress_corpus, CompressOptions};
    use tadoc::oracle;

    #[test]
    fn matches_oracle_with_both_strategies() {
        let corpus = vec![
            ("a".to_string(), "b b b a a c d d d d".to_string()),
            ("b".to_string(), "d d a a a c c c c c".to_string()),
            ("c".to_string(), "b b b a a c d d d d".to_string()),
        ];
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let (_dag, layout) = layout_from_archive(&archive);
        let plan = ThreadPlan::fine_grained(&layout, &GtadocParams::default());
        let expected = oracle::sort(&archive.grammar.expand_files());
        for strategy in [TraversalStrategy::TopDown, TraversalStrategy::BottomUp] {
            let mut device = Device::new(GpuSpec::rtx_2080_ti());
            let result = run(
                &mut device,
                &layout,
                &plan,
                &GtadocParams::default(),
                strategy,
            );
            assert_eq!(result, expected, "{strategy}");
        }
    }

    #[test]
    fn sort_kernel_is_recorded() {
        let corpus = vec![("a".to_string(), "x y z x y x".to_string())];
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let (_dag, layout) = layout_from_archive(&archive);
        let plan = ThreadPlan::fine_grained(&layout, &GtadocParams::default());
        let mut device = Device::new(GpuSpec::gtx_1080());
        let _ = run(
            &mut device,
            &layout,
            &plan,
            &GtadocParams::default(),
            TraversalStrategy::TopDown,
        );
        assert!(device
            .profiler()
            .kernels()
            .iter()
            .any(|k| k.name == "sortResultKernel"));
    }
}
