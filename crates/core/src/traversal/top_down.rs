//! Top-down DAG traversal — Algorithm 1 of the paper.
//!
//! The host loop launches `initTopDownMaskKernel` once, then repeatedly
//! launches `topDownKernel` until the device stop flag stays `true` (no rule
//! changed state), and finally launches a reduce kernel.  Masks gate which
//! rules are processed in each round; a rule becomes ready once every
//! non-root parent has transmitted its accumulated weight (tracked by
//! `curInEdge` versus `numInEdge`).
//!
//! Two propagations are provided:
//!
//! * [`compute_rule_weights`] — the plain rule-occurrence weights used by
//!   word count, sort, and global sequence count;
//! * [`compute_file_weights`] — per-file occurrence weights ("file
//!   information" buffers), used by the file-sensitive tasks when the
//!   selector chooses the top-down strategy.

use crate::layout::{decode_elem, DecodedElem, GpuLayout};
use crate::schedule::ThreadPlan;
use gpu_sim::{Device, Kernel, LaunchConfig, ThreadCtx};
use sequitur::fxhash::FxHashMap;

/// Result of the top-down weight propagation.
#[derive(Debug, Clone)]
pub struct TopDownWeights {
    /// Occurrences of every rule in the expanded corpus (root = 1).
    pub weights: Vec<u64>,
    /// Number of `topDownKernel` rounds (bounded by the DAG depth).
    pub rounds: u32,
}

/// `initTopDownMaskKernel`: one thread per rule initialises weights, in-edge
/// counters and masks.  Rules whose in-edges all come from the root start
/// ready, seeded with their frequency in the root.
struct InitTopDownMaskKernel<'a> {
    layout: &'a GpuLayout,
    weights: &'a mut [u64],
    cur_in: &'a mut [u32],
    masks: &'a mut [u8],
}

impl Kernel for InitTopDownMaskKernel<'_> {
    fn name(&self) -> &'static str {
        "initTopDownMaskKernel"
    }
    fn thread(&mut self, ctx: &mut ThreadCtx) {
        let r = ctx.tid as usize;
        if r >= self.layout.num_rules {
            return;
        }
        ctx.global_read(12);
        self.cur_in[r] = 0;
        if r == 0 {
            self.weights[0] = 1;
            self.masks[0] = 0;
        } else {
            self.weights[r] = self.layout.freq_in_root[r] as u64;
            self.masks[r] = u8::from(self.layout.num_in_edges_excl_root[r] == 0);
        }
        ctx.global_write(13);
        ctx.compute(4);
    }
}

/// `topDownKernel`: one thread per masked rule transmits its accumulated
/// weight to its sub-rules (Algorithm 1, lines 9–22).
struct TopDownKernel<'a> {
    layout: &'a GpuLayout,
    weights: &'a mut [u64],
    cur_in: &'a mut [u32],
    masks: &'a [u8],
    next_masks: &'a mut [u8],
    stop_flag: &'a mut bool,
}

impl Kernel for TopDownKernel<'_> {
    fn name(&self) -> &'static str {
        "topDownKernel"
    }
    fn thread(&mut self, ctx: &mut ThreadCtx) {
        let r = ctx.tid as usize + 1; // rules 1..num_rules (root excluded)
        if r >= self.layout.num_rules {
            return;
        }
        ctx.global_read(1);
        if self.masks[r] == 0 {
            return;
        }
        let w = self.weights[r];
        ctx.global_read(8);
        for (sub, freq) in self.layout.children(r as u32) {
            // atomicAdd(subRule.weight, subRuleFreq * rule.weight)
            self.weights[sub as usize] += freq as u64 * w;
            ctx.atomic_rmw(0x10_0000_0000 | sub as u64);
            // atomicAdd(subRule.curInEdge, 1)
            self.cur_in[sub as usize] += 1;
            ctx.atomic_rmw(0x20_0000_0000 | sub as u64);
            ctx.compute(4);
            if self.cur_in[sub as usize] == self.layout.num_in_edges_excl_root[sub as usize] {
                self.next_masks[sub as usize] = 1;
                *self.stop_flag = false;
                ctx.global_write(2);
            }
        }
        self.next_masks[r] = 0;
        ctx.global_write(1);
    }
}

/// Runs the complete top-down weight propagation (host side of Algorithm 1,
/// lines 1–7).
pub fn compute_rule_weights(
    device: &mut Device,
    layout: &GpuLayout,
    _plan: &ThreadPlan,
) -> TopDownWeights {
    let n = layout.num_rules;
    let mut weights = vec![0u64; n];
    let mut cur_in = vec![0u32; n];
    let mut masks = vec![0u8; n];

    device.launch(
        LaunchConfig::with_threads(n as u64),
        &mut InitTopDownMaskKernel {
            layout,
            weights: &mut weights,
            cur_in: &mut cur_in,
            masks: &mut masks,
        },
    );

    let mut rounds = 0u32;
    loop {
        let mut stop_flag = true;
        let mut next_masks = masks.clone();
        device.launch(
            LaunchConfig::with_threads(n.saturating_sub(1) as u64),
            &mut TopDownKernel {
                layout,
                weights: &mut weights,
                cur_in: &mut cur_in,
                masks: &masks,
                next_masks: &mut next_masks,
                stop_flag: &mut stop_flag,
            },
        );
        rounds += 1;
        // Any rule that was processed this round cleared its own mask; rules
        // that became ready were set in `next_masks`.
        masks = next_masks;
        if stop_flag {
            break;
        }
        if rounds > n as u32 + 2 {
            panic!("top-down traversal failed to converge (cycle in DAG?)");
        }
    }

    TopDownWeights { weights, rounds }
}

/// Result of the top-down per-file weight propagation.
#[derive(Debug, Clone)]
pub struct TopDownFileWeights {
    /// `file_weights[r]` maps file id → occurrences of rule `r` in that file.
    pub file_weights: Vec<FxHashMap<u32, u64>>,
    /// Number of traversal rounds.
    pub rounds: u32,
}

/// Seeds the per-file weights from the root segments (one thread per root
/// segment, mirroring how the root's consecutive parts are handled by
/// different threads).
struct InitFileWeightKernel<'a> {
    layout: &'a GpuLayout,
    file_weights: &'a mut [FxHashMap<u32, u64>],
    cur_in: &'a mut [u32],
    masks: &'a mut [u8],
}

impl Kernel for InitFileWeightKernel<'_> {
    fn name(&self) -> &'static str {
        "initTopDownFileInfoKernel"
    }
    fn thread(&mut self, ctx: &mut ThreadCtx) {
        let seg_idx = ctx.tid as usize;
        if seg_idx >= self.layout.root_segments.len() {
            return;
        }
        if seg_idx == 0 {
            // First thread also initialises masks and counters for all rules.
            for r in 1..self.layout.num_rules {
                self.masks[r] = u8::from(self.layout.num_in_edges_excl_root[r] == 0);
                self.cur_in[r] = 0;
            }
            ctx.global_write(self.layout.num_rules as u64);
        }
        let (start, end, file) = self.layout.root_segments[seg_idx];
        let root_elems = self.layout.elements(0);
        for raw in &root_elems[start as usize..end as usize] {
            ctx.global_read(4);
            if let DecodedElem::Rule(c) = decode_elem(*raw) {
                *self.file_weights[c as usize].entry(file).or_insert(0) += 1;
                ctx.atomic_rmw(0x30_0000_0000 | c as u64);
            }
        }
    }
}

/// One round of top-down file-information propagation: each masked rule
/// transmits its per-file buffer to its sub-rules.
struct FileWeightKernel<'a> {
    layout: &'a GpuLayout,
    file_weights: &'a mut [FxHashMap<u32, u64>],
    cur_in: &'a mut [u32],
    masks: &'a [u8],
    next_masks: &'a mut [u8],
    stop_flag: &'a mut bool,
}

impl Kernel for FileWeightKernel<'_> {
    fn name(&self) -> &'static str {
        "topDownFileInfoKernel"
    }
    fn thread(&mut self, ctx: &mut ThreadCtx) {
        let r = ctx.tid as usize + 1;
        if r >= self.layout.num_rules {
            return;
        }
        ctx.global_read(1);
        if self.masks[r] == 0 {
            return;
        }
        let own: Vec<(u32, u64)> = self.file_weights[r].iter().map(|(&f, &c)| (f, c)).collect();
        ctx.global_read(own.len() as u64 * 12);
        for (sub, freq) in self.layout.children(r as u32) {
            for &(f, c) in &own {
                *self.file_weights[sub as usize].entry(f).or_insert(0) += c * freq as u64;
                ctx.atomic_rmw(0x40_0000_0000 | ((sub as u64) << 20) | f as u64);
                ctx.compute(3);
            }
            self.cur_in[sub as usize] += 1;
            ctx.atomic_rmw(0x20_0000_0000 | sub as u64);
            if self.cur_in[sub as usize] == self.layout.num_in_edges_excl_root[sub as usize] {
                self.next_masks[sub as usize] = 1;
                *self.stop_flag = false;
                ctx.global_write(2);
            }
        }
        self.next_masks[r] = 0;
        ctx.global_write(1);
    }
}

/// Runs the top-down per-file weight propagation.
pub fn compute_file_weights(
    device: &mut Device,
    layout: &GpuLayout,
    _plan: &ThreadPlan,
) -> TopDownFileWeights {
    let n = layout.num_rules;
    let mut file_weights: Vec<FxHashMap<u32, u64>> = vec![FxHashMap::default(); n];
    let mut cur_in = vec![0u32; n];
    let mut masks = vec![0u8; n];

    device.launch(
        LaunchConfig::with_threads(layout.root_segments.len() as u64),
        &mut InitFileWeightKernel {
            layout,
            file_weights: &mut file_weights,
            cur_in: &mut cur_in,
            masks: &mut masks,
        },
    );

    let mut rounds = 0u32;
    loop {
        let mut stop_flag = true;
        let mut next_masks = masks.clone();
        device.launch(
            LaunchConfig::with_threads(n.saturating_sub(1) as u64),
            &mut FileWeightKernel {
                layout,
                file_weights: &mut file_weights,
                cur_in: &mut cur_in,
                masks: &masks,
                next_masks: &mut next_masks,
                stop_flag: &mut stop_flag,
            },
        );
        rounds += 1;
        masks = next_masks;
        if stop_flag {
            break;
        }
        if rounds > n as u32 + 2 {
            panic!("top-down file-weight traversal failed to converge");
        }
    }

    TopDownFileWeights {
        file_weights,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::layout_from_archive;
    use crate::params::GtadocParams;
    use gpu_sim::GpuSpec;
    use sequitur::compress::{compress_corpus, CompressOptions};
    use tadoc::timing::WorkStats;
    use tadoc::weights as cpu_weights;

    fn build(corpus: &[(String, String)]) -> (sequitur::TadocArchive, sequitur::Dag, GpuLayout) {
        let archive = compress_corpus(corpus, CompressOptions::default());
        let (dag, layout) = layout_from_archive(&archive);
        (archive, dag, layout)
    }

    fn sample_corpus() -> Vec<(String, String)> {
        let shared = "the quick brown fox jumps over the lazy dog ".repeat(12);
        vec![
            ("a".to_string(), format!("{shared} alpha beta")),
            ("b".to_string(), format!("{shared} gamma")),
            ("c".to_string(), shared.clone()),
            (
                "d".to_string(),
                "totally different words in this file".to_string(),
            ),
        ]
    }

    #[test]
    fn gpu_weights_match_cpu_weights() {
        let (_a, dag, layout) = build(&sample_corpus());
        let plan = ThreadPlan::fine_grained(&layout, &GtadocParams::default());
        let mut device = Device::new(GpuSpec::gtx_1080());
        let result = compute_rule_weights(&mut device, &layout, &plan);
        let mut work = WorkStats::default();
        let expected = cpu_weights::rule_weights(&dag, &mut work);
        assert_eq!(result.weights, expected);
        assert!(result.rounds >= 1);
        assert!(
            result.rounds as usize <= layout.num_layers + 1,
            "rounds ({}) must be bounded by DAG depth ({})",
            result.rounds,
            layout.num_layers
        );
    }

    #[test]
    fn gpu_file_weights_match_cpu_file_weights() {
        let (archive, dag, layout) = build(&sample_corpus());
        let plan = ThreadPlan::fine_grained(&layout, &GtadocParams::default());
        let mut device = Device::new(GpuSpec::tesla_v100());
        let result = compute_file_weights(&mut device, &layout, &plan);
        let mut work = WorkStats::default();
        let expected = cpu_weights::file_weights(&archive.grammar, &dag, &mut work);
        for (r, (got_fw, want_fw)) in result
            .file_weights
            .iter()
            .zip(&expected)
            .enumerate()
            .skip(1)
        {
            let got: std::collections::BTreeMap<u32, u64> =
                got_fw.iter().map(|(&f, &c)| (f, c)).collect();
            let want: std::collections::BTreeMap<u32, u64> =
                want_fw.iter().map(|(&f, &c)| (f, c)).collect();
            assert_eq!(got, want, "rule {r}");
        }
    }

    #[test]
    fn kernels_are_recorded_in_the_profiler() {
        let (_a, _dag, layout) = build(&sample_corpus());
        let plan = ThreadPlan::fine_grained(&layout, &GtadocParams::default());
        let mut device = Device::new(GpuSpec::gtx_1080());
        compute_rule_weights(&mut device, &layout, &plan);
        let names: Vec<&str> = device.profiler().kernels().iter().map(|k| k.name).collect();
        assert!(names.contains(&"initTopDownMaskKernel"));
        assert!(names.contains(&"topDownKernel"));
        assert!(device.total_time_seconds() > 0.0);
    }

    #[test]
    fn single_file_corpus_works() {
        let corpus = vec![("only".to_string(), "x y z x y z x y z x y".to_string())];
        let (_a, dag, layout) = build(&corpus);
        let plan = ThreadPlan::fine_grained(&layout, &GtadocParams::default());
        let mut device = Device::new(GpuSpec::rtx_2080_ti());
        let weights = compute_rule_weights(&mut device, &layout, &plan);
        let mut work = WorkStats::default();
        assert_eq!(weights.weights, cpu_weights::rule_weights(&dag, &mut work));
        let fw = compute_file_weights(&mut device, &layout, &plan);
        for r in 1..dag.num_rules {
            let total: u64 = fw.file_weights[r].values().sum();
            assert_eq!(total, weights.weights[r], "rule {r}");
        }
    }
}
