//! The G-TADOC engine: phase orchestration, strategy selection, and modelled
//! GPU timing (Figure 3).
//!
//! A [`GtadocEngine`] owns one simulated [`Device`].  For every task it
//! (optionally) stages the compressed data over PCIe, runs the initialization
//! kernels, runs the traversal kernels, copies the result back, and splits the
//! modelled device time into the two phases the paper reports in Figure 10 —
//! attribution is by kernel identity, so the split is exact regardless of how
//! many rounds each traversal needed.

use crate::apps;
use crate::layout::GpuLayout;
use crate::params::GtadocParams;
use crate::schedule::ThreadPlan;
use crate::traversal::{selector, TraversalStrategy};
use gpu_sim::{Device, GpuSpec, TransferDirection};
use sequitur::{Dag, TadocArchive};
use std::time::{Duration, Instant};
use tadoc::results::AnalyticsOutput;
use tadoc::Task;

/// Kernels that belong to the initialization phase (data-structure
/// preparation and light-weight scanning).
const INIT_KERNELS: &[&str] = &[
    "initTopDownMaskKernel",
    "initTopDownFileInfoKernel",
    "genRuleParentsKernel",
    "initBottomUpMaskKernel",
    "genLocTblBoundKernel",
    "initHeadTailKernel",
];

/// Result of one G-TADOC task execution.
#[derive(Debug, Clone)]
pub struct GpuExecution {
    /// The task that was executed.
    pub task: Task,
    /// The analytics output (identical to the CPU baseline's output).
    pub output: AnalyticsOutput,
    /// The traversal strategy that was used.
    pub strategy: TraversalStrategy,
    /// Modelled device time of the initialization phase (seconds), including
    /// host→device staging when enabled.
    pub init_seconds: f64,
    /// Modelled device time of the graph-traversal phase (seconds), including
    /// the device→host result copy.
    pub traversal_seconds: f64,
    /// Modelled PCIe transfer time included above (seconds).
    pub transfer_seconds: f64,
    /// Number of kernel launches issued.
    pub kernel_launches: usize,
    /// Total atomic operations issued by all kernels.
    pub atomic_ops: u64,
    /// Host wall-clock spent simulating this execution.
    pub wall: Duration,
}

impl GpuExecution {
    /// Total modelled execution time (both phases).
    pub fn total_seconds(&self) -> f64 {
        self.init_seconds + self.traversal_seconds
    }
}

/// The G-TADOC execution engine.
#[derive(Debug)]
pub struct GtadocEngine {
    device: Device,
    params: GtadocParams,
}

impl GtadocEngine {
    /// Creates an engine for `spec` with default parameters.
    pub fn new(spec: GpuSpec) -> Self {
        Self::with_params(spec, GtadocParams::default())
    }

    /// Creates an engine with explicit parameters.
    pub fn with_params(spec: GpuSpec, params: GtadocParams) -> Self {
        Self {
            device: Device::new(spec),
            params,
        }
    }

    /// The underlying simulated device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The engine parameters.
    pub fn params(&self) -> &GtadocParams {
        &self.params
    }

    /// Runs `task` on `archive`, building the DAG and device layout first and
    /// letting the selector pick the traversal strategy.
    pub fn run_archive(&mut self, archive: &TadocArchive, task: Task) -> GpuExecution {
        let dag = Dag::from_grammar(&archive.grammar);
        let layout = GpuLayout::build(archive, &dag);
        self.run_layout(&layout, task, None)
    }

    /// Runs `task` on a prebuilt layout, optionally forcing a traversal
    /// strategy (used by the §VI-C experiment).
    pub fn run_layout(
        &mut self,
        layout: &GpuLayout,
        task: Task,
        strategy: Option<TraversalStrategy>,
    ) -> GpuExecution {
        let wall_start = Instant::now();
        self.device.reset_profiler();

        let strategy = strategy.unwrap_or_else(|| selector::select(task, layout));
        let plan = ThreadPlan::fine_grained(layout, &self.params);

        // Stage the compressed data onto the device when required (the paper
        // assumes small datasets are resident; large datasets pay PCIe costs).
        let mut transfer_seconds = 0.0;
        if self.params.requires_pcie_transfer {
            transfer_seconds += self
                .device
                .transfer(TransferDirection::HostToDevice, layout.device_bytes());
        }

        let output = match task {
            Task::WordCount => AnalyticsOutput::WordCount(apps::word_count::run(
                &mut self.device,
                layout,
                &plan,
                &self.params,
                strategy,
            )),
            Task::Sort => AnalyticsOutput::Sort(apps::sort::run(
                &mut self.device,
                layout,
                &plan,
                &self.params,
                strategy,
            )),
            Task::InvertedIndex => AnalyticsOutput::InvertedIndex(apps::inverted_index::run(
                &mut self.device,
                layout,
                &plan,
                &self.params,
                strategy,
            )),
            Task::TermVector => AnalyticsOutput::TermVector(apps::term_vector::run(
                &mut self.device,
                layout,
                &plan,
                &self.params,
                strategy,
            )),
            Task::SequenceCount => AnalyticsOutput::SequenceCount(apps::sequence_count::run(
                &mut self.device,
                layout,
                &plan,
                &self.params,
            )),
            Task::RankedInvertedIndex => AnalyticsOutput::RankedInvertedIndex(
                apps::ranked_inverted_index::run(&mut self.device, layout, &plan, &self.params),
            ),
        };

        // Copy the result back to the host.
        let result_bytes = estimate_output_bytes(&output);
        let d2h = self
            .device
            .transfer(TransferDirection::DeviceToHost, result_bytes);
        transfer_seconds += d2h;

        // Split modelled time into phases by kernel identity.
        let mut init_seconds = 0.0;
        let mut traversal_seconds = 0.0;
        let mut atomic_ops = 0u64;
        for record in self.device.profiler().kernels() {
            atomic_ops += record.stats.atomic_ops;
            if INIT_KERNELS.contains(&record.name) {
                init_seconds += record.stats.time_seconds;
            } else {
                traversal_seconds += record.stats.time_seconds;
            }
        }
        // Input staging belongs to initialization, the result copy to traversal.
        init_seconds += transfer_seconds - d2h;
        traversal_seconds += d2h;

        GpuExecution {
            task,
            output,
            strategy,
            init_seconds,
            traversal_seconds,
            transfer_seconds,
            kernel_launches: self.device.profiler().num_launches(),
            atomic_ops,
            wall: wall_start.elapsed(),
        }
    }
}

/// Size in bytes of an analytics output when copied back to the host: its
/// columns' heap bytes, at least one 64-byte transfer.
fn estimate_output_bytes(output: &AnalyticsOutput) -> u64 {
    (output.heap_bytes() as u64).max(64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequitur::compress::{compress_corpus, CompressOptions};
    use tadoc::apps::{run_task, TaskConfig};

    fn sample_archive() -> TadocArchive {
        let shared = "data analytics directly on compressed data saves time and space ".repeat(10);
        let corpus: Vec<(String, String)> = (0..6)
            .map(|i| (format!("doc{i}"), format!("{shared} document number {i}")))
            .collect();
        compress_corpus(&corpus, CompressOptions::default())
    }

    #[test]
    fn every_task_matches_the_cpu_baseline() {
        let archive = sample_archive();
        let dag = Dag::from_grammar(&archive.grammar);
        let mut engine = GtadocEngine::new(GpuSpec::gtx_1080());
        for task in Task::ALL {
            let gpu = engine.run_archive(&archive, task);
            let cpu = run_task(&archive, &dag, task, TaskConfig::default());
            assert_eq!(gpu.output, *cpu.output, "task {}", task.name());
            assert!(gpu.total_seconds() > 0.0);
            assert!(gpu.kernel_launches > 0);
        }
    }

    #[test]
    fn phase_times_are_positive_and_attributed() {
        let archive = sample_archive();
        let mut engine = GtadocEngine::new(GpuSpec::tesla_v100());
        let exec = engine.run_archive(&archive, Task::SequenceCount);
        assert!(exec.init_seconds > 0.0, "head/tail init must be attributed");
        assert!(exec.traversal_seconds > 0.0);
        assert!(
            (exec.total_seconds() - (exec.init_seconds + exec.traversal_seconds)).abs() < 1e-12
        );
    }

    #[test]
    fn pcie_transfer_is_charged_when_requested() {
        let archive = sample_archive();
        let params = GtadocParams {
            requires_pcie_transfer: true,
            ..Default::default()
        };
        let mut with_transfer = GtadocEngine::with_params(GpuSpec::gtx_1080(), params);
        let mut without_transfer = GtadocEngine::new(GpuSpec::gtx_1080());
        let a = with_transfer.run_archive(&archive, Task::WordCount);
        let b = without_transfer.run_archive(&archive, Task::WordCount);
        assert!(a.transfer_seconds > b.transfer_seconds);
        assert_eq!(a.output, b.output);
    }

    #[test]
    fn forcing_a_strategy_is_respected_and_correct() {
        let archive = sample_archive();
        let dag = Dag::from_grammar(&archive.grammar);
        let layout = GpuLayout::build(&archive, &dag);
        let mut engine = GtadocEngine::new(GpuSpec::rtx_2080_ti());
        let td = engine.run_layout(&layout, Task::TermVector, Some(TraversalStrategy::TopDown));
        let bu = engine.run_layout(&layout, Task::TermVector, Some(TraversalStrategy::BottomUp));
        assert_eq!(td.strategy, TraversalStrategy::TopDown);
        assert_eq!(bu.strategy, TraversalStrategy::BottomUp);
        assert_eq!(td.output, bu.output);
    }

    #[test]
    fn volta_is_not_slower_than_pascal() {
        let archive = sample_archive();
        let mut pascal = GtadocEngine::new(GpuSpec::gtx_1080());
        let mut volta = GtadocEngine::new(GpuSpec::tesla_v100());
        let p = pascal.run_archive(&archive, Task::WordCount);
        let v = volta.run_archive(&archive, Task::WordCount);
        assert!(v.total_seconds() <= p.total_seconds() * 1.05);
    }
}
