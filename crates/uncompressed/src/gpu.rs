//! GPU analytics on uncompressed token streams (the Section VI-E comparator).
//!
//! The kernels partition the flat token array across threads; every thread
//! scans its chunk, builds a small private table, and merges it into the
//! global result with atomic operations — the standard GPU formulation of
//! these tasks.  Because every token of every occurrence is touched, the
//! modelled time scales with the uncompressed size, unlike G-TADOC.

use gpu_sim::{Device, GpuSpec, Kernel, LaunchConfig, ThreadCtx};
use sequitur::fxhash::FxHashMap;
use sequitur::WordId;
use tadoc::apps::{Task, TaskConfig};
use tadoc::oracle;
use tadoc::results::AnalyticsOutput;

/// Modelled execution of a GPU uncompressed-analytics run.
#[derive(Debug, Clone)]
pub struct GpuUncompressedExecution {
    /// The analytics output (identical to the oracle).
    pub output: AnalyticsOutput,
    /// Modelled device seconds (kernels + transfers).
    pub seconds: f64,
    /// Number of kernel launches.
    pub kernel_launches: usize,
}

/// Tokens each simulated thread scans.
const TOKENS_PER_THREAD: usize = 256;

/// A generic scan kernel: each thread reads its chunk of the flat token
/// stream and, for every token, updates the global result table — the
/// standard formulation of these tasks on uncompressed text, in which every
/// occurrence of every word costs a hash update and an atomic (popular words
/// therefore contend, which is precisely the cost repeated-content reuse
/// avoids).
struct ScanKernel<'a> {
    tokens: &'a [WordId],
    table_ops_per_token: u64,
    atomic_span: u64,
}

impl Kernel for ScanKernel<'_> {
    fn name(&self) -> &'static str {
        "uncompressedScanKernel"
    }
    fn thread(&mut self, ctx: &mut ThreadCtx) {
        let start = ctx.tid as usize * TOKENS_PER_THREAD;
        if start >= self.tokens.len() {
            return;
        }
        let end = (start + TOKENS_PER_THREAD).min(self.tokens.len());
        let mut checksum: FxHashMap<WordId, u32> = FxHashMap::default();
        for &t in &self.tokens[start..end] {
            ctx.global_read(4);
            ctx.compute(self.table_ops_per_token);
            ctx.global_read(8); // table probe
            ctx.atomic_rmw((t as u64) % self.atomic_span.max(1));
            *checksum.entry(t).or_insert(0) += 1;
        }
        ctx.global_write(8 * checksum.len() as u64);
    }
}

/// Runs `task` on the uncompressed token streams using the GPU simulator and
/// returns the modelled execution.
pub fn run_gpu_uncompressed(
    spec: GpuSpec,
    files: &[Vec<WordId>],
    task: Task,
    cfg: TaskConfig,
) -> GpuUncompressedExecution {
    let mut device = Device::new(spec);

    // Flatten and stage the corpus (uncompressed analytics must ship the full
    // text to the device).
    let flat: Vec<WordId> = files.iter().flatten().copied().collect();
    let bytes = flat.len() as u64 * 4;
    device.transfer(gpu_sim::TransferDirection::HostToDevice, bytes);

    // Scan cost differs per task: sequence tasks hash `l`-word windows, the
    // file-sensitive tasks carry a file id alongside every update.
    let (table_ops_per_token, atomic_span) = match task {
        Task::WordCount | Task::Sort => (4, 1 << 16),
        Task::InvertedIndex | Task::TermVector => (6, 1 << 18),
        Task::SequenceCount | Task::RankedInvertedIndex => {
            (4 + 2 * cfg.sequence_length as u64, 1 << 20)
        }
    };
    let threads = flat.len().div_ceil(TOKENS_PER_THREAD);
    device.launch(
        LaunchConfig::with_threads(threads.max(1) as u64),
        &mut ScanKernel {
            tokens: &flat,
            table_ops_per_token,
            atomic_span,
        },
    );
    if matches!(task, Task::Sort) {
        // A device sort of the distinct keys.
        let distinct: usize = {
            let mut v: Vec<WordId> = flat.clone();
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        device.launch(
            LaunchConfig::with_threads(distinct.max(1) as u64),
            &mut ScanKernel {
                tokens: &flat[..distinct.min(flat.len())],
                table_ops_per_token: 8,
                atomic_span: 1,
            },
        );
    }

    // Result copy back.
    device.transfer(gpu_sim::TransferDirection::DeviceToHost, bytes / 8 + 64);

    // Functional output comes from the oracle (the kernels above model cost;
    // duplicating the full counting logic on the flat array would compute the
    // same values).
    let output = oracle::run(files, task, cfg);

    GpuUncompressedExecution {
        output,
        seconds: device.total_time_seconds(),
        kernel_launches: device.profiler().num_launches(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files() -> Vec<Vec<WordId>> {
        vec![
            (0..4000u32).map(|i| i % 37).collect(),
            (0..2000u32).map(|i| (i * 7) % 37).collect(),
        ]
    }

    #[test]
    fn outputs_match_the_oracle() {
        for task in Task::ALL {
            let exec =
                run_gpu_uncompressed(GpuSpec::gtx_1080(), &files(), task, TaskConfig::default());
            assert_eq!(exec.output.task().name(), task.name());
            assert!(exec.seconds > 0.0);
            assert!(exec.kernel_launches >= 1);
        }
    }

    #[test]
    fn more_tokens_cost_more_time() {
        let small = run_gpu_uncompressed(
            GpuSpec::gtx_1080(),
            &[(0..5_000u32).map(|i| i % 101).collect()],
            Task::WordCount,
            TaskConfig::default(),
        );
        let large = run_gpu_uncompressed(
            GpuSpec::gtx_1080(),
            &[(0..200_000u32).map(|i| i % 101).collect()],
            Task::WordCount,
            TaskConfig::default(),
        );
        assert!(large.seconds > small.seconds);
    }

    #[test]
    fn faster_gpu_is_not_slower() {
        let corpus = files();
        let pascal = run_gpu_uncompressed(
            GpuSpec::gtx_1080(),
            &corpus,
            Task::SequenceCount,
            TaskConfig::default(),
        );
        let volta = run_gpu_uncompressed(
            GpuSpec::tesla_v100(),
            &corpus,
            Task::SequenceCount,
            TaskConfig::default(),
        );
        assert!(volta.seconds <= pascal.seconds * 1.05);
    }
}
