//! Experiment implementations: one function per table/figure of the paper.

use datagen::{DatasetId, DatasetPreset, GeneratedCorpus};
use gpu_sim::GpuSpec;
use gtadoc::engine::{GpuExecution, GtadocEngine};
use gtadoc::layout::GpuLayout;
use gtadoc::params::GtadocParams;
use gtadoc::schedule::{vertical_partition_estimate, ThreadPlan};
use gtadoc::traversal::TraversalStrategy;
use sequitur::{ArchiveStats, Dag, TadocArchive};
use tadoc::apps::{run_task, Task, TaskConfig};
use tadoc::cost::{ClusterSpec, CpuSpec};
use uncompressed::gpu::run_gpu_uncompressed;

/// Scale factor applied to every dataset preset (1.0 = the default
/// reproduction size of `datagen::DatasetPreset::generate`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale(pub f64);

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale(0.3)
    }
}

/// One evaluation platform of Table I: a GPU and its host CPU.
#[derive(Debug, Clone)]
pub struct Platform {
    /// GPU specification.
    pub gpu: GpuSpec,
    /// Host CPU specification (runs the TADOC baseline).
    pub cpu: CpuSpec,
}

impl Platform {
    /// The three platforms of Table I in paper order.
    pub fn all() -> Vec<Platform> {
        vec![
            Platform {
                gpu: GpuSpec::gtx_1080(),
                cpu: CpuSpec::i7_7700k(),
            },
            Platform {
                gpu: GpuSpec::tesla_v100(),
                cpu: CpuSpec::e5_2670(),
            },
            Platform {
                gpu: GpuSpec::rtx_2080_ti(),
                cpu: CpuSpec::i9_9900k(),
            },
        ]
    }
}

/// A generated + compressed dataset, ready for both engines.
pub struct PreparedDataset {
    /// Which dataset this is.
    pub id: DatasetId,
    /// The generated corpus.
    pub corpus: GeneratedCorpus,
    /// The TADOC archive.
    pub archive: TadocArchive,
    /// Rule DAG.
    pub dag: Dag,
    /// Device layout.
    pub layout: GpuLayout,
    /// Archive statistics (Table II row).
    pub stats: ArchiveStats,
}

/// Generates and compresses dataset `id` at `scale`.
pub fn prepare_dataset(id: DatasetId, scale: ExperimentScale) -> PreparedDataset {
    let corpus = DatasetPreset::new(id).generate_scaled(scale.0);
    let archive = corpus.compress();
    let dag = Dag::from_grammar(&archive.grammar);
    let layout = GpuLayout::build(&archive, &dag);
    let stats = ArchiveStats::compute_with_dag(&archive, &dag);
    PreparedDataset {
        id,
        corpus,
        archive,
        dag,
        layout,
        stats,
    }
}

/// Result of one (platform, dataset, task) cell of Figure 9 / Figure 10.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Dataset label.
    pub dataset: DatasetId,
    /// Task name.
    pub task: Task,
    /// GPU architecture name.
    pub platform: &'static str,
    /// Modelled TADOC (CPU baseline) initialization seconds.
    pub cpu_init_s: f64,
    /// Modelled TADOC traversal seconds.
    pub cpu_traversal_s: f64,
    /// Modelled G-TADOC initialization seconds.
    pub gpu_init_s: f64,
    /// Modelled G-TADOC traversal seconds.
    pub gpu_traversal_s: f64,
    /// Whether the CPU baseline is the 10-node cluster (dataset C).
    pub cpu_is_cluster: bool,
    /// Traversal strategy G-TADOC selected.
    pub strategy: TraversalStrategy,
}

impl CellResult {
    /// Total CPU baseline seconds.
    pub fn cpu_total_s(&self) -> f64 {
        self.cpu_init_s + self.cpu_traversal_s
    }
    /// Total G-TADOC seconds.
    pub fn gpu_total_s(&self) -> f64 {
        self.gpu_init_s + self.gpu_traversal_s
    }
    /// End-to-end speedup (Figure 9).
    pub fn speedup(&self) -> f64 {
        self.cpu_total_s() / self.gpu_total_s()
    }
    /// Initialization-phase speedup (Figure 10 (a)).
    pub fn init_speedup(&self) -> f64 {
        self.cpu_init_s / self.gpu_init_s
    }
    /// Traversal-phase speedup (Figure 10 (b)).
    pub fn traversal_speedup(&self) -> f64 {
        self.cpu_traversal_s / self.gpu_traversal_s
    }
}

/// Runs one cell: TADOC on the platform's CPU (or the 10-node cluster for the
/// large dataset) versus G-TADOC on the platform's GPU.
pub fn run_cell(prepared: &PreparedDataset, task: Task, platform: &Platform) -> CellResult {
    let cfg = TaskConfig::default();

    // --- CPU baseline (state-of-the-art TADOC) ---------------------------
    let cpu_exec = run_task(&prepared.archive, &prepared.dag, task, cfg);
    let is_cluster = prepared.id.is_large();
    // TADOC's initialization phase prepares the per-rule data structures
    // (local word tables, parent lists, traversal metadata) from the loaded
    // compressed data; this reproduction pre-builds them once per dataset, so
    // that preparation work is accounted back into the baseline's phase 1
    // here to keep the phase attribution comparable with G-TADOC's.
    let mut cpu_init_work = cpu_exec.timings.init_work;
    cpu_init_work.merge(&tadoc::timing::WorkStats {
        elements_scanned: prepared.stats.compressed_elements as u64,
        table_ops: prepared.stats.num_rules as u64 * 2
            + prepared.dag.local_words_csr().data().len() as u64,
        bytes_moved: prepared.stats.compressed_elements as u64 * 8,
        ..Default::default()
    });
    let (cpu_init_s, cpu_traversal_s) = if is_cluster {
        let cluster = ClusterSpec::ec2_10_node();
        (
            cluster.estimate_seconds(&cpu_init_work),
            cluster.estimate_seconds(&cpu_exec.timings.traversal_work),
        )
    } else {
        (
            platform.cpu.estimate_seconds(&cpu_init_work, 1),
            platform
                .cpu
                .estimate_seconds(&cpu_exec.timings.traversal_work, 1),
        )
    };

    // --- G-TADOC on the simulated GPU -------------------------------------
    let params = GtadocParams {
        requires_pcie_transfer: prepared.id.is_large(),
        ..Default::default()
    };
    let mut engine = GtadocEngine::with_params(platform.gpu.clone(), params);
    let gpu: GpuExecution = engine.run_layout(&prepared.layout, task, None);
    assert_eq!(
        gpu.output,
        *cpu_exec.output,
        "G-TADOC and TADOC must agree on {} / dataset {}",
        task.name(),
        prepared.id.label()
    );

    CellResult {
        dataset: prepared.id,
        task,
        platform: platform.gpu.architecture,
        cpu_init_s,
        cpu_traversal_s,
        gpu_init_s: gpu.init_seconds,
        gpu_traversal_s: gpu.traversal_seconds,
        cpu_is_cluster: is_cluster,
        strategy: gpu.strategy,
    }
}

/// Runs the full (platform × dataset × task) grid used by Figures 9 and 10.
pub fn run_grid(scale: ExperimentScale) -> Vec<CellResult> {
    let platforms = Platform::all();
    let mut cells = Vec::new();
    for id in DatasetId::ALL {
        let prepared = prepare_dataset(id, scale);
        for platform in &platforms {
            for task in Task::ALL {
                cells.push(run_cell(&prepared, task, platform));
            }
        }
    }
    cells
}

// ---------------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------------

/// Renders Table I (platform configuration).
pub fn table1() -> String {
    let mut out = String::new();
    out.push_str("TABLE I: PLATFORM CONFIGURATION\n");
    out.push_str("platform      GPU                   GPU memory   CPU                   role\n");
    for p in Platform::all() {
        out.push_str(&format!(
            "{:<13} {:<21} {:<12} {:<21} GPU runs G-TADOC, CPU runs TADOC\n",
            p.gpu.architecture, p.gpu.name, p.gpu.memory_type, p.cpu.name
        ));
    }
    let cluster = ClusterSpec::ec2_10_node();
    out.push_str(&format!(
        "{:<13} {:<21} {:<12} {:<21} TADOC baseline for the large dataset C\n",
        "10-node", cluster.name, "DDR3", cluster.node_cpu.name
    ));
    out
}

// ---------------------------------------------------------------------------
// Table II
// ---------------------------------------------------------------------------

/// Renders Table II (dataset statistics) for the generated datasets.
pub fn table2(scale: ExperimentScale) -> String {
    let mut out = String::new();
    out.push_str("TABLE II: DATASETS (generated at the configured scale)\n");
    out.push_str(
        "dataset  size(bytes)   file #   rule #    vocabulary   tokens      space saved\n",
    );
    for id in DatasetId::ALL {
        let prepared = prepare_dataset(id, scale);
        let s = &prepared.stats;
        out.push_str(&format!(
            "{:<8} {:<13} {:<8} {:<9} {:<12} {:<11} {:.1}%\n",
            id.label(),
            prepared.corpus.approx_bytes(),
            s.num_files,
            s.num_rules,
            s.vocabulary_size,
            s.total_tokens,
            s.space_saving() * 100.0
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 9 / Figure 10
// ---------------------------------------------------------------------------

/// Renders Figure 9 (end-to-end speedups of G-TADOC over TADOC, per platform,
/// dataset and task) from a precomputed grid.
pub fn fig9_from_cells(cells: &[CellResult]) -> String {
    let mut out = String::new();
    out.push_str("FIGURE 9: G-TADOC speedup over TADOC (end to end)\n");
    for platform in ["Pascal", "Volta", "Turing"] {
        out.push_str(&format!("\n({}) platform\n", platform));
        out.push_str("dataset  ");
        for task in Task::ALL {
            out.push_str(&format!("{:>21}", task.name()));
        }
        out.push('\n');
        for id in DatasetId::ALL {
            out.push_str(&format!("{:<9}", id.label()));
            for task in Task::ALL {
                let cell = cells
                    .iter()
                    .find(|c| c.platform == platform && c.dataset == id && c.task == task);
                match cell {
                    Some(c) => out.push_str(&format!("{:>20.1}x", c.speedup())),
                    None => out.push_str(&format!("{:>21}", "-")),
                }
            }
            out.push('\n');
        }
    }
    out.push('\n');
    out.push_str(&summary_from_cells(cells));
    out
}

/// Runs the grid and renders Figure 9.
pub fn fig9(scale: ExperimentScale) -> String {
    fig9_from_cells(&run_grid(scale))
}

/// Renders Figure 10 (phase-separated speedups) from a precomputed grid.
pub fn fig10_from_cells(cells: &[CellResult]) -> String {
    let mut out = String::new();
    for (title, f) in [
        (
            "FIGURE 10 (a): Phase 1 (initialization) speedups",
            CellResult::init_speedup as fn(&CellResult) -> f64,
        ),
        (
            "FIGURE 10 (b): Phase 2 (traversal) speedups",
            CellResult::traversal_speedup as fn(&CellResult) -> f64,
        ),
    ] {
        out.push_str(title);
        out.push('\n');
        out.push_str("dataset  ");
        for task in Task::ALL {
            out.push_str(&format!("{:>21}", task.name()));
        }
        out.push('\n');
        for id in DatasetId::ALL {
            out.push_str(&format!("{:<9}", id.label()));
            for task in Task::ALL {
                let avg = average(
                    cells
                        .iter()
                        .filter(|c| c.dataset == id && c.task == task)
                        .map(f),
                );
                out.push_str(&format!("{:>20.1}x", avg));
            }
            out.push('\n');
        }
        let overall = average(cells.iter().map(f));
        out.push_str(&format!("average: {:.1}x\n\n", overall));
    }
    out
}

/// Runs the grid and renders Figure 10.
pub fn fig10(scale: ExperimentScale) -> String {
    fig10_from_cells(&run_grid(scale))
}

/// Renders the Section VI-B headline aggregates from a precomputed grid.
pub fn summary_from_cells(cells: &[CellResult]) -> String {
    let overall = average(cells.iter().map(CellResult::speedup));
    let single_node = average(
        cells
            .iter()
            .filter(|c| !c.cpu_is_cluster)
            .map(CellResult::speedup),
    );
    let cluster = average(
        cells
            .iter()
            .filter(|c| c.cpu_is_cluster)
            .map(CellResult::speedup),
    );
    let seq_count = average(
        cells
            .iter()
            .filter(|c| c.task == Task::SequenceCount)
            .map(CellResult::speedup),
    );
    let ranked = average(
        cells
            .iter()
            .filter(|c| c.task == Task::RankedInvertedIndex)
            .map(CellResult::speedup),
    );
    let init = average(cells.iter().map(CellResult::init_speedup));
    let traversal = average(cells.iter().map(CellResult::traversal_speedup));
    format!(
        "SUMMARY (Section VI-B headline numbers; paper values in parentheses)\n\
         overall average speedup          : {overall:.1}x   (paper: 31.1x)\n\
         single-node datasets (A,B,D,E)   : {single_node:.1}x   (paper: 57.5x)\n\
         large dataset C vs 10-node spark : {cluster:.1}x   (paper: 2.7x)\n\
         sequenceCount average            : {seq_count:.1}x   (paper: 111.3x)\n\
         rankedInvertedIndex average      : {ranked:.1}x   (paper: 112.0x)\n\
         phase 1 (initialization) average : {init:.1}x   (paper: 9.5x)\n\
         phase 2 (traversal) average      : {traversal:.1}x   (paper: 64.1x)\n"
    )
}

/// Runs the grid and renders the summary.
pub fn summary(scale: ExperimentScale) -> String {
    summary_from_cells(&run_grid(scale))
}

fn average<I: Iterator<Item = f64>>(iter: I) -> f64 {
    let values: Vec<f64> = iter.filter(|v| v.is_finite()).collect();
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

// ---------------------------------------------------------------------------
// §VI-C: top-down vs bottom-up
// ---------------------------------------------------------------------------

/// Renders the Section VI-C traversal-strategy comparison: term vector on
/// datasets A and B with both traversals forced.
pub fn traversal_comparison(scale: ExperimentScale) -> String {
    let mut out = String::new();
    out.push_str("SECTION VI-C: top-down vs bottom-up traversal (term vector, Volta)\n");
    out.push_str("dataset   top-down (s)   bottom-up (s)   better       selector picks\n");
    for id in [DatasetId::A, DatasetId::B] {
        let prepared = prepare_dataset(id, scale);
        let mut engine = GtadocEngine::new(GpuSpec::tesla_v100());
        let td = engine.run_layout(
            &prepared.layout,
            Task::TermVector,
            Some(TraversalStrategy::TopDown),
        );
        let bu = engine.run_layout(
            &prepared.layout,
            Task::TermVector,
            Some(TraversalStrategy::BottomUp),
        );
        assert_eq!(td.output, bu.output);
        let auto = gtadoc::traversal::selector::select(Task::TermVector, &prepared.layout);
        let better = if td.total_seconds() <= bu.total_seconds() {
            "top-down"
        } else {
            "bottom-up"
        };
        out.push_str(&format!(
            "{:<9} {:<14.6} {:<15.6} {:<12} {}\n",
            id.label(),
            td.total_seconds(),
            bu.total_seconds(),
            better,
            auto
        ));
    }
    out.push_str(
        "(paper: dataset A favours bottom-up — 1.56 s vs 14.04 s; dataset B favours top-down — 0.11 s vs 0.43 s)\n",
    );
    out
}

// ---------------------------------------------------------------------------
// §VI-E: comparison with GPU-accelerated uncompressed analytics
// ---------------------------------------------------------------------------

/// Renders the Section VI-E comparison: G-TADOC against GPU analytics on the
/// uncompressed data, per task, on dataset B / Volta.
pub fn uncompressed_comparison(scale: ExperimentScale) -> String {
    let prepared = prepare_dataset(DatasetId::B, scale);
    let cfg = TaskConfig::default();
    let mut out = String::new();
    out.push_str(
        "SECTION VI-E: G-TADOC vs GPU-accelerated uncompressed analytics (dataset B, Volta)\n",
    );
    out.push_str("task                    G-TADOC (s)    GPU uncompressed (s)   speedup\n");
    let mut speedups = Vec::new();
    for task in Task::ALL {
        let mut engine = GtadocEngine::new(GpuSpec::tesla_v100());
        let gpu = engine.run_layout(&prepared.layout, task, None);
        let unc = run_gpu_uncompressed(GpuSpec::tesla_v100(), &prepared.corpus.files, task, cfg);
        assert_eq!(gpu.output, unc.output);
        let speedup = unc.seconds / gpu.total_seconds();
        speedups.push(speedup);
        out.push_str(&format!(
            "{:<23} {:<14.6} {:<22.6} {:.2}x\n",
            task.name(),
            gpu.total_seconds(),
            unc.seconds,
            speedup
        ));
    }
    out.push_str(&format!(
        "average: {:.2}x   (paper: ~2x)\n",
        average(speedups.into_iter())
    ));
    out
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

/// Renders the design-choice ablations of Section IV:
///
/// * fine-grained thread scheduling vs the rejected vertical partitioning;
/// * per-rule reuse (head/tail sequence support) vs re-scanning every
///   occurrence (what the CPU baseline effectively does);
/// * thread-group load balancing (imbalance factor with and without the 16×
///   threshold).
pub fn ablation(scale: ExperimentScale) -> String {
    let prepared = prepare_dataset(DatasetId::B, scale);
    let layout = &prepared.layout;
    let mut out = String::new();
    out.push_str("ABLATIONS (dataset B)\n");

    // 1. Vertical partitioning redundancy (Figure 4 (a) vs (b)).
    for parts in [4usize, 16, 64] {
        let est = vertical_partition_estimate(layout, parts);
        out.push_str(&format!(
            "vertical partitioning with {parts:>3} slices scans {:>12} elements \
             ({:.2}x the fine-grained design's {})\n",
            est.scanned_elements, est.redundancy, est.fine_grained_elements
        ));
    }

    // 2. Thread-group load balance.
    let fine = ThreadPlan::fine_grained(layout, &GtadocParams::default());
    let coarse = ThreadPlan::fine_grained(
        layout,
        &GtadocParams {
            large_rule_threshold: f64::INFINITY,
            ..Default::default()
        },
    );
    out.push_str(&format!(
        "load imbalance: one-thread-per-rule = {:.1}x, with 16x-threshold thread groups = {:.1}x\n",
        coarse.imbalance(layout),
        fine.imbalance(layout)
    ));

    // 3. Sequence reuse: compressed-domain windows processed once vs windows
    //    of every occurrence (what a re-scanning design pays).
    let total_tokens: u64 = prepared.corpus.files.iter().map(|f| f.len() as u64).sum();
    let windows_rescan = total_tokens.saturating_sub(2 * prepared.corpus.files.len() as u64);
    let windows_reused: u64 = layout.elem_data.len() as u64 * 3;
    out.push_str(&format!(
        "sequence support: head/tail design inspects ~{windows_reused} compressed-domain windows \
         versus ~{windows_rescan} expanded windows without reuse ({:.1}x reduction)\n",
        windows_rescan as f64 / windows_reused.max(1) as f64
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_SCALE: ExperimentScale = ExperimentScale(0.015);

    #[test]
    fn prepare_dataset_builds_consistent_artifacts() {
        let prepared = prepare_dataset(DatasetId::D, TEST_SCALE);
        assert_eq!(
            prepared.archive.grammar.expand_files(),
            prepared.corpus.files
        );
        assert_eq!(prepared.layout.num_rules, prepared.dag.num_rules);
        assert!(prepared.stats.num_rules > 0);
    }

    #[test]
    fn cell_speedups_are_positive_and_consistent() {
        let prepared = prepare_dataset(DatasetId::D, TEST_SCALE);
        let platform = &Platform::all()[0];
        let cell = run_cell(&prepared, Task::WordCount, platform);
        assert!(cell.cpu_total_s() > 0.0);
        assert!(cell.gpu_total_s() > 0.0);
        assert!(cell.speedup() > 0.0);
        assert!((cell.speedup() - cell.cpu_total_s() / cell.gpu_total_s()).abs() < 1e-12);
    }

    #[test]
    fn gtadoc_outperforms_tadoc_on_redundant_data() {
        // The headline claim of the paper, at reduced scale: G-TADOC should be
        // faster than the CPU baseline on every task for dataset B.
        let prepared = prepare_dataset(DatasetId::B, ExperimentScale(0.15));
        let platform = &Platform::all()[1]; // Volta
        for task in Task::ALL {
            let cell = run_cell(&prepared, task, platform);
            assert!(
                cell.speedup() > 1.0,
                "task {} speedup {:.2} should exceed 1",
                task.name(),
                cell.speedup()
            );
        }
    }

    #[test]
    fn sequence_tasks_speed_up_more_than_word_count() {
        let prepared = prepare_dataset(DatasetId::B, ExperimentScale(0.15));
        let platform = &Platform::all()[0];
        let wc = run_cell(&prepared, Task::WordCount, platform);
        let sc = run_cell(&prepared, Task::SequenceCount, platform);
        assert!(
            sc.speedup() > wc.speedup(),
            "sequenceCount ({:.1}x) should benefit more than wordCount ({:.1}x)\n\
             wc: cpu {:.6}/{:.6}s gpu {:.6}/{:.6}s\n\
             sc: cpu {:.6}/{:.6}s gpu {:.6}/{:.6}s",
            sc.speedup(),
            wc.speedup(),
            wc.cpu_init_s,
            wc.cpu_traversal_s,
            wc.gpu_init_s,
            wc.gpu_traversal_s,
            sc.cpu_init_s,
            sc.cpu_traversal_s,
            sc.gpu_init_s,
            sc.gpu_traversal_s
        );
    }

    #[test]
    fn tables_render() {
        let t1 = table1();
        assert!(t1.contains("GTX 1080"));
        assert!(t1.contains("V100"));
        let t2 = table2(TEST_SCALE);
        for id in DatasetId::ALL {
            assert!(
                t2.contains(&format!("\n{} ", id.label()))
                    || t2.contains(&format!("{} ", id.label()))
            );
        }
    }

    #[test]
    fn ablation_and_traversal_reports_render() {
        let a = ablation(TEST_SCALE);
        assert!(a.contains("vertical partitioning"));
        assert!(a.contains("load imbalance"));
        let t = traversal_comparison(TEST_SCALE);
        assert!(t.contains("top-down"));
        assert!(t.contains("bottom-up"));
    }
}
